//! FIG13 — declared in `hzccl_bench::figure::all` (target `fig13_stacking_image`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig13_stacking_image");
}
