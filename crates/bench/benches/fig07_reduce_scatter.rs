//! FIG7 — declared in `hzccl_bench::figure::all` (target `fig07_reduce_scatter`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig07_reduce_scatter");
}
