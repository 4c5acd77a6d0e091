//! FIG2 — declared in `hzccl_bench::figure::all` (target `fig02_breakdown`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig02_breakdown");
}
