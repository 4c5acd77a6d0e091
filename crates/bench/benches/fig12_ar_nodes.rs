//! FIG12 — declared in `hzccl_bench::figure::all` (target `fig12_ar_nodes`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig12_ar_nodes");
}
