//! FIG10 — declared in `hzccl_bench::figure::all` (target `fig10_rs_nodes`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig10_rs_nodes");
}
