//! FIG9 — declared in `hzccl_bench::figure::all` (target `fig09_rs_sizes`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig09_rs_sizes");
}
