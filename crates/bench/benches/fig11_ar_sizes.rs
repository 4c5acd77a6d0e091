//! FIG11 — declared in `hzccl_bench::figure::all` (target `fig11_ar_sizes`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig11_ar_sizes");
}
