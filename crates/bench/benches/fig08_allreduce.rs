//! FIG8 — declared in `hzccl_bench::figure::all` (target `fig08_allreduce`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("fig08_allreduce");
}
