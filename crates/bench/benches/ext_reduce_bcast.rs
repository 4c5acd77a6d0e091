//! EXT1 — declared in `hzccl_bench::figure::all` (target `ext_reduce_bcast`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("ext_reduce_bcast");
}
