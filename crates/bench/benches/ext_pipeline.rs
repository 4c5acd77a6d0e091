//! EXT4 — declared in `hzccl_bench::figure::all` (target `ext_pipeline`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("ext_pipeline");
}
