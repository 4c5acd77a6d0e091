//! EXT3 — declared in `hzccl_bench::figure::all` (target `ext_autotune`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("ext_autotune");
}
