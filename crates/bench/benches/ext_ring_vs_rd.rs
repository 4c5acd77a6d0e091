//! EXT2 — declared in `hzccl_bench::figure::all` (target `ext_ring_vs_rd`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("ext_ring_vs_rd");
}
