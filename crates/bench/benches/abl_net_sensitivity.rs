//! ABL4 — declared in `hzccl_bench::figure::all` (target `abl_net_sensitivity`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("abl_net_sensitivity");
}
