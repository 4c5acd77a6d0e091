//! TAB7 — declared in `hzccl_bench::figure::all` (target `tab07_stacking`), rendered
//! by `hzccl_bench::figure::render`.

fn main() {
    hzccl_bench::figure::main("tab07_stacking");
}
