//! Every collective figure and table declared in `hzccl_bench::figure::all`
//! (FIG2, FIG7–13, TAB7, EXT1–4, ABL4), rendered by
//! `hzccl_bench::figure::render`:
//! `cargo bench -p hzccl-bench --bench figures -- fig12_ar_nodes` prints one,
//! no name prints them all.

fn main() {
    hzccl_bench::figure::main();
}
