//! Every collective figure declared in `hzccl_bench::figure::all` (FIG2,
//! FIG7–13, TAB7, EXT1–4, ABL4) and every codec table of
//! `hzccl_bench::codec_tables::ALL` (TAB3, TAB5, TAB6, ABL3, PROJ):
//! `cargo bench -p hzccl-bench --bench figures -- fig12_ar_nodes` prints one,
//! no name prints them all.

fn main() {
    hzccl_bench::figure::main();
}
