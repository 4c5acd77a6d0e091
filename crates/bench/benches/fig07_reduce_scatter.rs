//! FIG7 — Fig. 7: hZCCL vs C-Coll `Reduce_scatter` on the two RTM datasets
//! (Simulation Settings 1 and 2), both modes, across data sizes.

use datasets::App;
use hzccl_bench::{
    banner, env_usize, ranks, run_collective, scaled_rank_fields, CollOp, Kernel, Table,
};

fn main() {
    banner("FIG7", "Fig. 7 — Reduce_scatter: hZCCL vs C-Coll, RTM datasets");
    let nranks = ranks();
    let eb = 1e-4;
    let base_mb = env_usize("HZ_NODE_MSG_MB", 4);
    let sizes_mb: Vec<usize> = [1usize, 2, 4].iter().map(|k| k * base_mb).collect();

    for app in [App::SimSet1, App::SimSet2] {
        println!("--- {} ({nranks} ranks) ---", app.name());
        let table = Table::new(&[
            ("Size/rank", 10),
            ("C-Coll ST (ms)", 14),
            ("hZCCL ST (ms)", 13),
            ("ST speedup", 10),
            ("C-Coll MT (ms)", 14),
            ("hZCCL MT (ms)", 13),
            ("MT speedup", 10),
        ]);
        for &mb in &sizes_mb {
            let n = mb * (1 << 20) / 4;
            let base = app.generate(n, 0);
            let fields = scaled_rank_fields(&base, nranks);
            let t = |k: Kernel| run_collective(k, CollOp::ReduceScatter, &fields, eb).0;
            let c_st = t(Kernel::CCollSingleThread);
            let h_st = t(Kernel::HzcclSingleThread);
            let c_mt = t(Kernel::CCollMultiThread);
            let h_mt = t(Kernel::HzcclMultiThread);
            table.row(&[
                format!("{mb} MB"),
                format!("{:.3}", c_st * 1e3),
                format!("{:.3}", h_st * 1e3),
                format!("{:.2}x", c_st / h_st),
                format!("{:.3}", c_mt * 1e3),
                format!("{:.3}", h_mt * 1e3),
                format!("{:.2}x", c_mt / h_mt),
            ]);
        }
        println!();
    }
    println!("Expected shape (paper Fig. 7): hZCCL beats C-Coll in both modes");
    println!("(paper: up to 1.82x ST / 2.01x MT), improvement growing with size.");
}
