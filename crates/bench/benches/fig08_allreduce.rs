//! FIG8 — Fig. 8: hZCCL vs C-Coll `Allreduce` on the two RTM datasets, both
//! modes, across data sizes — including the unfused-hZCCL ablation series
//! (DESIGN.md ablation 4: the Sec. III-C.2 stage fusion).

use datasets::App;
use hzccl::{Mode, Variant};
use hzccl_bench::{
    allreduce_unfused, banner, env_usize, mt_threads, net, ranks, scaled_rank_fields, timing_for,
    CollOp, Kernel, Table,
};
use netsim::SimBuilder;

fn main() {
    banner("FIG8", "Fig. 8 — Allreduce: hZCCL vs C-Coll (+ unfused ablation)");
    let nranks = ranks();
    let eb = 1e-4;
    let base_mb = env_usize("HZ_NODE_MSG_MB", 4);
    let sizes_mb: Vec<usize> = [1usize, 2, 4].iter().map(|k| k * base_mb).collect();
    let mt = mt_threads();

    for app in [App::SimSet1, App::SimSet2] {
        println!("--- {} ({nranks} ranks) ---", app.name());
        let table = Table::new(&[
            ("Size/rank", 10),
            ("C-Coll ST", 10),
            ("hZCCL ST", 10),
            ("ST spd", 8),
            ("C-Coll MT", 10),
            ("hZCCL MT", 10),
            ("MT spd", 8),
            ("hZ unfused MT", 13),
        ]);
        for &mb in &sizes_mb {
            let n = mb * (1 << 20) / 4;
            let base = app.generate(n, 0);
            let fields = scaled_rank_fields(&base, nranks);
            let t = |k: Kernel| hzccl_bench::run_collective(k, CollOp::Allreduce, &fields, eb).0;
            let c_st = t(Kernel::CCollSingleThread);
            let h_st = t(Kernel::HzcclSingleThread);
            let c_mt = t(Kernel::CCollMultiThread);
            let h_mt = t(Kernel::HzcclMultiThread);

            // unfused ablation (MT): hZCCL RS + C-Coll-style Allgather
            let mode = Mode::MultiThread(mt);
            let timing = timing_for(Variant::Hzccl, mode, &fields[0][..n.min(1 << 21)], eb);
            let cluster = SimBuilder::new(nranks).net(net()).timing(timing);
            let stats = cluster
                .run(|comm| {
                    allreduce_unfused(comm, &fields[comm.rank()], eb, mode).expect("unfused");
                })
                .expect_clean()
                .stats;
            let h_unfused = stats.makespan;

            table.row(&[
                format!("{mb} MB"),
                format!("{:.2}ms", c_st * 1e3),
                format!("{:.2}ms", h_st * 1e3),
                format!("{:.2}x", c_st / h_st),
                format!("{:.2}ms", c_mt * 1e3),
                format!("{:.2}ms", h_mt * 1e3),
                format!("{:.2}x", c_mt / h_mt),
                format!("{:.2}ms", h_unfused * 1e3),
            ]);
        }
        println!();
    }
    println!("Expected shape (paper Fig. 8): hZCCL beats C-Coll in both modes");
    println!("(paper: 1.55-1.78x ST, 2.00-2.10x MT); the fused Allreduce beats");
    println!("the unfused ablation.");
}
