//! FIG10 — Fig. 10: `Reduce_scatter` scalability across node counts
//! (2 → `HZ_MAX_RANKS`, default 512), all five artifact kernels, speedups
//! relative to the original MPI.

use datasets::App;
use hzccl_bench::{
    banner, env_usize, node_msg_elems, run_collective, scaled_rank_fields, CollOp, Kernel, Table,
};

fn main() {
    banner("FIG10", "Fig. 10 — Reduce_scatter scalability across node counts");
    let eb = 1e-4;
    let n = node_msg_elems();
    let max_ranks = env_usize("HZ_MAX_RANKS", 512);
    let mut counts = vec![];
    let mut c = 2usize;
    while c <= max_ranks {
        counts.push(c);
        c *= 4;
    }
    println!("per-rank message: {} MB, RTM (Sim. Set. 1) data\n", (n * 4) >> 20);

    let base = App::SimSet1.generate(n, 0);
    let table = Table::new(&[
        ("Nodes", 6),
        ("MPI (ms)", 10),
        ("C-Coll ST", 12),
        ("hZCCL ST", 12),
        ("C-Coll MT", 12),
        ("hZCCL MT", 12),
    ]);
    for &nranks in &counts {
        let fields = scaled_rank_fields(&base, nranks);
        let t_mpi = run_collective(Kernel::MpiOriginal, CollOp::ReduceScatter, &fields, eb).0;
        let cell = |k: Kernel| {
            let t = run_collective(k, CollOp::ReduceScatter, &fields, eb).0;
            format!("{:.2}ms {:.2}x", t * 1e3, t_mpi / t)
        };
        table.row(&[
            format!("{nranks}"),
            format!("{:.2}", t_mpi * 1e3),
            cell(Kernel::CCollSingleThread),
            cell(Kernel::HzcclSingleThread),
            cell(Kernel::CCollMultiThread),
            cell(Kernel::HzcclMultiThread),
        ]);
    }
    println!("\nExpected shape (paper Fig. 10): speedup over MPI rises with node");
    println!("count (congestion), then dips/stabilizes as shrinking chunks raise");
    println!("per-round compression latency (paper: up to 1.9x ST / 5.85x MT).");
}
