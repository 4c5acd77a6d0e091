//! FIG11 — Fig. 11: `Allreduce` against MPI and C-Coll across message sizes
//! on a fixed rank count (speedups relative to the original MPI).

use datasets::App;
use hzccl_bench::{
    banner, env_usize, ranks, run_collective, scaled_rank_fields, CollOp, Kernel, Table,
};

fn main() {
    banner("FIG11", "Fig. 11 — Allreduce vs MPI/C-Coll across data sizes");
    let nranks = ranks();
    let eb = 1e-4;
    let base_mb = env_usize("HZ_NODE_MSG_MB", 4);
    let sizes_mb: Vec<usize> = [1usize, 2, 4, 8].iter().map(|k| k * base_mb).collect();
    println!("{nranks} ranks, RTM (Sim. Set. 1) data, abs eb = {eb:.0e}\n");

    let table = Table::new(&[
        ("Size/rank", 10),
        ("MPI (ms)", 10),
        ("C-Coll ST", 12),
        ("hZCCL ST", 12),
        ("C-Coll MT", 12),
        ("hZCCL MT", 12),
    ]);
    for &mb in &sizes_mb {
        let n = mb * (1 << 20) / 4;
        let base = App::SimSet1.generate(n, 0);
        let fields = scaled_rank_fields(&base, nranks);
        let t_mpi = run_collective(Kernel::MpiOriginal, CollOp::Allreduce, &fields, eb).0;
        let cell = |k: Kernel| {
            let t = run_collective(k, CollOp::Allreduce, &fields, eb).0;
            format!("{:.2}ms {:.2}x", t * 1e3, t_mpi / t)
        };
        table.row(&[
            format!("{mb} MB"),
            format!("{:.2}", t_mpi * 1e3),
            cell(Kernel::CCollSingleThread),
            cell(Kernel::HzcclSingleThread),
            cell(Kernel::CCollMultiThread),
            cell(Kernel::HzcclMultiThread),
        ]);
    }
    println!("\nExpected shape (paper Fig. 11): hZCCL > C-Coll > MPI at every size");
    println!("(paper: up to 1.96x ST / 5.35x MT over MPI), speedup growing with size.");
}
