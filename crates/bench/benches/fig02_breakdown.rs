//! FIG2 — Fig. 2: cost breakdown (DPR+CPT+CPR vs MPI vs OTHER) of the
//! C-Coll-accelerated ring Allreduce in single-thread and multi-thread
//! modes, on 16 ranks — plus the hZCCL breakdowns for contrast.

use datasets::App;
use hzccl_bench::{banner, env_usize, field_elems, run_collective, CollOp, Kernel, Table};

fn main() {
    banner("FIG2", "Fig. 2 — Allreduce cost breakdown (C-Coll ST/MT), 16 ranks");
    let nranks = env_usize("HZ_RANKS", 16).max(2);
    let n = field_elems();
    let base = App::SimSet1.generate(n, 0);
    let fields = hzccl_bench::scaled_rank_fields(&base, nranks);
    let eb = 1e-4;

    let table = Table::new(&[
        ("Kernel", 24),
        ("DPR+CPT+CPR", 12),
        ("MPI", 8),
        ("OTHER", 8),
        ("makespan (ms)", 13),
    ]);
    for kernel in [
        Kernel::CCollSingleThread,
        Kernel::CCollMultiThread,
        Kernel::HzcclSingleThread,
        Kernel::HzcclMultiThread,
    ] {
        let (makespan, total) = run_collective(kernel, CollOp::Allreduce, &fields, eb);
        let (doc, mpi, other) = total.percentages();
        table.row(&[
            kernel.label().into(),
            format!("{doc:.2}%"),
            format!("{mpi:.2}%"),
            format!("{other:.2}%"),
            format!("{:.3}", makespan * 1e3),
        ]);
    }
    println!("\nExpected shape (paper Fig. 2): C-Coll ST ~78% DOC / ~22% MPI;");
    println!("C-Coll MT ~52% DOC / ~47% MPI; hZCCL shifts weight from DOC to MPI.");
}
