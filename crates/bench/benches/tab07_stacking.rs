//! TAB7 — Table VII: image-stacking use case. Stacking single observations
//! into a high-resolution image is an `Allreduce` [34]; this bench reports
//! speedups over MPI and the CPR+CPT / MPI / Others breakdown for hZCCL and
//! C-Coll in both modes, plus the stacked image's PSNR/NRMSE.

use datasets::{App, Quality};
use hzccl::collectives::{self, CollectiveOpts};
use hzccl_bench::{banner, env_usize, run_collective, CollOp, Kernel, Table};

/// Per-rank observation: the shared scene plus rank-seeded sensor noise.
fn observation(base: &[f32], rank: usize) -> Vec<f32> {
    let mut h = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
    base.iter()
        .map(|&v| {
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            let noise = ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.3;
            v + noise
        })
        .collect()
}

fn main() {
    banner("TAB7", "Table VII — image stacking (Allreduce use case)");
    let nranks = env_usize("HZ_RANKS", 64);
    let side = env_usize("HZ_IMG_SIDE", 1024);
    let n = side * side;
    let eb = 1e-4;
    println!("{nranks} ranks stacking {side}x{side} images, abs eb = {eb:.0e}\n");

    let base = App::Hurricane.generate(n, 42);
    let fields: Vec<Vec<f32>> = (0..nranks).map(|r| observation(&base, r)).collect();

    let t_mpi = run_collective(Kernel::MpiOriginal, CollOp::Allreduce, &fields, eb).0;
    let table =
        Table::new(&[("Kernel", 24), ("Speedup", 8), ("CPR+CPT", 9), ("MPI", 8), ("Others", 8)]);
    for kernel in [
        Kernel::HzcclSingleThread,
        Kernel::CCollSingleThread,
        Kernel::HzcclMultiThread,
        Kernel::CCollMultiThread,
    ] {
        let (t, total) = run_collective(kernel, CollOp::Allreduce, &fields, eb);
        let (doc, mpi, other) = total.percentages();
        table.row(&[
            kernel.label().into(),
            format!("{:.2}x", t_mpi / t),
            format!("{doc:.2}%"),
            format!("{mpi:.2}%"),
            format!("{other:.2}%"),
        ]);
    }

    // accuracy of the hZCCL-stacked image vs exact float stacking
    let exact: Vec<f32> = (0..n).map(|i| fields.iter().map(|f| f[i]).sum::<f32>()).collect();
    let timing = hzccl_bench::timing_for(
        hzccl::Variant::Hzccl,
        hzccl::Mode::SingleThread,
        &fields[0][..n.min(1 << 21)],
        eb,
    );
    let cluster = netsim::SimBuilder::new(nranks).net(hzccl_bench::net()).timing(timing);
    let opts = CollectiveOpts::hz(eb);
    let outcomes = cluster
        .run(|comm| {
            collectives::allreduce(comm, &fields[comm.rank()], &opts).expect("stacking allreduce")
        })
        .expect_clean()
        .outcomes;
    let q = Quality::compare(&exact, &outcomes[0].value);
    println!("\nhZCCL stacked-image quality: PSNR = {:.2} dB, NRMSE = {:.1e}", q.psnr, q.nrmse);
    println!("(paper: PSNR 62.00, NRMSE 8.0e-4 at abs eb 1e-4)");
    println!("\nExpected shape (paper Table VII): hZCCL > C-Coll in both modes");
    println!("(paper: 1.81x/5.02x vs MPI against C-Coll's 1.45x/3.34x), with");
    println!("hZCCL's CPR+CPT share clearly below C-Coll's in MT mode.");
}
