//! Image stacking (the paper's Sec. IV-E use case): many nodes each hold a
//! noisy observation of the same scene; stacking them into a high-SNR image
//! is an `Allreduce`. This example runs the hZCCL-accelerated stacking on a
//! simulated cluster, compares it with plain MPI, and writes both results
//! as PGM images.
//!
//! ```text
//! cargo run --release --example image_stacking
//! ```

use datasets::{save_pgm, App, Quality};
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::error_bounds::{bound, Call};
use hzccl::Mode;
use netsim::{ComputeTiming, SimBuilder, ThroughputModel};
use std::path::Path;
use tuner::{Algo, Flavor, Op, Plan};

const SIDE: usize = 512;
const RANKS: usize = 32;
const EB: f64 = 1e-4;

/// One node's observation: the shared scene plus rank-seeded sensor noise.
fn observation(scene: &[f32], rank: usize) -> Vec<f32> {
    let mut h = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
    scene
        .iter()
        .map(|&v| {
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            v + ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.4
        })
        .collect()
}

fn main() {
    let n = SIDE * SIDE;
    let scene = App::Hurricane.generate(n, 7);
    let observations: Vec<Vec<f32>> = (0..RANKS).map(|r| observation(&scene, r)).collect();

    // modeled compute timing so the virtual-time comparison is deterministic
    let timing = ComputeTiming::Modeled(ThroughputModel::new(2.0, 4.0, 20.0, 10.0, 20.0));
    let mode = Mode::MultiThread(2);
    let hz_opts = CollectiveOpts::hz(EB).with_mode(mode);

    // --- baseline: uncompressed MPI stacking
    let cluster = SimBuilder::new(RANKS).timing(timing);
    let mpi_report = cluster
        .run(|comm| {
            collectives::allreduce(comm, &observations[comm.rank()], &CollectiveOpts::mpi())
                .expect("mpi stacking")
        })
        .expect_clean();
    let (mpi_stats, mpi_image) = (mpi_report.stats, mpi_report.value(0).clone());

    // --- hZCCL-accelerated stacking
    let hz_report = cluster
        .run(|comm| {
            collectives::allreduce(comm, &observations[comm.rank()], &hz_opts)
                .expect("hzccl stacking")
        })
        .expect_clean();
    let (hz_stats, hz_image) = (hz_report.stats, hz_report.value(0).clone());

    println!("stacked {RANKS} observations of a {SIDE}x{SIDE} scene (abs eb {EB:.0e})");
    println!(
        "virtual collective time: MPI {:.3} ms, hZCCL {:.3} ms ({:.2}x speedup)",
        mpi_stats.makespan * 1e3,
        hz_stats.makespan * 1e3,
        mpi_stats.makespan / hz_stats.makespan
    );

    let q = Quality::compare(&mpi_image, &hz_image);
    println!("hZCCL vs exact stack: PSNR {:.2} dB, NRMSE {:.2e}", q.psnr, q.nrmse);
    // the stack stays within hZCCL's bound (`hzccl::error_bounds`)
    let plan = Plan::serial(Flavor::Hzccl, Algo::Ring, mode, fzlight::DEFAULT_BLOCK_LEN);
    let policy = RecoveryPolicy::FailFast;
    let call =
        Call { op: Op::Allreduce, plan, policy, degraded: 0, launched: RANKS, contributors: RANKS };
    let at = |i: usize| observations.iter().map(|o| f64::from(o[i]).abs()).sum::<f64>();
    let (quantization, representation) = bound(&call, EB, (0..n).map(at).fold(0.0, f64::max));
    assert!(q.max_abs_err <= quantization + representation, "stacking must stay error-bounded");

    let dir = Path::new("target/image_stacking");
    std::fs::create_dir_all(dir).expect("mkdir");
    save_pgm(&dir.join("stack_mpi.pgm"), &mpi_image, SIDE, SIDE).expect("write mpi");
    save_pgm(&dir.join("stack_hzccl.pgm"), &hz_image, SIDE, SIDE).expect("write hzccl");
    println!("wrote {}/stack_mpi.pgm and stack_hzccl.pgm", dir.display());
}
