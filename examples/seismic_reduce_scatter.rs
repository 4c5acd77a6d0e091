//! Seismic-imaging Reduce_scatter: RTM partial images distributed across
//! nodes are summed and scattered for the next migration step. Demonstrates
//! the homomorphic pipeline statistics on realistic wavefield data and the
//! Reduce_scatter cost advantage of Sec. III-C.1.
//!
//! ```text
//! cargo run --release --example seismic_reduce_scatter
//! ```

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl::chunks::node_chunks;
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::error_bounds::{bound, Call};
use hzccl::{CollectiveConfig, Mode};
use netsim::{ComputeTiming, SimBuilder};
use tuner::{Algo, Flavor, Op, Plan};

const RANKS: usize = 32;
const ELEMS: usize = 1 << 21; // 8 MiB per rank
const EB: f64 = 1e-4;

fn main() {
    // each rank holds a different shot's partial wavefield
    let fields: Vec<Vec<f32>> =
        (0..RANKS).map(|r| App::SimSet1.generate(ELEMS, r as u64)).collect();

    // 1. What does the dynamic homomorphic pipeline see on this data?
    let cfg_fz = Config::new(ErrorBound::Abs(EB)).with_threads(2);
    let ca = fzlight::compress(&fields[0], &cfg_fz).expect("compress");
    let cb = fzlight::compress(&fields[1], &cfg_fz).expect("compress");
    let (_, stats) = hzdyn::homomorphic_sum_with_stats(&ca, &cb).expect("hz");
    println!("RTM wavefields: compression ratio {:.1}, pipeline mix {stats}", ca.ratio());

    // 2. Reduce_scatter across the simulated cluster, all three flavours.
    let mode = Mode::MultiThread(2);
    let cfg = CollectiveConfig::new(EB, mode);
    let sample = &fields[0][..ELEMS.min(1 << 20)];
    let hz_timing = ComputeTiming::Modeled(hzccl::calibrate_hz(sample, &cfg));
    let doc_timing = ComputeTiming::Modeled(hzccl::calibrate_doc(sample, &cfg));

    let run = |label: &str, timing: ComputeTiming, opts: &CollectiveOpts| -> f64 {
        let cluster = SimBuilder::new(RANKS).timing(timing);
        let stats = cluster
            .run(|comm| {
                let data = &fields[comm.rank()];
                collectives::reduce_scatter(comm, data, opts).expect(label);
            })
            .expect_clean()
            .stats;
        println!("{label:<26} {:>9.3} ms", stats.makespan * 1e3);
        stats.makespan
    };

    println!("\nReduce_scatter of {} MiB per rank across {RANKS} ranks:", (ELEMS * 4) >> 20);
    let t_mpi = run("MPI (no compression)", hz_timing, &CollectiveOpts::mpi());
    let t_ccoll = run("C-Coll (DOC)", doc_timing, &CollectiveOpts::ccoll(EB).with_mode(mode));
    let hz_opts = CollectiveOpts::hz(EB).with_mode(mode);
    let t_hz = run("hZCCL (homomorphic)", hz_timing, &hz_opts);
    let t_hz_pipe = run("hZCCL (pipelined, S=4)", hz_timing, &hz_opts.clone().with_segments(4));
    println!(
        "\nspeedups over MPI: C-Coll {:.2}x, hZCCL {:.2}x (pipelined {:.2}x, vs C-Coll {:.2}x)",
        t_mpi / t_ccoll,
        t_mpi / t_hz,
        t_mpi / t_hz_pipe,
        t_ccoll / t_hz
    );

    // 3. Correctness: every rank's hZCCL chunk is within hZCCL's bound
    // (`hzccl::error_bounds`) of the exact sum.
    let cluster = SimBuilder::new(RANKS).timing(hz_timing);
    let approx = cluster
        .run(|comm| {
            collectives::reduce_scatter(comm, &fields[comm.rank()], &hz_opts).expect("hzccl")
        })
        .expect_clean()
        .outcomes;
    let exact: Vec<f64> =
        (0..ELEMS).map(|i| fields.iter().map(|f| f64::from(f[i])).sum()).collect();
    let at = |i: usize| fields.iter().map(|f| f64::from(f[i]).abs()).sum::<f64>();
    let peak = (0..ELEMS).map(at).fold(0.0, f64::max);
    let plan = Plan::serial(Flavor::Hzccl, Algo::Ring, mode, cfg.block_len);
    let policy = RecoveryPolicy::FailFast;
    let call = Call {
        op: Op::ReduceScatter,
        plan,
        policy,
        degraded: 0,
        launched: RANKS,
        contributors: RANKS,
    };
    let (quantization, representation) = bound(&call, EB, peak);
    let mut worst = 0f64;
    for (a, chunk) in approx.iter().zip(node_chunks(ELEMS, RANKS)) {
        for (x, y) in a.value.iter().zip(&exact[chunk]) {
            worst = worst.max((f64::from(*x) - y).abs());
        }
    }
    println!(
        "max abs error vs exact reduction: {worst:.2e} (bound {:.1e})",
        quantization + representation
    );
    assert!(worst <= quantization + representation);
}
