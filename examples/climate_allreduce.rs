//! Climate-model Allreduce: ensemble members on different nodes average a
//! CESM-ATM-like 2-D field every timestep — the communication pattern the
//! paper's intro motivates. Runs all three collective flavours on the
//! simulated cluster and prints their virtual times and cost breakdowns.
//!
//! ```text
//! cargo run --release --example climate_allreduce
//! ```

use datasets::App;
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::error_bounds::{bound, Call};
use hzccl::{CollectiveConfig, Mode};
use netsim::SimBuilder;
use tuner::{Algo, Flavor, Op, Plan};

const RANKS: usize = 16;
const ELEMS: usize = 1 << 21; // 8 MiB per rank
const EB: f64 = 1e-2;

fn main() {
    let base = App::CesmAtm.generate(ELEMS, 0);
    let fields: Vec<Vec<f32>> = (0..RANKS)
        .map(|r| {
            let k = 1.0 + 0.002 * r as f32;
            base.iter().map(|&v| v * k).collect()
        })
        .collect();

    // model the paper's 36-thread Broadwell socket so the demo reproduces
    // the published operating regime regardless of this host's core count
    // (swap in hzccl::calibrate_hz / calibrate_doc for host calibration)
    let mode = Mode::MultiThread(18);
    let cfg = CollectiveConfig::new(EB, mode);
    let sample = &fields[0][..ELEMS.min(1 << 20)];
    let hz_timing = netsim::ComputeTiming::Modeled(hzccl::paper_model(hzccl::Variant::Hzccl, mode));
    let doc_timing =
        netsim::ComputeTiming::Modeled(hzccl::paper_model(hzccl::Variant::CColl, mode));

    let probe = fzlight::compress(sample, &cfg.fz()).expect("probe");
    println!(
        "{RANKS} ensemble ranks averaging a CESM-ATM field ({} MiB each, ratio ~{:.1})\n",
        (ELEMS * 4) >> 20,
        probe.ratio()
    );
    println!("(whether compression pays off depends on ratio x throughput vs the wire;");
    println!(" see the costmodel crate for the closed-form crossover)\n");

    let run = |label: &str, timing: netsim::ComputeTiming, opts: &CollectiveOpts| {
        let cluster = SimBuilder::new(RANKS).timing(timing);
        let report = cluster
            .run(|comm| {
                let data = &fields[comm.rank()];
                collectives::allreduce(comm, data, opts).expect(label)
            })
            .expect_clean();
        let stats = report.stats;
        let (doc, mpi_pct, other) = stats.total.percentages();
        println!(
            "{label:<26} {:>9.3} ms | DOC-related {doc:5.1}% MPI {mpi_pct:5.1}% OTHER {other:4.1}%",
            stats.makespan * 1e3
        );
        (report.value(0).clone(), stats.makespan)
    };

    let (_, t_mpi) = run("MPI (no compression)", hz_timing, &CollectiveOpts::mpi());
    let (ccoll_out, t_ccoll) =
        run("C-Coll (DOC)", doc_timing, &CollectiveOpts::ccoll(EB).with_mode(mode));
    let (hz_out, t_hz) =
        run("hZCCL (homomorphic)", hz_timing, &CollectiveOpts::hz(EB).with_mode(mode));
    // the segmented pipelined ring overlaps compression with the wire
    let (_, t_hz_pipe) = run(
        "hZCCL (pipelined, S=4)",
        hz_timing,
        &CollectiveOpts::hz(EB).with_mode(mode).with_segments(4),
    );

    println!(
        "\nspeedups over MPI: C-Coll {:.2}x, hZCCL {:.2}x, hZCCL/S=4 {:.2}x",
        t_mpi / t_ccoll,
        t_mpi / t_hz,
        t_mpi / t_hz_pipe
    );

    // accuracy: both compressed paths stay within their analytic bounds
    // (`hzccl::error_bounds`) of the exact sum
    let exact: Vec<f64> =
        (0..ELEMS).map(|i| fields.iter().map(|f| f64::from(f[i])).sum()).collect();
    let at = |i: usize| fields.iter().map(|f| f64::from(f[i]).abs()).sum::<f64>();
    let peak = (0..ELEMS).map(at).fold(0.0, f64::max);
    let bound_of = |flavor: Flavor| {
        let plan = Plan::serial(flavor, Algo::Ring, mode, cfg.block_len);
        let policy = RecoveryPolicy::FailFast;
        let call = Call {
            op: Op::Allreduce,
            plan,
            policy,
            degraded: 0,
            launched: RANKS,
            contributors: RANKS,
        };
        let (quantization, representation) = bound(&call, EB, peak);
        quantization + representation
    };
    let max_err = |out: &[f32]| {
        out.iter().zip(&exact).map(|(a, b)| (f64::from(*a) - b).abs()).fold(0.0f64, f64::max)
    };
    let (ccoll_bound, hz_bound) = (bound_of(Flavor::CColl), bound_of(Flavor::Hzccl));
    println!(
        "max abs error vs exact: C-Coll {:.2e} (bound {ccoll_bound:.1e}), hZCCL {:.2e} (bound {hz_bound:.1e})",
        max_err(&ccoll_out),
        max_err(&hz_out),
    );
    assert!(max_err(&ccoll_out) <= ccoll_bound);
    assert!(max_err(&hz_out) <= hz_bound);
}
