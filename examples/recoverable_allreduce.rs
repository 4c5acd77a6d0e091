//! Self-healing allreduce: two ranks crash mid-collective, the survivors
//! repair the ring and finish with a typed partial result that says exactly
//! whose data the sum contains.
//!
//! ```text
//! cargo run --release --example recoverable_allreduce
//! ```
//!
//! The run is seeded and deterministic: ranks 3 and 6 die on their 2nd and
//! 5th data-plane sends, the survivors agree on the deaths, splice them out
//! of the ring under a bumped epoch, and rerun. `Shrink` delivers the
//! survivor sum; `ShrinkRescale` multiplies it by `n0 / survivors` — the
//! unbiased-mean estimator used for data-parallel gradient averaging.

use datasets::App;
use hzccl::collectives::{allreduce_recoverable, CollectiveOpts, RecoveryPolicy};
use hzccl::error_bounds::{bound, Call};
use netsim::{FaultPlan, SimBuilder, TraceConfig};
use tuner::{Algo, Flavor, Mode, Op, Plan};

fn main() {
    let nranks = 8;
    let n = 1 << 16; // 256 KiB of f32 per rank
    let eb = 1e-4;
    let base = App::CesmAtm.generate(n, 7);
    let fields: Vec<Vec<f32>> =
        (0..nranks).map(|r| base.iter().map(|&v| v * (1.0 + 0.01 * r as f32)).collect()).collect();

    // the expected deaths would otherwise print panic reports: keep them
    // off stderr so the example output stays readable
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("crashed by fault plan") {
            hook(info);
        }
    }));

    let plan = FaultPlan::new(29).with_crash(3, 2).with_crash(6, 4);
    let opts = CollectiveOpts::hz(eb).with_recovery(RecoveryPolicy::Shrink);
    let report = SimBuilder::new(nranks).trace(TraceConfig::default()).faults(plan).run(|comm| {
        let data = &fields[comm.rank()];
        allreduce_recoverable(comm, data, &opts).expect("recoverable allreduce")
    });

    // ranks 3 and 6 died; everyone else committed the same partial result
    let part = report.value(0);
    println!("contributors: {:?} (epoch {})", part.contributors, part.epoch);
    assert_eq!(part.contributors, vec![0, 1, 2, 4, 5, 7]);
    assert!(part.epoch >= 1, "at least one membership repair happened");

    // the survivor sum respects its error bound (`hzccl::error_bounds`)
    // against exact f64
    let m = part.contributors.len();
    let plan =
        Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, fzlight::DEFAULT_BLOCK_LEN);
    let (policy, degraded) = (RecoveryPolicy::Shrink, 0);
    let call =
        Call { op: Op::Allreduce, plan, policy, degraded, launched: nranks, contributors: m };
    let at =
        |i: usize| part.contributors.iter().map(|&r| f64::from(fields[r][i]).abs()).sum::<f64>();
    let peak = (0..n).map(at).fold(0.0, f64::max);
    let (quantization, representation) = bound(&call, eb, peak);
    let tol = quantization + representation;
    let max_err = part
        .value
        .iter()
        .enumerate()
        .map(|(i, &got)| {
            let exact: f64 = part.contributors.iter().map(|&r| f64::from(fields[r][i])).sum();
            (f64::from(got) - exact).abs()
        })
        .fold(0.0f64, f64::max);
    println!("survivor-sum max abs err {max_err:.3e} (bound {tol:.1e})");
    assert!(max_err <= tol);

    // recovery is observable: repairs, committed epoch and survivor count
    let tally = report.tally();
    println!("recoveries={} epoch={} survivors={}", tally.recoveries, tally.epoch, tally.survivors);
    assert!(tally.recoveries >= 1);
    assert_eq!(tally.survivors, m as u64);
    println!("self-healing allreduce completed with {m}/{nranks} ranks");
}
