//! `hzc chaos`: soak the resilient collectives under injected faults — the
//! message-level drop/corrupt/jitter sweep, or with `--crash-rate` the
//! crash-recovery gate. Every run is one [`CaseSpec`] through
//! [`suite::run_case`]; the oracles are the suite's.

use crate::{app_flag, eb_flag, f64_list_flag, flag, has_flag, Args};
use hzccl::chunks::node_chunks;
use hzccl::collectives::RecoveryPolicy;
use hzccl::error_bounds::bound;
use hzccl::{Resilience, Variant};
use hzccl_bench::suite::{self, CaseRun, CaseSpec, Runner, SuiteConfig};
use netsim::FaultPlan;
use tuner::Op;

/// The static flavours: the crash gate's (a shrinking policy refuses Auto).
const VARIANTS: [Variant; 3] = [Variant::Mpi, Variant::CColl, Variant::Hzccl];

/// `max_i Σ_{r ∈ rs} |x_r[i]|`, the peak partial sum [`bound`] reads.
fn peak(fields: &[Vec<f32>], rs: &[usize]) -> f64 {
    let at = |i: usize| rs.iter().map(|&r| f64::from(fields[r][i]).abs()).sum::<f64>();
    (0..fields[0].len()).map(at).fold(0.0, f64::max)
}

/// The bound of what `run` ran over these inputs, summed.
fn tolerance(run: &CaseRun, eb: f64, fields: &[Vec<f32>], contributors: &[usize]) -> f64 {
    let call = run.call.expect("a flavour or a plan ran");
    let (quantization, representation) = bound(&call, eb, peak(fields, contributors));
    quantization + representation
}

/// For every drop rate × flavour (Auto included) × op the sweep runs the
/// collective under a seeded [`netsim::FaultPlan`] with the resilient
/// transport enabled and checks every rank's result against the exact
/// (`f64`) sum, within the bound of what ran
/// ([`hzccl::error_bounds::bound`]: the plan Auto agreed on, the segments
/// the transport degraded). Retransmit/timeout/degraded counters come from
/// the flight recorder; exits nonzero if any run leaves its bound or if
/// faults were injected but the transport never retried.
pub(crate) fn chaos(args: &Args) -> Result<(), String> {
    let ranks: usize = flag(args, "--ranks")?.unwrap_or(8);
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let kb: usize = flag(args, "--kb")?.unwrap_or(64);
    let corrupt: f64 = flag(args, "--corrupt")?.unwrap_or(0.01);
    let jitter: f64 = flag(args, "--jitter")?.unwrap_or(0.0);
    let mut cfg = SuiteConfig { app: app_flag(args)?, ..SuiteConfig::default() };
    cfg.seed = flag(args, "--seed")?.unwrap_or(7);
    cfg.eb = eb_flag(args, cfg.eb)?;
    let (seed, eb) = (cfg.seed, cfg.eb);

    if has_flag(args, "--crash-rate") {
        // crash recovery is a different fault class (whole ranks die, the
        // membership shrinks) with its own oracle, so it replaces the
        // message-level drop/corrupt soak for this invocation
        return crash_gate(&cfg, ranks, kb, &f64_list_flag(args, "--crash-rate", "")?);
    }

    let drops = f64_list_flag(args, "--drop", "0.01,0.05")?;
    println!(
        "chaos soak: ranks={ranks} field={kb} KiB/rank eb={eb:e} seed={seed} corrupt={corrupt} jitter={jitter}"
    );
    println!(
        "{:<6} {:<15} {:<8} {:>10} {:>9} {:>9} {:>7} {:>12} {:>10}",
        "drop", "op", "variant", "retrans", "timeouts", "degraded", "faults", "makespan", "max_err"
    );

    let mut failures: Vec<String> = Vec::new();
    let mut total_retrans = 0u64;
    // drops and corruptions actually injected: a rate that fired on no
    // message (one rank, or too few messages) asks nothing of the transport
    let mut lost = 0u64;
    let everyone: Vec<usize> = (0..ranks).collect();
    for &drop in &drops {
        for variant in VARIANTS.into_iter().chain([Variant::Auto]) {
            for op in [Op::Allreduce, Op::ReduceScatter] {
                let plan = FaultPlan::new(seed).with_drop(drop).with_corrupt(corrupt);
                let spec = CaseSpec {
                    faults: Some(plan.with_jitter(jitter)),
                    resilience: Some(Resilience::default()),
                    ..CaseSpec::new(op, Runner::Variant(variant), ranks, kb)
                };
                let run = suite::run_case(&spec, &cfg);
                let fields = suite::rank_fields(&spec, &cfg);
                let exact = suite::survivor_sum(&fields, &everyone);
                let chunks = node_chunks(exact.len(), ranks);
                let mut max_err = 0f64;
                for o in &run.report.outcomes {
                    // a reduce_scatter rank holds its own chunk
                    let want = match op {
                        Op::ReduceScatter => &exact[chunks[o.rank].clone()],
                        _ => &exact[..],
                    };
                    for (x, y) in o.value.result.value.iter().zip(want) {
                        max_err = max_err.max((f64::from(*x) - y).abs());
                    }
                }
                let tol = tolerance(&run, eb, &fields, &everyone);
                let tally = run.report.tally();
                let lost_here = tally.drops + tally.corruptions;
                lost += lost_here;
                total_retrans += tally.retransmits;
                let ok = max_err <= tol;
                println!(
                    "{:<6} {:<15} {:<8} {:>10} {:>9} {:>9} {:>7} {:>12.6} {:>10.3e}{}",
                    drop,
                    op.name(),
                    variant.name(),
                    tally.retransmits,
                    tally.timeouts,
                    tally.degraded_segments,
                    lost_here + tally.jitters,
                    run.result.virtual_secs,
                    max_err,
                    if ok { "" } else { "  DIVERGED" }
                );
                if !ok {
                    failures.push(format!(
                        "{}/{} drop={drop}: max_err {max_err:e} exceeds tol {tol:e}",
                        op.name(),
                        variant.name()
                    ));
                }
            }
        }
    }
    if lost > 0 && total_retrans == 0 {
        failures
            .push("faults were injected but the resilient transport never retransmitted".into());
    }
    if failures.is_empty() {
        println!("chaos soak passed ({} retransmits across the sweep)", total_retrans);
        Ok(())
    } else {
        Err(format!("chaos soak failed:\n  {}", failures.join("\n  ")))
    }
}

/// `hzc chaos --crash-rate`: the crash-recovery gate. For every rate the
/// sweep derives a deterministic victim set (1–3 ranks, always leaving a
/// survivor), runs a Shrink-policy recoverable allreduce per flavour under
/// the seeded crash plan, and gates on survivor-sum correctness: `mpi`
/// must reproduce the survivable ring's reduction order bit-for-bit
/// ([`suite::mpi_survivor_sum`]), the compressed flavours must agree
/// bitwise across survivors and stay within their bound
/// ([`hzccl::error_bounds::bound`]) of the exact f64 survivor sum
/// ([`suite::survivor_sum`]). The recovery columns (committed
/// epoch, repairs, survivors) are the run's [`netsim::Tally`]; any
/// divergence exits nonzero. Hangs are the caller's job (`tests/cli.rs`
/// gives the gate 300 s).
fn crash_gate(cfg: &SuiteConfig, ranks: usize, kb: usize, rates: &[f64]) -> Result<(), String> {
    let (seed, eb) = (cfg.seed, cfg.eb);
    if ranks < 2 {
        return Err("--crash-rate needs at least 2 ranks (someone must survive)".into());
    }
    let case = |variant| CaseSpec::new(Op::Allreduce, Runner::Variant(variant), ranks, kb);
    let fields = suite::rank_fields(&case(Variant::Mpi), cfg);
    // the seeded deaths are the point of the exercise: keep their panic
    // reports off stderr so the table stays readable, and delegate anything
    // unexpected to the stock hook (the process exits right after the sweep,
    // so the hook is not restored)
    let stock_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !(msg.contains("crashed by fault plan") || msg.contains("observed crash of rank")) {
            stock_hook(info);
        }
    }));
    println!(
        "crash-recovery gate: ranks={ranks} elems={} eb={eb:e} seed={seed} policy=shrink",
        fields[0].len()
    );
    println!(
        "{:<6} {:<8} {:<14} {:>6} {:>11} {:>10} {:>11}",
        "rate", "variant", "crashed", "epoch", "recoveries", "survivors", "max_err"
    );

    let mut failures: Vec<String> = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--crash-rate entries must lie in [0, 1], got {rate}"));
        }
        // deterministic victim set: rate scales the crash count, capped at
        // three deaths and never the whole communicator
        let want = ((rate * ranks as f64).ceil() as usize).clamp(1, 3.min(ranks - 1));
        let mut dead: Vec<usize> = Vec::new();
        let mut ctr = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ri as u64 + 1);
        while dead.len() < want {
            ctr = ctr.wrapping_add(1);
            let r = (netsim::splitmix64(ctr) % ranks as u64) as usize;
            if !dead.contains(&r) {
                dead.push(r);
            }
        }
        dead.sort_unstable();
        let mut plan = FaultPlan::new(seed);
        // a rank makes 2(ranks-1) data-plane sends per attempt; keep the
        // seeded step below that so every victim dies in the first attempt
        // even on tiny communicators
        let max_step = (2 * (ranks as u64 - 1) - 1).clamp(1, 6);
        for (i, &r) in dead.iter().enumerate() {
            plan = plan.with_crash(r, 1 + netsim::splitmix64(ctr ^ (i as u64 + 0x51)) % max_step);
        }
        let survivors: Vec<usize> = (0..ranks).filter(|r| !dead.contains(r)).collect();
        let m = survivors.len();
        let oracle = suite::survivor_sum(&fields, &survivors);
        let exact = suite::mpi_survivor_sum(&fields, &survivors);
        for variant in VARIANTS {
            let (vname, mpi) = (variant.name(), variant == Variant::Mpi);
            let spec = CaseSpec {
                faults: Some(plan.clone()),
                recovery: RecoveryPolicy::Shrink,
                ..case(variant)
            };
            let run = suite::run_case(&spec, cfg);
            let report = &run.report;
            let mut errs: Vec<String> = Vec::new();
            for &r in &dead {
                match report.panic_of(r) {
                    Some(p) if p.message.contains("crashed by fault plan") => {}
                    Some(p) => {
                        errs.push(format!("rank {r} died for the wrong reason: {}", p.message))
                    }
                    None => errs.push(format!("seeded victim {r} never crashed")),
                }
            }
            let first = &report.value(survivors[0]).result;
            let mut max_err = 0f64;
            for &r in &survivors {
                let got = &report.value(r).result;
                if got.contributors != survivors {
                    errs.push(format!(
                        "rank {r}: contributors {:?} != survivors",
                        got.contributors
                    ));
                }
                if got.epoch < 1 || got.epoch as usize > dead.len() {
                    errs.push(format!("rank {r}: epoch {} outside 1..={}", got.epoch, dead.len()));
                }
                if got.epoch != first.epoch {
                    errs.push(format!(
                        "rank {r}: epoch {} disagrees with {}",
                        got.epoch, first.epoch
                    ));
                }
                // mpi is gated against the replicated reduction order (bit
                // exact); the compressed flavours against each other
                // (bitwise) and the f64 oracle (bounded)
                if mpi {
                    if got.value != exact {
                        errs.push(format!("rank {r}: mpi survivor sum not bit-exact"));
                    }
                    for (a, b) in got.value.iter().zip(&exact) {
                        max_err = max_err.max((f64::from(*a) - f64::from(*b)).abs());
                    }
                } else {
                    if got.value != first.value {
                        errs.push(format!("rank {r}: compressed survivors disagree bitwise"));
                    }
                    for (a, b) in got.value.iter().zip(&oracle) {
                        max_err = max_err.max((f64::from(*a) - b).abs());
                    }
                }
            }
            let tol = if mpi { 0.0 } else { tolerance(&run, eb, &fields, &survivors) };
            if max_err > tol {
                errs.push(format!("max_err {max_err:e} exceeds tol {tol:e}"));
            }
            let tally = report.tally();
            if tally.recoveries == 0 {
                errs.push("no recovery counted despite seeded crashes".into());
            }
            if tally.survivors != m as u64 {
                errs.push(format!("{} survivors counted, not {m}", tally.survivors));
            }
            println!(
                "{:<6} {:<8} {:<14} {:>6} {:>11} {:>10} {:>11.3e}{}",
                rate,
                vname,
                format!("{dead:?}"),
                tally.epoch,
                tally.recoveries,
                tally.survivors,
                max_err,
                if errs.is_empty() { "" } else { "  DIVERGED" }
            );
            failures.extend(errs.into_iter().map(|e| format!("{vname} rate={rate}: {e}")));
        }
    }
    if failures.is_empty() {
        println!("crash-recovery gate passed");
        Ok(())
    } else {
        Err(format!("crash-recovery gate failed:\n  {}", failures.join("\n  ")))
    }
}
