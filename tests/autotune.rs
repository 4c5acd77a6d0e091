//! Acceptance tests for the autotuner (ISSUE PR 2): on a paper-calibrated
//! sweep of ≥5 message sizes × {8, 64} ranks, `Variant::Auto` must land
//! within 5% of the best static flavour at *every* point (and strictly beat
//! the worst static wherever the flavours meaningfully disagree), and the
//! online calibration must demonstrably pull a mis-seeded throughput
//! constant toward the value the simulator actually exhibits.

use datasets::App;
use hzccl::{auto, CollectiveConfig, Mode};
use netsim::{ComputeTiming, NetConfig, OpKind, RunReport, SimBuilder, TraceConfig};
use tuner::{Algo, Calibration, Engine, Flavor, Op, Plan, ScenarioSpec};

fn rank_fields(nranks: usize, elems: usize, seed: u64) -> Vec<Vec<f32>> {
    let base = App::SimSet2.generate(elems, seed);
    (0..nranks)
        .map(|r| {
            let k = 1.0 + 0.001 * r as f32;
            base.iter().map(|&v| v * k).collect()
        })
        .collect()
}

/// Offline compression-ratio probe, as `hzc tune` does.
fn probe_ratio(base: &[f32], eb: f64) -> f64 {
    auto::probe_ratio(None, base, eb, 32, 1)
}

/// Execute one static plan on the paper-calibrated simulator; returns the
/// makespan and the run report (traced, so `observe_run` can calibrate).
fn measure_plan(
    nranks: usize,
    fields: &[Vec<f32>],
    plan: &Plan,
    eb: f64,
    timing: ComputeTiming,
) -> (f64, RunReport<()>) {
    let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
    let cluster = SimBuilder::new(nranks)
        .net(NetConfig::default())
        .timing(timing)
        .trace(TraceConfig::default());
    let cluster_run = cluster.run(|comm| {
        let data = &fields[comm.rank()];
        auto::run_planned(comm, Op::Allreduce, 0, data, &cfg, plan, None).expect("static plan");
    });
    let report = cluster_run.expect_clean();
    (report.stats.makespan, report)
}

/// The headline acceptance sweep. Two passes per (ranks, size) point: pass 1
/// measures every static candidate and feeds the tuner (what `hzc tune`
/// does); pass 2 times the *warm* auto path — one cold call pays probe +
/// plan agreement, then the clock resets and the memoized call is measured,
/// exactly how an iterative workload amortizes the decision.
#[test]
fn auto_tracks_best_static_within_5pct_across_the_sweep() {
    let eb = 1e-4;
    let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
    for &nranks in &[8usize, 64] {
        let mut engine = Engine::paper();
        // ≥5 sizes straddling both analytical crossovers (~37 KB ring-vs-rd
        // across flavours, ~226 KB hz-ring vs hz-rd at N=64).
        for &kb in &[4usize, 16, 64, 256, 512] {
            let elems = (kb * 1024 / 4).max(nranks);
            let fields = rank_fields(nranks, elems, 11);
            let ratio = probe_ratio(&fields[0], eb);
            let spec = ScenarioSpec::new(Op::Allreduce, elems, nranks, eb, cfg.block_len, ratio);

            // pass 1: measure + absorb every static candidate
            let mut best = f64::INFINITY;
            let mut worst = 0f64;
            for plan in engine.candidates(&spec) {
                let timing = ComputeTiming::Modeled(engine.calib.model(plan.flavor, plan.mode));
                let (makespan, report) = measure_plan(nranks, &fields, &plan, eb, timing);
                engine.observe_run(&spec, &plan, &report);
                best = best.min(makespan);
                worst = worst.max(makespan);
            }
            assert!(best.is_finite() && worst > 0.0);

            // pass 2: warm auto (cold call, reset clock, measure the rerun)
            let decision = engine.decide(&spec);
            let timing = ComputeTiming::Modeled(
                engine.calib.model(decision.plan.flavor, decision.plan.mode),
            );
            let cluster = SimBuilder::new(nranks).net(NetConfig::default()).timing(timing);
            let stats = cluster
                .run(|comm| {
                    let mut session = auto::Session::new();
                    session
                        .run(comm, Op::Allreduce, 0, &fields[comm.rank()], &cfg, &engine)
                        .expect("cold");
                    comm.reset_clock();
                    session
                        .run(comm, Op::Allreduce, 0, &fields[comm.rank()], &cfg, &engine)
                        .expect("warm");
                })
                .expect_clean()
                .stats;
            let t_auto = stats.makespan;

            assert!(
                t_auto <= best * 1.05,
                "{nranks} ranks, {kb} KB: auto {:.3} ms exceeds 5% over best static {:.3} ms \
                 (picked {})",
                t_auto * 1e3,
                best * 1e3,
                decision.plan.label()
            );
            // Wherever the flavours meaningfully disagree (they always do on
            // this sweep — compressible data, crossover sizes), auto must
            // strictly dodge the worst static cost.
            if worst > best * 1.2 {
                assert!(
                    t_auto < worst,
                    "{nranks} ranks, {kb} KB: auto {:.3} ms did not beat worst {:.3} ms",
                    t_auto * 1e3,
                    worst * 1e3
                );
            }
        }
    }
}

/// The tuned plan must flip across the rd→ring crossover: recursive doubling
/// in the latency-bound small-message regime, the homomorphic ring once
/// bandwidth (and compression) dominate.
#[test]
fn auto_flips_from_rd_to_ring_across_the_crossover() {
    let eb = 1e-4;
    let nranks = 64;
    let engine = Engine::paper();
    let small = ScenarioSpec::new(Op::Allreduce, 4 * 1024 / 4, nranks, eb, 32, 7.0);
    let large = ScenarioSpec::new(Op::Allreduce, 1 << 20, nranks, eb, 32, 7.0);
    let d_small = engine.decide(&small);
    let d_large = engine.decide(&large);
    assert_eq!(d_small.plan.algo, Algo::Rd, "small messages should pick rd: {}", d_small.why);
    assert_eq!(d_large.plan.algo, Algo::Ring, "large messages should pick ring: {}", d_large.why);
    assert_eq!(d_large.plan.flavor, Flavor::Hzccl, "compressible large data should pick hz");
}

/// Online calibration through the simulator: mis-seed the hz HPR throughput
/// at a fraction of its true value, run traced collectives whose modeled
/// timing reflects the *true* constant, and watch `observe_run` pull the
/// mis-seeded estimate monotonically toward truth.
#[test]
fn calibration_converges_from_a_mis_seeded_constant() {
    let eb = 1e-4;
    let nranks = 8;
    let elems = 64 * 1024;
    let fields = rank_fields(nranks, elems, 3);
    let truth = tuner::paper_prior(Flavor::Hzccl, false).gbps[OpKind::Hpr.index()]; // 9.7 GB/s

    let mut engine = Engine::paper();
    let key = Calibration::key(Flavor::Hzccl, false);
    engine.calib.thr.get_mut(&key).expect("hz:st table")[OpKind::Hpr.index()] = 0.5;

    let plan = Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, 32);
    let ratio = probe_ratio(&fields[0], eb);
    let spec = ScenarioSpec::new(Op::Allreduce, elems, nranks, eb, 32, ratio);
    // The simulator times kernels with the TRUE paper model — that is the
    // "measured" signal the calibration should recover.
    let true_timing = ComputeTiming::Modeled(tuner::paper_prior(Flavor::Hzccl, false));

    let mut estimates = vec![engine.calib.thr[&key][OpKind::Hpr.index()]];
    for _ in 0..6 {
        let (_, report) = measure_plan(nranks, &fields, &plan, eb, true_timing);
        engine.observe_run(&spec, &plan, &report);
        estimates.push(engine.calib.thr[&key][OpKind::Hpr.index()]);
    }

    // Each absorbed run moves the estimate strictly toward the truth…
    for w in estimates.windows(2) {
        assert!(
            (truth - w[1]).abs() < (truth - w[0]).abs(),
            "estimate moved away from truth: {} -> {} (truth {truth})",
            w[0],
            w[1]
        );
    }
    // …and after a handful of runs the mis-seeding is mostly repaired.
    let last = *estimates.last().unwrap();
    assert!(
        (truth - last).abs() < 0.3 * (truth - 0.5).abs(),
        "calibration did not converge: started 0.5, ended {last}, truth {truth}"
    );
    // The repaired constant changes the model the engine prices with.
    let repaired = engine.calib.model(Flavor::Hzccl, Mode::SingleThread).gbps[OpKind::Hpr.index()];
    assert!((repaired - last).abs() < 1e-12);
}
