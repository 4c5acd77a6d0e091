//! Integration acceptance for the segmented pipelined ring (ISSUE PR 3):
//! bit-identity of every flavour/op/segment-count combination against the
//! phase-serial schedule (including the `S = 1` degenerate and the
//! clamp-to-block-count path), virtual-time improvement at the paper
//! calibration (>= 15% for the hz ring), monotone non-worseness for
//! moderate segment counts, and `Variant::Auto` choosing segmented plans
//! where the cost model predicts them.

use datasets::App;
use hzccl::collectives::{self, CollectiveOpts};
use hzccl::{paper_model, Mode, Variant};
use netsim::{ComputeTiming, NetConfig, SimBuilder, ThroughputModel};

fn modeled() -> ComputeTiming {
    ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
}

fn fields(nranks: usize, n: usize) -> Vec<Vec<f32>> {
    let base = App::SimSet2.generate(n, 9);
    (0..nranks).map(|r| base.iter().map(|&v| v * (1.0 + 0.001 * r as f32)).collect()).collect()
}

/// Segmentation must never change a single bit of any collective's output:
/// segment boundaries are block-aligned, so the per-block quantization (the
/// only lossy step) sees exactly the same inputs in the same order.
#[test]
fn every_variant_op_and_segment_count_is_bit_identical_to_serial() {
    let nranks = 5;
    let n = 5 * 640 + 17; // uneven chunks
    let data = fields(nranks, n);
    let cluster = SimBuilder::new(nranks).timing(modeled());
    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
        let opts_for = |segments: usize| {
            CollectiveOpts::for_variant(variant, 1e-4).with_root(1).with_segments(segments)
        };
        for op in ["allreduce", "reduce_scatter", "reduce", "bcast"] {
            let run = |segments: usize| -> Vec<Vec<f32>> {
                let opts = opts_for(segments);
                cluster
                    .run(|comm| {
                        let d = &data[comm.rank()];
                        match op {
                            "allreduce" => collectives::allreduce(comm, d, &opts),
                            "reduce_scatter" => collectives::reduce_scatter(comm, d, &opts),
                            "reduce" => collectives::reduce(comm, d, &opts),
                            _ => collectives::bcast(comm, d, &opts),
                        }
                        .unwrap_or_else(|e| panic!("{variant:?}/{op}/S={segments}: {e}"))
                    })
                    .expect_clean()
                    .values()
            };
            let reference = run(1);
            // S=2 and S=5 exercise steady-state pipelining; S=64 exceeds the
            // per-chunk block count and must clamp, not fail.
            for segments in [2usize, 5, 64] {
                assert_eq!(
                    run(segments),
                    reference,
                    "{variant:?}/{op}: S={segments} changed the result bits"
                );
            }
        }
    }
}

/// The headline acceptance: at the paper calibration, the pipelined hz ring
/// must beat the phase-serial schedule by at least 15% on a large
/// compressible Allreduce — while producing bit-identical results.
#[test]
fn pipelined_hz_ring_beats_phase_serial_by_at_least_15_percent() {
    let nranks = 8;
    let n = 1 << 19; // 2 MiB of f32 per rank
    let base = App::SimSet1.generate(n, 0);
    let data: Vec<Vec<f32>> =
        (0..nranks).map(|r| base.iter().map(|&v| v * (1.0 + 0.001 * r as f32)).collect()).collect();
    let mode = Mode::MultiThread(18);
    let timing = ComputeTiming::Modeled(paper_model(Variant::Hzccl, mode));
    let run = |segments: usize| -> (f64, Vec<f32>) {
        let opts = CollectiveOpts::hz(1e-4).with_mode(mode).with_segments(segments);
        let cluster = SimBuilder::new(nranks).net(NetConfig::default()).timing(timing);
        let report = cluster
            .run(|comm| collectives::allreduce(comm, &data[comm.rank()], &opts).expect("allreduce"))
            .expect_clean();
        (report.stats.makespan, report.values().into_iter().next().unwrap())
    };
    let (t_serial, out_serial) = run(1);
    let (t_pipe, out_pipe) = run(4);
    assert_eq!(out_pipe, out_serial, "pipelining must not change the bits");
    assert!(
        t_pipe <= t_serial * 0.85,
        "pipelined hz ring must win >= 15%: serial {:.3} ms vs pipelined {:.3} ms ({:.1}%)",
        t_serial * 1e3,
        t_pipe * 1e3,
        (1.0 - t_pipe / t_serial) * 100.0
    );
}

/// Moderate segment counts degrade gracefully: each extra segment pays one
/// more per-message alpha per ring step, so S in {2, 4} may cost a few
/// percent in the worst case but never blows up — and some moderate S must
/// strictly win wherever compute and wire genuinely overlap.
#[test]
fn moderate_segmentation_degrades_gracefully_and_wins_somewhere() {
    let nranks = 6;
    let n = 1 << 16;
    let data = fields(nranks, n);
    for variant in [Variant::CColl, Variant::Hzccl] {
        let timing = ComputeTiming::Modeled(paper_model(variant, Mode::SingleThread));
        let run = |segments: usize| -> f64 {
            let opts = CollectiveOpts::for_variant(variant, 1e-4).with_segments(segments);
            let cluster = SimBuilder::new(nranks).net(NetConfig::default()).timing(timing);
            let stats = cluster
                .run(|comm| {
                    collectives::allreduce(comm, &data[comm.rank()], &opts).expect("allreduce");
                })
                .expect_clean()
                .stats;
            stats.makespan
        };
        let t_serial = run(1);
        let mut best = f64::INFINITY;
        for segments in [2usize, 4] {
            let t = run(segments);
            best = best.min(t);
            assert!(
                t <= t_serial * 1.05,
                "{variant:?}: S={segments} ({t:.6}) materially slower than serial ({t_serial:.6})"
            );
        }
        assert!(
            best < t_serial,
            "{variant:?}: no moderate segment count improved on serial ({t_serial:.6})"
        );
    }
}

/// `Variant::Auto` must surface segmented plans: on a large compressible
/// message the paper-calibrated model predicts the pipelined hz ring wins,
/// and every rank must agree on that plan (the 12-byte broadcast carries the
/// segment word).
#[test]
fn auto_picks_a_segmented_plan_where_the_model_predicts_one() {
    let nranks = 8;
    let n = 1 << 18;
    let data = fields(nranks, n);
    let engine = tuner::Engine::paper();
    let cfg = hzccl::CollectiveConfig::new(1e-4, Mode::SingleThread);
    let timing = ComputeTiming::Modeled(paper_model(Variant::Hzccl, Mode::SingleThread));
    let cluster = SimBuilder::new(nranks).net(NetConfig::default()).timing(timing);
    let outcomes = cluster
        .run(|comm| {
            let data = &data[comm.rank()];
            hzccl::auto::run(comm, tuner::Op::Allreduce, 0, data, &cfg, &engine, None)
                .expect("auto")
        })
        .expect_clean()
        .outcomes;
    let plan = outcomes[0].value.plan;
    assert!(
        plan.segments > 1,
        "paper model should pick a pipelined plan here, got {}",
        plan.label()
    );
    for o in &outcomes {
        assert_eq!(o.value.plan, plan, "all ranks must agree on the segmented plan");
    }
    // and the chosen plan is exactly the model's ranked winner
    let detail = outcomes[0].value.detail.as_ref().expect("rank 0 decided");
    let best =
        detail.1.ranked.iter().min_by(|a, b| a.secs.total_cmp(&b.secs)).expect("non-empty ranking");
    assert_eq!(best.plan, plan, "decision must match the ranked winner");
}

/// The unified front-end's Auto variant rides the same machinery end to end.
#[test]
fn collectives_auto_variant_runs_segmented_plans_correctly() {
    let nranks = 4;
    let n = 1 << 16;
    let data = fields(nranks, n);
    let opts = CollectiveOpts::auto(1e-4);
    let timing = ComputeTiming::Modeled(paper_model(Variant::Hzccl, Mode::SingleThread));
    let cluster = SimBuilder::new(nranks).net(NetConfig::default()).timing(timing);
    let outcomes = cluster
        .run(|comm| {
            collectives::allreduce(comm, &data[comm.rank()], &opts).expect("auto allreduce")
        })
        .expect_clean()
        .outcomes;
    let exact: Vec<f64> = (0..n).map(|i| data.iter().map(|f| f[i] as f64).sum()).collect();
    let tol = nranks as f64 * 1e-4 + 1e-6;
    for o in &outcomes {
        assert_eq!(o.value, outcomes[0].value, "all ranks agree");
    }
    for (v, e) in outcomes[0].value.iter().zip(&exact) {
        assert!(((*v as f64) - e).abs() <= tol + e.abs() * 1e-6, "{v} vs {e}");
    }
}
