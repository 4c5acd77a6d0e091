//! Chaos-layer properties: deterministic fault replay, recorder invariants
//! under retransmission, soak coverage of every collective flavour under
//! drop + corruption (flat, two-tier and under crash recovery), forced
//! degradation, and crash propagation.

use hzccl::collectives::{
    allreduce, allreduce_recoverable, reduce_scatter, CollectiveOpts, RecoveryPolicy,
};
use hzccl::error_bounds::{bound, Call};
use hzccl::{Mode, Resilience, Variant};
use netsim::{
    ComputeTiming, FaultPlan, LinkFault, SimBuilder, ThroughputModel, Topology, TraceConfig,
};
use tuner::{Algo, Op, Plan};

fn modeled() -> ComputeTiming {
    ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
}

fn field(rank: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.013).sin() * (1.0 + 0.001 * rank as f32)).collect()
}

fn opts_for(variant: Variant, eb: f64) -> CollectiveOpts {
    CollectiveOpts::for_variant(variant, eb).with_mode(Mode::SingleThread)
}

/// The exact sum of every rank's `field`, and its error bound
/// (`hzccl::error_bounds`) for `variant`'s ring — two-tier if
/// `hierarchical` — running `op` with `degraded` segments sent raw.
fn exact_and_bound(
    op: Op,
    variant: Variant,
    hierarchical: bool,
    degraded: u64,
    (nranks, n, eb): (usize, usize, f64),
) -> (Vec<f64>, f64) {
    let fields: Vec<Vec<f32>> = (0..nranks).map(|r| field(r, n)).collect();
    let exact = (0..n).map(|i| fields.iter().map(|f| f64::from(f[i])).sum()).collect();
    let at = |i: usize| fields.iter().map(|f| f64::from(f[i]).abs()).sum::<f64>();
    let peak = (0..n).map(at).fold(0.0, f64::max);
    let plan = Plan {
        hierarchical,
        ..Plan::serial(variant.flavor(), Algo::Ring, Mode::SingleThread, fzlight::DEFAULT_BLOCK_LEN)
    };
    let policy = RecoveryPolicy::FailFast;
    let call = Call { op, plan, policy, degraded, launched: nranks, contributors: nranks };
    let (quantization, representation) = bound(&call, eb, peak);
    (exact, quantization + representation)
}

/// Same-seed fault plans replay bit-identically: two runs of the same
/// collective under the same `FaultPlan` produce byte-for-byte equal results
/// *and* bit-identical virtual-time traces (every event, timestamp included).
#[test]
fn same_seed_fault_plan_replays_bit_identically() {
    let n = 4096;
    let nranks = 6;
    let plan = FaultPlan::new(42).with_drop(0.05).with_corrupt(0.02).with_jitter(2e-6);
    let run = || {
        SimBuilder::new(nranks)
            .timing(modeled())
            .trace(TraceConfig::default())
            .faults(plan.clone())
            .run(|comm| {
                let data = field(comm.rank(), n);
                let opts = opts_for(Variant::Hzccl, 1e-4).with_resilience(Resilience::default());
                allreduce(comm, &data, &opts).expect("resilient allreduce")
            })
            .expect_clean()
    };
    let (a, b) = (run(), run());
    for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(oa.value, ob.value, "rank {} values differ across replays", oa.rank);
        assert_eq!(oa.elapsed, ob.elapsed, "virtual makespan differs across replays");
    }
    assert_eq!(a.traces, b.traces, "virtual-time traces differ across replays");
}

/// Recorder invariant: retransmitted frames are real wire traffic but not
/// logical payload — under drops the wire-byte total grows while the
/// logical-byte total stays exactly what the fault-free resilient run
/// reported.
#[test]
fn retransmits_count_as_wire_bytes_not_logical_bytes() {
    let n = 4096;
    let nranks = 4;
    let run = |plan: Option<FaultPlan>| {
        let mut cluster = SimBuilder::new(nranks).timing(modeled()).trace(TraceConfig::default());
        if let Some(p) = plan {
            cluster = cluster.faults(p);
        }
        let report = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                let opts = opts_for(Variant::Hzccl, 1e-4).with_resilience(Resilience::default());
                allreduce(comm, &data, &opts).expect("resilient allreduce")
            })
            .expect_clean();
        report.tally()
    };
    let clean = run(None);
    let faulty = run(Some(FaultPlan::new(9).with_drop(0.08)));
    assert!(faulty.retransmits > 0, "8% drop at 4 ranks must force at least one retransmit");
    assert_eq!(
        faulty.logical_bytes, clean.logical_bytes,
        "retransmits must not inflate the logical-byte total"
    );
    assert!(
        faulty.wire_bytes > clean.wire_bytes,
        "retransmitted frames must appear in the wire-byte total"
    );
}

/// Soak: {1%, 5%} drop plus corruption across all three flavours and both
/// reduction collectives. Every run completes; `mpi` matches its fault-free
/// baseline bit-for-bit (raw floats retransmit verbatim), the compressed
/// flavours stay within the error budget; the sweep as a whole observes
/// nonzero retransmits.
#[test]
fn soak_drop_and_corruption_across_flavours() {
    let n = 4096;
    let nranks = 8;
    let eb = 1e-4;
    let chunks = hzccl::chunks::node_chunks(n, nranks);
    let mut total_retrans = 0u64;
    for drop in [0.01, 0.05] {
        for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
            for op in [Op::Allreduce, Op::ReduceScatter] {
                let opts = opts_for(variant, eb);
                let run_one = |cluster: &SimBuilder, opts: &CollectiveOpts| {
                    cluster
                        .run(|comm| {
                            let data = field(comm.rank(), n);
                            match op {
                                Op::Allreduce => allreduce(comm, &data, opts).expect("allreduce"),
                                _ => reduce_scatter(comm, &data, opts).expect("reduce_scatter"),
                            }
                        })
                        .expect_clean()
                };
                let baseline = run_one(&SimBuilder::new(nranks).timing(modeled()), &opts);
                let plan = FaultPlan::new(7).with_drop(drop).with_corrupt(0.01);
                let cluster = SimBuilder::new(nranks)
                    .timing(modeled())
                    .trace(TraceConfig::default())
                    .faults(plan);
                let faulty =
                    run_one(&cluster, &opts.clone().with_resilience(Resilience::default()));
                // framing moves bytes, not values, until a segment degrades
                let degraded = faulty.tally().degraded_segments;
                let (exact, tol) = exact_and_bound(op, variant, false, degraded, (nranks, n, eb));
                for (b, f) in baseline.outcomes.iter().zip(&faulty.outcomes) {
                    if degraded == 0 {
                        assert_eq!(b.value, f.value, "{op:?}/{variant:?} drop={drop}");
                    }
                    let want = match op {
                        Op::ReduceScatter => &exact[chunks[f.rank].clone()],
                        _ => &exact[..],
                    };
                    assert_eq!(want.len(), f.value.len());
                    for (x, y) in f.value.iter().zip(want) {
                        assert!(
                            (f64::from(*x) - y).abs() <= tol,
                            "{op:?}/{variant:?} drop={drop}: {x} vs {y} (tol {tol:e})"
                        );
                    }
                }
                total_retrans += faulty.tally().retransmits;
            }
        }
    }
    assert!(total_retrans > 0, "the sweep must observe at least one retransmit");
}

/// The hop is the ring's, so the two-tier schedule is framed too: on a 2x3
/// fabric losing a fifth of its frames (the parent's node and leader rings
/// ignored the policy and died on the first dropped message) every rank
/// completes, `mpi` equals its fault-free hierarchical run bit for bit, and
/// the compressed flavours stay inside their analytic bounds.
#[test]
fn framed_hierarchical_allreduce_survives_loss() {
    let (n, eb) = (4096, 1e-4);
    let topo = Topology::paper(2, 3);
    let nranks = topo.nranks();
    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
        let opts = opts_for(variant, eb).with_topology(topo);
        let run_one = |cluster: SimBuilder, opts: &CollectiveOpts| {
            cluster
                .timing(modeled())
                .topology(topo)
                .trace(TraceConfig::default())
                .run(|comm| allreduce(comm, &field(comm.rank(), n), opts).expect("allreduce"))
                .expect_clean()
        };
        let baseline = run_one(SimBuilder::new(nranks), &opts);
        let plan = FaultPlan::new(7).with_drop(0.2).with_corrupt(0.05);
        let framed = opts.clone().with_resilience(Resilience::default());
        let faulty = run_one(SimBuilder::new(nranks).faults(plan), &framed);
        let tally = faulty.tally();
        assert!(tally.retransmits > 0, "{variant:?}");
        let degraded = tally.degraded_segments;
        let (exact, bound) =
            exact_and_bound(Op::Allreduce, variant, true, degraded, (nranks, n, eb));
        for (b, f) in baseline.outcomes.iter().zip(&faulty.outcomes) {
            if variant == Variant::Mpi {
                assert_eq!(b.value, f.value, "raw floats retransmit verbatim");
            }
            for (got, want) in f.value.iter().zip(&exact) {
                let err = (f64::from(*got) - want).abs();
                assert!(err <= bound, "{variant:?}: {got} vs {want} (bound {bound:e})");
            }
        }
    }
}

/// Recovery composes with the framed transport: under 5 % loss and a
/// mid-flight crash every survivor commits (the parent deadlocked here: a
/// rank that tore down never ACKed its predecessor's next frame), and —
/// framing moves bytes, not values — delivers bit for bit what the unframed
/// Shrink run of the same crash does.
#[test]
fn shrink_over_the_framed_transport_survives_a_crash() {
    let (n, nranks) = (4096, 8);
    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
        let opts = opts_for(variant, 1e-4).with_recovery(RecoveryPolicy::Shrink);
        let run_one = |plan: FaultPlan, opts: &CollectiveOpts| {
            SimBuilder::new(nranks)
                .timing(modeled())
                .trace(TraceConfig::default())
                .faults(plan)
                .run(|comm| {
                    allreduce_recoverable(comm, &field(comm.rank(), n), opts).expect("recoverable")
                })
        };
        let plan = FaultPlan::new(29).with_crash(3, 2);
        let unframed = run_one(plan.clone(), &opts);
        let framed = opts.clone().with_resilience(Resilience::default());
        let faulty = run_one(plan.with_drop(0.05), &framed);
        let survivors: Vec<usize> = (0..nranks).filter(|&r| r != 3).collect();
        for &r in &survivors {
            assert_eq!(faulty.value(r).contributors, survivors, "{variant:?} rank {r}");
            assert_eq!(faulty.value(r).value, unframed.value(r).value, "{variant:?} rank {r}");
        }
        let tally = faulty.tally();
        assert!(tally.retransmits > 0, "{variant:?}");
        assert_eq!(tally.recoveries, survivors.len() as u64, "{variant:?}");
    }
}

/// A link that drops everything forces graceful degradation: after
/// `max_retries` the sender falls back to an uncompressed reliable resend,
/// the collective still completes within the (loosened) error budget, and
/// the tally counts degraded segments.
#[test]
fn dead_link_degrades_gracefully_instead_of_aborting() {
    let n = 2048;
    let nranks = 4;
    let eb = 1e-4;
    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
        let opts = opts_for(variant, eb);
        let run_one = |cluster: &SimBuilder, opts: &CollectiveOpts| {
            cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    allreduce(comm, &data, opts).expect("allreduce")
                })
                .expect_clean()
        };
        let baseline = run_one(&SimBuilder::new(nranks).timing(modeled()), &opts);
        let dead = LinkFault { drop_p: 1.0, corrupt_p: 0.0, jitter_s: 0.0 };
        let plan = FaultPlan::new(3).with_link(0, 1, dead);
        let cluster =
            SimBuilder::new(nranks).timing(modeled()).trace(TraceConfig::default()).faults(plan);
        let faulty = run_one(&cluster, &opts.clone().with_resilience(Resilience::default()));
        let degraded = faulty.tally().degraded_segments;
        assert!(degraded > 0, "{variant:?}: a 100%-loss link must exhaust retries and degrade");
        // a degraded hz segment re-quantizes once where it is summed again
        let (exact, tol) =
            exact_and_bound(Op::Allreduce, variant, false, degraded, (nranks, n, eb));
        for (b, f) in baseline.outcomes.iter().zip(&faulty.outcomes) {
            if variant == Variant::Mpi {
                assert_eq!(b.value, f.value, "raw floats resend verbatim");
            }
            for (y, x) in f.value.iter().zip(&exact) {
                assert!(
                    (f64::from(*y) - x).abs() <= tol,
                    "{variant:?}: degraded result {y} strayed from {x} (tol {tol:e})"
                );
            }
        }
    }
}

/// An injected crash takes down its rank with a named panic and cascades to
/// the peers blocked on it; the report records every fate as a value.
#[test]
fn injected_crash_propagates_with_named_payloads() {
    let n = 2048;
    let nranks = 4;
    let plan = FaultPlan::new(1).with_crash(2, 1);
    let report = SimBuilder::new(nranks).timing(modeled()).faults(plan).run(|comm| {
        let data = field(comm.rank(), n);
        let opts = opts_for(Variant::Mpi, 1e-4);
        allreduce(comm, &data, &opts).expect("allreduce")
    });
    let crashed = report.panic_of(2).expect("rank 2 must die");
    assert_eq!(crashed.rank, 2);
    assert!(
        crashed.message.contains("crashed by fault plan"),
        "unexpected crash payload: {}",
        crashed.message
    );
    for (r, fate) in report.fates().iter().enumerate() {
        if r == 2 {
            continue;
        }
        // cascades re-broadcast: a peer may name the original crash or a
        // secondary casualty, but never an unrelated panic
        if let Err(p) = fate {
            assert!(
                p.message.contains("observed crash of rank"),
                "rank {r} died for the wrong reason: {}",
                p.message
            );
        }
    }
}

/// The chaos determinism contract extends to recovery: two runs of a
/// Shrink-policy recoverable collective under the same seeded crash plan
/// replay bit-identically — same survivor values, same committed epoch,
/// and bit-identical virtual-time traces (abort ripple, agreement gossip
/// and the repaired attempt included).
#[test]
fn same_seed_crash_recovery_replays_bit_identically() {
    let n = 4096;
    let nranks = 8;
    let plan = FaultPlan::new(29).with_crash(3, 2).with_crash(6, 4);
    let run = || {
        SimBuilder::new(nranks)
            .timing(modeled())
            .trace(TraceConfig::default())
            .faults(plan.clone())
            .run(|comm| {
                let data = field(comm.rank(), n);
                let opts = opts_for(Variant::Hzccl, 1e-4).with_recovery(RecoveryPolicy::Shrink);
                allreduce_recoverable(comm, &data, &opts).expect("recoverable allreduce")
            })
    };
    let (a, b) = (run(), run());
    for r in (0..nranks).filter(|&r| r != 3 && r != 6) {
        assert_eq!(a.value(r), b.value(r), "rank {r}: recovery diverged across replays");
    }
    assert_eq!(a.traces, b.traces, "recovery traces differ across replays");
}
