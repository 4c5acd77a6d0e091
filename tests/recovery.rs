//! Crash-recovery properties of the self-healing collectives: survivor-sum
//! correctness of the Shrink policies at 8 and 64 ranks under 1–3 seeded
//! crashes, FailFast's historic cascade semantics, fault-free equivalence
//! with the plain verbs, engine-independence of recovery, and the
//! observability surface (tally + critical-path bucket).

use hzccl::chunks::node_chunks;
use hzccl::collectives::{
    self, allreduce_recoverable, reduce_scatter_recoverable, CollectiveOpts, Error, PartialResult,
    RecoveryPolicy,
};
use hzccl::error_bounds::{bound, Call};
use hzccl::{Mode, Variant};
use hzccl_bench::suite::{mpi_survivor_sum, survivor_sum};
use netsim::{
    ComputeTiming, FaultPlan, RunReport, SimBuilder, SimEngine, ThroughputModel, TraceConfig,
};

const EB: f64 = 1e-4;

fn modeled() -> ComputeTiming {
    ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
}

fn field(rank: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.013).sin() * (1.0 + 0.001 * rank as f32)).collect()
}

fn shrink_opts(variant: Variant) -> CollectiveOpts {
    CollectiveOpts::for_variant(variant, EB)
        .with_mode(Mode::SingleThread)
        .with_recovery(RecoveryPolicy::Shrink)
}

/// Every launch rank's input, for the shared oracles
/// (`hzccl_bench::suite::{survivor_sum, mpi_survivor_sum}` — the ones
/// `hzc chaos --crash-rate` gates on).
fn fields(nranks: usize, n: usize) -> Vec<Vec<f32>> {
    (0..nranks).map(|r| field(r, n)).collect()
}

/// The error bound (`hzccl::error_bounds`) of `variant`'s Shrink Allreduce
/// over `survivors` of `nranks` ranks' `n`-element fields.
fn shrink_bound(variant: Variant, nranks: usize, n: usize, survivors: &[usize]) -> f64 {
    let fields = fields(nranks, n);
    let at = |i: usize| survivors.iter().map(|&r| f64::from(fields[r][i]).abs()).sum::<f64>();
    let peak = (0..n).map(at).fold(0.0, f64::max);
    let plan = tuner::Plan::serial(
        variant.flavor(),
        tuner::Algo::Ring,
        Mode::SingleThread,
        fzlight::DEFAULT_BLOCK_LEN,
    );
    let call = Call {
        op: tuner::Op::Allreduce,
        plan,
        policy: RecoveryPolicy::Shrink,
        degraded: 0,
        launched: nranks,
        contributors: survivors.len(),
    };
    let (quantization, representation) = bound(&call, EB, peak);
    quantization + representation
}

fn run_shrink(
    nranks: usize,
    n: usize,
    opts: &CollectiveOpts,
    plan: FaultPlan,
    engine: SimEngine,
) -> RunReport<PartialResult> {
    SimBuilder::new(nranks)
        .timing(modeled())
        .trace(TraceConfig::default())
        .faults(plan)
        .engine(engine)
        .run(|comm| {
            let data = field(comm.rank(), n);
            allreduce_recoverable(comm, &data, opts).expect("recoverable allreduce")
        })
}

/// The acceptance matrix: Shrink allreduce at 8 and 64 ranks for all three
/// flavours under 1–3 seeded crashes. Survivors deliver the survivor sum —
/// bit-exact against the replicated reduction order for `mpi`, bitwise
/// rank-agreeing and error-bounded for the compressed flavours — and the
/// result names exactly the survivors.
#[test]
fn shrink_delivers_survivor_sums_across_scales_flavours_and_crash_counts() {
    let n = 4096;
    for nranks in [8usize, 64] {
        let crash_sets: Vec<Vec<(usize, u64)>> = vec![
            vec![(nranks / 2, 1)],
            vec![(1, 2), (nranks - 1, 4)],
            vec![(nranks / 2, 1), (2, 3), (nranks - 2, 6)],
        ];
        for crashes in crash_sets {
            let mut plan = FaultPlan::new(17);
            for &(r, s) in &crashes {
                plan = plan.with_crash(r, s);
            }
            let dead: Vec<usize> = crashes.iter().map(|&(r, _)| r).collect();
            let survivors: Vec<usize> = (0..nranks).filter(|r| !dead.contains(r)).collect();
            let oracle = survivor_sum(&fields(nranks, n), &survivors);
            let exact = mpi_survivor_sum(&fields(nranks, n), &survivors);
            for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
                let opts = shrink_opts(variant);
                let report = run_shrink(nranks, n, &opts, plan.clone(), SimEngine::default());
                for &r in &dead {
                    let p = report.panic_of(r).expect("seeded ranks must die");
                    assert!(p.message.contains("crashed by fault plan"), "{}", p.message);
                }
                let first = report.value(survivors[0]);
                for &r in &survivors {
                    let got = report.value(r);
                    assert_eq!(
                        got.contributors, survivors,
                        "{variant:?} nranks={nranks}: contributors must name the survivors"
                    );
                    assert!(
                        got.epoch >= 1 && got.epoch as usize <= dead.len(),
                        "{variant:?}: epoch {} outside 1..={}",
                        got.epoch,
                        dead.len()
                    );
                    assert_eq!(
                        got.epoch, first.epoch,
                        "{variant:?}: survivors must commit the same epoch"
                    );
                    if variant == Variant::Mpi {
                        assert_eq!(
                            got.value, exact,
                            "{variant:?} nranks={nranks} crashes={dead:?}: \
                             mpi survivor sum must be bit-exact"
                        );
                    } else {
                        assert_eq!(
                            got.value, first.value,
                            "{variant:?}: compressed survivors must agree bitwise"
                        );
                        let tol = shrink_bound(variant, nranks, n, &survivors);
                        for (a, b) in got.value.iter().zip(&oracle) {
                            assert!(
                                (f64::from(*a) - b).abs() <= tol,
                                "{variant:?} nranks={nranks} crashes={dead:?}: \
                                 {a} vs {b} (tol {tol:e})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// ShrinkRescale is Shrink followed by one deterministic scalar multiply:
/// `n0 / survivors`, the survivor-mean estimator. Bit-exact against the
/// Shrink run of the same crash plan.
#[test]
fn shrink_rescale_scales_the_survivor_sum_toward_the_mean() {
    let nranks = 8;
    let n = 2048;
    let plan = FaultPlan::new(5).with_crash(3, 2);
    let shrink =
        run_shrink(nranks, n, &shrink_opts(Variant::Mpi), plan.clone(), SimEngine::default());
    let rescaled = run_shrink(
        nranks,
        n,
        &CollectiveOpts::mpi().with_recovery(RecoveryPolicy::ShrinkRescale),
        plan,
        SimEngine::default(),
    );
    let scale = nranks as f32 / 7.0;
    for r in (0..nranks).filter(|&r| r != 3) {
        let s = report_value(&shrink, r);
        let x = report_value(&rescaled, r);
        assert_eq!(x.contributors, s.contributors);
        assert_eq!(x.epoch, s.epoch);
        let want: Vec<f32> = s.value.iter().map(|v| v * scale).collect();
        assert_eq!(x.value, want, "rescale must be exactly one multiply on the Shrink value");
    }
}

fn report_value(report: &RunReport<PartialResult>, rank: usize) -> &PartialResult {
    report.value(rank)
}

/// Recoverable reduce-scatter: survivors' owned regions tile the vector and
/// carry the survivor sum of exactly their segments.
#[test]
fn shrink_reduce_scatter_regions_tile_the_vector() {
    let nranks = 8;
    let n = 4096;
    let plan = FaultPlan::new(11).with_crash(5, 1);
    let survivors: Vec<usize> = (0..nranks).filter(|&r| r != 5).collect();
    let exact = mpi_survivor_sum(&fields(nranks, n), &survivors);
    let opts = CollectiveOpts::mpi().with_recovery(RecoveryPolicy::Shrink);
    let report = SimBuilder::new(nranks).timing(modeled()).faults(plan).run(|comm| {
        let data = field(comm.rank(), n);
        reduce_scatter_recoverable(comm, &data, &opts).expect("recoverable reduce_scatter")
    });
    let ranges = node_chunks(n, nranks);
    let groups = node_chunks(nranks, survivors.len());
    let mut covered = 0usize;
    for (v, &r) in survivors.iter().enumerate() {
        let got = report.value(r);
        assert_eq!(got.contributors, survivors);
        let segs = groups[v].clone();
        let lo = ranges[segs.start].start;
        let hi = ranges[segs.end - 1].end;
        assert_eq!(got.value.len(), hi - lo, "rank {r} owns exactly its segment group");
        assert_eq!(got.value, &exact[lo..hi], "rank {r}: bit-exact survivor sum of its region");
        covered += got.value.len();
    }
    assert_eq!(covered, n, "survivor regions tile the vector");
}

/// FailFast is today's semantics, verbatim: the seeded rank dies with the
/// fault plan's panic and every peer that observes the crash cascades with
/// the historic message.
#[test]
fn fail_fast_reproduces_the_historic_crash_cascade() {
    let nranks = 4;
    let n = 2048;
    let plan = FaultPlan::new(1).with_crash(2, 1);
    let opts = CollectiveOpts::mpi(); // FailFast is the default policy
    assert_eq!(opts.recovery(), RecoveryPolicy::FailFast);
    let report = SimBuilder::new(nranks).timing(modeled()).faults(plan).run(|comm| {
        let data = field(comm.rank(), n);
        allreduce_recoverable(comm, &data, &opts).expect("allreduce")
    });
    let crashed = report.panic_of(2).expect("rank 2 must die");
    assert!(crashed.message.contains("crashed by fault plan"), "{}", crashed.message);
    for (r, fate) in report.fates().iter().enumerate() {
        if r == 2 {
            continue;
        }
        let p = fate.as_ref().expect_err("fail-fast peers must cascade");
        assert!(
            p.message.contains("observed crash of rank"),
            "rank {r} died for the wrong reason: {}",
            p.message
        );
    }
}

/// Fault-free recoverable runs commit at epoch 0 with the full communicator
/// as contributors; `mpi` is bit-identical to the plain verb and the
/// compressed flavours stay inside their analytic bounds.
#[test]
fn fault_free_recoverable_runs_match_the_plain_verbs() {
    let nranks = 6;
    let n = 3000;
    let everyone: Vec<usize> = (0..nranks).collect();
    let exact = survivor_sum(&fields(nranks, n), &everyone);
    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
        let plain_opts = CollectiveOpts::for_variant(variant, EB);
        let plain = SimBuilder::new(nranks)
            .timing(modeled())
            .run(|comm| {
                let data = field(comm.rank(), n);
                collectives::allreduce(comm, &data, &plain_opts).expect("plain")
            })
            .expect_clean();
        let opts = shrink_opts(variant);
        let rec = SimBuilder::new(nranks)
            .timing(modeled())
            .run(|comm| {
                let data = field(comm.rank(), n);
                allreduce_recoverable(comm, &data, &opts).expect("recoverable")
            })
            .expect_clean();
        for r in 0..nranks {
            let got = rec.value(r);
            assert_eq!(got.epoch, 0, "{variant:?}: nothing died, epoch must be 0");
            assert_eq!(got.contributors, (0..nranks).collect::<Vec<_>>());
            if variant == Variant::Mpi {
                assert_eq!(
                    &got.value,
                    plain.value(r),
                    "mpi recoverable must reproduce the plain verb bit-for-bit"
                );
            } else {
                // the survivable schedule roundtrips the owner's chunk
                // through the wire codec (for cross-rank bit-agreement), so
                // the compressed flavours may leave the plain verb's value,
                // within the Shrink bound of the exact sum
                let tol = shrink_bound(variant, nranks, n, &everyone);
                for (a, b) in got.value.iter().zip(&exact) {
                    assert!((f64::from(*a) - b).abs() <= tol, "{variant:?}: {a} vs {b}");
                }
            }
        }
    }
}

/// The shrinking policies are a typed-error refusal everywhere they cannot
/// hold their contract: plain verbs (no contributor channel) and
/// [`Variant::Auto`] (no stable plan across memberships).
#[test]
fn unsupported_recovery_combinations_are_typed_errors() {
    let report = SimBuilder::new(2).timing(modeled()).run(|comm| {
        let data = vec![1.0f32; 64];
        let shrunk = CollectiveOpts::mpi().with_recovery(RecoveryPolicy::Shrink);
        let plain_verb = matches!(
            collectives::allreduce(comm, &data, &shrunk),
            Err(Error::RecoveryUnsupported { .. })
        );
        let auto = CollectiveOpts::auto(EB).with_recovery(RecoveryPolicy::Shrink);
        let auto_err = match allreduce_recoverable(comm, &data, &auto) {
            Err(Error::RecoveryUnsupported { variant, .. }) => variant == Variant::Auto,
            _ => false,
        };
        (plain_verb, auto_err)
    });
    for r in 0..2 {
        assert_eq!(*report.value(r), (true, true));
    }
}

/// Satellite of the determinism contract: the Events and Threads engines
/// must tell the same recovery story — identical survivor values, epochs,
/// contributors, and bit-identical traces — under the same seeded crash
/// plan.
#[test]
fn engines_agree_on_crash_recovery() {
    if !SimEngine::events_supported() {
        eprintln!("skipping: no fiber support on this target");
        return;
    }
    let nranks = 8;
    let n = 4096;
    for variant in [Variant::Mpi, Variant::Hzccl] {
        let opts = shrink_opts(variant);
        let plan = FaultPlan::new(23).with_crash(4, 2).with_crash(6, 5);
        let ev = run_shrink(nranks, n, &opts, plan.clone(), SimEngine::Events);
        let th = run_shrink(nranks, n, &opts, plan, SimEngine::Threads);
        for r in (0..nranks).filter(|&r| r != 4 && r != 6) {
            assert_eq!(
                ev.value(r),
                th.value(r),
                "{variant:?} rank {r}: engines must agree on the recovered result"
            );
        }
        assert_eq!(ev.traces, th.traces, "{variant:?}: traces must be engine-independent");
    }
}

/// Observability: a recovered run's tally counts its repairs, committed
/// epoch and survivors, and rescale work lands in the critical path's
/// `recovery` bucket.
#[test]
fn recovery_surfaces_in_metrics_and_critical_path() {
    let nranks = 8;
    let n = 4096;
    let plan = FaultPlan::new(3).with_crash(2, 1);
    let opts = CollectiveOpts::hz(EB).with_recovery(RecoveryPolicy::ShrinkRescale);
    let report = run_shrink(nranks, n, &opts, plan, SimEngine::default());
    let tally = report.tally();
    assert!(tally.recoveries >= 1, "a crash-repaired run must count at least one recovery");
    assert_eq!(tally.epoch, 1, "one repair commits at epoch 1");
    assert_eq!(tally.survivors, 7, "seven of eight ranks survive");
    let cp = netsim::CriticalPath::analyze_with_topology(
        &report.traces,
        &netsim::NetConfig::default(),
        None,
    );
    assert!(
        cp.buckets.recovery > 0.0,
        "rescale compute must charge the recovery critical-path bucket"
    );
}
