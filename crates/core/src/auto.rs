//! The auto-selecting front-end ([`Variant::Auto`](crate::Variant)): one
//! rank consults the [`tuner::Engine`], every rank executes the agreed plan.
//!
//! A collective only works if *all* ranks run the same algorithm — a rank
//! doing a compressed ring while its neighbour does recursive doubling
//! deadlocks on mismatched tags. But the inputs that drive the decision
//! (most importantly the probed compression ratio) are rank-local. The
//! protocol here is the standard one:
//!
//! 1. a fixed **decider** rank (rank 0, or the root for rooted ops) probes
//!    its own data, asks the engine for a [`Decision`], and
//! 2. broadcasts the winning [`Plan`] in its wire encoding
//!    ([`Plan::encode`]: 12 bytes, 13 for a hierarchical plan) on a reserved
//!    tag, framed like the collective under a resilience policy, then
//! 3. every rank runs the chosen plan: the ring schedule in the plan's
//!    flavour (flat, segmented or `hierarchy`'s two-tier), or
//!    [`crate::rd`].
//!
//! The probe compression is charged to the virtual clock as
//! [`netsim::OpKind::Other`] (label `auto:probe`) and the plan broadcast is
//! a real simulated message, so auto's overhead is visible in breakdowns and
//! timelines instead of being smuggled in for free.

use crate::collectives::Result;
use crate::config::CollectiveConfig;
use crate::labels;
use crate::pipeline::TAG_PLAN;
use crate::resilient::{Hop, PayloadKind};
use crate::ring::{self, Over, Stop, Verb};
use fzlight::{Config as FzConfig, ErrorBound};
use netsim::{Comm, Topology};
use tuner::{Algo, Decision, Engine, Op, Plan, ScenarioSpec};

/// Elements probe-compressed to estimate the scenario's compression ratio.
/// 16 Ki `f32` (64 KiB) keeps the probe ~1% of a megabyte-class message
/// while spanning thousands of compressor blocks.
const PROBE_ELEMS: usize = 1 << 14;

/// What an auto collective returns: the reduced/broadcast value plus the
/// plan every rank agreed on — and, on the decider rank only, the scenario
/// it saw and the engine's full ranked decision (for `hzc sim`'s "why"
/// output and for feeding measurements back via
/// [`tuner::Engine::observe_measurement`]).
#[derive(Debug, Clone)]
pub struct AutoOutcome {
    /// The collective's result (same shape as the static flavour returns).
    pub value: Vec<f32>,
    /// The plan all ranks executed.
    pub plan: Plan,
    /// Decider-rank extras: `(scenario, decision)`; `None` elsewhere.
    pub detail: Option<(ScenarioSpec, Decision)>,
}

/// The per-call config the plan implies: caller's error bound and resilient
/// transport, plan's block length and thread mode. The tuner's cost model
/// does not price retry/backoff time, but that only skews the *choice* on
/// lossy fabrics — silently stripping `res` would change the *transport*
/// behind the caller's back and leave frames unprotected on the very
/// networks resilience was requested for.
fn cfg_for(plan: &Plan, base: &CollectiveConfig) -> CollectiveConfig {
    CollectiveConfig { eb: base.eb, block_len: plan.block_len, mode: plan.mode, res: base.res }
}

/// The one ratio probe: compress the first 16 Ki elements of `data` at
/// `block_len` and return the compression ratio. With a `comm` the
/// compression is charged to that rank's virtual clock (`auto:probe`);
/// `None` is the offline probe of `hzc tune`. Empty data (non-root ranks of
/// a bcast never call this) or failing compression degrade to ratio 1.0 —
/// "incompressible" is the safe direction, it can only steer the engine
/// toward plain MPI.
pub fn probe_ratio(
    comm: Option<&mut Comm>,
    data: &[f32],
    eb: f64,
    block_len: usize,
    threads: usize,
) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let sample = &data[..data.len().min(PROBE_ELEMS)];
    let logical = sample.len() * 4;
    let fz = FzConfig::new(ErrorBound::Abs(eb)).with_block_len(block_len).with_threads(threads);
    let probe = || {
        fzlight::compress(sample, &fz)
            .map(|s| logical as f64 / s.compressed_size().max(1) as f64)
            .unwrap_or(1.0)
    };
    let ratio = match comm {
        Some(comm) => comm.compute(labels::AUTO_PROBE, logical, probe),
        None => probe(),
    };
    ratio.max(1.0)
}

/// Decide on `decider` — which probes its `data` into the scenario the
/// engine is asked about (a `topology` puts it in its own cache bucket and
/// lets the engine offer hierarchical candidates) — broadcast the encoded
/// plan (12 bytes, 13 for hierarchical plans) down a binomial tree
/// (`ceil(log2 N)` latency rounds instead of the linear `N-1` a naive
/// send-to-all would cost — at 64 ranks that is 6 alpha charges, not 63),
/// decode everywhere. Every tree edge is a [`Hop`] under `cfg.res`, so the
/// broadcast is framed like the collective it plans; a plan has nothing to
/// degrade to, so a sender out of retries resends the same bytes. Returns
/// the agreed plan plus the decider's `(scenario, decision)`.
fn agree_on_plan(
    comm: &mut Comm,
    engine: &Engine,
    op: Op,
    data: &[f32],
    cfg: &CollectiveConfig,
    decider: usize,
    topology: Option<&Topology>,
) -> Result<(Plan, Option<(ScenarioSpec, Decision)>)> {
    let n = comm.size();
    let r = comm.rank();
    let res = cfg.res.as_ref();
    // Position in the tree, relative to the decider (which sits at 0).
    let rel = (r + n - decider) % n;
    let (wire, detail) = if rel == 0 {
        let block_len = fzlight::DEFAULT_BLOCK_LEN;
        let ratio = probe_ratio(Some(comm), data, cfg.eb, block_len, cfg.mode.threads());
        let (elems, nranks, topology) = (data.len(), n, topology.copied());
        let spec = ScenarioSpec { op, elems, nranks, eb: cfg.eb, block_len, ratio, topology };
        let decision = engine.decide(&spec);
        (decision.plan.encode(), Some((spec, decision)))
    } else {
        // parent strips the highest set bit of our relative id
        let parent_rel = rel - (1 << rel.ilog2());
        let parent = (parent_rel + decider) % n;
        let hop = Hop::new(parent, parent, res);
        (hop.recv_from(comm, parent, TAG_PLAN, PayloadKind::RawF32).map_err(Stop::from)?.0, None)
    };
    // forward to children: rel + 2^k for every k above our own highest bit
    let mut k = if rel == 0 { 0 } else { rel.ilog2() + 1 };
    loop {
        let child_rel = rel + (1usize << k);
        if child_rel >= n {
            break;
        }
        let (child, payload) = ((child_rel + decider) % n, (wire.clone(), PayloadKind::RawF32));
        let hop = Hop::new(child, child, res);
        // (a raw payload out of retries is resent as it is)
        hop.send_to(comm, child, TAG_PLAN, payload, wire.len(), |_| unreachable!())
            .map_err(Stop::from)?;
        k += 1;
    }
    let plan = Plan::decode(&wire).expect("auto: malformed plan broadcast");
    Ok((plan, detail))
}

/// The one plan executor: run `op` (rooted at `root`; every rank passes a
/// full-length `data`, a Bcast reads only the root's) exactly as `plan`
/// says. Every rank must pass the *same* plan — this is what an auto
/// collective runs once the plan is agreed, what a [`Session`] replays with
/// zero overhead, and how a tuner sweep measures a candidate. A
/// hierarchical plan needs the `topology` it was decided for; without one
/// it falls back to the flat schedule of the same flavour (correct, just
/// not topology-shaped).
pub fn run_planned(
    comm: &mut Comm,
    op: Op,
    root: usize,
    data: &[f32],
    cfg: &CollectiveConfig,
    plan: &Plan,
    topology: Option<&Topology>,
) -> Result<Vec<f32>> {
    let pcfg = cfg_for(plan, cfg);
    let topo = topology.filter(|t| plan.hierarchical && t.nranks() == comm.size());
    let verb = Verb::of(op, root, data.len());
    let over = match (topo, plan.algo) {
        (Some(topo), _) => Over::Tiers(topo),
        (None, Algo::Rd) if verb == Verb::Allreduce => Over::Doubling,
        (None, _) => Over::Flat,
    };
    ring::run(comm, verb, plan.flavor, data, &pcfg, plan.segments, over)
}

/// The auto collective: agree on a plan for `op`, then run it
/// ([`run_planned`]). The decider is rank 0, or `root` for a rooted op (it
/// holds the result or the data to probe, and with it the strongest
/// interest in the plan). On a two-tier `topology` the Allreduce candidate
/// pool additionally holds the hierarchical schedules, so the agreed plan
/// may come back with [`Plan::hierarchical`] set; the other ops have flat
/// schedules only and ignore it.
pub fn run(
    comm: &mut Comm,
    op: Op,
    root: usize,
    data: &[f32],
    cfg: &CollectiveConfig,
    engine: &Engine,
    topology: Option<&Topology>,
) -> Result<AutoOutcome> {
    let decider = if matches!(op, Op::Reduce | Op::Bcast) { root } else { 0 };
    let topology = topology.filter(|_| op == Op::Allreduce);
    let (plan, detail) = agree_on_plan(comm, engine, op, data, cfg, decider, topology)?;
    let value = run_planned(comm, op, root, data, cfg, &plan, topology)?;
    Ok(AutoOutcome { value, plan, detail })
}

/// Per-rank plan memo for iterative workloads: the first call for a scenario
/// bucket pays the probe + agreement; repeats hit the memo and dispatch with
/// **zero** extra traffic. Correct because [`ScenarioSpec::bucket_key`]
/// depends only on rank-identical quantities (op, size, rank count, error
/// bound) — every rank hits or misses the memo in lockstep, so no rank
/// blocks in an agreement round its peers skipped.
#[derive(Debug, Clone, Default)]
pub struct Session {
    plans: std::collections::BTreeMap<String, Plan>,
}

impl Session {
    /// Memoized [`run`]: `op` with the bucket's plan, agreeing on first use
    /// only (flat fabric).
    pub fn run(
        &mut self,
        comm: &mut Comm,
        op: Op,
        root: usize,
        data: &[f32],
        cfg: &CollectiveConfig,
        engine: &Engine,
    ) -> Result<AutoOutcome> {
        // rank-identical by construction
        let key = ScenarioSpec::new(op, data.len(), comm.size(), cfg.eb, 1, 1.0).bucket_key();
        if let Some(&plan) = self.plans.get(&key) {
            let value = run_planned(comm, op, root, data, cfg, &plan, None)?;
            return Ok(AutoOutcome { value, plan, detail: None });
        }
        let out = run(comm, op, root, data, cfg, engine, None)?;
        self.plans.insert(key, out.plan);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use netsim::{ComputeTiming, SimBuilder};
    use tuner::{DecisionSource, Flavor};

    fn engine() -> Engine {
        Engine::paper()
    }

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(tuner::paper_prior(Flavor::Hzccl, false))
    }

    fn field(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.003).sin() * (1.0 + rank as f32 * 0.01)).collect()
    }

    fn exact_sum(nranks: usize, n: usize) -> Vec<f32> {
        let mut acc = vec![0f32; n];
        for r in 0..nranks {
            for (a, b) in acc.iter_mut().zip(field(r, n)) {
                *a += b;
            }
        }
        acc
    }

    /// The bound of `plan` running `op` over the first `nranks` fields
    /// (`crate::error_bounds`).
    fn tol(op: Op, plan: &Plan, eb: f64, nranks: usize, n: usize, degraded: u64) -> f64 {
        let fields: Vec<Vec<f32>> = (0..nranks).map(|r| field(r, n)).collect();
        let call = crate::error_bounds::ring(op, plan.flavor, nranks);
        let call = crate::error_bounds::Call { plan: *plan, degraded, ..call };
        crate::error_bounds::tolerance(&call, eb, &fields)
    }

    #[test]
    fn auto_allreduce_agrees_and_is_correct() {
        let nranks = 4;
        let n = 1 << 14;
        let eb = 1e-3;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let eng = engine();
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                run(comm, Op::Allreduce, 0, &data, &cfg, &eng, None).expect("auto allreduce")
            })
            .expect_clean()
            .outcomes;
        // every rank executed the same plan …
        let plan = outcomes[0].value.plan;
        assert!(outcomes.iter().all(|o| o.value.plan == plan), "plan mismatch across ranks");
        // … only the decider carries the explanation …
        assert!(outcomes[0].value.detail.is_some());
        assert!(outcomes[1..].iter().all(|o| o.value.detail.is_none()));
        // … and the result is the error-bounded sum on every rank.
        let (exact, tol) = (exact_sum(nranks, n), tol(Op::Allreduce, &plan, eb, nranks, n, 0));
        for o in &outcomes {
            let max_err = o
                .value
                .value
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(max_err <= tol, "err {max_err}");
        }
    }

    #[test]
    fn small_allreduce_takes_the_rd_shortcut() {
        let cfg = CollectiveConfig::new(1e-4, Mode::SingleThread);
        let eng = engine();
        let cluster = SimBuilder::new(4).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let data = field(comm.rank(), 256); // 1 KiB, far below the small-message cutoff
                run(comm, Op::Allreduce, 0, &data, &cfg, &eng, None).expect("auto allreduce")
            })
            .expect_clean()
            .outcomes;
        assert_eq!(outcomes[0].value.plan.algo, Algo::Rd);
        let (_, d) = outcomes[0].value.detail.as_ref().unwrap();
        assert_eq!(d.source, DecisionSource::SmallMessage);
    }

    /// An rd plan under a resilience policy runs recursive doubling framed
    /// — its hops are the ring's — where it used to run the ring in its
    /// place: in every flavour by plan, and as auto's pick.
    #[test]
    fn rd_picks_run_framed_under_resilience() {
        use crate::pipeline::decode_tag;
        use crate::resilient::Resilience;
        use netsim::{Event, FaultPlan, RunReport, TraceConfig};
        let (nranks, n, eb) = (5, 256, 1e-4);
        let base = CollectiveConfig::new(eb, Mode::SingleThread);
        let cfg = CollectiveConfig { res: Some(Resilience::default()), ..base };
        let lossy = || {
            let sim = SimBuilder::new(nranks).timing(modeled()).trace(TraceConfig::default());
            sim.faults(FaultPlan::new(3).with_drop(0.1))
        };
        // the phases of every data message sent, and the retransmits
        let wire = |report: &RunReport<Vec<f32>>| {
            let events = report.traces.iter().flat_map(|t| &t.events);
            let sends = events.filter_map(|e| match e {
                Event::Send { tag, .. } => decode_tag(*tag).filter(|t| !t.ctrl),
                _ => None,
            });
            let phases: std::collections::BTreeSet<&str> = sends.map(|t| t.phase).collect();
            (phases.into_iter().collect::<Vec<_>>(), report.tally().retransmits > 0)
        };
        let exact = exact_sum(nranks, n);
        for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
            let plan = Plan::serial(flavor, Algo::Rd, Mode::SingleThread, 32);
            let report = lossy().run(|comm| {
                let data = field(comm.rank(), n);
                run_planned(comm, Op::Allreduce, 0, &data, &cfg, &plan, None).expect("rd")
            });
            assert_eq!(wire(&report), (vec!["fold", "rd"], true), "{}", plan.label());
            let degraded = report.tally().degraded_segments;
            let tol = tol(Op::Allreduce, &plan, eb, nranks, n, degraded);
            for v in report.values() {
                assert!(v.iter().zip(&exact).all(|(a, b)| ((a - b).abs() as f64) <= tol));
            }
        }
        // the auto collective takes the small-message shortcut, framed
        let report = lossy().run(|comm| {
            let data = field(comm.rank(), n);
            let out = run(comm, Op::Allreduce, 0, &data, &cfg, &engine(), None).expect("auto");
            assert_eq!(out.plan.algo, Algo::Rd);
            out.value
        });
        assert_eq!(wire(&report), (vec!["fold", "plan", "rd"], true));
    }

    #[test]
    fn auto_agrees_on_the_hierarchical_plan_on_a_two_tier_fabric() {
        // paper 8x8 topology at 1 MiB: the engine's two-tier forms must win,
        // every rank must execute the same hierarchical plan, and the result
        // stays the error-bounded sum
        let topo = Topology::paper(8, 8);
        let n = 1 << 18;
        let eb = 1e-4;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let eng = engine();
        let cluster = SimBuilder::new(topo.nranks()).timing(modeled()).topology(topo);
        let outcomes = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                run(comm, Op::Allreduce, 0, &data, &cfg, &eng, Some(&topo)).expect("auto allreduce")
            })
            .expect_clean()
            .outcomes;
        let plan = outcomes[0].value.plan;
        // the model is free to pick whichever flavour's hierarchy prices
        // cheapest (at single-thread paper calibration the raw-summation
        // table makes mpi's intra phases nearly free), but the schedule
        // itself must be two-tier
        assert!(plan.hierarchical, "expected a hierarchical plan, got {}", plan.label());
        assert!(outcomes.iter().all(|o| o.value.plan == plan), "plan mismatch across ranks");
        let exact = exact_sum(topo.nranks(), n);
        let tol = tol(Op::Allreduce, &plan, eb, topo.nranks(), n, 0);
        for o in &outcomes {
            let max_err = o
                .value
                .value
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(max_err <= tol, "err {max_err}");
        }
    }

    #[test]
    fn auto_reduce_and_bcast_use_the_root_as_decider() {
        let nranks = 4;
        let n = 4096;
        let root = 2;
        let eb = 1e-3;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let eng = engine();

        let cluster = SimBuilder::new(nranks).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                run(comm, Op::Reduce, root, &data, &cfg, &eng, None).expect("auto reduce")
            })
            .expect_clean()
            .outcomes;
        let exact = exact_sum(nranks, n);
        for (r, o) in outcomes.iter().enumerate() {
            assert_eq!(o.value.detail.is_some(), r == root, "only the root explains");
            if r != root {
                assert!(o.value.value.is_empty(), "rank {r} must not hold the result");
                continue;
            }
            assert_eq!(o.value.value.len(), n);
            let max_err = o
                .value
                .value
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(max_err <= tol(Op::Reduce, &o.value.plan, eb, nranks, n, 0), "err {max_err}");
        }

        let cluster = SimBuilder::new(nranks).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                // MPI semantics: a full-length buffer everywhere, read on the root only
                let data = if comm.rank() == root { field(root, n) } else { vec![f32::NAN; n] };
                run(comm, Op::Bcast, root, &data, &cfg, &eng, None).expect("auto bcast")
            })
            .expect_clean()
            .outcomes;
        let want = field(root, n);
        let call = crate::error_bounds::ring(Op::Bcast, outcomes[root].value.plan.flavor, nranks);
        let tol = crate::error_bounds::tolerance(&call, eb, std::slice::from_ref(&want));
        for o in &outcomes {
            let max_err = o
                .value
                .value
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            assert!(max_err <= tol, "bcast err {max_err}");
        }
    }

    #[test]
    fn session_amortizes_the_agreement() {
        let nranks = 8;
        let n = 1 << 14;
        let cfg = CollectiveConfig::new(1e-3, Mode::SingleThread);
        let eng = engine();
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                let mut session = Session::default();
                let cold = session.run(comm, Op::Allreduce, 0, &data, &cfg, &eng).expect("cold");
                let cold_elapsed = comm.elapsed();
                comm.reset_clock();
                let warm = session.run(comm, Op::Allreduce, 0, &data, &cfg, &eng).expect("warm");
                (cold, cold_elapsed, warm, comm.elapsed())
            })
            .expect_clean()
            .outcomes;
        for o in &outcomes {
            let (cold, cold_elapsed, warm, warm_elapsed) = &o.value;
            assert_eq!(cold.plan, warm.plan, "memo must replay the agreed plan");
            assert!(warm.detail.is_none(), "warm calls never re-decide");
            assert!(
                warm_elapsed < cold_elapsed,
                "warm {warm_elapsed} must undercut cold {cold_elapsed} (no probe, no broadcast)"
            );
        }
        // decider's detail only on the cold call of rank 0
        assert!(outcomes[0].value.0.detail.is_some());
    }

    #[test]
    fn resilience_composes_with_auto_instead_of_being_stripped() {
        // regression: Auto used to silently strip the resilience policy, so
        // a resilient call was bit- and time-identical to a plain one. Now
        // the agreed plan runs over the resilient transport — same values
        // on a clean fabric, but the framing (CRC frames + ACK round trips)
        // visibly reaches the wire.
        let nranks = 4;
        let n = 1 << 12;
        let eb = 1e-3;
        let eng = engine();
        let run = |res: Option<crate::resilient::Resilience>| {
            let cfg = CollectiveConfig { res, ..CollectiveConfig::new(eb, Mode::SingleThread) };
            let cluster = SimBuilder::new(nranks).timing(modeled());
            let report = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    run(comm, Op::Allreduce, 0, &data, &cfg, &eng, None)
                        .expect("auto allreduce")
                        .value
                })
                .expect_clean();
            (report.stats.makespan, report.outcomes[0].value.clone())
        };
        let (t_plain, v_plain) = run(None);
        let (t_res, v_res) = run(Some(crate::resilient::Resilience::default()));
        assert!(
            t_res > t_plain,
            "resilient framing must reach the wire under Auto: {t_res} vs {t_plain}"
        );
        // a framed hop delivers the bytes a plain one does
        assert_eq!(v_res, v_plain);
    }

    #[test]
    fn auto_reduce_scatter_matches_static_result_shape() {
        let nranks = 4;
        let n = 4096;
        let cfg = CollectiveConfig::new(1e-3, Mode::SingleThread);
        let eng = engine();
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let outcomes = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                run(comm, Op::ReduceScatter, 0, &data, &cfg, &eng, None)
                    .expect("auto reduce_scatter")
            })
            .expect_clean()
            .outcomes;
        let total: usize = outcomes.iter().map(|o| o.value.value.len()).sum();
        assert_eq!(total, n, "chunks tile the vector");
    }
}
