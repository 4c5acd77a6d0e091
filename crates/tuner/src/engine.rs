//! The decision engine: enumerate candidate plans for a scenario, rank them
//! by predicted cost from the analytical model (`costmodel` with this
//! engine's calibrated constants), and prefer measured winners from the
//! tuning cache when the scenario bucket has been seen before.
//!
//! Decision precedence:
//!
//! 1. **Cache** — the bucket has a measured winner that [`Engine::candidates`]
//!    still offers: trust the measurement.
//! 2. **Small-message short-circuit** — tiny `Allreduce`s are latency-bound;
//!    the ring's `2(N-1)` alpha charges can never beat recursive doubling's
//!    `ceil(log2 N)`, so only `rd` candidates are ranked.
//! 3. **Model** — rank every candidate by the Sec. III-C closed forms.
//!
//! Decisions are pure functions of the engine state and the spec
//! (`tests/properties.rs` pins determinism), so every rank of a collective
//! that evaluates the same spec against the same engine picks the same plan.

use crate::cache::TuningCache;
use crate::calibration::Calibration;
use crate::plan::{Algo, Flavor, Mode, Op, Plan, ScenarioSpec};
use netsim::{Json, RunReport};

/// Where a decision came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// A measured winner from the tuning cache.
    Cache,
    /// The latency-bound small-message short-circuit (rd candidates only).
    SmallMessage,
    /// Full analytical ranking.
    Model,
}

impl DecisionSource {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DecisionSource::Cache => "cache",
            DecisionSource::SmallMessage => "small-message",
            DecisionSource::Model => "model",
        }
    }
}

/// One candidate with its predicted completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The candidate plan.
    pub plan: Plan,
    /// Predicted completion time in seconds.
    pub secs: f64,
}

/// The engine's answer: the chosen plan, why, and the full ranking (for the
/// CLI's "why" print-out and for drift diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The plan to execute.
    pub plan: Plan,
    /// How the plan was chosen.
    pub source: DecisionSource,
    /// All candidates, best first, with model predictions.
    pub ranked: Vec<Prediction>,
    /// Human-readable explanation.
    pub why: String,
}

/// `Allreduce` messages at or below this many bytes short-circuit to
/// recursive doubling.
const SMALL_MESSAGE_BYTES: usize = 64 << 10;

/// Ring-step segment counts offered to *compressed flat ring* plans (1 =
/// phase-serial; `S > 1` = pipelined, overlapping (de)compression /
/// homomorphic work with the wire). Plain-MPI rings, recursive doubling and
/// the hierarchical schedule only get the serial entry — their overlappable
/// compute is too small (mpi), the schedule has no ring steps (rd), or the
/// inter ring moves 1/ppn-size slices (hier) for segmentation to pay for its
/// extra α-injections.
const SEGMENT_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

/// Cost-model-guided autotuner with online calibration and a persistent
/// cache: what it has learned, nothing else. See the crate docs for the full
/// architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Engine {
    /// Calibrated model constants (throughputs + network law).
    pub calib: Calibration,
    /// Measured winners per scenario bucket.
    pub cache: TuningCache,
}

impl Engine {
    /// Engine seeded from the paper calibration with an empty cache.
    pub fn paper() -> Engine {
        Engine { calib: Calibration::paper(), cache: TuningCache::new() }
    }

    /// Enumerate every executable candidate for `spec` (before the
    /// small-message short-circuit). Stable order: the flat plans by
    /// flavour, algorithm and segments, then — on a two-tier Allreduce — the
    /// hierarchical ones by flavour. Every candidate is single-thread
    /// ([`Mode::SingleThread`]) and runs at the block length the scenario's
    /// ratio was probed at.
    pub fn candidates(&self, spec: &ScenarioSpec) -> Vec<Plan> {
        let allreduce = spec.op == Op::Allreduce;
        let two_tier = allreduce && spec.two_tier_topology().is_some();
        let mut out = Vec::new();
        for hierarchical in [false, true].into_iter().filter(|&h| !h || two_tier) {
            for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
                // recursive doubling: a flat Allreduce schedule. C-Coll's runs
                // by plan only: offering it would change the candidate set
                // every tuned cache and sweep was measured over
                let rd = allreduce && !hierarchical && flavor != Flavor::CColl;
                let algos: &[Algo] = if rd { &[Algo::Ring, Algo::Rd] } else { &[Algo::Ring] };
                let compressed = flavor != Flavor::Mpi;
                for &algo in algos {
                    let segmented = compressed && algo == Algo::Ring && !hierarchical;
                    let segs = if segmented { &SEGMENT_CANDIDATES[..] } else { &[1][..] };
                    out.extend(segs.iter().map(|&segments| Plan {
                        flavor,
                        algo,
                        mode: Mode::SingleThread,
                        block_len: spec.block_len,
                        segments,
                        hierarchical,
                    }));
                }
            }
        }
        out
    }

    /// Predicted completion time of `plan` on `spec` from the analytical
    /// model with this engine's calibrated constants.
    pub fn predict(&self, spec: &ScenarioSpec, plan: &Plan) -> f64 {
        let ratio = if plan.flavor == Flavor::Mpi { 1.0 } else { spec.ratio.max(1.0) };
        let s = costmodel::Scenario {
            nranks: spec.nranks.max(1),
            message_bytes: spec.message_bytes().max(1),
            ratio,
            net: self.calib.net(),
            thr: self.calib.model(plan.flavor, plan.mode),
        };
        // a hierarchical plan without a two-tier topology cannot come out of
        // candidates(); it is priced as the flat schedule it would run as
        let topology = spec.two_tier_topology().filter(|_| plan.hierarchical);
        costmodel::predict(&s, spec.op, plan.flavor, plan.algo, plan.segments, topology)
    }

    /// Rank `plans` by prediction, best first; ties break on the plan's
    /// stable ordering so the result is deterministic.
    fn rank(&self, spec: &ScenarioSpec, plans: &[Plan]) -> Vec<Prediction> {
        let mut ranked: Vec<Prediction> = plans
            .iter()
            .map(|&plan| Prediction { plan, secs: self.predict(spec, &plan) })
            .collect();
        ranked.sort_by(|a, b| {
            a.secs
                .partial_cmp(&b.secs)
                .expect("cost predictions are finite")
                .then_with(|| a.plan.cmp(&b.plan))
        });
        ranked
    }

    /// Decide the plan for `spec`. Pure: identical engine state + spec give
    /// an identical decision.
    pub fn decide(&self, spec: &ScenarioSpec) -> Decision {
        let key = spec.bucket_key();
        let all = self.candidates(spec);
        // a cached winner is trusted only if this engine would offer it: a
        // state file cannot smuggle in a plan the executors never run
        if let Some(entry) = self.cache.get(&key).filter(|e| all.contains(&e.plan)) {
            let ranked = self.rank(spec, &all);
            let why = format!(
                "cache hit for bucket {key}: {} measured at {:.3} ms over {} sample(s) \
                 (model now predicts {:.3} ms)",
                entry.plan.label(),
                entry.measured_secs * 1e3,
                entry.samples,
                self.predict(spec, &entry.plan) * 1e3,
            );
            return Decision { plan: entry.plan, source: DecisionSource::Cache, ranked, why };
        }
        let small = spec.op == Op::Allreduce && spec.message_bytes() <= SMALL_MESSAGE_BYTES;
        let (pool, source) = if small {
            let rd: Vec<Plan> = all.iter().copied().filter(|p| p.algo == Algo::Rd).collect();
            if rd.is_empty() {
                (all, DecisionSource::Model)
            } else {
                (rd, DecisionSource::SmallMessage)
            }
        } else {
            (all, DecisionSource::Model)
        };
        let ranked = self.rank(spec, &pool);
        let best = ranked.first().expect("candidate pool is never empty");
        let why = match source {
            DecisionSource::SmallMessage => format!(
                "message {} B <= {} B: latency-bound, short-circuit to recursive doubling; \
                 model picks {} at {:.3} ms",
                spec.message_bytes(),
                SMALL_MESSAGE_BYTES,
                best.plan.label(),
                best.secs * 1e3,
            ),
            _ => {
                let runner_up = ranked
                    .get(1)
                    .map(|p| format!("; runner-up {} at {:.3} ms", p.plan.label(), p.secs * 1e3))
                    .unwrap_or_default();
                format!(
                    "no measurement for bucket {key}: analytical model picks {} at {:.3} ms{}",
                    best.plan.label(),
                    best.secs * 1e3,
                    runner_up,
                )
            }
        };
        Decision { plan: best.plan, source, ranked, why }
    }

    /// Absorb one simulated/measured run: feed the report's flight-recorder
    /// traces to the calibration loop and record the makespan in the cache.
    /// Returns the makespan it recorded.
    pub fn observe_run<R>(
        &mut self,
        spec: &ScenarioSpec,
        plan: &Plan,
        report: &RunReport<R>,
    ) -> f64 {
        let makespan = report.stats.makespan;
        self.calib.absorb_run(plan.flavor, plan.mode, report);
        self.observe_measurement(spec, plan, makespan);
        makespan
    }

    /// Record a bare completion-time measurement (no traces to calibrate
    /// from) in the tuning cache.
    pub fn observe_measurement(&mut self, spec: &ScenarioSpec, plan: &Plan, secs: f64) {
        let model = self.predict(spec, plan);
        self.cache.record(&spec.bucket_key(), *plan, secs, model);
    }

    /// Serialize what the engine learned (calibration + cache) to JSON.
    ///
    /// Schema version 4, the only one [`Engine::from_json`] accepts.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Num(4.0)),
            ("calibration", self.calib.to_json()),
            ("cache", self.cache.to_json()),
        ])
    }

    /// Parse [`Engine::to_json`]'s output back.
    pub fn from_json(doc: &Json) -> Result<Engine, String> {
        let version = doc.get("version").and_then(Json::as_f64).unwrap_or(0.0);
        if version != 4.0 {
            return Err(format!("unsupported tuner state version {version}"));
        }
        let calib = Calibration::from_json(
            doc.get("calibration").ok_or("tuner state: missing calibration")?,
        )?;
        let cache = TuningCache::from_json(doc.get("cache").ok_or("tuner state: missing cache")?)?;
        Ok(Engine { calib, cache })
    }

    /// Write the engine state to `path` (compact JSON).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render())
    }

    /// Load an engine saved with [`Engine::save`].
    pub fn load(path: &std::path::Path) -> Result<Engine, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Engine::from_json(&Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(elems: usize, nranks: usize, ratio: f64) -> ScenarioSpec {
        ScenarioSpec::new(Op::Allreduce, elems, nranks, 1e-4, 32, ratio)
    }

    #[test]
    fn small_messages_short_circuit_to_rd() {
        let engine = Engine::paper();
        let d = engine.decide(&spec(256, 64, 6.0)); // 1 KiB
        assert_eq!(d.source, DecisionSource::SmallMessage);
        assert_eq!(d.plan.algo, Algo::Rd);
        assert!(d.why.contains("short-circuit"), "{}", d.why);
    }

    #[test]
    fn large_compressible_messages_pick_the_homomorphic_ring() {
        let engine = Engine::paper();
        let d = engine.decide(&spec(1 << 22, 64, 7.0)); // 16 MiB, ratio 7
        assert_eq!(d.source, DecisionSource::Model);
        assert_eq!(d.plan.flavor, Flavor::Hzccl);
        assert_eq!(d.plan.algo, Algo::Ring);
    }

    #[test]
    fn incompressible_large_messages_fall_back_to_mpi() {
        let mut engine = Engine::paper();
        // make compression cost real but useless: ratio ~1, slow compressor
        engine.calib.thr.insert(Calibration::key(Flavor::Hzccl, false), [0.05, 0.1, 0.3, 2.8, 6.0]);
        engine.calib.thr.insert(Calibration::key(Flavor::CColl, false), [0.05, 0.1, 0.3, 2.8, 6.0]);
        let d = engine.decide(&spec(1 << 22, 64, 1.02));
        assert_eq!(d.plan.flavor, Flavor::Mpi, "{}", d.why);
    }

    #[test]
    fn cache_overrides_the_model() {
        let mut engine = Engine::paper();
        let s = spec(1 << 20, 8, 7.0);
        let slow_plan = Plan::serial(Flavor::CColl, Algo::Ring, Mode::SingleThread, 32);
        engine.observe_measurement(&s, &slow_plan, 0.001);
        let d = engine.decide(&s);
        assert_eq!(d.source, DecisionSource::Cache);
        assert_eq!(d.plan, slow_plan, "{}", d.why);
        assert!(d.why.contains("cache hit"), "{}", d.why);
    }

    #[test]
    fn candidates_exclude_unimplemented_combinations() {
        let engine = Engine::paper();
        for op in [Op::ReduceScatter, Op::Reduce, Op::Bcast] {
            let plans = engine.candidates(&ScenarioSpec::new(op, 1 << 16, 8, 1e-4, 32, 5.0));
            assert!(plans.iter().all(|p| p.algo == Algo::Ring), "{op:?} is ring-only");
        }
        let ar = engine.candidates(&spec(1 << 16, 8, 5.0));
        // C-Coll's recursive doubling runs by plan only
        assert!(!ar.iter().any(|p| p.flavor == Flavor::CColl && p.algo == Algo::Rd));
        assert!(ar.iter().any(|p| p.flavor == Flavor::Hzccl && p.algo == Algo::Rd));
        assert!(ar.iter().any(|p| p.flavor == Flavor::Mpi && p.algo == Algo::Rd));
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let engine = Engine::paper();
        let s = spec(1 << 20, 16, 6.0);
        let d = engine.decide(&s);
        assert_eq!(d.ranked.len(), engine.candidates(&s).len());
        for w in d.ranked.windows(2) {
            assert!(w[0].secs <= w[1].secs);
        }
        assert_eq!(d.ranked[0].plan, d.plan);
    }

    #[test]
    fn predictions_scale_with_message_size() {
        let engine = Engine::paper();
        let p = Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, 32);
        let small = engine.predict(&spec(1 << 14, 8, 5.0), &p);
        let big = engine.predict(&spec(1 << 20, 8, 5.0), &p);
        assert!(big > small);
    }

    #[test]
    fn segmented_candidates_exist_only_on_compressed_rings() {
        let engine = Engine::paper();
        let plans = engine.candidates(&spec(1 << 20, 8, 6.0));
        assert!(
            plans
                .iter()
                .any(|p| p.flavor == Flavor::Hzccl && p.algo == Algo::Ring && p.segments > 1),
            "hz ring must offer pipelined candidates"
        );
        assert!(
            plans.iter().any(|p| p.flavor == Flavor::CColl && p.segments > 1),
            "ccoll ring must offer pipelined candidates"
        );
        for p in &plans {
            if p.flavor == Flavor::Mpi || p.algo == Algo::Rd {
                assert_eq!(p.segments, 1, "{} must stay serial", p.label());
            }
        }
    }

    #[test]
    fn compute_bound_scenarios_decide_on_a_segmented_plan() {
        // 4 MiB/rank at 64 ranks, paper ST calibration, compressible: the
        // pipelined closed form predicts segmentation hides the wire behind
        // the JIT CPR + HPR chain, so the model must pick S > 1 — and the
        // prediction must agree with calling the costmodel directly.
        let engine = Engine::paper();
        let s = spec(1 << 20, 64, 7.0); // 4 MiB
        let d = engine.decide(&s);
        assert_eq!(d.source, DecisionSource::Model);
        assert_eq!(d.plan.flavor, Flavor::Hzccl, "{}", d.why);
        assert_eq!(d.plan.algo, Algo::Ring, "{}", d.why);
        assert!(d.plan.segments > 1, "compute-bound run must pipeline: {}", d.why);
        let serial = engine.predict(&s, &Plan { segments: 1, ..d.plan });
        let best = engine.predict(&s, &d.plan);
        assert!(best < serial, "pipelined prediction must undercut serial");
    }

    #[test]
    fn hierarchical_candidates_appear_only_on_two_tier_topologies() {
        let engine = Engine::paper();
        let flat = spec(1 << 18, 64, 7.0);
        assert!(engine.candidates(&flat).iter().all(|p| !p.hierarchical));
        let topo = ScenarioSpec {
            topology: Some(netsim::Topology::paper(8, 8)),
            ..spec(1 << 18, 64, 7.0)
        };
        let plans = engine.candidates(&topo);
        assert!(plans.iter().any(|p| p.hierarchical && p.flavor == Flavor::Hzccl));
        assert!(
            plans.iter().filter(|p| p.hierarchical).all(|p| p.segments == 1),
            "hierarchical plans stay serial"
        );
        // degenerate shapes (one node, or one rank per node) offer none
        for degenerate in [netsim::Topology::paper(1, 64), netsim::Topology::paper(64, 1)] {
            let d = ScenarioSpec { topology: Some(degenerate), ..spec(1 << 18, 64, 7.0) };
            assert!(engine.candidates(&d).iter().all(|p| !p.hierarchical));
        }
        // and non-allreduce ops never get the hierarchical schedule
        let rs = ScenarioSpec {
            topology: Some(netsim::Topology::paper(8, 8)),
            ..ScenarioSpec::new(Op::ReduceScatter, 1 << 18, 64, 1e-4, 32, 7.0)
        };
        assert!(engine.candidates(&rs).iter().all(|p| !p.hierarchical));
    }

    /// Golden crossover: at the paper calibration on 8 nodes x 8 ranks/node
    /// (inter-node links 10x slower than node-local), a 1 MiB Allreduce must
    /// decide on a *hierarchical* plan — the flavour is the model's call
    /// (the single-thread raw-summation table makes mpi's intra phases
    /// nearly free, so mpi-hier may out-price hz-hier) — and the model must
    /// price the hierarchical hz ring at least 30% under the flat hz ring.
    /// On the same scenario without a topology the flat plans are all that
    /// exist.
    #[test]
    fn golden_auto_picks_hierarchy_on_the_paper_topology() {
        let engine = Engine::paper();
        let topo = netsim::Topology::paper(8, 8);
        let s = ScenarioSpec { topology: Some(topo), ..spec(1 << 18, 64, 7.0) }; // 1 MiB
        let d = engine.decide(&s);
        assert_eq!(d.source, DecisionSource::Model);
        assert!(d.plan.hierarchical, "must pick the hierarchical schedule: {}", d.why);
        let flat_hz =
            engine.predict(&s, &Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, 32));
        let hier_hz = engine.predict(
            &s,
            &Plan {
                hierarchical: true,
                ..Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, 32)
            },
        );
        assert!(hier_hz <= 0.7 * flat_hz, "hier {hier_hz} must undercut flat {flat_hz} by >=30%");
        // and the winner prices at or under the hz hierarchy
        assert!(engine.predict(&s, &d.plan) <= hier_hz);
        // stripped of the topology, the same scenario decides flat
        let d_flat = engine.decide(&spec(1 << 18, 64, 7.0));
        assert!(!d_flat.plan.hierarchical);
    }

    #[test]
    fn engine_state_roundtrips_through_json() {
        let mut engine = Engine::paper();
        let s = spec(1 << 18, 8, 6.5);
        let plan = engine.decide(&s).plan;
        engine.observe_measurement(&s, &plan, 0.0025);
        let mt = Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::MultiThread(18), 32);
        engine.observe_measurement(&spec(1 << 22, 8, 6.5), &mt, 0.004);
        engine.calib.nudge(Flavor::Hzccl, true, netsim::OpKind::Hpr, 90.0);
        let text = engine.to_json().render();
        let back = Engine::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, engine);
        assert_eq!(back.to_json().render(), text);
        // the state file holds what the engine learned and nothing else
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "calibration", "cache"]);
    }

    /// A cached plan the engine would not offer is ignored for every op, not
    /// only Allreduce: a hand-edited state file cannot steer (or crash) an
    /// auto run with a block length or segment count nobody enumerates.
    #[test]
    fn out_of_set_cached_plans_fall_back_to_the_model() {
        let ring = Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, 32);
        let hostile = [
            Plan { block_len: 100_000_000, ..ring },
            Plan { segments: 5000, ..ring },
            Plan { algo: Algo::Rd, ..ring },
            Plan { hierarchical: true, ..ring },
        ];
        for op in [Op::ReduceScatter, Op::Bcast] {
            let s = ScenarioSpec::new(op, 1 << 16, 4, 1e-4, 32, 6.0);
            for plan in hostile {
                assert!(!Engine::paper().candidates(&s).contains(&plan));
                let mut engine = Engine::paper();
                engine.cache.record(&s.bucket_key(), plan, 1e-6, 1e-6);
                let d = engine.decide(&s);
                assert_eq!(d.source, DecisionSource::Model, "{op:?} {}", plan.label());
                assert_eq!(d.plan, Engine::paper().decide(&s).plan);
            }
            // an in-set plan is still a cache hit
            let mut engine = Engine::paper();
            engine.cache.record(&s.bucket_key(), Plan { segments: 4, ..ring }, 1e-6, 1e-6);
            assert_eq!(engine.decide(&s).source, DecisionSource::Cache, "{op:?}");
        }
    }

    #[test]
    fn load_rejects_missing_and_bad_files() {
        assert!(Engine::load(std::path::Path::new("/nonexistent/tuner.json")).is_err());
        let current = Engine::paper().to_json().render();
        for version in ["1", "2", "3", "99"] {
            let old = current.replacen("\"version\":4", &format!("\"version\":{version}"), 1);
            let err = Engine::from_json(&Json::parse(&old).unwrap()).unwrap_err();
            assert!(err.contains("unsupported tuner state version"), "{err}");
        }
    }
}
