//! The one scenario runner.
//!
//! A [`CaseSpec`] names *what* simulated collective runs, a [`SuiteConfig`]
//! *how*, and [`run_case`] is the only code outside `crates/core` and the
//! tests that sets one up and runs it: `hzc sim`, `chaos`, `tune` and the
//! figure benches ([`crate::figure`]) are all "parse → spec(s) → `run_case`
//! → print". The oracles over a case's inputs ([`survivor_sum`],
//! [`mpi_survivor_sum`]) and the tuner sweep ([`tune_case`]) live next to it.
//!
//! Under the default config every case runs entirely on the virtual clock
//! with paper-calibrated compute models, seeded synthetic fields, and the
//! default network model — so two runs of the same case on any host produce
//! bit-identical numbers. That determinism is what lets
//! `tests/ring_goldens.rs` pin 33 cases' results byte for byte as the
//! `BENCH_results.json` at the repo root.

use hzccl::collectives::{self, CollectiveOpts, PartialResult, RecoveryPolicy};
use hzccl::{auto, CollectiveConfig, Mode, Resilience, Variant};
use netsim::{
    ComputeTiming, CriticalPath, FaultPlan, NetConfig, RunReport, SimBuilder, SimEngine,
    ThroughputModel, Topology, TraceConfig,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tuner::{Decision, Engine, Flavor, Op, Plan, ScenarioSpec};

/// Where a case's per-kernel virtual time comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// The paper's Broadwell-socket throughputs ([`tuner::paper_prior`]):
    /// host-independent, so every number is bit-reproducible.
    Paper,
    /// Throughputs measured once per `(flavour, threads)` on this host from
    /// the real kernels over the case's own data.
    Host,
    /// An explicit table — a tuner sweep times each candidate with its
    /// engine's current calibration.
    Model(ThroughputModel),
}

/// How the per-rank input fields derive from the app's generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fields {
    /// One base field (`seed`), rank `r` holding it rescaled by
    /// `1 + 0.001 r`: same compressibility profile, distinct values, zero
    /// regions preserved.
    Scaled,
    /// Rank `r` holds the independent field `seed + r` (partial sums grow
    /// like `sqrt(k)`, the ensemble / shot-accumulation regime).
    PerRank,
    /// One base scene (`seed`) plus rank-seeded sensor noise: the
    /// observations of the image-stacking use case (Table VII).
    Stacking,
}

/// Shared inputs of every case in a suite run: *how* a [`CaseSpec`] runs.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed for the synthetic field generator and the fault plan.
    pub seed: u64,
    /// Absolute error bound of the compressed flavours.
    pub eb: f64,
    /// Synthetic application generating the per-rank fields.
    pub app: datasets::App,
    /// How the ranks' fields derive from it.
    pub fields: Fields,
    /// Network model (defaults to the paper calibration).
    pub net: NetConfig,
    /// Execution engine driving the virtual cluster. Both engines produce
    /// byte-identical results; the knob exists so a test can pin exactly
    /// that (`tests/ring_goldens.rs` renders `BENCH_results.json` under
    /// each).
    pub engine: SimEngine,
    /// Compute-timing source.
    pub timing: Timing,
    /// The decision engine [`Variant::Auto`] cases consult.
    pub tuner: Engine,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            seed: 0,
            eb: 1e-4,
            app: datasets::App::SimSet2,
            fields: Fields::Scaled,
            net: NetConfig::default(),
            engine: SimEngine::default(),
            timing: Timing::Paper,
            tuner: Engine::paper(),
        }
    }
}

/// Who runs a case's collective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Runner {
    /// A flavour of the unified front-end; [`Variant::Auto`] asks the
    /// suite's tuner.
    Variant(Variant),
    /// One static tuner plan, executed verbatim ([`auto::run_planned`]) —
    /// also the only way to reach recursive doubling.
    Plan(Plan),
    /// The Sec. III-C.2 fusion ablation (`allreduce_unfused`).
    Unfused,
}

impl Runner {
    /// The serial recursive-doubling plan of `flavor` in `mode`.
    pub fn rd(flavor: Flavor, mode: Mode) -> Runner {
        Runner::Plan(Plan::serial(flavor, tuner::Algo::Rd, mode, fzlight::DEFAULT_BLOCK_LEN))
    }

    /// Stable name: the variant's, the plan's label, or `hz-unfused`.
    pub(crate) fn name(&self) -> String {
        match self {
            Runner::Variant(v) => v.name().to_string(),
            Runner::Plan(p) => p.label(),
            Runner::Unfused => "hz-unfused".to_string(),
        }
    }
}

/// One simulated collective: *what* runs. Every harness — `hzc sim`, `chaos`,
/// `tune`, the figure benches — describes its runs as these and hands them
/// to [`run_case`].
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Which collective the case runs (rooted ops at rank 0).
    pub op: Op,
    /// Who runs it.
    pub runner: Runner,
    /// Rank count of the virtual cluster.
    pub ranks: usize,
    /// Per-rank field length in `f32`s (raised to one element per rank at
    /// run time — the ring's minimum).
    pub elems: usize,
    /// Pipeline segment count (1 = phase-serial); a plan brings its own.
    pub segments: usize,
    /// Compression thread mode; a plan brings its own.
    pub mode: Mode,
    /// Two-tier fabric: the cluster and the collective both see it, so
    /// hierarchical schedules engage. `None` = the flat single-tier network.
    pub topology: Option<Topology>,
    /// Injected faults, drawn from the suite's seed.
    pub faults: Option<FaultPlan>,
    /// Resilient (framed ARQ) transport policy.
    pub resilience: Option<Resilience>,
    /// What happens when a rank dies; anything but `FailFast` runs the
    /// recoverable verb and tolerates rank panics in the report.
    pub recovery: RecoveryPolicy,
}

impl CaseSpec {
    /// A fault-free, flat, phase-serial, single-thread case of `kb` KiB per
    /// rank; refine with struct-update syntax.
    pub fn new(op: Op, runner: Runner, ranks: usize, kb: usize) -> CaseSpec {
        CaseSpec {
            op,
            runner,
            ranks,
            elems: (kb << 10) / 4,
            segments: 1,
            mode: Mode::SingleThread,
            topology: None,
            faults: None,
            resilience: None,
            recovery: RecoveryPolicy::FailFast,
        }
    }

    /// Stable case identity — the `id` of a `BENCH_results.json` line.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}/{}/r{}/kb{}/s{}",
            self.op.name(),
            self.runner.name(),
            self.ranks,
            (self.elems * 4) >> 10,
            self.segments
        );
        if let Some(t) = self.topology {
            id.push_str(&format!("/t{}x{}", t.nodes, t.ppn));
        }
        if self.faults.is_some() {
            id.push_str("-faulted");
        }
        id
    }

    /// The front-end options of this case run in flavour `variant`.
    fn opts(&self, variant: Variant, cfg: &SuiteConfig) -> CollectiveOpts {
        let mut opts = CollectiveOpts::for_variant(variant, cfg.eb)
            .with_mode(self.mode)
            .with_segments(self.segments)
            .with_recovery(self.recovery);
        if let Some(res) = self.resilience {
            opts = opts.with_resilience(res);
        }
        if let Some(t) = self.topology {
            opts = opts.with_topology(t);
        }
        opts
    }

    /// Whose throughput table times the case, in which thread mode (auto
    /// and the ablation borrow the hz table — their headline path).
    fn timed_as(&self) -> (Flavor, Mode) {
        match self.runner {
            Runner::Variant(v) => (v.flavor(), self.mode),
            Runner::Plan(p) => (p.flavor, p.mode),
            Runner::Unfused => (Flavor::Hzccl, self.mode),
        }
    }
}

/// What one rank of a case delivered.
#[derive(Debug, Clone)]
pub struct RankOut {
    /// The value, whose contributions it aggregates, and the membership
    /// epoch that committed (everyone and 0 unless a recovery policy ran).
    pub result: PartialResult,
    /// On the decider rank of a [`Variant::Auto`] case: the scenario it
    /// probed and the engine's ranked decision.
    pub detail: Option<(ScenarioSpec, Decision)>,
}

/// The measured outcome of one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// End-to-end virtual seconds (slowest rank).
    pub virtual_secs: f64,
    /// Total bytes that crossed the virtual wire.
    pub wire_bytes: u64,
    /// Total uncompressed bytes those messages represented.
    pub logical_bytes: u64,
    /// Aggregated per-rank cost buckets.
    pub breakdown: netsim::Breakdown,
    /// Causal critical-path analysis of the run.
    pub critpath: CriticalPath,
    /// Median per-rank end-to-end latency (log2-bucket interpolation).
    pub latency_p50: f64,
    /// 99th-percentile per-rank end-to-end latency.
    pub latency_p99: f64,
}

/// Everything [`run_case`] produces: the analysis and the raw report it was
/// derived from ([`RunReport::tally`] counts its traces).
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// The analyzed outcome (what `BENCH_results.json` pins).
    pub result: CaseResult,
    /// Per-rank values, fates, stats and flight-recorder traces.
    pub report: RunReport<RankOut>,
}

/// Per-rank observation of the stacking use case: the shared scene plus
/// rank-seeded sensor noise.
fn observation(base: &[f32], rank: usize) -> Vec<f32> {
    let mut h = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
    base.iter()
        .map(|&v| {
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            let noise = ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.3;
            v + noise
        })
        .collect()
}

/// One field per rank, shared between a run and whoever reads its inputs.
type RankFields = Arc<Vec<Vec<f32>>>;

/// The per-rank input fields of a case — the one generator every harness
/// (and every oracle over a case's inputs) reads. The last set is memoized,
/// so the kernels of one figure row, or a run and its oracle, share it.
pub fn rank_fields(spec: &CaseSpec, cfg: &SuiteConfig) -> RankFields {
    type Key = (datasets::App, u64, Fields, usize, usize);
    static LAST: Mutex<Option<(Key, RankFields)>> = Mutex::new(None);
    let elems = spec.elems.max(spec.ranks);
    let key = (cfg.app, cfg.seed, cfg.fields, elems, spec.ranks);
    let memo = || LAST.lock().expect("field memo poisoned");
    if let Some((_, fields)) = memo().as_ref().filter(|(k, _)| *k == key) {
        return fields.clone();
    }
    *memo() = None; // release the previous set before building the next
    let base = match cfg.fields {
        Fields::PerRank => Vec::new(),
        _ => cfg.app.generate(elems, cfg.seed),
    };
    let field = |r: usize| -> Vec<f32> {
        match cfg.fields {
            Fields::Scaled => base.iter().map(|&v| v * (1.0 + 0.001 * r as f32)).collect(),
            Fields::PerRank => cfg.app.generate(elems, cfg.seed + r as u64),
            Fields::Stacking => observation(&base, r),
        }
    };
    let fields: Vec<Vec<f32>> = (0..spec.ranks).map(field).collect();
    let fields = Arc::new(fields);
    *memo() = Some((key, fields.clone()));
    fields
}

/// Exact f64 sum over the `survivors`' fields — the accuracy oracle of the
/// compressed flavours under the shrinking recovery policies.
pub fn survivor_sum(fields: &[Vec<f32>], survivors: &[usize]) -> Vec<f64> {
    let mut acc = vec![0f64; fields[0].len()];
    for &r in survivors {
        for (a, &b) in acc.iter_mut().zip(&fields[r]) {
            *a += f64::from(b);
        }
    }
    acc
}

/// The survivable `mpi` ring's reduction order, replicated: the accumulator
/// of segment group `g` originates at virtual rank `(g+1) % m` and folds one
/// member per hop until the owner adds its own share last. f32 addition is
/// bitwise commutative, so this left fold is the bit-exact expectation.
pub fn mpi_survivor_sum(fields: &[Vec<f32>], survivors: &[usize]) -> Vec<f32> {
    let (n0, n, m) = (fields.len(), fields[0].len(), survivors.len());
    let ranges = hzccl::chunks::node_chunks(n, n0);
    let groups = hzccl::chunks::node_chunks(n0, m);
    let mut out = vec![0f32; n];
    for (g, segs) in groups.iter().enumerate() {
        for seg in segs.clone() {
            for i in ranges[seg].clone() {
                let mut acc = fields[survivors[(g + 1) % m]][i];
                for k in 2..=m {
                    acc += fields[survivors[(g + k) % m]][i];
                }
                out[i] = acc;
            }
        }
    }
    out
}

/// Set up and run one simulated collective — the only place in the workspace
/// outside `crates/core` and the tests that builds a virtual cluster — and
/// analyze it. Always traced: the critical path and the wire totals come
/// from the flight recorder, which costs no virtual time.
pub fn run_case(spec: &CaseSpec, cfg: &SuiteConfig) -> CaseRun {
    let fields = rank_fields(spec, cfg);
    let (flavor, mode) = spec.timed_as();
    let timing = ComputeTiming::Modeled(match cfg.timing {
        Timing::Paper => tuner::paper_prior(flavor, mode.threads() > 1),
        Timing::Host => crate::host_model(flavor, mode, &fields[0], cfg.eb),
        Timing::Model(model) => model,
    });
    let mut cluster = SimBuilder::new(spec.ranks)
        .net(cfg.net)
        .timing(timing)
        .trace(TraceConfig::default())
        .engine(cfg.engine);
    if let Some(plan) = &spec.faults {
        cluster = cluster.faults(plan.clone().with_seed(cfg.seed));
    }
    if let Some(t) = spec.topology {
        cluster = cluster.topology(t);
    }

    let ccfg =
        CollectiveConfig { res: spec.resilience, ..CollectiveConfig::new(cfg.eb, spec.mode) };
    let (op, topo) = (spec.op, spec.topology.as_ref());
    let fail_fast = spec.recovery == RecoveryPolicy::FailFast;
    let report = cluster.run(|comm| {
        let data = &fields[comm.rank()];
        let (value, detail) = match &spec.runner {
            Runner::Plan(plan) => {
                (auto::run_planned(comm, op, 0, data, &ccfg, plan, topo).expect("plan"), None)
            }
            Runner::Unfused => {
                (crate::allreduce_unfused(comm, data, cfg.eb, spec.mode).expect("unfused"), None)
            }
            Runner::Variant(Variant::Auto) if fail_fast => {
                let out = auto::run(comm, op, 0, data, &ccfg, &cfg.tuner, topo).expect("auto");
                (out.value, out.detail)
            }
            Runner::Variant(v) => {
                let opts = spec.opts(*v, cfg);
                let result = collectives::run_recoverable(comm, op, data, &opts).expect("case");
                return RankOut { result, detail: None };
            }
        };
        let contributors = (0..comm.size()).collect();
        RankOut { result: PartialResult { value, contributors, epoch: 0 }, detail }
    });
    // seeded deaths are the point of a recovery case; anywhere else a rank
    // panic is a bug
    let report = if fail_fast { report.expect_clean() } else { report };

    let latencies: Vec<f64> = report.outcomes.iter().map(|o| o.elapsed).collect();
    let tally = report.tally();
    let result = CaseResult {
        virtual_secs: report.stats.makespan,
        wire_bytes: tally.wire_bytes,
        logical_bytes: tally.logical_bytes,
        breakdown: report.stats.total,
        critpath: CriticalPath::analyze_with_topology(&report.traces, &cfg.net, topo),
        latency_p50: log2_quantile(&latencies, 0.5),
        latency_p99: log2_quantile(&latencies, 0.99),
    };
    CaseRun { result, report }
}

/// The `p`-quantile (`p` in `[0, 1]`) of `samples` as a log2-bucketed
/// histogram estimates it: samples `<= 0` fall into a zeros bucket, bucket
/// `e` holds the samples in `(2^(e-1), 2^e]` (exponents clamped to ±64), and
/// the estimate walks the cumulative counts to rank `p·n` and interpolates
/// linearly between the owning bucket's bounds. Exact for the zeros bucket,
/// within one octave otherwise; 0 for no samples.
fn log2_quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut zeros = 0u64;
    let mut buckets: BTreeMap<i32, u64> = BTreeMap::new();
    for &v in samples {
        if v <= 0.0 {
            zeros += 1;
        } else {
            *buckets.entry((v.log2().ceil() as i32).clamp(-64, 64)).or_insert(0) += 1;
        }
    }
    let target = p.clamp(0.0, 1.0) * samples.len() as f64;
    let mut seen = zeros as f64;
    if target <= seen {
        return 0.0;
    }
    for (e, c) in &buckets {
        let next = seen + *c as f64;
        if target <= next {
            let lo = if *e <= -64 { 0.0 } else { 2f64.powi(e - 1) };
            let hi = 2f64.powi(*e);
            let frac = (target - seen) / *c as f64;
            return lo + (hi - lo) * frac;
        }
        seen = next;
    }
    // numerically unreachable unless rounding pushed the target past the
    // last bucket; clamp to its upper bound
    buckets.keys().next_back().map_or(0.0, |e| 2f64.powi(*e))
}

/// One point of a tuner sweep (`hzc tune`, EXT3): probe the case's data
/// offline, run every candidate static plan of `engine` for it — each timed
/// by the engine's current calibration — and feed every run back
/// ([`Engine::observe_run`]). `each` sees `(scenario, plan, measured,
/// model)` per candidate; returns the scenario.
pub fn tune_case(
    engine: &mut Engine,
    spec: &CaseSpec,
    cfg: &SuiteConfig,
    mut each: impl FnMut(&ScenarioSpec, &Plan, f64, f64),
) -> ScenarioSpec {
    let base = &rank_fields(spec, cfg)[0];
    let block_len = fzlight::DEFAULT_BLOCK_LEN;
    let ratio = auto::probe_ratio(None, base, cfg.eb, block_len, 1);
    let (op, nranks, topology) = (spec.op, spec.ranks, spec.topology);
    let elems = spec.elems.max(nranks);
    let scenario = ScenarioSpec { op, elems, nranks, eb: cfg.eb, block_len, ratio, topology };
    for plan in engine.candidates(&scenario) {
        let timing = Timing::Model(engine.calib.model(plan.flavor, plan.mode));
        let case = CaseSpec { runner: Runner::Plan(plan), ..spec.clone() };
        let run = run_case(&case, &SuiteConfig { timing, ..cfg.clone() });
        let model = engine.predict(&scenario, &plan);
        let measured = engine.observe_run(&scenario, &plan, &run.report);
        each(&scenario, &plan, measured, model);
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_case_is_deterministic_and_self_consistent() {
        let cfg = SuiteConfig::default();
        let hz = Runner::Variant(Variant::Hzccl);
        let spec = CaseSpec { segments: 2, ..CaseSpec::new(Op::Allreduce, hz, 4, 8) };
        let a = run_case(&spec, &cfg).result;
        let b = run_case(&spec, &cfg).result;
        assert_eq!(a.virtual_secs.to_bits(), b.virtual_secs.to_bits(), "bit-stable time");
        assert_eq!(a.wire_bytes, b.wire_bytes);
        assert!(a.wire_bytes > 0 && a.logical_bytes >= a.wire_bytes);
        // the analyzer's tiling invariant holds on a real collective
        let rel = (a.critpath.length - a.virtual_secs).abs() / a.virtual_secs;
        assert!(rel <= 1e-9, "path {} vs makespan {}", a.critpath.length, a.virtual_secs);
        assert!(a.latency_p99 >= a.latency_p50 && a.latency_p50 > 0.0);
    }

    #[test]
    fn hierarchical_case_attributes_both_tiers_and_tiles_the_run() {
        use netsim::LinkTier;
        let cfg = SuiteConfig::default();
        let spec = CaseSpec {
            topology: Some(Topology::paper(4, 2)),
            ..CaseSpec::new(Op::Allreduce, Runner::Variant(Variant::Hzccl), 8, 16)
        };
        let r = run_case(&spec, &cfg).result;
        let intra = r.critpath.by_tier[LinkTier::Intra.index()];
        let inter = r.critpath.by_tier[LinkTier::Inter.index()];
        assert!(intra.hops > 0 && inter.hops > 0, "path crosses both tiers");
        assert_eq!(r.critpath.by_tier[LinkTier::Flat.index()].hops, 0);
        let rel = (r.critpath.length - r.virtual_secs).abs() / r.virtual_secs;
        assert!(rel <= 1e-9, "path {} vs makespan {}", r.critpath.length, r.virtual_secs);
    }

    /// Bucket edges: an exact power of two is the upper bound of its own
    /// bucket, `2^k + 1` spills into the next one up, and zeros stay out of
    /// the exponent buckets.
    #[test]
    fn log2_quantile_puts_powers_of_two_in_their_own_bucket() {
        assert_eq!(log2_quantile(&[], 0.5), 0.0);
        assert_eq!(log2_quantile(&[1.0], 1.0), 1.0, "1 = 2^0 tops bucket 0");
        assert_eq!(log2_quantile(&[1.0], 0.5), 0.75);
        for k in [1i32, 3, 10, 20] {
            let pow = 2f64.powi(k);
            assert_eq!(log2_quantile(&[pow], 1.0), pow, "2^{k} tops bucket {k}");
            assert_eq!(log2_quantile(&[pow], 0.5), 0.75 * pow);
            assert_eq!(log2_quantile(&[pow + 1.0], 1.0), 2.0 * pow, "2^{k}+1 spills up");
            assert_eq!(log2_quantile(&[pow, pow + 1.0], 0.5), pow);
        }
        // zeros own the median but not the tail
        assert_eq!(log2_quantile(&[0.0, 0.0, 4.0], 0.5), 0.0);
        let tail = log2_quantile(&[0.0, 0.0, 4.0], 0.99);
        assert!((tail - 3.94).abs() < 1e-12, "rank 2.97 of 3 is 97 % into (2, 4]: {tail}");
        assert_eq!(log2_quantile(&[0.0], 1.0), 0.0);
    }

    /// Exponents clamp to ±64: the lowest bucket reaches down to 0, and an
    /// astronomically large sample reads as the top bucket's bound.
    #[test]
    fn log2_quantile_clamps_exponents_to_64() {
        assert_eq!(log2_quantile(&[1e-300], 1.0), 2f64.powi(-64));
        assert_eq!(log2_quantile(&[1e-300], 0.5), 2f64.powi(-65));
        assert_eq!(log2_quantile(&[1e300], 1.0), 2f64.powi(64));
        assert_eq!(log2_quantile(&[1e300], 0.5), 0.75 * 2f64.powi(64));
    }

    #[test]
    fn log2_quantile_interpolates_and_is_monotone_in_p() {
        let samples = [1.0, 2.0, 4.0, 8.0]; // one per bucket e = 0..=3
        assert_eq!(log2_quantile(&samples, 0.5), 2.0, "rank 2 of 4 tops bucket 1");
        assert_eq!(log2_quantile(&samples, 0.375), 1.5, "halfway into bucket 1");
        assert_eq!(log2_quantile(&samples, 1.0), 8.0);
        assert_eq!(log2_quantile(&samples, 7.0), 8.0, "p clamps to 1");
        let q: Vec<f64> = (0..=20).map(|i| log2_quantile(&samples, i as f64 / 20.0)).collect();
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "{q:?}");
    }
}
