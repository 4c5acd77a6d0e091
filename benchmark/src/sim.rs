//! The three collective workloads: every op is one or more
//! `SimBuilder::run`s of a `hzccl` verb on all ranks.
//!
//! * `ar_large` — few ranks, large compressible messages (the paper's
//!   regime): the codecs are most of the host time, 112 messages per op.
//! * `ar_manyranks` — 128 ranks with 64-element ring chunks: 32 512 messages
//!   per op and only tiny codec calls, so netsim's event engine, the fiber
//!   switches and core's per-step allocations do the work.
//! * `mixed_schedules` — the same core layer through its other copies
//!   (segmented, rooted, hierarchical, framed, survivable, auto, recursive
//!   doubling), each a step of the op.
//!
//! Timed ops run under `ComputeTiming::Modeled(paper_model)`, so each one
//! also yields the simulated makespan, which must repeat bit for bit. Host
//! wall time is taken around `SimBuilder::run` only.

use crate::catalog::{Flavour, MIXED_STEPS};
use crate::inputs::{self, Exact};
use crate::report::{MetricSet, Ops};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{OpSample, Scale, WarmUp, Workload};
use datasets::App;
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::{error_bounds, CollectiveConfig, Mode, Resilience, Variant};
use netsim::{
    Breakdown, ComputeTiming, CriticalPath, Event, FaultPlan, RankTrace, RunReport, SimBuilder,
    SimEngine, Topology, TraceConfig,
};
use std::time::Instant;

/// Absolute error bound of every collective workload (the paper's default).
const EB: f64 = 1e-4;
/// Seed of `mixed_schedules`' fault plan. Fixed, not the run's seed: with 2 %
/// drops on a few hundred messages the seed would decide how many frames are
/// retransmitted, and with that a tenth of `mpi_op_ms` and 2 % of the
/// simulated time (measured over seeds 20..29); the run's seed still decides
/// every byte that is sent.
const FAULT_SEED: u64 = 29;
/// The rank `mixed_schedules` crashes, and the data-plane send it dies on.
const CRASH: (usize, u64) = (3, 2);

/// One `SimBuilder::run` of an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Flat phase-serial ring allreduce.
    Allreduce,
    /// Reduce-scatter on the segmented pipelined ring, `S = 8`.
    RsS8,
    /// Reduce to rank 0, then broadcast the result.
    ReduceBcast,
    /// Allreduce on the two-tier `Topology::paper(4, 4)`.
    Hier,
    /// Allreduce over the framed ARQ transport, 2 % drops and 1 % corruption.
    Framed,
    /// `allreduce_recoverable` under `Shrink` with one rank crashing.
    Recover,
    /// Allreduce with the tuner choosing the plan (`Variant::Auto`).
    Auto,
    /// Recursive-doubling allreduce with homomorphic reduction.
    Rd,
}

impl Step {
    /// Stem of the step's span and metric names.
    pub fn stem(self) -> &'static str {
        match self {
            Step::Allreduce => "allreduce",
            Step::RsS8 => MIXED_STEPS[0],
            Step::ReduceBcast => MIXED_STEPS[1],
            Step::Hier => MIXED_STEPS[2],
            Step::Framed => MIXED_STEPS[3],
            Step::Recover => MIXED_STEPS[4],
            Step::Auto => "auto",
            Step::Rd => "rd",
        }
    }
}

/// What a rank hands back: its result and, for the recoverable verb, whose
/// data it holds.
#[derive(Debug, Clone)]
pub struct RankOut {
    value: Vec<f32>,
    contributors: Vec<usize>,
    epoch: u32,
}

impl From<Vec<f32>> for RankOut {
    fn from(value: Vec<f32>) -> RankOut {
        RankOut { value, contributors: Vec::new(), epoch: 0 }
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
struct Drive {
    /// `None`: the paper model of the flavour; `Some(Measured)` for the
    /// per-layer pass.
    timing: Option<ComputeTiming>,
    /// The program's flight recorder.
    trace: bool,
    engine: SimEngine,
}

const MODELED: Drive = Drive { timing: None, trace: false, engine: SimEngine::Events };
const MODELED_TRACED: Drive = Drive { trace: true, ..MODELED };
const MEASURED: Drive = Drive { timing: Some(ComputeTiming::Measured), ..MODELED };

/// What later ops of a `(flavour, step)` must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepRef {
    digest: u64,
    makespan: f64,
}

/// Counts read off the warm-up's traces, kept for the per-layer pass.
#[derive(Debug, Clone, Default)]
struct Facts {
    msgs: u64,
    wire: u64,
    logical: u64,
    retransmits: u64,
    recoveries: u64,
    /// Critical-path seconds `[alpha, wire, compute, blocked]` summed over the
    /// op's steps, and the host seconds `CriticalPath::analyze` took (only
    /// when `deep`).
    path: [f64; 4],
    analyze_s: f64,
    err_over_bound: f64,
    /// Host seconds the warm-up op took.
    warm_wall_s: f64,
}

/// A collective workload with its inputs generated.
pub struct Sim {
    nranks: usize,
    seed: u64,
    fields: Vec<Vec<f32>>,
    exact: Exact,
    steps: Vec<Step>,
    hz_extra: Vec<Step>,
    /// Analyse the warm-up's traces for the per-layer pass (`--trace 1`).
    pub deep: bool,
    refs: [Vec<StepRef>; 3],
    facts: [Facts; 3],
}

impl Facts {
    /// Count the sends of one run, and the retransmissions and recoveries
    /// the resilient and survivable layers marked in it.
    fn count(&mut self, traces: &[RankTrace]) {
        for ev in traces.iter().flat_map(|t| &t.events) {
            match *ev {
                Event::Send { wire_bytes, logical_bytes, .. } => {
                    self.msgs += 1;
                    self.wire += wire_bytes as u64;
                    self.logical += logical_bytes as u64;
                }
                Event::Compute { label: "res:retransmit", .. } => self.retransmits += 1,
                Event::Compute { label: "rec:recovery", .. } => self.recoveries += 1,
                _ => {}
            }
        }
    }
}

impl Sim {
    fn generate(
        app: App,
        nranks: usize,
        elems: usize,
        seed: u64,
        steps: &[Step],
        hz_extra: &[Step],
    ) -> Sim {
        let base = inputs::field(app, elems, seed, elems / nranks);
        let fields = inputs::rank_fields(&base, nranks);
        let all: Vec<usize> = (0..nranks).collect();
        let exact = inputs::exact_sum(&fields, &all);
        Sim {
            nranks,
            seed,
            fields,
            exact,
            steps: steps.to_vec(),
            hz_extra: hz_extra.to_vec(),
            deep: false,
            refs: Default::default(),
            facts: Default::default(),
        }
    }

    /// `ar_large`: ranks × nominal elements of Sim. Set. 2.
    pub fn ar_large(scale: &Scale, seed: u64) -> Sim {
        Sim::generate(App::SimSet2, scale.large.0, scale.large.1, seed, &[Step::Allreduce], &[])
    }

    /// `ar_manyranks`: many ranks, two fZ-light blocks per ring chunk.
    pub fn ar_manyranks(scale: &Scale, seed: u64) -> Sim {
        Sim::generate(App::SimSet2, scale.many.0, scale.many.1, seed, &[Step::Allreduce], &[])
    }

    /// `mixed_schedules`: 16 ranks of Hurricane through every other schedule.
    pub fn mixed(scale: &Scale, seed: u64) -> Sim {
        let steps = [Step::RsS8, Step::ReduceBcast, Step::Hier, Step::Framed, Step::Recover];
        Sim::generate(App::Hurricane, 16, scale.mixed_elems, seed, &steps, &[Step::Auto, Step::Rd])
    }

    /// Bytes every rank contributes.
    fn message_bytes(&self) -> usize {
        self.fields[0].len() * 4
    }

    fn steps_of(&self, f: Flavour) -> Vec<Step> {
        let extra = if f == Flavour::Hz { &self.hz_extra[..] } else { &[] };
        self.steps.iter().chain(extra).copied().collect()
    }

    fn opts(step: Step, f: Flavour) -> CollectiveOpts {
        let base = match (step, f) {
            (Step::Auto, _) => CollectiveOpts::auto(EB),
            (_, Flavour::Hz) => CollectiveOpts::hz(EB),
            (_, Flavour::Ccoll) => CollectiveOpts::ccoll(EB),
            (_, Flavour::Mpi) => CollectiveOpts::mpi(),
        };
        match step {
            Step::RsS8 => base.with_segments(8),
            Step::Hier => base.with_topology(Topology::paper(4, 4)),
            Step::Framed => base.with_resilience(Resilience::default()),
            Step::Recover => base.with_recovery(RecoveryPolicy::Shrink),
            Step::Allreduce | Step::ReduceBcast | Step::Auto | Step::Rd => base,
        }
    }

    /// One `SimBuilder::run`; only the run itself is timed.
    fn run_step(&self, step: Step, f: Flavour, drive: Drive) -> (f64, RunReport<RankOut>) {
        let variant = if step == Step::Auto { Variant::Auto } else { f.variant() };
        let timing = drive
            .timing
            .unwrap_or(ComputeTiming::Modeled(hzccl::paper_model(variant, Mode::SingleThread)));
        let mut sim = SimBuilder::new(self.nranks)
            .net(inputs::net(self.seed))
            .timing(timing)
            .engine(drive.engine);
        if drive.trace {
            sim = sim.trace(TraceConfig::default());
        }
        sim = match step {
            Step::Hier => sim.topology(Topology::paper(4, 4)),
            Step::Framed => {
                sim.faults(FaultPlan::new(FAULT_SEED).with_drop(0.02).with_corrupt(0.01))
            }
            Step::Recover => sim.faults(FaultPlan::new(FAULT_SEED).with_crash(CRASH.0, CRASH.1)),
            _ => sim,
        };
        let opts = Sim::opts(step, f);
        let cfg = CollectiveConfig::new(EB, Mode::SingleThread);
        let fields = &self.fields;
        let t0 = Instant::now();
        let report = sim.run(|comm| -> RankOut {
            let data = &fields[comm.rank()];
            match step {
                Step::Allreduce | Step::Hier | Step::Framed | Step::Auto => {
                    collectives::allreduce(comm, data, &opts).expect("allreduce").into()
                }
                Step::RsS8 => {
                    collectives::reduce_scatter(comm, data, &opts).expect("reduce_scatter").into()
                }
                Step::ReduceBcast => {
                    let mut full = collectives::reduce(comm, data, &opts).expect("reduce");
                    full.resize(data.len(), 0.0); // non-roots pass a full-length buffer
                    collectives::bcast(comm, &full, &opts).expect("bcast").into()
                }
                Step::Recover => {
                    let part = collectives::allreduce_recoverable(comm, data, &opts)
                        .expect("recoverable allreduce");
                    RankOut {
                        value: part.value,
                        contributors: part.contributors,
                        epoch: part.epoch,
                    }
                }
                Step::Rd => hzccl::rd::allreduce_rd_hz(comm, data, &cfg).expect("rd").into(),
            }
        });
        (t0.elapsed().as_secs_f64(), report)
    }

    /// The error bound `hzccl::error_bounds` states for `(step, f)`; raw
    /// `f32` flavours get 0 and rely on [`Exact::f32_tol`] alone.
    fn bound(&self, step: Step, f: Flavour, contributors: usize) -> f64 {
        let n = self.nranks;
        let allreduce = match f {
            Flavour::Hz => error_bounds::hzccl_allreduce(n, EB),
            Flavour::Ccoll => error_bounds::ccoll_allreduce(n, EB),
            Flavour::Mpi => 0.0,
        };
        match (step, f) {
            (_, Flavour::Mpi) => 0.0,
            (Step::RsS8, Flavour::Hz) => error_bounds::hzccl_reduce_scatter(n, EB),
            (Step::RsS8, Flavour::Ccoll) => error_bounds::ccoll_reduce_scatter(n, EB),
            // the compressed bcast quantizes the reduced vector once more
            (Step::ReduceBcast, _) => allreduce + EB,
            (Step::Recover, _) => error_bounds::shrink_allreduce(contributors, EB),
            // the tuner may pick any flavour: the loosest static bound holds
            (Step::Auto, _) => error_bounds::ccoll_allreduce(n, EB),
            _ => allreduce,
        }
    }

    /// Check every surviving rank's output against the exact `f64` sum.
    /// Returns `(ok, worst err / bound)`.
    fn verify(&self, step: Step, f: Flavour, report: &RunReport<RankOut>) -> (bool, f64) {
        let expect_dead: &[usize] = if step == Step::Recover { &[CRASH.0] } else { &[] };
        let dead: Vec<usize> = report.panics.iter().map(|p| p.rank).collect();
        let mut ok = dead == expect_dead;
        let survivors: Vec<usize> = (0..self.nranks).filter(|r| !expect_dead.contains(r)).collect();
        let shrunk;
        let exact = if step == Step::Recover {
            shrunk = inputs::exact_sum(&self.fields, &survivors);
            &shrunk
        } else {
            &self.exact
        };
        let allowed = self.bound(step, f, survivors.len()) + exact.f32_tol;
        let chunks = hzccl::chunks::node_chunks(exact.sum.len(), self.nranks);
        let mut worst = 0f64;
        for o in &report.outcomes {
            let want = if step == Step::RsS8 {
                &exact.sum[chunks[o.rank].clone()]
            } else {
                &exact.sum[..]
            };
            if o.value.value.len() != want.len() {
                return (false, f64::INFINITY);
            }
            worst = worst.max(inputs::max_abs_err(&o.value.value, want) / allowed);
            if step == Step::Recover {
                ok &= o.value.contributors == survivors && o.value.epoch >= 1;
            }
        }
        // hz and mpi ranks must agree bit for bit wherever all hold the
        // full vector (C-Coll re-quantizes per rank and need not)
        if step != Step::RsS8 && f != Flavour::Ccoll {
            let first = &report.outcomes[0].value.value;
            ok &= report.outcomes.iter().all(|o| o.value.value == *first);
        }
        (ok && worst <= 1.0, worst)
    }

    /// Critical-path seconds of one run as `[alpha, wire, compute, blocked]`
    /// (blocked: unattributed waits, jitter, resilience, recovery).
    fn path_of(&self, step: Step, traces: &[RankTrace]) -> [f64; 4] {
        let topo = Topology::paper(4, 4);
        let topo = (step == Step::Hier).then_some(&topo);
        let p = CriticalPath::analyze_with_topology(traces, &inputs::net(self.seed), topo).buckets;
        let compute = p.cpr + p.dpr + p.hpr + p.cpt + p.other;
        [p.alpha, p.wire, compute, p.blocked_wait + p.jitter + p.resilience + p.recovery]
    }

    /// A run reproduced the warm-up's output (values do not depend on how
    /// compute is timed) and lost exactly the rank it was meant to lose.
    fn same_output(&self, step: Step, want: &StepRef, report: &RunReport<RankOut>) -> bool {
        let digest = report.outcomes.first().map_or(0, |o| inputs::digest_f32(&o.value.value));
        digest == want.digest && report.panics.len() == usize::from(step == Step::Recover)
    }

    /// Run one op of `f` in the per-layer pass, a span around every run.
    fn layer_op(
        &self,
        f: Flavour,
        drive: Drive,
        rec: &mut Recorder,
        ops: &mut Ops,
    ) -> Vec<StepRun> {
        let suffix = if drive.trace { ":traced" } else { "" };
        let mut ok = true;
        let runs = self
            .steps_of(f)
            .into_iter()
            .zip(&self.refs[f.index()])
            .map(|(step, want)| {
                let name = format!("run:{}:{}{suffix}", step.stem(), f.name());
                let (wall, report) =
                    rec.call(&name, "netsim+core", || self.run_step(step, f, drive));
                ok &= self.same_output(step, want, &report);
                StepRun { wall, makespan: report.stats.makespan, total: report.stats.total }
            })
            .collect();
        ops.record(ok);
        runs
    }
}

/// One step of an op of the per-layer pass.
struct StepRun {
    wall: f64,
    makespan: f64,
    total: Breakdown,
}

/// Median over ops of the sum over an op's steps of `pick`.
fn over(ops: &[Vec<StepRun>], pick: impl Fn(&StepRun) -> f64) -> f64 {
    median(&ops.iter().map(|op| op.iter().map(&pick).sum()).collect::<Vec<f64>>())
}

impl Workload for Sim {
    fn parts(&self, f: Flavour) -> Vec<String> {
        self.steps_of(f).iter().map(|s| s.stem().to_string()).collect()
    }

    fn warm_up(&mut self, f: Flavour) -> WarmUp {
        let mut facts = Facts::default();
        let mut refs = Vec::new();
        let mut parts = Vec::new();
        let mut all_ok = true;
        for step in self.steps_of(f) {
            let (wall, report) = self.run_step(step, f, MODELED_TRACED);
            let (ok, slack) = self.verify(step, f, &report);
            all_ok &= ok;
            facts.err_over_bound = facts.err_over_bound.max(slack);
            facts.count(&report.traces);
            if self.deep {
                let t0 = Instant::now();
                let path = self.path_of(step, &report.traces);
                facts.analyze_s += t0.elapsed().as_secs_f64();
                for (sum, secs) in facts.path.iter_mut().zip(path) {
                    *sum += secs;
                }
            }
            let digest = report.outcomes.first().map_or(0, |o| inputs::digest_f32(&o.value.value));
            refs.push(StepRef { digest, makespan: report.stats.makespan });
            parts.push(wall);
        }
        let sample = OpSample {
            parts,
            virtual_s: refs.iter().map(|r| r.makespan).sum(),
            wire: Some((facts.logical, facts.wire)),
            ok: all_ok,
        };
        facts.warm_wall_s = sample.parts.iter().sum();
        let err_over_bound = facts.err_over_bound;
        self.refs[f.index()] = refs;
        self.facts[f.index()] = facts;
        WarmUp { sample, err_over_bound }
    }

    fn op(&mut self, f: Flavour, _rec: &mut Recorder) -> OpSample {
        let steps = self.steps_of(f);
        let refs = &self.refs[f.index()];
        assert_eq!(refs.len(), steps.len(), "warm_up({f:?}) must run before op");
        let mut parts = Vec::with_capacity(steps.len());
        let mut virtual_s = 0.0;
        let mut ok = true;
        for (&step, want) in steps.iter().zip(refs) {
            let (wall, report) = self.run_step(step, f, MODELED);
            ok &= self.same_output(step, want, &report) && report.stats.makespan == want.makespan;
            virtual_s += report.stats.makespan;
            parts.push(wall);
        }
        OpSample { parts, virtual_s, wire: None, ok }
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut MetricSet, ops: &mut Ops) {
        assert!(self.deep, "warm up with `deep` set before the per-layer pass");
        let ms = 1e3;
        for f in Flavour::ALL {
            let name = f.name();
            // long ops (C-Coll at many ranks) get one repetition, not three
            let reps = if self.facts[f.index()].warm_wall_s < 1.0 { 3 } else { 1 };
            let mut plain = Vec::new();
            let mut traced = Vec::new();
            for _ in 0..reps {
                plain.push(self.layer_op(f, MEASURED, rec, ops));
                traced.push(self.layer_op(f, Drive { trace: true, ..MEASURED }, rec, ops));
            }
            let wall = over(&plain, |s| s.wall);
            let kernels = over(&plain, |s| s.total.cpr + s.total.dpr + s.total.hpr + s.total.cpt);
            // `other` stays inside the overhead: that bucket mixes measured
            // packing with the modeled per-message latency
            out.set(&format!("core.overhead_ms.{name}"), (wall - kernels) * ms);
            out.set(&format!("core.cpr_ms.{name}"), over(&plain, |s| s.total.cpr) * ms);
            out.set(&format!("core.dpr_ms.{name}"), over(&plain, |s| s.total.dpr) * ms);
            out.set(&format!("core.hpr_ms.{name}"), over(&plain, |s| s.total.hpr) * ms);
            out.set(&format!("core.cpt_ms.{name}"), over(&plain, |s| s.total.cpt) * ms);
            out.set(&format!("core.measured_virtual_ms.{name}"), over(&plain, |s| s.makespan) * ms);
            out.set(&format!("core.err_over_bound.{name}"), self.facts[f.index()].err_over_bound);
            let slowest =
                plain.iter().map(|op| op.iter().map(|s| s.wall).sum::<f64>()).fold(0.0, f64::max);
            out.set(&format!("harness.op_ms_hi.{name}"), slowest * ms);
            for (i, step) in self.steps_of(f).into_iter().enumerate() {
                let step_ms = median(&plain.iter().map(|op| op[i].wall * ms).collect::<Vec<_>>());
                match step {
                    Step::Allreduce => {}
                    Step::Auto | Step::Rd => out.set(&format!("core.{}_ms", step.stem()), step_ms),
                    _ => out.set(&format!("core.{}_ms.{name}", step.stem()), step_ms),
                }
            }
            if f == Flavour::Mpi {
                // the flavour with no codec in the way of the flight recorder
                out.set(
                    "netsim.trace_overhead_pct",
                    100.0 * (over(&traced, |s| s.wall) - wall) / wall,
                );
                let threads = Drive { engine: SimEngine::Threads, ..MODELED };
                let t: f64 = self.layer_op(f, threads, rec, ops).iter().map(|s| s.wall).sum();
                out.set("netsim.threads_engine_op_ms", t * ms);
            }
            // closed form against the simulation, same throughput model and
            // the ratio the wire actually saw
            let facts = &self.facts[f.index()];
            let scenario = costmodel::Scenario {
                nranks: self.nranks,
                message_bytes: self.message_bytes(),
                ratio: facts.logical as f64 / facts.wire as f64,
                net: inputs::net(self.seed),
                thr: hzccl::paper_model(f.variant(), Mode::SingleThread),
            };
            let first = self.steps[0];
            let closed = match (first, f) {
                (Step::Allreduce, Flavour::Hz) => costmodel::allreduce_hzccl(&scenario),
                (Step::Allreduce, Flavour::Ccoll) => costmodel::allreduce_ccoll(&scenario),
                (Step::Allreduce, Flavour::Mpi) => costmodel::allreduce_mpi(&scenario),
                (_, Flavour::Hz) => costmodel::reduce_scatter_hzccl_pipelined(&scenario, 8),
                (_, Flavour::Ccoll) => costmodel::reduce_scatter_ccoll_pipelined(&scenario, 8),
                (_, Flavour::Mpi) => costmodel::reduce_scatter_mpi_pipelined(&scenario, 8),
            };
            let simulated = self.refs[f.index()][0].makespan;
            out.set(
                &format!("costmodel.residual_pct.{name}"),
                100.0 * (closed - simulated).abs() / simulated,
            );
        }
        // the hz op's traffic and critical path (exact: modeled timing)
        let hz = &self.facts[Flavour::Hz.index()];
        out.set("netsim.msgs", hz.msgs as f64);
        out.set("netsim.wire_bytes", hz.wire as f64);
        out.set("netsim.critpath_analyze_ms", hz.analyze_s * ms);
        let total: f64 = hz.path.iter().sum();
        for (share, secs) in ["alpha", "wire", "compute", "blocked"].into_iter().zip(hz.path) {
            out.set(&format!("netsim.cp_{share}_share"), 100.0 * secs / total);
        }
        let count = |pick: fn(&Facts) -> u64| self.facts.iter().map(pick).sum::<u64>() as f64;
        out.set("core.retransmits", count(|x| x.retransmits));
        out.set("core.recoveries", count(|x| x.recoveries));
        // Auto against the best static flavour, simulated time of a flat allreduce
        let flat = |f: Flavour, step: Step| self.run_step(step, f, MODELED).1.stats.makespan;
        let best = Flavour::ALL
            .iter()
            .map(|&f| match self.steps[0] {
                Step::Allreduce => self.refs[f.index()][0].makespan,
                _ => flat(f, Step::Allreduce),
            })
            .fold(f64::INFINITY, f64::min);
        let auto = flat(Flavour::Hz, Step::Auto);
        out.set("tuner.auto_regret_pct", 100.0 * (auto - best) / best);
        // every deterministic number above came from the warm-up; a second
        // modeled run of the hz op must reproduce it
        ops.record(self.op(Flavour::Hz, &mut Recorder::new(false)).ok);
    }
}
