//! The simulation front-end: [`SimBuilder`] configures a virtual cluster,
//! [`SimBuilder::run`] executes a closure on every rank under the selected
//! [`SimEngine`], and a typed [`RunReport`] carries everything one run
//! produces — per-rank outcomes, aggregate stats, flight-recorder traces
//! and rank panics.

use crate::breakdown::Breakdown;
use crate::comm::Comm;
use crate::config::{ComputeTiming, NetConfig};
use crate::engine;
use crate::faults::{FaultKind, FaultPlan};
use crate::topology::Topology;
use crate::trace::{Class, Event, RankTrace, TraceConfig};

/// Result of one rank's participation in a [`SimBuilder::run`].
#[derive(Debug, Clone)]
pub struct RankOutcome<R> {
    /// The rank this outcome belongs to. Equal to its index in
    /// [`RunReport::outcomes`] on a clean run; meaningful on its own when
    /// some ranks crashed.
    pub rank: usize,
    /// Whatever the rank closure returned.
    pub value: R,
    /// The rank's final virtual clock, in seconds.
    pub elapsed: f64,
    /// The rank's cost breakdown.
    pub breakdown: Breakdown,
}

/// A rank that died, with the panic message it died with.
///
/// [`RunReport::panics`] surfaces these as values, so chaos tests can assert
/// *which* rank crashed and *why* (e.g. a fault-plan crash vs. a cascading
/// crash notice on a peer).
#[derive(Debug, Clone, PartialEq)]
pub struct RankPanic {
    /// The rank that panicked.
    pub rank: usize,
    /// The panic payload, if it was a string (the overwhelmingly common
    /// case: `panic!`/`assert!` messages); a description otherwise.
    pub message: String,
    /// The rank's flight-recorder trace up to its death, an injected crash
    /// included; `None` unless the run was traced. Kept apart from
    /// [`RunReport::traces`], so critical paths and the other counts of
    /// [`Tally`] read the completed ranks only.
    pub trace: Option<RankTrace>,
}

/// Aggregate view over the completed ranks of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Completion time of the slowest rank (the collective's latency).
    pub makespan: f64,
    /// Sum of all ranks' breakdowns.
    pub total: Breakdown,
}

/// What a traced run did, counted in one pass over its flight-recorder
/// traces ([`RunReport::tally`]). Only [`Tally::crashes`] reads the traces
/// of ranks that died ([`RankPanic::trace`]); every other field counts the
/// completed ranks; the marker counts read [`Class`], never a name. Every
/// field is 0 on an untraced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Messages sent (`Send` events).
    pub messages: u64,
    /// Bytes those messages put on the wire, retransmitted frames included.
    pub wire_bytes: u64,
    /// Uncompressed-equivalent bytes those messages represented.
    pub logical_bytes: u64,
    /// Frames the resilient transport resent ([`Class::Retransmit`]).
    pub retransmits: u64,
    /// Receive timeouts it charged ([`Class::Timeout`]).
    pub timeouts: u64,
    /// Segments it fell back to an uncompressed resend for
    /// ([`Class::DegradedSegment`]).
    pub degraded_segments: u64,
    /// Membership repairs ([`Class::Repair`]).
    pub recoveries: u64,
    /// Highest committed membership epoch ([`Class::Epoch`] values).
    pub epoch: u64,
    /// Largest survivor count a committed view reported
    /// ([`Class::Survivors`] values).
    pub survivors: u64,
    /// Messages the fault plan dropped.
    pub drops: u64,
    /// Messages it corrupted.
    pub corruptions: u64,
    /// Messages it delayed.
    pub jitters: u64,
    /// Ranks it crashed (counted from the dying ranks' traces).
    pub crashes: u64,
}

/// Which execution engine drives the ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Fibers under a cooperative virtual-time scheduler on one OS thread:
    /// ~20 ns suspensions instead of µs-scale thread parking, unlocking
    /// 10k+-rank simulations. The default. On targets without a fiber
    /// backend (anything but x86-64/aarch64) runs fall back to
    /// [`SimEngine::Threads`] — results are identical either way, only the
    /// scale ceiling differs.
    #[default]
    Events,
    /// One OS thread per rank over `mpsc` channels — the original model,
    /// kept for cross-engine equivalence testing. Caps out around the host's
    /// thread limit (~512 ranks).
    Threads,
}

impl SimEngine {
    /// Stable lowercase name (`"events"` / `"threads"`).
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::Events => "events",
            SimEngine::Threads => "threads",
        }
    }

    /// Whether this target has the fiber backend the event engine needs.
    /// When `false`, [`SimEngine::Events`] silently runs on threads.
    pub fn events_supported() -> bool {
        engine::fiber::SUPPORTED
    }
}

/// Everything a [`SimBuilder::run`] produces.
///
/// On a clean run `outcomes[rank].rank == rank`, `panics` is empty, and —
/// when tracing was enabled — `traces[rank].rank == rank`. When ranks
/// crashed, `outcomes`/`traces` hold the survivors (still in rank order,
/// each stamped with its rank) and `panics` the casualties.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Per-rank results of the ranks that completed, in rank order.
    pub outcomes: Vec<RankOutcome<R>>,
    /// The ranks that died, in rank order; empty on a clean run.
    pub panics: Vec<RankPanic>,
    /// Aggregates over the completed ranks.
    pub stats: RunStats,
    /// Flight-recorder traces of the completed ranks, in rank order; empty
    /// unless the run was configured with [`SimBuilder::trace`].
    pub traces: Vec<RankTrace>,
}

impl<R> RunReport<R> {
    fn from_raw(raw: engine::RawRun<R>) -> RunReport<R> {
        let mut outcomes = Vec::with_capacity(raw.fates.len());
        let mut panics = Vec::new();
        for fate in raw.fates {
            match fate {
                Ok(o) => outcomes.push(o),
                Err(p) => panics.push(p),
            }
        }
        let mut stats = RunStats { makespan: 0.0, total: Breakdown::default() };
        for o in &outcomes {
            stats.makespan = stats.makespan.max(o.elapsed);
            stats.total += o.breakdown;
        }
        RunReport { outcomes, panics, stats, traces: raw.traces }
    }

    /// True iff every rank completed.
    pub fn is_clean(&self) -> bool {
        self.panics.is_empty()
    }

    /// Assert the run was clean, propagating the first rank panic otherwise
    /// (chainable: `sim.run(f).expect_clean().outcomes`).
    #[track_caller]
    pub fn expect_clean(self) -> Self {
        if let Some(p) = self.panics.first() {
            panic!("rank {} panicked: {}", p.rank, p.message);
        }
        self
    }

    /// The per-rank closure return values in rank order; panics if any rank
    /// died.
    #[track_caller]
    pub fn values(self) -> Vec<R> {
        self.expect_clean().outcomes.into_iter().map(|o| o.value).collect()
    }

    /// The completed outcome of `rank`, if it completed.
    pub(crate) fn outcome(&self, rank: usize) -> Option<&RankOutcome<R>> {
        self.outcomes.binary_search_by_key(&rank, |o| o.rank).ok().map(|i| &self.outcomes[i])
    }

    /// The closure return value of `rank`; panics (with the rank's own panic
    /// message, if it died) when there is no outcome for it.
    #[track_caller]
    pub fn value(&self, rank: usize) -> &R {
        match self.outcome(rank) {
            Some(o) => &o.value,
            None => match self.panic_of(rank) {
                Some(p) => panic!("rank {} panicked: {}", p.rank, p.message),
                None => panic!("no such rank: {rank}"),
            },
        }
    }

    /// The panic that killed `rank`, if it died.
    pub fn panic_of(&self, rank: usize) -> Option<&RankPanic> {
        self.panics.iter().find(|p| p.rank == rank)
    }

    /// Count what the run did from its traces (see [`Tally`]).
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for ev in self.traces.iter().flat_map(|trace| &trace.events) {
            match *ev {
                Event::Send { wire_bytes, logical_bytes, .. } => {
                    t.messages += 1;
                    t.wire_bytes += wire_bytes as u64;
                    t.logical_bytes += logical_bytes as u64;
                }
                Event::Recv { .. } => {}
                Event::Compute { class, bytes, .. } => match class {
                    Class::Retransmit => t.retransmits += 1,
                    Class::Timeout => t.timeouts += 1,
                    Class::DegradedSegment => t.degraded_segments += 1,
                    Class::Repair => t.recoveries += 1,
                    Class::Epoch => t.epoch = t.epoch.max(bytes as u64),
                    Class::Survivors => t.survivors = t.survivors.max(bytes as u64),
                    Class::Step | Class::Resilience | Class::Recovery => {}
                },
                Event::Fault { kind, .. } => match kind {
                    FaultKind::Drop => t.drops += 1,
                    FaultKind::Corrupt => t.corruptions += 1,
                    FaultKind::Jitter => t.jitters += 1,
                    FaultKind::Crash => {}
                },
            }
        }
        let dying = self.panics.iter().filter_map(|p| p.trace.as_ref());
        t.crashes = dying
            .flat_map(|trace| &trace.events)
            .filter(|ev| matches!(ev, Event::Fault { kind: FaultKind::Crash, .. }))
            .count() as u64;
        t
    }

    /// The flight-recorder trace of `rank`, if it completed under tracing.
    pub fn trace_of(&self, rank: usize) -> Option<&RankTrace> {
        self.traces.binary_search_by_key(&rank, |t| t.rank).ok().map(|i| &self.traces[i])
    }

    /// Per-rank fates in rank order: `Ok` for survivors, `Err` for
    /// casualties.
    pub fn fates(&self) -> Vec<Result<&RankOutcome<R>, &RankPanic>> {
        let n = self.outcomes.len() + self.panics.len();
        let mut out = Vec::with_capacity(n);
        let (mut oi, mut pi) = (0, 0);
        for rank in 0..n {
            if oi < self.outcomes.len() && self.outcomes[oi].rank == rank {
                out.push(Ok(&self.outcomes[oi]));
                oi += 1;
            } else {
                debug_assert!(pi < self.panics.len() && self.panics[pi].rank == rank);
                out.push(Err(&self.panics[pi]));
                pi += 1;
            }
        }
        out
    }
}

/// A virtual cluster configuration: rank count, network model, compute
/// timing, optional tracing/faults/topology, and the execution engine.
///
/// ```
/// use netsim::{Class, Label, OpKind, SimBuilder};
///
/// const ADD: Label = Label { name: "add", kind: OpKind::Cpt, class: Class::Step };
/// let report = SimBuilder::new(4).run(|comm| {
///     let rank = comm.rank();
///     let to = (rank + 1) % comm.size();
///     let from = (rank + comm.size() - 1) % comm.size();
///     let got = comm.sendrecv(to, 0, vec![rank as u8], from);
///     comm.compute(ADD, 1, || got[0] as usize + rank)
/// });
/// assert_eq!(report.outcomes.len(), 4);
/// assert!(report.stats.makespan > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    pub(crate) nprocs: usize,
    pub(crate) net: NetConfig,
    pub(crate) timing: ComputeTiming,
    pub(crate) trace: bool,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) topology: Option<Topology>,
    pub(crate) engine: SimEngine,
    pub(crate) stack_bytes: usize,
}

impl SimBuilder {
    /// A simulation of `nprocs` ranks with the default (Omni-Path-class)
    /// network, measured compute timing, tracing disabled, no faults, a
    /// flat fabric, and the event engine.
    pub fn new(nprocs: usize) -> SimBuilder {
        assert!(nprocs > 0, "simulation needs at least one rank");
        SimBuilder {
            nprocs,
            net: NetConfig::default(),
            timing: ComputeTiming::Measured,
            trace: false,
            faults: None,
            topology: None,
            engine: SimEngine::default(),
            stack_bytes: 1 << 20,
        }
    }

    /// Replace the network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replace the compute-timing mode.
    pub fn timing(mut self, timing: ComputeTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Enable the flight recorder: every rank records structured
    /// [`crate::trace::Event`]s on the virtual timeline, returned in
    /// [`RunReport::traces`]. Off by default; when off, the per-event record
    /// sites compile down to a `None` branch with zero allocation.
    pub fn trace(mut self, _: TraceConfig) -> Self {
        self.trace = true;
        self
    }

    /// Inject faults: every rank's sends and compute run under the plan's
    /// seeded, deterministic chaos decisions (drops, corruption, jitter,
    /// stragglers, crashes). Off by default; `None`-equivalent plans (no
    /// probabilities set) leave behaviour bit-identical to a fault-free run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Shape the fabric: every `(src, dst)` pair resolves to its
    /// [`crate::topology::LinkTier`]'s link model instead of the flat
    /// [`NetConfig`], and sends are stamped with the tier they crossed.
    /// `topology.nranks()` must equal the rank count. Off by default;
    /// without a topology every send takes the exact flat-model arithmetic
    /// path, so untopologized runs stay bit-identical.
    pub fn topology(mut self, topology: Topology) -> Self {
        assert!(
            topology.nranks() == self.nprocs,
            "topology is {} ranks ({}), simulation has {}",
            topology.nranks(),
            topology.describe(),
            self.nprocs
        );
        self.topology = Some(topology);
        self
    }

    /// Select the execution engine (default: [`SimEngine::Events`]).
    pub fn engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Per-rank fiber stack size for the event engine, in bytes (default
    /// 1 MiB, floor 64 KiB). Stacks are reserved lazily, so large values
    /// cost address space, not resident memory. Ignored by the thread
    /// engine.
    pub fn stack_bytes(mut self, bytes: usize) -> Self {
        self.stack_bytes = bytes;
        self
    }

    /// Run `f` on every rank; real data flows through real buffers, time is
    /// virtual. Returns the full [`RunReport`]; rank panics are reported in
    /// [`RunReport::panics`], never re-raised here.
    pub fn run<F, R>(&self, f: F) -> RunReport<R>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        let raw = match self.engine {
            SimEngine::Events if engine::fiber::SUPPORTED => engine::events::run(self, &f),
            SimEngine::Events | SimEngine::Threads => engine::threads::run(self, &f),
        };
        RunReport::from_raw(raw)
    }
}
