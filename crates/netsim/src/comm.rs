//! Per-rank communicator: point-to-point messaging with virtual-time
//! accounting, compute-cost charging, and optional flight-recorder tracing.

use crate::breakdown::Breakdown;
use crate::config::{ComputeTiming, NetConfig, OpKind};
use crate::engine::events::EventEndpoint;
use crate::faults::{FaultKind, FaultPlan};
use crate::topology::{LinkTier, Topology};
use crate::trace::{Event, Label, RankTrace, TRACE_CAPACITY};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// Delivery status of a message, as decided by the cluster's [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgStatus {
    /// Delivered intact (possibly corrupted — a bit flip is invisible here,
    /// exactly as on a real wire; checksums live a layer above).
    Ok,
    /// Lost in transit. The message still crosses the channel so the
    /// receiver can account the arrival time it *would* have had, but its
    /// payload never becomes visible: [`Comm::recv_msg`] reports the loss,
    /// plain [`Comm::recv`] panics.
    Dropped,
    /// Poison pill broadcast by a crashing rank; any receiver touching it
    /// panics, cascading the crash so the run terminates instead of
    /// deadlocking.
    CrashNotice,
}

/// A message in flight: payload plus the virtual time at which it reaches
/// the receiver.
pub(crate) struct Message {
    pub from: usize,
    pub tag: u64,
    pub payload: Vec<u8>,
    pub arrival: f64,
    pub status: MsgStatus,
}

/// The transport a [`Comm`] sits on: real `mpsc` channels under the thread
/// engine, shared inboxes under the event engine's cooperative scheduler.
/// All the matching logic (the pending map) lives above this in `Comm`, so
/// both engines share one deterministic match path.
pub(crate) enum Endpoint {
    /// One `mpsc` channel per rank; `txs[to]` reaches rank `to`.
    Threads { txs: Vec<Sender<Message>>, rx: Receiver<Message> },
    /// A handle onto the event engine's shared scheduler state.
    Events(EventEndpoint),
}

impl Endpoint {
    /// Post `msg` to rank `to`. With `lenient` (survivable mode) a send to a
    /// rank that already finished — most importantly, one that crashed — is
    /// silently discarded instead of panicking: the self-healing layer keeps
    /// addressing dead peers until membership agreement removes them.
    fn deliver(&self, to: usize, msg: Message, lenient: bool) {
        match self {
            Endpoint::Threads { txs, .. } => {
                if lenient {
                    let _ = txs[to].send(msg);
                } else {
                    txs[to].send(msg).expect("receiver rank hung up")
                }
            }
            Endpoint::Events(ep) => ep.deliver_checked(to, msg, lenient),
        }
    }

    /// Next inbound message, blocking (thread engine) or yielding to the
    /// scheduler (event engine) until one exists. Panics when no live peer
    /// can ever send again — the deadlock backstop of both engines.
    fn recv_next(&self) -> Message {
        match self {
            Endpoint::Threads { rx, .. } => rx.recv().expect("sender ranks hung up"),
            Endpoint::Events(ep) => ep.recv_next(),
        }
    }

    /// Poison every peer's inbox with a crash notice from `rank`.
    fn crash_broadcast(&self, rank: usize, clock: f64) {
        match self {
            Endpoint::Threads { txs, .. } => {
                for (to, tx) in txs.iter().enumerate() {
                    if to == rank {
                        continue;
                    }
                    // a peer that already finished has dropped its receiver;
                    // that is fine — it no longer needs the notice
                    let _ = tx.send(Message {
                        from: rank,
                        tag: 0,
                        payload: Vec::new(),
                        arrival: clock,
                        status: MsgStatus::CrashNotice,
                    });
                }
            }
            Endpoint::Events(ep) => ep.crash_broadcast(clock),
        }
    }
}

/// Error of [`Comm::recv_checked`]: the peer the caller was blocked on has
/// crashed, so the awaited message can never arrive. Only observable in
/// survivable mode ([`Comm::set_survivable`]); the default mode keeps the
/// historical behaviour of panicking on any observed crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerCrashed {
    /// The rank that crashed (always the `from` the caller was waiting on).
    pub rank: usize,
}

impl std::fmt::Display for PeerCrashed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer rank {} crashed", self.rank)
    }
}

impl std::error::Error for PeerCrashed {}

/// What [`Comm::recv_checked`] saw: the payload plus whether the fault plan
/// dropped the message in transit (in which case `payload` is what was
/// sent but must be treated as never having arrived).
pub struct RecvMsg {
    /// The received bytes (the sent payload even when `dropped`, so the
    /// simulation can keep flowing; resilient callers must ignore it).
    pub payload: Vec<u8>,
    /// True iff the fault plan marked this message lost.
    pub dropped: bool,
}

/// The per-rank handle passed to the closure run on every simulated node.
///
/// Semantics:
/// * [`Comm::send`] is non-blocking (eager) but **not free**: the sender's
///   clock advances by the network model's per-message latency α — the
///   CPU-side injection overhead of posting the message (charged to the
///   `OTHER` bucket, see below) — and the message then arrives
///   `serialization_time` later.
/// * [`Comm::recv`] blocks until the matching `(from, tag)` message exists
///   and advances the virtual clock to `max(clock, arrival)`; the wait is
///   charged to the `MPI` bucket.
/// * [`Comm::compute`] runs a kernel and charges its cost to its [`Label`]'s
///   bucket — wall-clock measured or modeled from calibrated throughputs,
///   per the cluster's [`ComputeTiming`]; [`Comm::advance`] and
///   [`Comm::mark`] are the only other charges.
///
/// ## Why send injection is charged to `OTHER`, not `MPI`
///
/// Modelling sends as entirely free (the pre-flight-recorder behaviour) let
/// a rank inject unbounded messages at a single virtual instant, which both
/// understates sender-side cost and makes α invisible in breakdowns. We now
/// charge α on the sender. It goes to the `OTHER` bucket — CPU-side
/// posting/packing work — rather than `MPI`, deliberately: the paper's
/// Fig. 2 `MPI` share means *time blocked on communication*, and keeping
/// `MPI` purely blocking-wait preserves both that reading and the flight
/// recorder's invariant `Σ Recv.wait_secs == Breakdown::mpi`. The wire
/// share of α is correspondingly removed from the receiver side: a message
/// posted at `t` arrives at `t + serialization_time`, so the end-to-end
/// latency of an unloaded message is still exactly
/// `α + bytes/effective_bandwidth` and `elapsed_equals_breakdown_total`
/// stays green.
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) clock: f64,
    pub(crate) breakdown: Breakdown,
    pub(crate) net: NetConfig,
    pub(crate) timing: ComputeTiming,
    pub(crate) endpoint: Endpoint,
    pub(crate) pending: HashMap<(usize, u64), VecDeque<Message>>,
    /// Flight-recorder buffer; `None` (the default) disables tracing and
    /// makes every record site a single branch with no event construction
    /// and no allocation.
    pub(crate) trace: Option<Vec<Event>>,
    /// Two-tier fabric shape; `None` (the default) keeps every send on the
    /// exact flat-model arithmetic path (bit-identical to pre-topology runs).
    pub(crate) topology: Option<Topology>,
    /// Chaos plan shared by the whole cluster; `None` (the default) keeps
    /// every send/recv on the exact pre-fault code path.
    pub(crate) faults: Option<FaultPlan>,
    /// Per-destination count of fault-eligible sends — the `k` fed to
    /// [`FaultPlan::decide`], so fault decisions are a pure function of the
    /// schedule and never of thread interleaving.
    pub(crate) send_seq: Vec<u64>,
    /// Count of *all* sends posted by this rank (crash-at-step trigger).
    pub(crate) sends_total: u64,
    /// Straggler multiplier applied to compute durations (1.0 = healthy).
    pub(crate) compute_scale: f64,
    /// Survivable mode: crash notices are recorded into [`Comm::dead`] and
    /// surfaced through [`Comm::recv_checked`] instead of panicking, and
    /// sends to finished/crashed peers are silently discarded. Off by
    /// default — every legacy code path is byte-identical.
    pub(crate) survivable: bool,
    /// Ranks this rank has *observed* to be dead (crash notices consumed
    /// while in survivable mode). A subset of the truly-dead set; grows
    /// monotonically and only at deterministic points of the rank's own
    /// receive sequence.
    pub(crate) dead: BTreeSet<usize>,
}

impl Comm {
    /// Build the communicator one rank runs on; called by both engines'
    /// harnesses with their own [`Endpoint`] flavour.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_rank(
        rank: usize,
        size: usize,
        net: NetConfig,
        timing: ComputeTiming,
        trace: bool,
        topology: Option<Topology>,
        faults: Option<FaultPlan>,
        endpoint: Endpoint,
    ) -> Comm {
        let compute_scale = faults.as_ref().map_or(1.0, |p| p.straggler_scale(rank));
        Comm {
            rank,
            size,
            clock: 0.0,
            breakdown: Breakdown::default(),
            net,
            timing,
            endpoint,
            pending: HashMap::new(),
            trace: trace.then(|| Vec::with_capacity(TRACE_CAPACITY)),
            topology,
            faults,
            send_seq: vec![0; size],
            sends_total: 0,
            compute_scale,
            survivable: false,
            dead: BTreeSet::new(),
        }
    }

    /// Detach the recorded event stream (if tracing was on), rank-stamped.
    pub(crate) fn take_trace(&mut self) -> Option<RankTrace> {
        let rank = self.rank;
        self.trace.take().map(|events| RankTrace { rank, events })
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time on this rank, in seconds.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Cost breakdown accumulated so far on this rank.
    pub fn breakdown(&self) -> Breakdown {
        self.breakdown
    }

    /// Switch survivable mode on or off. While on, observed peer crashes are
    /// recorded (see [`Comm::recv_checked`]) instead of
    /// panicking, and sends to finished peers are discarded instead of
    /// asserting — the substrate the self-healing collective layer builds
    /// on. The default (`false`) keeps every code path byte-identical to the
    /// historical fail-fast behaviour.
    pub fn set_survivable(&mut self, on: bool) {
        self.survivable = on;
    }

    /// Whether survivable mode is active.
    pub fn survivable(&self) -> bool {
        self.survivable
    }

    /// Reset the virtual clock, breakdown and recorded events (e.g. after a
    /// warm-up round).
    pub fn reset_clock(&mut self) {
        self.clock = 0.0;
        self.breakdown = Breakdown::default();
        if let Some(buf) = &mut self.trace {
            buf.clear();
        }
    }

    /// Record an event if (and only if) tracing is enabled. The closure
    /// defers event construction, so the disabled path is one `Option`
    /// branch with zero allocation — the no-op contract relied on by
    /// runs without [`crate::SimBuilder::trace`].
    #[inline]
    fn record(&mut self, make: impl FnOnce() -> Event) {
        if let Some(buf) = &mut self.trace {
            buf.push(make());
        }
    }

    /// Send `payload` to `to` with matching `tag`. Non-blocking, but charges
    /// the sender-side injection overhead α to this rank's clock (`OTHER`
    /// bucket — see the type-level docs for the modelling rationale).
    ///
    /// Panics on self-sends and unknown ranks (programming errors in a
    /// collective).
    pub fn send(&mut self, to: usize, tag: u64, payload: Vec<u8>) {
        let logical = payload.len();
        self.send_compressed(to, tag, payload, logical);
    }

    /// [`Comm::send`] for compressed traffic: `logical_bytes` is the
    /// uncompressed-equivalent size this message represents, so the flight
    /// recorder can observe the per-step achieved compression ratio
    /// (`logical_bytes / wire_bytes`). Identical timing to `send`.
    pub fn send_compressed(&mut self, to: usize, tag: u64, payload: Vec<u8>, logical_bytes: usize) {
        self.send_inner(to, tag, payload, logical_bytes, false);
    }

    /// [`Comm::send_compressed`] on a fault-exempt channel: the cluster's
    /// [`FaultPlan`] never drops, corrupts or jitters this message. Models
    /// link-level-protected control traffic (ACK/NACK frames); timing and
    /// accounting are identical to a regular send. A crashing rank still
    /// crashes — reliability protects the wire, not the endpoint.
    pub fn send_reliable(&mut self, to: usize, tag: u64, payload: Vec<u8>, logical_bytes: usize) {
        self.send_inner(to, tag, payload, logical_bytes, true);
    }

    fn send_inner(
        &mut self,
        to: usize,
        tag: u64,
        payload: Vec<u8>,
        logical_bytes: usize,
        reliable: bool,
    ) {
        assert!(to != self.rank, "self-send in a collective is a bug");
        // Crash injection models *data-plane* deaths: a rank dies at its
        // configured data send step (`>=` so a step consumed by control
        // traffic still fires at the next data send). Link-level-protected
        // control traffic (`send_reliable`) never triggers the crash — the
        // membership/agreement protocol relies on control rounds being
        // crash-free (DESIGN.md §5.5); any rank already past its crash step
        // never reaches another data send anyway.
        if !reliable {
            if let Some(step) = self.faults.as_ref().and_then(|p| p.crash_step(self.rank)) {
                if self.sends_total >= step {
                    self.crash(step);
                }
            }
        }
        self.sends_total += 1;
        let mut payload = payload;
        let wire_bytes = payload.len();
        let t = self.clock;
        // Resolve the pair's link. Without a topology this reproduces the
        // flat model with the identical operands in the identical order, so
        // untopologized runs stay bit-for-bit unchanged.
        let (link, population, tier) = match &self.topology {
            Some(topo) => {
                let tier = topo.tier(self.rank, to);
                (topo.link(tier), topo.population(tier), tier)
            }
            None => (self.net, self.size, LinkTier::Flat),
        };
        let inject = link.latency_s;
        self.clock += inject;
        self.breakdown.charge(OpKind::Other, inject);
        self.record(|| Event::Send {
            t,
            to,
            tag,
            wire_bytes,
            logical_bytes,
            inject_secs: inject,
            tier,
        });
        let mut arrival = self.clock + link.serialization_time(wire_bytes, population);
        let mut status = MsgStatus::Ok;
        if !reliable {
            if let Some(plan) = &self.faults {
                let k = self.send_seq[to];
                self.send_seq[to] += 1;
                let d = plan.decide(self.rank, to, k, wire_bytes * 8);
                if d.drop {
                    status = MsgStatus::Dropped;
                    self.record(|| Event::Fault { t, kind: FaultKind::Drop, to, tag, detail: 0.0 });
                } else {
                    if let Some(bit) = d.corrupt_bit {
                        payload[bit / 8] ^= 1 << (bit % 8);
                        self.record(|| Event::Fault {
                            t,
                            kind: FaultKind::Corrupt,
                            to,
                            tag,
                            detail: bit as f64,
                        });
                    }
                    if d.jitter_s > 0.0 {
                        arrival += d.jitter_s;
                        self.record(|| Event::Fault {
                            t,
                            kind: FaultKind::Jitter,
                            to,
                            tag,
                            detail: d.jitter_s,
                        });
                    }
                }
            }
        }
        let msg = Message { from: self.rank, tag, payload, arrival, status };
        self.endpoint.deliver(to, msg, self.survivable);
    }

    /// One-shot fault-plan crash. The panic unwinds into the cluster's
    /// per-rank harness, which broadcasts a crash notice to every peer (see
    /// [`Comm::broadcast_crash_notice`]) so blocked receivers panic in turn
    /// instead of deadlocking.
    fn crash(&mut self, step: u64) -> ! {
        let t = self.clock;
        let rank = self.rank;
        self.record(|| Event::Fault {
            t,
            kind: FaultKind::Crash,
            to: rank,
            tag: 0,
            detail: step as f64,
        });
        panic!("rank {rank} crashed by fault plan at send step {step}");
    }

    /// Poison every peer's inbox with a crash notice. Called by the rank
    /// harness when this rank's closure panics (fault-plan crash or any
    /// other bug), so ranks blocked — now or later — on a `recv` involving
    /// this rank observe the crash and unwind instead of deadlocking, and
    /// [`crate::RunReport::panics`] can report every casualty.
    pub(crate) fn broadcast_crash_notice(&self) {
        self.endpoint.crash_broadcast(self.rank, self.clock);
    }

    /// Receive the message with matching `(from, tag)`, blocking as needed.
    ///
    /// Panics if the fault plan dropped the message: a plain `recv` has no
    /// recovery protocol, so silent loss would hang the collective — chaos
    /// runs must use the resilient transport (see [`Comm::recv_checked`]).
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<u8> {
        let got = self.recv_msg(from, tag);
        assert!(
            !got.dropped,
            "message (from={from}, tag={tag:#x}) was dropped by the fault plan; \
             plain recv cannot recover — use the resilient transport"
        );
        got.payload
    }

    /// [`Comm::recv`] that surfaces transit loss instead of panicking.
    /// Accounting is identical to `recv` — the clock still advances to the
    /// (would-be) arrival and the wait is charged to the `MPI` bucket,
    /// modelling a receiver that blocks until its loss-detection timeout
    /// fires. An observed crash panics: [`Comm::recv_checked`] is the
    /// variant that reports it.
    pub(crate) fn recv_msg(&mut self, from: usize, tag: u64) -> RecvMsg {
        self.recv_checked(from, tag).unwrap_or_else(|crash| {
            panic!("rank {} observed crash of rank {}", self.rank, crash.rank)
        })
    }

    /// The one drain-and-match receive, and the building block of the
    /// resilient transport: transit loss is surfaced ([`RecvMsg::dropped`])
    /// and, in survivable mode, a crash of the awaited peer comes back as
    /// `Err(PeerCrashed)` instead of a panic, so the caller can repair and
    /// continue. Outside survivable mode *any* crash notice panics, as it
    /// always has.
    ///
    /// Determinism contract (the engine-equivalence property relies on it):
    /// the result depends only on this rank's program order and on `from`'s
    /// program order, never on cross-sender arrival interleaving. While
    /// blocked on `(from, tag)`, a crash notice from a *different* rank `c`
    /// is recorded into the dead set and waiting continues — it is acted on
    /// only at deterministic points (a later `recv_checked(c, ..)` or a
    /// membership round). A crash notice *from* `from` yields `Err`; since
    /// both engines deliver each sender's messages in send order, everything
    /// `from` sent before dying is matched first, on both engines.
    pub fn recv_checked(&mut self, from: usize, tag: u64) -> Result<RecvMsg, PeerCrashed> {
        let key = (from, tag);
        let msg = loop {
            if let Some(m) = self.pending.get_mut(&key).and_then(|q| q.pop_front()) {
                break m;
            }
            // No earlier message from `from` can still be in flight once its
            // notice has been consumed (per-sender FIFO), so checking the
            // pending map first and the dead set second is exact.
            if self.dead.contains(&from) {
                return Err(PeerCrashed { rank: from });
            }
            let m = self.endpoint.recv_next();
            if m.status == MsgStatus::CrashNotice {
                if !self.survivable {
                    panic!("rank {} observed crash of rank {}", self.rank, m.from);
                }
                self.dead.insert(m.from);
                if m.from == from {
                    return Err(PeerCrashed { rank: from });
                }
                continue;
            }
            if m.from == from && m.tag == tag {
                break m;
            }
            self.pending.entry((m.from, m.tag)).or_default().push_back(m);
        };
        let t = self.clock;
        let wait = (msg.arrival - self.clock).max(0.0);
        if wait > 0.0 {
            self.breakdown.mpi += wait;
            self.clock = msg.arrival;
        }
        let wire_bytes = msg.payload.len();
        self.record(|| Event::Recv { t, from, tag, wire_bytes, wait_secs: wait });
        Ok(RecvMsg { payload: msg.payload, dropped: msg.status == MsgStatus::Dropped })
    }

    /// Concurrent exchange: send to `to`, receive from `from` (the classic
    /// ring-step `MPI_Sendrecv`).
    pub fn sendrecv(&mut self, to: usize, tag: u64, payload: Vec<u8>, from: usize) -> Vec<u8> {
        self.send(to, tag, payload);
        self.recv(from, tag)
    }

    /// Run `f`, charging its cost to `label`'s kind. `bytes` is the volume
    /// of *uncompressed-equivalent* data the kernel touches, used by modeled
    /// timing (ignored by measured timing).
    pub fn compute<T>(&mut self, label: Label, bytes: usize, f: impl FnOnce() -> T) -> T {
        let (r, mut dt) = match self.timing {
            ComputeTiming::Measured => {
                let t0 = Instant::now();
                let r = f();
                (r, t0.elapsed().as_secs_f64())
            }
            ComputeTiming::Modeled(model) => (f(), model.duration(label.kind, bytes)),
        };
        // straggler ranks run the same kernel, just slower; scale == 1.0 is
        // bit-exact identity so healthy runs are untouched
        if self.compute_scale != 1.0 {
            dt *= self.compute_scale;
        }
        self.charge(label, bytes, dt);
        r
    }

    /// Advance the virtual clock by `secs` without running anything (a cost
    /// known analytically, e.g. a timeout wait), charged under `label`.
    pub fn advance(&mut self, label: Label, secs: f64) {
        self.charge(label, 0, secs);
    }

    /// Drop a zero-second marker carrying `value` in the event's `bytes`
    /// (e.g. the committed epoch) on the flight recorder; it costs nothing.
    pub fn mark(&mut self, label: Label, value: u64) {
        self.charge(label, value as usize, 0.0);
    }

    /// The one charge path: `secs` onto the clock and `label`'s bucket, and
    /// one event when tracing — a single branch otherwise.
    fn charge(&mut self, label: Label, bytes: usize, secs: f64) {
        let t = self.clock;
        self.clock += secs;
        self.breakdown.charge(label.kind, secs);
        let Label { name, kind, class } = label;
        self.record(|| Event::Compute { t, kind, bytes, secs, label: name, class });
    }
}
