//! Causal critical-path analysis over flight-recorder traces.
//!
//! The simulator executes every rank as-soon-as-possible on the virtual
//! clock, so a traced run *is* the earliest-time schedule of its causal
//! constraint graph. This module reconstructs that graph from the recorded
//! event streams —
//!
//! * **program edges**: event `i+1` of a rank cannot complete before event
//!   `i` plus its own intrinsic cost (compute seconds, send injection α;
//!   zero for receives and fault annotations), and
//! * **wire edges**: a `Recv` cannot complete before its matching `Send`
//!   plus the message's serialization time (and any injected jitter), with
//!   matching replayed exactly as [`crate::Comm`] delivers: FIFO per
//!   `(src, dst, tag)` triple —
//!
//! then walks the *binding* predecessor chain backwards from the globally
//! last completion. Because per-rank timelines are gapless (each event
//! starts where the previous one ended) the walk tiles `[0, makespan]`
//! exactly, so the attributed spans sum to the end-to-end virtual time —
//! the invariant `tests/critpath.rs` pins to 1e-9 relative on every
//! collective flavour.
//!
//! A backward (latest-completion) pass over the same DAG yields per-event
//! **slack**: how far an event could slip without growing the makespan.
//! Zero-slack events are critical; small-slack events are the "almost
//! critical" stragglers `hzc sim --slack` surfaces.

use crate::config::{NetConfig, OpKind};
use crate::faults::FaultKind;
use crate::topology::{LinkTier, Topology};
use crate::trace::{Class, Event, Label, RankTrace};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Where one span of the critical path was spent.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanKind {
    /// A compute charge (kernel or analytic advance) on `rank`.
    Compute {
        /// Rank that ran the kernel.
        rank: usize,
        /// The step label it was charged under.
        label: Label,
    },
    /// Sender-side injection overhead (the α of the network model).
    Inject {
        /// Sending rank.
        rank: usize,
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Fabric tier the message crossed.
        tier: LinkTier,
    },
    /// Time on the wire between a matched send/recv pair.
    Wire {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Serialization (β) share of the span.
        ser_secs: f64,
        /// Fault-injected jitter share of the span.
        jitter_secs: f64,
        /// Fabric tier the message crossed.
        tier: LinkTier,
    },
    /// A blocking wait whose send could not be matched (e.g. the sender's
    /// trace is missing after a crash); healthy runs never produce this.
    Wait {
        /// Receiving rank.
        rank: usize,
        /// Source rank it blocked on.
        from: usize,
        /// Message tag.
        tag: u64,
    },
}

/// One contiguous span `[start, end]` of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathElement {
    /// What the span was spent on.
    pub span: SpanKind,
    /// Span start (virtual seconds).
    pub start: f64,
    /// Span end (virtual seconds).
    pub end: f64,
}

impl PathElement {
    /// Span length in seconds.
    pub(crate) fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Critical-path time attributed to the paper's cost buckets plus the
/// network-model components the per-rank [`crate::Breakdown`] cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathBuckets {
    /// Compression (CPR) on the path.
    pub cpr: f64,
    /// Decompression (DPR) on the path.
    pub dpr: f64,
    /// Homomorphic processing (HPR) on the path.
    pub hpr: f64,
    /// Raw reduction arithmetic (CPT) on the path.
    pub cpt: f64,
    /// Other compute (packing, size sync) on the path, *excluding* the
    /// resilient-transport charges split out below.
    pub other: f64,
    /// Sender-side injection overhead (per-message latency α).
    pub alpha: f64,
    /// Wire serialization (the β·bytes share of matched messages).
    pub wire: f64,
    /// Fault-injected delivery jitter on the path.
    pub jitter: f64,
    /// Resilient-transport charges (the [`Class::Resilience`] family).
    pub resilience: f64,
    /// Crash-recovery charges (the [`Class::Recovery`] family).
    pub recovery: f64,
    /// Waits that could not be attributed to a matched send (crashed or
    /// truncated traces only; ~0 on healthy runs).
    pub blocked_wait: f64,
}

impl PathBuckets {
    /// Sum over every bucket — equals the path length.
    pub fn total(&self) -> f64 {
        self.cpr
            + self.dpr
            + self.hpr
            + self.cpt
            + self.other
            + self.alpha
            + self.wire
            + self.jitter
            + self.resilience
            + self.recovery
            + self.blocked_wait
    }

    /// `(name, seconds)` pairs in stable rendering order.
    pub fn entries(&self) -> [(&'static str, f64); 11] {
        [
            ("cpr", self.cpr),
            ("dpr", self.dpr),
            ("hpr", self.hpr),
            ("cpt", self.cpt),
            ("other", self.other),
            ("alpha", self.alpha),
            ("wire", self.wire),
            ("jitter", self.jitter),
            ("resilience", self.resilience),
            ("recovery", self.recovery),
            ("blocked_wait", self.blocked_wait),
        ]
    }
}

/// Critical-path communication time of a group of on-path hops (α + wire +
/// jitter): one message tag in [`CriticalPath::by_tag`] (decode tags with
/// `hzccl::pipeline::decode_tag` to fold these into per-phase/step/segment
/// tables), or one fabric tier in [`CriticalPath::by_tier`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HopTime {
    /// Injection overhead of the on-path sends.
    pub alpha: f64,
    /// Serialization time of the on-path hops.
    pub wire: f64,
    /// Injected jitter of the on-path hops.
    pub jitter: f64,
    /// Number of on-path wire hops.
    pub hops: u64,
}

impl HopTime {
    /// Total seconds of the group.
    pub fn total(&self) -> f64 {
        self.alpha + self.wire + self.jitter
    }
}

/// The result of [`CriticalPath::analyze_with_topology`]: the end-to-end binding chain of
/// a traced run, its composition, and per-event slack.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Path length — the sum of the attributed spans. Equals `makespan` to
    /// floating-point accumulation accuracy.
    pub length: f64,
    /// Latest event completion across all ranks (end-to-end virtual time).
    pub makespan: f64,
    /// Path composition by cost bucket; sums to `length`.
    pub buckets: PathBuckets,
    /// Path seconds attributed to each rank (wire spans go to the
    /// *receiving* rank); indexed by rank, sums to `length`.
    pub per_rank: Vec<f64>,
    /// Communication path seconds per message tag.
    pub by_tag: BTreeMap<u64, HopTime>,
    /// Communication path seconds per fabric tier, indexed by
    /// [`LinkTier::index`]. Untopologized runs land entirely on
    /// [`LinkTier::Flat`].
    pub by_tier: [HopTime; LinkTier::COUNT],
    /// Compute path seconds per step label.
    pub by_label: BTreeMap<&'static str, f64>,
    /// The path itself, chronological, tiling `[0, length]`.
    pub elements: Vec<PathElement>,
    /// `slack[rank][event]`: seconds event `event` of `rank` could slip
    /// without growing the makespan (0 = critical).
    pub slack: Vec<Vec<f64>>,
}

/// Flat event index: `flat[rank] + idx`.
struct Flat {
    offsets: Vec<usize>,
    total: usize,
}

impl Flat {
    fn new(traces: &[RankTrace]) -> Flat {
        let mut offsets = Vec::with_capacity(traces.len());
        let mut total = 0usize;
        for t in traces {
            offsets.push(total);
            total += t.events.len();
        }
        Flat { offsets, total }
    }

    fn id(&self, rank: usize, idx: usize) -> usize {
        self.offsets[rank] + idx
    }

    /// Inverse of [`Flat::id`].
    fn locate(&self, flat: usize) -> (usize, usize) {
        // offsets is sorted; partition_point finds the owning rank
        let rank = self.offsets.partition_point(|&o| o <= flat) - 1;
        (rank, flat - self.offsets[rank])
    }
}

impl CriticalPath {
    /// Analyze the traces of one complete run (every rank's trace, in rank
    /// order — the same `Vec` [`crate::RunReport::traces`] carries).
    ///
    /// `net` and `topology` must be the [`NetConfig`] and [`Topology`] (if
    /// any) the run used: non-binding wire edges (messages that arrived
    /// before their receive was posted) leave no timing residue in the trace,
    /// so their weight is recomputed for the slack pass from the model — the
    /// *tier's* link model on a topologized run (the tier itself is read off
    /// each recorded send).
    pub fn analyze_with_topology(
        traces: &[RankTrace],
        net: &NetConfig,
        topology: Option<&Topology>,
    ) -> CriticalPath {
        let nranks = traces.len();
        let flat = Flat::new(traces);
        let mut end = vec![0.0f64; flat.total];
        // intrinsic per-event cost along the program edge (compute seconds,
        // send injection; zero for recv/fault)
        let mut intrinsic = vec![0.0f64; flat.total];
        let mut jitter = vec![0.0f64; flat.total]; // per send event
        let mut tier_of = vec![LinkTier::Flat; flat.total]; // per send event
        let mut wire_pred: Vec<Option<usize>> = vec![None; flat.total]; // recv -> send
        let mut wire_succ: Vec<Option<usize>> = vec![None; flat.total]; // send -> recv
        let mut wire_w = vec![0.0f64; flat.total]; // weight of recv's wire edge

        // -- pass 1: per-event facts + send queues in sender order ----------
        let mut sends: HashMap<(usize, usize, u64), VecDeque<usize>> = HashMap::new();
        for (rank, t) in traces.iter().enumerate() {
            let mut last_send: HashMap<(usize, u64), usize> = HashMap::new();
            for (idx, ev) in t.events.iter().enumerate() {
                let f = flat.id(rank, idx);
                end[f] = ev.end();
                match *ev {
                    Event::Compute { secs, .. } => intrinsic[f] = secs,
                    Event::Send { to, tag, inject_secs, tier, .. } => {
                        intrinsic[f] = inject_secs;
                        tier_of[f] = tier;
                        sends.entry((rank, to, tag)).or_default().push_back(f);
                        last_send.insert((to, tag), f);
                    }
                    Event::Recv { .. } => {}
                    Event::Fault { kind: FaultKind::Jitter, to, tag, detail, .. } => {
                        // recorded immediately after its send; credit the
                        // extra delay to that send's wire edge
                        if let Some(&s) = last_send.get(&(to, tag)) {
                            jitter[s] += detail;
                        }
                    }
                    Event::Fault { .. } => {}
                }
            }
        }

        // -- pass 2: FIFO send->recv matching (replays channel order) -------
        for (rank, t) in traces.iter().enumerate() {
            for (idx, ev) in t.events.iter().enumerate() {
                let Event::Recv { from, tag, wire_bytes, wait_secs, .. } = *ev else { continue };
                let f = flat.id(rank, idx);
                let Some(s) = sends.get_mut(&(from, rank, tag)).and_then(|q| q.pop_front()) else {
                    continue; // truncated trace set (e.g. crashed sender)
                };
                wire_pred[f] = Some(s);
                wire_succ[s] = Some(f);
                // A blocking receive observed the arrival directly; an
                // already-arrived message leaves no residue, so recompute
                // its wire time from the model (the *tier's* model when the
                // run was topologized).
                wire_w[f] = if wait_secs > 0.0 {
                    end[f] - end[s]
                } else {
                    let ser = match topology {
                        Some(topo) => topo
                            .link(tier_of[s])
                            .serialization_time(wire_bytes, topo.population(tier_of[s])),
                        None => net.serialization_time(wire_bytes, nranks),
                    };
                    ser + jitter[s]
                };
            }
        }

        let makespan = end.iter().cloned().fold(0.0, f64::max);

        // -- backward pass: latest completion times => slack ----------------
        // Process the reversed DAG in topological order (Kahn): a node is
        // ready once all its successors (program + wire) settled.
        let mut latest = vec![f64::INFINITY; flat.total];
        let mut remaining = vec![0u32; flat.total];
        for (rank, t) in traces.iter().enumerate() {
            for idx in 0..t.events.len() {
                let f = flat.id(rank, idx);
                let mut succs = 0u32;
                if idx + 1 < t.events.len() {
                    succs += 1;
                }
                if wire_succ[f].is_some() {
                    succs += 1;
                }
                remaining[f] = succs;
            }
        }
        let mut queue: VecDeque<usize> = (0..flat.total).filter(|&f| remaining[f] == 0).collect();
        while let Some(f) = queue.pop_front() {
            if latest[f].is_infinite() {
                latest[f] = makespan;
            }
            let (_, idx) = flat.locate(f);
            // program predecessor: constrained by this event's intrinsic cost
            if idx > 0 {
                let p = f - 1;
                let bound = latest[f] - intrinsic[f];
                if bound < latest[p] {
                    latest[p] = bound;
                }
                remaining[p] -= 1;
                if remaining[p] == 0 {
                    queue.push_back(p);
                }
            }
            // wire predecessor of a matched receive
            if let Some(s) = wire_pred[f] {
                let bound = latest[f] - wire_w[f];
                if bound < latest[s] {
                    latest[s] = bound;
                }
                remaining[s] -= 1;
                if remaining[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        let slack: Vec<Vec<f64>> = traces
            .iter()
            .enumerate()
            .map(|(rank, t)| {
                (0..t.events.len())
                    .map(|idx| {
                        let f = flat.id(rank, idx);
                        (latest[f] - end[f]).max(0.0)
                    })
                    .collect()
            })
            .collect();

        // -- binding-predecessor walk from the last completion --------------
        let mut elements: Vec<PathElement> = Vec::new();
        let mut cur: Option<usize> = (0..flat.total).filter(|&f| end[f] >= makespan).min(); // deterministic tie-break: lowest rank, earliest event
        let mut steps = 0usize;
        while let Some(f) = cur {
            steps += 1;
            assert!(steps <= flat.total + 1, "critical-path walk failed to terminate");
            let (rank, idx) = flat.locate(f);
            let ev = &traces[rank].events[idx];
            if let Event::Recv { from, tag, wait_secs, .. } = *ev {
                if wait_secs > 0.0 {
                    // binding wire edge (or an unmatchable wait)
                    if let Some(s) = wire_pred[f] {
                        let (srank, sidx) = flat.locate(s);
                        let Event::Send { .. } = traces[srank].events[sidx] else {
                            unreachable!("wire predecessor is always a send")
                        };
                        let span = ev.end() - end[s];
                        let j = jitter[s].min(span).max(0.0);
                        elements.push(PathElement {
                            span: SpanKind::Wire {
                                from: srank,
                                to: rank,
                                tag,
                                ser_secs: span - j,
                                jitter_secs: j,
                                tier: tier_of[s],
                            },
                            start: end[s],
                            end: ev.end(),
                        });
                        cur = Some(s);
                        continue;
                    }
                    elements.push(PathElement {
                        span: SpanKind::Wait { rank, from, tag },
                        start: ev.start(),
                        end: ev.end(),
                    });
                }
            } else if ev.duration() > 0.0 {
                let span = match *ev {
                    Event::Compute { kind, label: name, class, .. } => {
                        SpanKind::Compute { rank, label: Label { name, kind, class } }
                    }
                    Event::Send { to, tag, tier, .. } => SpanKind::Inject { rank, to, tag, tier },
                    _ => unreachable!("recv handled above; faults have zero duration"),
                };
                elements.push(PathElement { span, start: ev.start(), end: ev.end() });
            }
            cur = if idx > 0 { Some(f - 1) } else { None };
        }
        elements.reverse();

        // -- attribution -----------------------------------------------------
        let mut buckets = PathBuckets::default();
        let mut per_rank = vec![0.0f64; nranks];
        let mut by_tag: BTreeMap<u64, HopTime> = BTreeMap::new();
        let mut by_tier = [HopTime::default(); LinkTier::COUNT];
        let mut by_label: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut length = 0.0f64;
        for el in &elements {
            let secs = el.secs();
            length += secs;
            match el.span {
                SpanKind::Compute { rank, label } => {
                    let bucket = match (label.class.family(), label.kind) {
                        (Class::Resilience, _) => &mut buckets.resilience,
                        (Class::Recovery, _) => &mut buckets.recovery,
                        (_, OpKind::Cpr) => &mut buckets.cpr,
                        (_, OpKind::Dpr) => &mut buckets.dpr,
                        (_, OpKind::Hpr) => &mut buckets.hpr,
                        (_, OpKind::Cpt) => &mut buckets.cpt,
                        (_, OpKind::Other) => &mut buckets.other,
                    };
                    *bucket += secs;
                    *by_label.entry(label.name).or_insert(0.0) += secs;
                    per_rank[rank] += secs;
                }
                SpanKind::Inject { rank, tag, tier, .. } => {
                    buckets.alpha += secs;
                    per_rank[rank] += secs;
                    by_tag.entry(tag).or_default().alpha += secs;
                    by_tier[tier.index()].alpha += secs;
                }
                SpanKind::Wire { to, tag, ser_secs, jitter_secs, tier, .. } => {
                    buckets.wire += ser_secs;
                    buckets.jitter += jitter_secs;
                    per_rank[to] += secs;
                    for t in [by_tag.entry(tag).or_default(), &mut by_tier[tier.index()]] {
                        t.wire += ser_secs;
                        t.jitter += jitter_secs;
                        t.hops += 1;
                    }
                }
                SpanKind::Wait { rank, .. } => {
                    buckets.blocked_wait += secs;
                    per_rank[rank] += secs;
                }
            }
        }
        // Residual gap before the path's first element (possible only with a
        // truncated trace set): account it so the tiling invariant holds.
        if let Some(first) = elements.first() {
            if first.start > 0.0 {
                buckets.blocked_wait += first.start;
                length += first.start;
            }
        }

        CriticalPath {
            length,
            makespan,
            buckets,
            per_rank,
            by_tag,
            by_tier,
            by_label,
            elements,
            slack,
        }
    }

    /// Fraction of events (across all ranks) whose slack is below
    /// `threshold` seconds — the "how contended is this schedule" scalar.
    pub fn critical_fraction(&self, threshold: f64) -> f64 {
        let total: usize = self.slack.iter().map(|s| s.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let near: usize = self.slack.iter().flatten().filter(|&&s| s <= threshold).count();
        near as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ComputeTiming, ThroughputModel};
    use crate::sim::SimBuilder;
    use crate::trace::{tests::step, TraceConfig};

    fn net() -> NetConfig {
        NetConfig { latency_s: 1e-5, bandwidth_gbps: 10.0, congestion: 0.0 }
    }

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
    }

    fn traced_sim(nranks: usize) -> SimBuilder {
        SimBuilder::new(nranks).net(net()).timing(modeled()).trace(TraceConfig::default())
    }

    /// Two ranks, one message: the path must be sender compute -> inject ->
    /// wire -> receiver compute, and its length the receiver's end time.
    #[test]
    fn two_rank_chain_is_fully_attributed() {
        let traces = traced_sim(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.compute(step(OpKind::Cpr), 1_000_000, || ());
                    comm.send(1, 7, vec![0u8; 1000]);
                } else {
                    let got = comm.recv(0, 7);
                    comm.compute(step(OpKind::Cpt), got.len(), || ());
                }
            })
            .expect_clean()
            .traces;
        let cp = CriticalPath::analyze_with_topology(&traces, &net(), None);
        assert!((cp.length - cp.makespan).abs() <= 1e-12 * cp.makespan.max(1.0));
        assert!((cp.buckets.total() - cp.length).abs() <= 1e-12);
        // composition: cpr + alpha + wire + cpt, nothing else
        assert!(cp.buckets.cpr > 0.0 && cp.buckets.cpt > 0.0);
        assert!((cp.buckets.alpha - 1e-5).abs() < 1e-12, "{:?}", cp.buckets);
        let ser = net().serialization_time(1000, 2);
        assert!((cp.buckets.wire - ser).abs() < 1e-12, "{:?}", cp.buckets);
        assert_eq!(cp.buckets.blocked_wait, 0.0);
        assert_eq!(cp.buckets.jitter, 0.0);
        assert_eq!(cp.by_tag.get(&7).map(|t| t.hops), Some(1));
        // chronological tiling
        for w in cp.elements.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-12, "{:?}", cp.elements);
        }
        // last event of the receiver is critical; the idle sender's tail has
        // slack
        assert!(cp.slack[1].last().copied().unwrap().abs() < 1e-12);
    }

    /// The straggler's compute chain is the path; the fast rank shows slack.
    #[test]
    fn slack_exposes_the_non_critical_rank() {
        let traces = traced_sim(2)
            .run(|comm| {
                let bytes = if comm.rank() == 0 { 50_000_000 } else { 1_000 };
                comm.compute(step(OpKind::Cpt), bytes, || ());
                // exchange so both ranks finish together in causal terms
                let peer = 1 - comm.rank();
                comm.send(peer, 1, vec![0u8; 8]);
                comm.recv(peer, 1);
            })
            .expect_clean()
            .traces;
        let cp = CriticalPath::analyze_with_topology(&traces, &net(), None);
        assert!((cp.length - cp.makespan).abs() <= 1e-9 * cp.makespan);
        // rank 0's big compute dominates the path
        assert!(cp.per_rank[0] > cp.per_rank[1], "{:?}", cp.per_rank);
        // rank 1's compute has large slack; rank 0's has none
        assert!(cp.slack[1][0] > 1e-4, "slack {:?}", cp.slack);
        assert!(cp.slack[0][0] < 1e-12, "slack {:?}", cp.slack);
        assert!(cp.critical_fraction(1e-12) < 1.0);
    }

    /// Injected jitter must surface as its own bucket, not as wire time.
    #[test]
    fn jitter_is_attributed_separately() {
        let jitter_s = 5e-4;
        let traces = traced_sim(2)
            .faults(crate::faults::FaultPlan::new(3).with_jitter(jitter_s))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 2, vec![0u8; 4096]);
                } else {
                    comm.recv(0, 2);
                }
            })
            .expect_clean()
            .traces;
        let cp = CriticalPath::analyze_with_topology(&traces, &net(), None);
        assert!((cp.length - cp.makespan).abs() <= 1e-12);
        assert!(cp.buckets.jitter > 0.0, "{:?}", cp.buckets);
        let ser = net().serialization_time(4096, 2);
        assert!((cp.buckets.wire - ser).abs() < 1e-12, "{:?}", cp.buckets);
    }

    /// A receive whose sender is missing from the trace set falls back to
    /// `blocked_wait` instead of panicking or dropping time.
    #[test]
    fn unmatched_recv_degrades_to_blocked_wait() {
        let mut traces = traced_sim(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 9, vec![0u8; 100_000]);
                } else {
                    comm.recv(0, 9);
                }
            })
            .expect_clean()
            .traces;
        traces[0].events.clear(); // simulate a lost sender trace
        let cp = CriticalPath::analyze_with_topology(&traces, &net(), None);
        assert!(cp.buckets.blocked_wait > 0.0, "{:?}", cp.buckets);
        assert!((cp.buckets.total() - cp.length).abs() <= 1e-12);
    }

    /// On a two-tier run the path's communication time must split cleanly
    /// into intra- and inter-node tier buckets that tile the α/wire/jitter
    /// totals.
    #[test]
    fn tier_attribution_splits_intra_and_inter_wire() {
        use crate::topology::{LinkTier, Topology};
        let topo = Topology::paper(2, 2);
        // causal chain 0 -> 1 (intra) -> 2 (inter): both hops bind the path
        let traces = SimBuilder::new(4)
            .topology(topo)
            .timing(modeled())
            .trace(TraceConfig::default())
            .run(|comm| match comm.rank() {
                0 => comm.send(1, 1, vec![0u8; 100_000]),
                1 => {
                    let got = comm.recv(0, 1);
                    comm.send(2, 2, got);
                }
                2 => drop(comm.recv(1, 2)),
                _ => {}
            })
            .expect_clean()
            .traces;
        let cp = CriticalPath::analyze_with_topology(&traces, &NetConfig::default(), Some(&topo));
        assert!((cp.length - cp.makespan).abs() <= 1e-9 * cp.makespan.max(1.0));
        let intra = cp.by_tier[LinkTier::Intra.index()];
        let inter = cp.by_tier[LinkTier::Inter.index()];
        assert_eq!((intra.hops, inter.hops), (1, 1), "{:?}", cp.by_tier);
        assert!(inter.total() > intra.total(), "{:?}", cp.by_tier);
        assert_eq!(cp.by_tier[LinkTier::Flat.index()], HopTime::default());
        let comm_total = cp.buckets.alpha + cp.buckets.wire + cp.buckets.jitter;
        let tier_total: f64 = cp.by_tier.iter().map(|t| t.total()).sum();
        assert!((comm_total - tier_total).abs() < 1e-12, "tiers tile the comm share");
        // the exact tier wire times come from the tier links
        for (tt, tier) in [(intra, LinkTier::Intra), (inter, LinkTier::Inter)] {
            let link = topo.link(tier);
            let ser = link.serialization_time(100_000, topo.population(tier));
            assert!((tt.wire - ser).abs() < 1e-12, "{tier:?}: {} vs {ser}", tt.wire);
            assert!((tt.alpha - link.latency_s).abs() < 1e-12);
        }
    }

    /// Untopologized analysis lands every hop on the flat tier and is
    /// unchanged by the new per-tier table.
    #[test]
    fn flat_runs_attribute_to_the_flat_tier() {
        use crate::topology::LinkTier;
        let traces = traced_sim(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![0u8; 1000]);
                } else {
                    comm.recv(0, 7);
                }
            })
            .expect_clean()
            .traces;
        let cp = CriticalPath::analyze_with_topology(&traces, &net(), None);
        let flat = cp.by_tier[LinkTier::Flat.index()];
        assert_eq!(flat.hops, 1);
        assert!((flat.total() - (cp.buckets.alpha + cp.buckets.wire)).abs() < 1e-12);
        assert_eq!(cp.by_tier[LinkTier::Intra.index()], HopTime::default());
        assert_eq!(cp.by_tier[LinkTier::Inter.index()], HopTime::default());
    }

    #[test]
    fn empty_traces_yield_an_empty_path() {
        let cp = CriticalPath::analyze_with_topology(&[], &net(), None);
        assert_eq!(cp.length, 0.0);
        assert_eq!(cp.makespan, 0.0);
        assert!(cp.elements.is_empty());
    }
}
