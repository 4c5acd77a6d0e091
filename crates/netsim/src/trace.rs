//! Flight recorder: per-rank structured event tracing on the virtual
//! timeline, plus Chrome-trace (Perfetto) and ASCII Gantt exporters.
//!
//! Tracing is **off by default** and enabled per run with
//! [`crate::SimBuilder::trace`] (traces come back in
//! [`crate::RunReport::traces`]). When disabled, every record site inside
//! [`crate::Comm`] reduces to a single `Option` branch — no event is
//! constructed and nothing is allocated (the zero-overhead contract DESIGN.md
//! §"Observability" documents and `tests/trace.rs` pins down).
//!
//! Every event carries its *start* virtual time `t` and a duration, so the
//! per-rank event stream reconstructs the rank's [`Breakdown`] exactly:
//!
//! * `Compute { kind, secs }` sums match the `cpr`/`dpr`/`hpr`/`cpt` buckets,
//! * `Send.inject_secs` plus `Compute(Other)` sums match `other`,
//! * `Recv.wait_secs` sums match `mpi`.

use crate::breakdown::Breakdown;
use crate::config::OpKind;
use crate::critpath::{CriticalPath, SpanKind};
use crate::faults::FaultKind;
use crate::json::Json;
use crate::topology::LinkTier;

/// Initial per-rank event-buffer capacity (one up-front allocation; the
/// buffer grows amortized beyond it).
pub(crate) const TRACE_CAPACITY: usize = 1024;

/// The flight recorder's on-switch, handed to [`crate::SimBuilder::trace`]
/// as `TraceConfig::default()`; it has nothing to set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {}

/// A step label: what a charge is called, where its time goes and what the
/// reports make of it. [`crate::Comm::compute`], [`crate::Comm::advance`]
/// and [`crate::Comm::mark`] each take one; netsim reads its `class`, never
/// its `name`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    /// Name on the event (e.g. `"hz:homomorphic-sum"`).
    pub name: &'static str,
    /// Cost bucket of the charged seconds.
    pub kind: OpKind,
    /// What the reports make of the charge.
    pub class: Class,
}

/// What the reports make of a charge: an ordinary step, a charge of one of
/// the two fault-handling layers, or a marker [`crate::Tally`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Filed on the critical path under its kind.
    Step,
    /// A resilient-transport charge: [`crate::PathBuckets::resilience`], and
    /// a Chrome instant when it takes no time. `Retransmit`, `Timeout` and
    /// `DegradedSegment` are of this family.
    Resilience,
    /// A crash-recovery charge: [`crate::PathBuckets::recovery`]. `Repair`,
    /// `Epoch` and `Survivors` are of this family.
    Recovery,
    /// Counted as [`crate::Tally::retransmits`].
    Retransmit,
    /// Counted as [`crate::Tally::timeouts`].
    Timeout,
    /// Counted as [`crate::Tally::degraded_segments`].
    DegradedSegment,
    /// Counted as [`crate::Tally::recoveries`].
    Repair,
    /// Its value is a committed [`crate::Tally::epoch`].
    Epoch,
    /// Its value is a committed [`crate::Tally::survivors`] count.
    Survivors,
}

impl Class {
    /// [`Class::Step`], [`Class::Resilience`] or [`Class::Recovery`]: the
    /// class itself, or the layer a marker counts for.
    pub fn family(self) -> Class {
        match self {
            Class::Retransmit | Class::Timeout | Class::DegradedSegment => Class::Resilience,
            Class::Repair | Class::Epoch | Class::Survivors => Class::Recovery,
            class => class,
        }
    }
}

/// One structured event on a rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message departure. `t` is the clock when the send was posted; the
    /// sender's injection overhead (`inject_secs`, the α portion of the
    /// network model) is charged to the sender's `other` bucket.
    Send {
        /// Start time (virtual seconds).
        t: f64,
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Bytes that travel the wire (compressed size for compressed
        /// collectives).
        wire_bytes: usize,
        /// Uncompressed-equivalent bytes this message represents; equals
        /// `wire_bytes` for uncompressed traffic. `logical/wire` is the
        /// per-step achieved compression ratio.
        logical_bytes: usize,
        /// Sender-side injection overhead charged at this event.
        inject_secs: f64,
        /// Fabric tier the message crossed ([`LinkTier::Flat`] when the
        /// cluster has no topology).
        tier: LinkTier,
    },
    /// A message receipt. `t` is the clock when the receive was posted;
    /// `wait_secs` is the blocking time until the message's arrival
    /// (zero if it had already arrived), charged to the `mpi` bucket.
    Recv {
        /// Start time (virtual seconds).
        t: f64,
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
        /// Bytes that travelled the wire.
        wire_bytes: usize,
        /// Blocking wait charged to the `mpi` bucket.
        wait_secs: f64,
    },
    /// A charge of [`crate::Comm::compute`], [`crate::Comm::advance`] or
    /// [`crate::Comm::mark`], its [`Label`] spelled out.
    Compute {
        /// Start time (virtual seconds).
        t: f64,
        /// Cost bucket.
        kind: OpKind,
        /// Uncompressed-equivalent bytes the kernel touched (a mark's value).
        bytes: usize,
        /// Charged duration.
        secs: f64,
        /// Pipeline-step name (e.g. `"hz:homomorphic-sum"`).
        label: &'static str,
        /// What the reports make of it.
        class: Class,
    },
    /// A fault injected by the cluster's [`crate::FaultPlan`], recorded on
    /// the *sending* rank at zero duration (the fault itself costs nothing;
    /// its consequences — waits, retransmits — show up as ordinary events).
    Fault {
        /// Virtual time of the affected send.
        t: f64,
        /// What was injected.
        kind: FaultKind,
        /// Destination rank of the affected message (the crashing rank
        /// itself for [`FaultKind::Crash`]).
        to: usize,
        /// Tag of the affected message (0 for a crash).
        tag: u64,
        /// Kind-specific detail: flipped bit index (corrupt), extra delay in
        /// seconds (jitter), crash send-step (crash), 0 (drop).
        detail: f64,
    },
}

impl Event {
    /// Virtual start time of the event.
    pub fn start(&self) -> f64 {
        match *self {
            Event::Send { t, .. }
            | Event::Recv { t, .. }
            | Event::Compute { t, .. }
            | Event::Fault { t, .. } => t,
        }
    }

    /// Charged duration of the event (zero-cost events return 0).
    pub(crate) fn duration(&self) -> f64 {
        match *self {
            Event::Send { inject_secs, .. } => inject_secs,
            Event::Recv { wait_secs, .. } => wait_secs,
            Event::Compute { secs, .. } => secs,
            Event::Fault { .. } => 0.0,
        }
    }

    /// Virtual end time of the event.
    pub(crate) fn end(&self) -> f64 {
        self.start() + self.duration()
    }
}

/// The recorded event stream of one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// The rank that produced the events.
    pub rank: usize,
    /// Events in the order they occurred (non-decreasing `start()`).
    pub events: Vec<Event>,
}

impl RankTrace {
    /// Reconstruct the rank's [`Breakdown`] purely from the event stream.
    /// Matches the rank's live accounting exactly (same `f64` additions in
    /// the same order), which `tests/trace.rs` relies on.
    pub fn reconstructed_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for ev in &self.events {
            match *ev {
                Event::Compute { kind, secs, .. } => b.charge(kind, secs),
                Event::Send { inject_secs, .. } => b.charge(OpKind::Other, inject_secs),
                Event::Recv { wait_secs, .. } => b.mpi += wait_secs,
                Event::Fault { .. } => {} // zero-cost annotation
            }
        }
        b
    }

    /// Sum of blocking receive waits (the `mpi` bucket).
    pub fn wait_seconds(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match *e {
                Event::Recv { wait_secs, .. } => wait_secs,
                _ => 0.0,
            })
            .sum()
    }

    /// Virtual end time of the last event (0 for an empty trace).
    pub fn end_time(&self) -> f64 {
        self.events.iter().map(|e| e.end()).fold(0.0, f64::max)
    }
}

/// Export traces as Chrome trace-event JSON (the format `chrome://tracing`
/// and [Perfetto](https://ui.perfetto.dev) load). One *pid* per rank; every
/// recorded duration becomes one `traceEvents` entry ("X" complete events),
/// plus one `process_name` metadata entry per rank. [`Event::Fault`]s and
/// zero-duration [`Class::Resilience`]-family charges render as **instant
/// events** (`ph: "i"`) under their own `fault` / `resilience` categories,
/// so chaos runs are visually debuggable rather than merely countable.
///
/// With a critical-path overlay every rank event gains a `slack` argument
/// (seconds it could slip without growing the makespan) and the extracted
/// path is rendered as a synthetic extra process so the binding chain reads
/// left-to-right across ranks in the viewer.
pub fn chrome_trace(traces: &[RankTrace], critpath: Option<&CriticalPath>) -> String {
    let us = |secs: f64| Json::Num(secs * 1e6);
    let mut events = Vec::new();
    for trace in traces {
        let pid = trace.rank as f64;
        events.push(Json::obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(pid)),
            ("tid", Json::Num(0.0)),
            ("args", Json::obj(vec![("name", Json::Str(format!("rank {}", trace.rank)))])),
        ]));
        for (idx, ev) in trace.events.iter().enumerate() {
            // zero-cost annotations (injected faults, resilience markers)
            // become instant events with a dedicated category
            let instant = match *ev {
                Event::Fault { kind, to, tag, detail, .. } => Some((
                    format!("fault:{}", kind.name()),
                    "fault",
                    Json::obj(vec![
                        ("to", Json::Num(to as f64)),
                        ("tag", Json::Num(tag as f64)),
                        ("detail", Json::Num(detail)),
                    ]),
                )),
                Event::Compute { secs, label, class, .. }
                    if secs == 0.0 && class.family() == Class::Resilience =>
                {
                    Some((label.to_string(), "resilience", Json::obj(vec![])))
                }
                _ => None,
            };
            if let Some((name, cat, args)) = instant {
                events.push(Json::obj(vec![
                    ("name", Json::Str(name)),
                    ("cat", Json::Str(cat.into())),
                    ("ph", Json::Str("i".into())),
                    ("ts", us(ev.start())),
                    ("s", Json::Str("t".into())),
                    ("pid", Json::Num(pid)),
                    ("tid", Json::Num(0.0)),
                    ("args", args),
                ]));
                continue;
            }
            let (name, cat, mut args) = match *ev {
                Event::Send { to, tag, wire_bytes, logical_bytes, tier, .. } => {
                    let mut fields = vec![
                        ("to", Json::Num(to as f64)),
                        ("tag", Json::Num(tag as f64)),
                        ("wire_bytes", Json::Num(wire_bytes as f64)),
                        ("logical_bytes", Json::Num(logical_bytes as f64)),
                    ];
                    // only topologized runs grow the extra arg, so flat
                    // chrome exports stay byte-identical
                    if tier != LinkTier::Flat {
                        fields.push(("tier", Json::Str(tier.name().into())));
                    }
                    (format!("send\u{2192}{to}"), "send", Json::obj(fields))
                }
                Event::Recv { from, tag, wire_bytes, .. } => (
                    format!("recv\u{2190}{from}"),
                    "wait",
                    Json::obj(vec![
                        ("from", Json::Num(from as f64)),
                        ("tag", Json::Num(tag as f64)),
                        ("wire_bytes", Json::Num(wire_bytes as f64)),
                    ]),
                ),
                Event::Compute { kind, bytes, label, .. } => (
                    label.to_string(),
                    kind.name(),
                    Json::obj(vec![("bytes", Json::Num(bytes as f64))]),
                ),
                Event::Fault { .. } => unreachable!("faults render as instant events"),
            };
            if let Some(cp) = critpath {
                let slack =
                    cp.slack.get(trace.rank).and_then(|s| s.get(idx)).copied().unwrap_or(0.0);
                if let Json::Obj(fields) = &mut args {
                    fields.push(("slack".into(), Json::Num(slack)));
                }
            }
            events.push(Json::obj(vec![
                ("name", Json::Str(name)),
                ("cat", Json::Str(cat.into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(ev.start())),
                ("dur", us(ev.duration())),
                ("pid", Json::Num(pid)),
                ("tid", Json::Num(0.0)),
                ("args", args),
            ]));
        }
    }
    if let Some(cp) = critpath {
        let pid = traces.len() as f64;
        events.push(Json::obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(pid)),
            ("tid", Json::Num(0.0)),
            ("args", Json::obj(vec![("name", Json::Str("critical path".into()))])),
        ]));
        for el in &cp.elements {
            let (name, args) = match el.span {
                SpanKind::Compute { rank, label } => {
                    (label.name.to_string(), Json::obj(vec![("rank", Json::Num(rank as f64))]))
                }
                SpanKind::Inject { rank, to, tag, tier } => {
                    let mut fields =
                        vec![("rank", Json::Num(rank as f64)), ("tag", Json::Num(tag as f64))];
                    if tier != LinkTier::Flat {
                        fields.push(("tier", Json::Str(tier.name().into())));
                    }
                    (format!("alpha\u{2192}{to}"), Json::obj(fields))
                }
                SpanKind::Wire { from, to, tag, ser_secs, jitter_secs, tier } => {
                    let mut fields = vec![
                        ("tag", Json::Num(tag as f64)),
                        ("ser_secs", Json::Num(ser_secs)),
                        ("jitter_secs", Json::Num(jitter_secs)),
                    ];
                    if tier != LinkTier::Flat {
                        fields.push(("tier", Json::Str(tier.name().into())));
                    }
                    (format!("wire {from}\u{2192}{to}"), Json::obj(fields))
                }
                SpanKind::Wait { rank, from, tag } => (
                    format!("wait\u{2190}{from}"),
                    Json::obj(vec![
                        ("rank", Json::Num(rank as f64)),
                        ("tag", Json::Num(tag as f64)),
                    ]),
                ),
            };
            events.push(Json::obj(vec![
                ("name", Json::Str(name)),
                ("cat", Json::Str("critical".into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(el.start)),
                ("dur", us(el.secs())),
                ("pid", Json::Num(pid)),
                ("tid", Json::Num(0.0)),
                ("args", args),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::Str("ms".into()))])
        .render()
}

/// Render a terminal ASCII Gantt chart of a traced run: one row per rank,
/// one column per time bin, the glyph of the dominant activity in each bin
/// (`C`ompression, `D`ecompression, `H`omomorphic, cm`P`utation, `o`ther,
/// `.` = blocked on communication, space = done/idle).
pub fn ascii_timeline(traces: &[RankTrace], width: usize) -> String {
    let width = width.clamp(8, 512);
    let span = traces.iter().map(|t| t.end_time()).fold(0.0, f64::max);
    let mut out = String::new();
    if span <= 0.0 || traces.is_empty() {
        out.push_str("(empty timeline)\n");
        return out;
    }
    let col = span / width as f64;
    out.push_str(&format!(
        "virtual timeline: {} ranks, makespan {} (1 col = {})\n",
        traces.len(),
        fmt_secs(span),
        fmt_secs(col),
    ));
    // glyph order decides ties deterministically; '.' (wait) loses ties to
    // real work so short stalls do not mask computation
    const GLYPHS: [char; 6] = ['C', 'D', 'H', 'P', 'o', '.'];
    for trace in traces {
        let mut overlap = vec![[0.0f64; GLYPHS.len()]; width];
        for ev in &trace.events {
            let slot = match ev {
                Event::Compute { kind, .. } => kind.index().min(4),
                Event::Send { .. } => 4, // injection is charged to `other`
                Event::Recv { .. } => 5,
                Event::Fault { .. } => continue, // zero-duration, nothing to draw
            };
            let (start, end) = (ev.start(), ev.end());
            if end <= start {
                continue;
            }
            let first = ((start / col).floor() as usize).min(width - 1);
            let last = ((end / col).ceil() as usize).clamp(first + 1, width);
            for (c, cell) in overlap.iter_mut().enumerate().take(last).skip(first) {
                let c0 = c as f64 * col;
                let c1 = c0 + col;
                let covered = end.min(c1) - start.max(c0);
                if covered > 0.0 {
                    cell[slot] += covered;
                }
            }
        }
        out.push_str(&format!("rank {:>3} |", trace.rank));
        for cell in &overlap {
            let (mut best, mut best_cover) = (' ', 0.0f64);
            for (slot, &covered) in cell.iter().enumerate() {
                if covered > best_cover {
                    best_cover = covered;
                    best = GLYPHS[slot];
                }
            }
            // require a visible share of the column to draw anything
            out.push(if best_cover >= col * 0.05 { best } else { ' ' });
        }
        out.push_str("|\n");
    }
    out.push_str("legend: C=cpr D=dpr H=hpr P=cpt o=other .=recv-wait\n");
    out
}

fn fmt_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.3} us", secs * 1e6)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A unit test's ordinary step of `kind`, named after it.
    pub(crate) fn step(kind: OpKind) -> Label {
        Label { name: kind.name(), kind, class: Class::Step }
    }

    fn sample_trace() -> RankTrace {
        RankTrace {
            rank: 1,
            events: vec![
                Event::Compute {
                    t: 0.0,
                    kind: OpKind::Cpr,
                    bytes: 100,
                    secs: 0.4,
                    label: "x:cpr",
                    class: Class::Step,
                },
                Event::Send {
                    t: 0.4,
                    to: 0,
                    tag: 7,
                    wire_bytes: 40,
                    logical_bytes: 100,
                    inject_secs: 0.1,
                    tier: LinkTier::Flat,
                },
                Event::Recv { t: 0.5, from: 0, tag: 7, wire_bytes: 30, wait_secs: 0.5 },
                Event::Compute {
                    t: 1.0,
                    kind: OpKind::Hpr,
                    bytes: 100,
                    secs: 1.0,
                    label: "x:hpr",
                    class: Class::Step,
                },
            ],
        }
    }

    #[test]
    fn reconstructed_breakdown_matches_charges() {
        let t = sample_trace();
        let b = t.reconstructed_breakdown();
        assert_eq!(b.cpr, 0.4);
        assert_eq!(b.hpr, 1.0);
        assert_eq!(b.other, 0.1);
        assert_eq!(b.mpi, 0.5);
        assert_eq!(t.wait_seconds(), 0.5);
        assert_eq!(t.end_time(), 2.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_covers_every_event() {
        let traces = vec![sample_trace()];
        let text = chrome_trace(&traces, None);
        let doc = Json::parse(&text).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let complete: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
        assert_eq!(complete.len(), traces[0].events.len());
        // ts/dur in microseconds of the first compute
        assert_eq!(complete[0].get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(complete[0].get("dur").unwrap().as_f64(), Some(0.4e6));
        assert_eq!(complete[0].get("name").unwrap().as_str(), Some("x:cpr"));
    }

    #[test]
    fn ascii_timeline_draws_dominant_activity() {
        let art = ascii_timeline(&[sample_trace()], 20);
        assert!(art.contains("rank   1 |"), "{art}");
        assert!(art.contains('C') && art.contains('H') && art.contains('.'), "{art}");
        assert!(art.contains("legend:"), "{art}");
    }

    #[test]
    fn fault_events_are_zero_cost_annotations() {
        let mut t = sample_trace();
        let base = t.reconstructed_breakdown();
        t.events.push(Event::Fault { t: 1.2, kind: FaultKind::Drop, to: 0, tag: 7, detail: 0.0 });
        t.events.push(Event::Fault {
            t: 1.3,
            kind: FaultKind::Corrupt,
            to: 0,
            tag: 7,
            detail: 13.0,
        });
        assert_eq!(t.events[4].duration(), 0.0);
        assert_eq!(t.reconstructed_breakdown(), base, "faults never charge a bucket");
        assert_eq!(t.end_time(), 2.0, "zero-duration faults do not extend the timeline");
        let text = chrome_trace(&[t.clone()], None);
        assert!(text.contains("fault:drop") && text.contains("fault:corrupt"), "{text}");
        Json::parse(&text).expect("chrome trace with faults parses");
        assert!(ascii_timeline(&[t], 20).contains("legend:"));
    }

    #[test]
    fn the_class_rides_in_the_event_without_growing_it() {
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }

    /// A zero-second charge of the resilience family is a Chrome instant in
    /// category `resilience`; a zero-second recovery marker stays a slice.
    #[test]
    fn zero_second_charges_render_by_class() {
        let marker = |label, class| Event::Compute {
            t: 2.0,
            kind: OpKind::Other,
            bytes: 0,
            secs: 0.0,
            label,
            class,
        };
        let mut t = sample_trace();
        t.events.push(marker("m:retransmit", Class::Retransmit));
        t.events.push(marker("m:backoff", Class::Resilience));
        t.events.push(marker("m:epoch", Class::Epoch));
        t.events.push(marker("m:step", Class::Step));
        let doc = Json::parse(&chrome_trace(&[t], None)).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let shape = |name: &str| {
            let e = events.iter().find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name));
            let field = |key| e.and_then(|e| e.get(key)).and_then(|v| v.as_str());
            (field("ph"), field("cat"))
        };
        assert_eq!(shape("m:retransmit"), (Some("i"), Some("resilience")));
        assert_eq!(shape("m:backoff"), (Some("i"), Some("resilience")));
        assert_eq!(shape("m:epoch"), (Some("X"), Some("other")));
        assert_eq!(shape("m:step"), (Some("X"), Some("other")));
    }

    #[test]
    fn empty_timeline_is_handled() {
        assert!(ascii_timeline(&[], 40).contains("empty"));
        let t = RankTrace { rank: 0, events: vec![] };
        assert!(ascii_timeline(&[t], 40).contains("empty"));
    }
}
