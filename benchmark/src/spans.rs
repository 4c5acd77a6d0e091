//! The harness's own spans: one per call into a layer, recorded from
//! outside the program (the program itself carries no wall-clock tracing).
//!
//! Spans live in memory and are written once, when the traced run ends. A
//! disabled [`Recorder`] only forwards the call, so the untraced and the
//! traced run share one code path and their difference is the tracing
//! overhead.

use netsim::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`"fzlight::compress"`, `"SimBuilder::run"`, ...).
    pub name: String,
    /// The crate the call belongs to (`"fzlight"`, `"netsim+core"`, ...).
    pub layer: &'static str,
    /// The operation this span is part of; spans of one op share it.
    pub op_id: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; `enabled == false` records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    op_id: u64,
    stack: Vec<usize>,
    /// Everything recorded so far, in opening order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records (`true`) or only forwards calls (`false`).
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, t0: Instant::now(), op_id: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span; spans opened by `f` become its children. A
    /// span opened at top level starts a new op.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.op_id += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op_id: self.op_id,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    /// A leaf span around one call into a layer.
    pub fn call<T>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, layer, |_| f())
    }

    /// Durations (seconds) of every span called `name` under a root span
    /// called `root`.
    pub fn durations(&self, root: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover (children of one parent never overlap: one host thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// The trace file: every span with its self time.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let items = spans
        .iter()
        .zip(&own)
        .map(|(s, &self_ns)| {
            Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("layer", Json::Str(s.layer.to_string())),
                ("workload", Json::Str(workload.to_string())),
                ("op_id", Json::Num(s.op_id as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    Json::obj(vec![("workload", Json::Str(workload.to_string())), ("spans", Json::Arr(items))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "x".into(), layer: "l", op_id: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 with children 10..30 and 40..90; the second child has
        // its own child 50..60, which must not be subtracted from the root
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 90),
            span(Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times tile the root span");
    }

    #[test]
    fn recorder_nests_and_numbers_ops() {
        let mut rec = Recorder::new(true);
        for _ in 0..2 {
            rec.span("op", "harness", |r| {
                r.call("a", "fzlight", || std::hint::black_box(1 + 1));
                r.call("b", "hzdyn", || ());
            });
        }
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op", "a", "b", "op", "a", "b"]);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[5].parent, Some(3));
        assert_eq!((rec.spans[0].op_id, rec.spans[4].op_id), (1, 2));
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.durations("op", "a").len(), 2);
        let root = &rec.spans[0];
        let kids: u64 = rec.spans[1..3].iter().map(Span::dur_ns).sum();
        assert!(root.dur_ns() >= kids);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_still_runs_the_call() {
        let mut rec = Recorder::new(false);
        let got = rec.span("op", "harness", |r| r.call("a", "fzlight", || 41) + 1);
        assert_eq!(got, 42);
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn trace_json_parses_back() {
        let mut rec = Recorder::new(true);
        rec.span("op", "harness", |r| r.call("a", "fzlight", || ()));
        let doc = Json::parse(&to_json("codec", &rec.spans).render()).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
