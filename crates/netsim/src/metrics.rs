//! Metrics registry: counters and log2-bucketed histograms with a stable
//! Prometheus-style text rendering.
//!
//! [`Registry::record_report`] derives the standard metric set of a
//! simulated collective from a [`RunReport`]: per-[`OpKind`] virtual-second
//! totals (always available from the outcomes' [`crate::Breakdown`]s) plus — when
//! the run was traced via [`crate::SimBuilder::trace`] — message wire-size,
//! per-step achieved-compression-ratio and recv-wait distributions.

use crate::config::OpKind;
use crate::sim::RunReport;
use crate::trace::Event;
use std::collections::BTreeMap;

/// A log2-bucketed histogram over non-negative `f64` observations.
///
/// Bucket `e` counts observations `v` with `2^(e-1) < v <= 2^e`; zeros fall
/// into a dedicated underflow bucket. Exponents are clamped to ±64, which
/// comfortably covers byte sizes, ratios and second-scale waits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Observations `<= 0` (wait times of already-arrived messages, mostly).
    pub zeros: u64,
    /// `exponent -> count` for positive observations.
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// Record one observation.
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v <= 0.0 {
            self.zeros += 1;
        } else {
            let e = (v.log2().ceil() as i32).clamp(-64, 64);
            *self.buckets.entry(e).or_insert(0) += 1;
        }
    }

    /// Estimate the `p`-quantile (`p` in `[0, 1]`) by linear interpolation
    /// inside the owning log2 bucket: bucket `e` holds observations in
    /// `(2^(e-1), 2^e]`, so the estimate walks the cumulative counts to the
    /// target rank `p·count` and interpolates between the bucket bounds.
    /// Exact for the zeros bucket; within one octave otherwise — the right
    /// fidelity for "did p99 regress" questions. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = p.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = self.zeros as f64;
        if target <= seen {
            return 0.0;
        }
        for (e, c) in &self.buckets {
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
        self.buckets.keys().next_back().map_or(0.0, |e| 2f64.powi(*e))
    }

    /// Cumulative `(le, count)` pairs in Prometheus order (upper bound of
    /// each occupied power-of-two bucket, then `+Inf` = `count`).
    fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut running = self.zeros;
        if self.zeros > 0 {
            out.push((0.0, running));
        }
        for (e, c) in &self.buckets {
            running += c;
            out.push((2f64.powi(*e), running));
        }
        out.push((f64::INFINITY, self.count));
        out
    }
}

/// Counters (integer + float) and histograms under stable, fully-qualified
/// names (labels are folded into the name, e.g. `hz_op_seconds{kind="cpr"}`),
/// so both renderings are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increment an integer counter.
    fn inc(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Add to a float accumulator (rendered as an untyped gauge).
    fn add(&mut self, name: &str, v: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Raise a float gauge to `v` if `v` is larger (used for makespans).
    fn set_max(&mut self, name: &str, v: f64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        if v > *slot {
            *slot = v;
        }
    }

    /// Record one observation into a histogram.
    fn observe(&mut self, name: &str, v: f64) {
        self.histograms.entry(name.to_string()).or_default().observe(v);
    }

    /// Histogram accessor (for assertions and table rendering).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Counter accessor.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge accessor.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Derive the standard collective-run metric set from a run's report.
    ///
    /// Works untraced (per-kind totals from the outcomes' breakdowns only);
    /// with traces it additionally fills the message/ratio/wait histograms
    /// and per-label compute totals. Crashed ranks contribute nothing — the
    /// report only carries survivors' outcomes and traces.
    pub fn record_report<R>(&mut self, report: &RunReport<R>) {
        self.inc("hz_runs_total", 1);
        self.inc("hz_ranks_total", (report.outcomes.len() + report.panics.len()) as u64);
        for o in &report.outcomes {
            let b = &o.breakdown;
            for (kind, secs) in [
                (OpKind::Cpr, b.cpr),
                (OpKind::Dpr, b.dpr),
                (OpKind::Hpr, b.hpr),
                (OpKind::Cpt, b.cpt),
                (OpKind::Other, b.other),
            ] {
                self.add(&format!("hz_op_seconds{{kind=\"{}\"}}", kind.name()), secs);
            }
            self.add("hz_mpi_wait_seconds", b.mpi);
            // per-rank end-to-end latency distribution (p50/p99 source)
            self.observe("hz_collective_latency_seconds", o.elapsed);
        }
        for trace in &report.traces {
            for ev in &trace.events {
                match *ev {
                    Event::Send { wire_bytes, logical_bytes, .. } => {
                        self.inc("hz_messages_total", 1);
                        self.inc("hz_wire_bytes_total", wire_bytes as u64);
                        self.inc("hz_logical_bytes_total", logical_bytes as u64);
                        self.observe("hz_message_wire_bytes", wire_bytes as f64);
                        if wire_bytes > 0 && logical_bytes > 0 {
                            self.observe(
                                "hz_step_compression_ratio",
                                logical_bytes as f64 / wire_bytes as f64,
                            );
                        }
                    }
                    Event::Recv { wait_secs, .. } => {
                        self.observe("hz_recv_wait_seconds", wait_secs);
                    }
                    Event::Compute { kind, secs, label, bytes, .. } => {
                        // zero-duration resilience/recovery markers become
                        // dedicated counters and gauges; everything else is a
                        // per-label timing
                        match label {
                            "res:retransmit" => self.inc("hz_retransmits_total", 1),
                            "res:timeout" => self.inc("hz_timeouts_total", 1),
                            "res:degraded-segment" => self.inc("hz_degraded_segments_total", 1),
                            "rec:recovery" => self.inc("hz_recoveries_total", 1),
                            "rec:epoch" => self.set_max("hz_epochs", bytes as f64),
                            "rec:survivors" => self.set_max("hz_survivors", bytes as f64),
                            _ => {
                                let label = if label.is_empty() { kind.name() } else { label };
                                self.add(&format!("hz_step_seconds{{label=\"{label}\"}}"), secs);
                                self.inc(&format!("hz_step_calls_total{{label=\"{label}\"}}"), 1);
                            }
                        }
                    }
                    Event::Fault { kind, .. } => {
                        self.inc(
                            &format!("hz_faults_injected_total{{kind=\"{}\"}}", kind.name()),
                            1,
                        );
                    }
                }
            }
        }
        self.set_max("hz_makespan_seconds", report.stats.makespan);
    }

    /// Render in Prometheus text exposition style. Deterministic: names are
    /// sorted, histogram buckets ascend, floats use shortest round-trip
    /// formatting.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let base = base_name(name);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let base = base_name(name);
            out.push_str(&format!("# TYPE {base} histogram\n"));
            for (le, count) in h.cumulative() {
                let le = if le.is_infinite() { "+Inf".to_string() } else { format!("{le}") };
                out.push_str(&format!("{base}_bucket{{le=\"{le}\"}} {count}\n"));
            }
            out.push_str(&format!("{base}_sum {}\n", h.sum));
            out.push_str(&format!("{base}_count {}\n", h.count));
            // interpolated quantiles as derived samples (see
            // [`Histogram::quantile`] for the fidelity contract)
            out.push_str(&format!("{base}_p50 {}\n", h.quantile(0.5)));
            out.push_str(&format!("{base}_p99 {}\n", h.quantile(0.99)));
        }
        out
    }

    /// Human-oriented one-histogram bar chart (used by `hzc sim --metrics`).
    pub fn render_histogram_ascii(&self, name: &str, title: &str) -> String {
        let Some(h) = self.histograms.get(name) else {
            return format!("{title}: (no observations)\n");
        };
        let mut out =
            format!("{title} (n={}, mean={:.3}):\n", h.count, h.sum / h.count.max(1) as f64);
        let mut prev = 0u64;
        let per_bucket: Vec<(f64, u64)> = h
            .cumulative()
            .into_iter()
            .map(|(le, cum)| {
                let in_bucket = cum - prev;
                prev = cum;
                (le, in_bucket)
            })
            .collect();
        let max = per_bucket.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
        for (le, in_bucket) in per_bucket {
            if in_bucket == 0 {
                continue;
            }
            let bar = "#".repeat(((in_bucket * 40).div_ceil(max) as usize).min(40));
            let le = if le.is_infinite() { "+Inf".into() } else { format!("{le:.6}") };
            out.push_str(&format!("  le {le:>14} : {in_bucket:>6} {bar}\n"));
        }
        out
    }
}

/// Strip a `{label="..."}` suffix for `# TYPE` lines.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::default();
        for v in [0.0, 1.0, 2.0, 3.0, 1024.0, 0.4] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.zeros, 1);
        // 1.0 -> e=0, 2.0 -> e=1, 3.0 -> e=2, 1024 -> e=10, 0.4 -> e=-1
        assert_eq!(h.buckets.get(&0), Some(&1));
        assert_eq!(h.buckets.get(&1), Some(&1));
        assert_eq!(h.buckets.get(&2), Some(&1));
        assert_eq!(h.buckets.get(&10), Some(&1));
        assert_eq!(h.buckets.get(&-1), Some(&1));
        let cum = h.cumulative();
        assert_eq!(cum.last().unwrap().1, 6);
    }

    /// Edge-bucket regression: the bucket invariant is `2^(e-1) < v <= 2^e`,
    /// so exact powers of two must land in their *own* bucket (not the next
    /// one up), `2^k + 1` must spill into bucket `k+1`, zero stays out of the
    /// exponent map entirely, and extremes clamp to ±64 instead of wrapping.
    #[test]
    fn histogram_edge_buckets_zero_one_and_power_boundaries() {
        let mut h = Histogram::default();
        h.observe(0.0);
        assert_eq!(h.zeros, 1, "zero is the underflow bucket, not an exponent");
        assert!(h.buckets.is_empty(), "zero must not create an exponent bucket");

        h.observe(1.0);
        assert_eq!(h.buckets.get(&0), Some(&1), "1 = 2^0 belongs to bucket 0");

        for k in [1i32, 3, 10, 20] {
            let pow = 2f64.powi(k);
            let mut hk = Histogram::default();
            hk.observe(pow);
            hk.observe(pow + 1.0);
            assert_eq!(hk.buckets.get(&k), Some(&1), "2^{k} stays in bucket {k}");
            assert_eq!(hk.buckets.get(&(k + 1)), Some(&1), "2^{k}+1 spills into bucket {}", k + 1);
        }

        // Clamping: denormal-small and astronomically-large observations fold
        // into the ±64 edge buckets rather than overflowing the exponent.
        let mut hc = Histogram::default();
        hc.observe(1e-300);
        hc.observe(1e300);
        assert_eq!(hc.buckets.get(&-64), Some(&1));
        assert_eq!(hc.buckets.get(&64), Some(&1));

        // Cumulative rendering stays monotone and terminates at +Inf = count.
        let cum = hc.cumulative();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1), "{cum:?}");
        assert_eq!(cum.last().unwrap(), &(f64::INFINITY, 2));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), 0.0);

        let mut h = Histogram::default();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.observe(v); // one observation per bucket e = 0..=3
        }
        // rank 2 of 4 lands on the upper edge of bucket e=1
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-12);
        assert!((h.quantile(1.0) - 8.0).abs() < 1e-12);
        // monotone in p
        let q: Vec<f64> = (0..=10).map(|i| h.quantile(i as f64 / 10.0)).collect();
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "{q:?}");

        // zeros dominate the median but not the tail
        let mut z = Histogram::default();
        z.observe(0.0);
        z.observe(0.0);
        z.observe(4.0);
        assert_eq!(z.quantile(0.5), 0.0);
        assert!(z.quantile(0.99) > 2.0);
    }

    #[test]
    fn prometheus_rendering_strips_labels_in_type_lines() {
        let mut r = Registry::new();
        r.add("hz_op_seconds{kind=\"cpr\"}", 1.5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE hz_op_seconds gauge"), "{text}");
        assert!(text.contains("hz_op_seconds{kind=\"cpr\"} 1.5"), "{text}");
    }

    /// Golden rendering: a hand-fed registry renders byte-for-byte stably (the
    /// contract `hzc sim --metrics` output relies on).
    #[test]
    fn metrics_text_rendering_is_golden() {
        let mut r = Registry::new();
        r.inc("hz_messages_total", 3);
        r.inc("hz_step_calls_total{label=\"hz:compress-all\"}", 2);
        r.inc("hz_step_calls_total{label=\"hz:homomorphic-sum\"}", 4);
        r.add("hz_op_seconds{kind=\"cpr\"}", 0.5);
        r.set_max("hz_makespan_seconds", 1.25);
        r.observe("hz_message_wire_bytes", 3.0);
        r.observe("hz_message_wire_bytes", 4.0);
        r.observe("hz_message_wire_bytes", 0.0);
        let expect = "\
# TYPE hz_messages_total counter
hz_messages_total 3
# TYPE hz_step_calls_total counter
hz_step_calls_total{label=\"hz:compress-all\"} 2
hz_step_calls_total{label=\"hz:homomorphic-sum\"} 4
# TYPE hz_makespan_seconds gauge
hz_makespan_seconds 1.25
# TYPE hz_op_seconds gauge
hz_op_seconds{kind=\"cpr\"} 0.5
# TYPE hz_message_wire_bytes histogram
hz_message_wire_bytes_bucket{le=\"0\"} 1
hz_message_wire_bytes_bucket{le=\"4\"} 3
hz_message_wire_bytes_bucket{le=\"+Inf\"} 3
hz_message_wire_bytes_sum 7
hz_message_wire_bytes_count 3
hz_message_wire_bytes_p50 2.5
hz_message_wire_bytes_p99 3.9699999999999998
";
        assert_eq!(r.render_prometheus(), expect);
    }
}
