//! Metric values of one run, their printing, and the two JSON forms: the
//! one-line object the benchmark contract asks for and the detailed result
//! file `run.sh` keeps.

use crate::catalog::MetricDef;
use crate::stats::{summarize, Summary};
use netsim::Json;

/// The metrics of one run, in catalogue order.
#[derive(Debug, Clone)]
pub struct MetricSet {
    rows: Vec<(MetricDef, Option<Summary>)>,
}

impl MetricSet {
    /// An empty set over `defs`; every metric must be [`MetricSet::set`]
    /// before [`MetricSet::missing`] comes back empty.
    pub fn new(defs: Vec<MetricDef>) -> MetricSet {
        MetricSet { rows: defs.into_iter().map(|d| (d, None)).collect() }
    }

    fn row(&mut self, name: &str) -> &mut (MetricDef, Option<Summary>) {
        self.rows
            .iter_mut()
            .find(|(d, _)| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
    }

    /// Record one exact value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.row(name).1 = Some(Summary::exact(value));
    }

    /// Record samples; the metric's value is their median.
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.row(name).1 = Some(summarize(samples));
    }

    /// Record an already-built summary.
    pub fn set_summary(&mut self, name: &str, summary: Summary) {
        self.row(name).1 = Some(summary);
    }

    /// A layer the workload does not touch did no work in it: every metric
    /// not yet set becomes 0.
    pub fn zero_unset(&mut self) {
        for (_, s) in &mut self.rows {
            s.get_or_insert_with(|| Summary::exact(0.0));
        }
    }

    /// Names of the metrics not yet set.
    pub fn missing(&self) -> Vec<&str> {
        self.rows.iter().filter(|(_, s)| s.is_none()).map(|(d, _)| d.name.as_str()).collect()
    }

    /// The value of `name` (its median), if set.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(d, _)| d.name == name)?.1.as_ref().map(|s| s.median)
    }

    /// `(definition, summary)` of every metric that is set.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDef, &Summary)> {
        self.rows.iter().filter_map(|(d, s)| Some((d, s.as_ref()?)))
    }

    /// One line per metric: `name value unit`, then the spread where the
    /// metric was sampled more than once.
    pub fn print(&self, workload: &str) {
        for (d, s) in self.iter() {
            let mut line = format!("{workload} {} {} {}", d.name, s.median, d.unit);
            if s.n > 1 {
                line += &format!(" (n={} min={} max={}", s.n, s.min, s.max);
                if let Some((p, v)) = s.hi {
                    line += &format!(" p{p:.1}={v}");
                }
                line.push(')');
            }
            println!("{line}");
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` — the contract's `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, s)| {
                    let m = Json::obj(vec![
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(d.unit.to_string())),
                    ]);
                    (d.name.clone(), m)
                })
                .collect(),
        )
    }

    /// `{"name": {"unit": u, "better": b, "bound": x, n, median, ...}}`.
    pub fn detail_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, s)| {
                    let Json::Obj(mut pairs) = s.to_json() else { unreachable!() };
                    pairs.insert(0, ("unit".to_string(), Json::Str(d.unit.to_string())));
                    pairs.insert(1, ("better".to_string(), Json::Str(d.better.to_string())));
                    if let Some(b) = d.bound {
                        pairs.insert(2, ("bound".to_string(), Json::Num(b)));
                    }
                    (d.name.clone(), Json::Obj(pairs))
                })
                .collect(),
        )
    }
}

/// Outcome counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, the ones whose output failed its check.
    pub failed: u64,
}

impl Ops {
    /// Count one checked op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The last line of standard output the contract asks for.
pub fn contract_line(ops: Ops, metrics: &MetricSet) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", metrics.contract_json()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_every_metric() {
        let mut set = MetricSet::new(catalog::end_to_end());
        assert_eq!(set.missing().len(), 10);
        for (i, d) in catalog::end_to_end().iter().enumerate() {
            set.set_samples(&d.name, &[1.5 + i as f64, 0.1 + 0.2, 9.0]);
        }
        assert!(set.missing().is_empty());
        let line = contract_line(Ops { attempted: 7, failed: 0 }, &set);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), 10);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.as_obj().unwrap().len(), 2);
    }

    #[test]
    fn detail_json_round_trips_every_digit_through_netsim_json() {
        let mut set = MetricSet::new(catalog::per_layer());
        set.set("netsim.msgs", 130_560.0);
        set.set_samples("fzlight.compress_small_us", &[0.1 + 0.2, 1.0 / 3.0, 2.0f64.sqrt()]);
        set.zero_unset();
        assert!(set.missing().is_empty());
        let doc = Json::parse(&set.detail_json().render()).unwrap();
        assert_eq!(doc.as_obj().unwrap().len(), 104);
        let m = doc.get("fzlight.compress_small_us").unwrap();
        let back = Summary::from_json(m).unwrap();
        assert_eq!(back, summarize(&[0.1 + 0.2, 1.0 / 3.0, 2.0f64.sqrt()]));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(
            doc.get("netsim.msgs").unwrap().get("median").unwrap().as_f64(),
            Some(130_560.0)
        );
        assert_eq!(set.value("core.rd_ms"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        MetricSet::new(catalog::end_to_end()).set("latency_ms", 1.0);
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut ops = Ops::default();
        ops.record(true);
        ops.record(false);
        assert_eq!(ops, Ops { attempted: 2, failed: 1 });
        let line = contract_line(ops, &MetricSet::new(vec![]));
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
    }
}
