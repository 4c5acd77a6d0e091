//! Versioned perf snapshots (`BENCH_results.json`) and their regression
//! diff.
//!
//! A snapshot is the serialized outcome of one suite run
//! ([`crate::suite::run_suite`]): per-case virtual seconds, wire/logical
//! traffic, cost-bucket breakdown, critical-path composition, and latency
//! quantiles, under a `schema_version` field so future format changes can
//! refuse (rather than misread) old files. Rendering goes through
//! [`netsim::Json`], whose object order is insertion order and whose float
//! writer is shortest-round-trip — two runs of the same deterministic suite
//! therefore produce byte-identical files, and `hzc bench --against` can
//! treat any difference as signal.

use crate::suite::{CaseResult, SuiteConfig};
use netsim::{Json, NetConfig};

/// The snapshot format version this build writes and reads.
pub const SCHEMA_VERSION: u64 = 1;

/// One serialized case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSnap {
    /// Stable diff key ([`crate::suite::CaseSpec::id`]).
    pub id: String,
    /// End-to-end virtual seconds.
    pub virtual_secs: f64,
    /// Bytes across the virtual wire.
    pub wire_bytes: u64,
    /// Uncompressed bytes those messages represented.
    pub logical_bytes: u64,
    /// Aggregated `(bucket, seconds)` cost breakdown.
    pub breakdown: Vec<(String, f64)>,
    /// Critical-path length followed by its `(bucket, seconds)` composition.
    pub critical_path_length: f64,
    /// Critical-path composition (sums to `critical_path_length`).
    pub critical_path: Vec<(String, f64)>,
    /// Median per-rank latency.
    pub latency_p50: f64,
    /// 99th-percentile per-rank latency.
    pub latency_p99: f64,
}

/// A full suite snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Suite name (`canonical`, `quick`, or `custom`).
    pub suite: String,
    /// Field/fault seed of the run.
    pub seed: u64,
    /// Absolute error bound of the compressed flavours.
    pub eb: f64,
    /// Synthetic app name.
    pub app: String,
    /// Network model of the run.
    pub net: NetConfig,
    /// Per-case results, in suite order.
    pub cases: Vec<CaseSnap>,
}

impl Snapshot {
    /// Build a snapshot from a suite run.
    pub fn from_results(suite: &str, cfg: &SuiteConfig, results: &[CaseResult]) -> Snapshot {
        let cases = results
            .iter()
            .map(|r| {
                let b = &r.breakdown;
                CaseSnap {
                    id: r.spec.id(),
                    virtual_secs: r.virtual_secs,
                    wire_bytes: r.wire_bytes,
                    logical_bytes: r.logical_bytes,
                    breakdown: [
                        ("cpr", b.cpr),
                        ("dpr", b.dpr),
                        ("hpr", b.hpr),
                        ("cpt", b.cpt),
                        ("mpi", b.mpi),
                        ("other", b.other),
                    ]
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect(),
                    critical_path_length: r.critpath.length,
                    critical_path: r
                        .critpath
                        .buckets
                        .entries()
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    latency_p50: r.latency_p50,
                    latency_p99: r.latency_p99,
                }
            })
            .collect();
        Snapshot {
            suite: suite.to_string(),
            seed: cfg.seed,
            eb: cfg.eb,
            app: cfg.app.name().to_string(),
            net: cfg.net,
            cases,
        }
    }

    /// Render to the canonical JSON text (one line per case for reviewable
    /// diffs, deterministic byte-for-byte).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let head = Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("suite", Json::Str(self.suite.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("eb", Json::Num(self.eb)),
            ("app", Json::Str(self.app.clone())),
            (
                "net",
                Json::obj(vec![
                    ("latency_s", Json::Num(self.net.latency_s)),
                    ("bandwidth_gbps", Json::Num(self.net.bandwidth_gbps)),
                    ("congestion", Json::Num(self.net.congestion)),
                ]),
            ),
        ]);
        // splice the header fields then the cases array, one case per line
        let head = head.render();
        out.push_str(&head[1..head.len() - 1]);
        out.push_str(",\n\"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&case_json(c).render());
            out.push_str(if i + 1 < self.cases.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a snapshot file, refusing unknown schema versions.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text)?;
        let version = num(&doc, "schema_version")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema version {version} is not supported (this build reads {SCHEMA_VERSION})"
            ));
        }
        let net_doc = doc.get("net").ok_or("missing net")?;
        let net = NetConfig {
            latency_s: num(net_doc, "latency_s")?,
            bandwidth_gbps: num(net_doc, "bandwidth_gbps")?,
            congestion: num(net_doc, "congestion")?,
        };
        let cases = doc
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("missing cases array")?
            .iter()
            .map(parse_case)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot {
            suite: text_field(&doc, "suite")?,
            seed: num(&doc, "seed")? as u64,
            eb: num(&doc, "eb")?,
            app: text_field(&doc, "app")?,
            net,
            cases,
        })
    }
}

fn case_json(c: &CaseSnap) -> Json {
    let pairs = |kv: &[(String, f64)]| {
        Json::Obj(kv.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
    };
    let mut cp: Vec<(String, Json)> =
        vec![("length".to_string(), Json::Num(c.critical_path_length))];
    cp.extend(c.critical_path.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
    Json::obj(vec![
        ("id", Json::Str(c.id.clone())),
        ("virtual_secs", Json::Num(c.virtual_secs)),
        ("wire_bytes", Json::Num(c.wire_bytes as f64)),
        ("logical_bytes", Json::Num(c.logical_bytes as f64)),
        ("breakdown", pairs(&c.breakdown)),
        ("critical_path", Json::Obj(cp)),
        ("latency_p50", Json::Num(c.latency_p50)),
        ("latency_p99", Json::Num(c.latency_p99)),
    ])
}

fn parse_case(doc: &Json) -> Result<CaseSnap, String> {
    let kv = |j: &Json| -> Vec<(String, f64)> {
        j.as_obj()
            .map(|pairs| {
                pairs.iter().filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v))).collect()
            })
            .unwrap_or_default()
    };
    let cp = doc.get("critical_path").ok_or("case missing critical_path")?;
    Ok(CaseSnap {
        id: text_field(doc, "id")?,
        virtual_secs: num(doc, "virtual_secs")?,
        wire_bytes: num(doc, "wire_bytes")? as u64,
        logical_bytes: num(doc, "logical_bytes")? as u64,
        breakdown: kv(doc.get("breakdown").ok_or("case missing breakdown")?),
        critical_path_length: num(cp, "length")?,
        critical_path: kv(cp).into_iter().filter(|(k, _)| k != "length").collect(),
        latency_p50: num(doc, "latency_p50")?,
        latency_p99: num(doc, "latency_p99")?,
    })
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number '{key}'"))
}

fn text_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string '{key}'"))
}

/// One per-case comparison against a baseline.
#[derive(Debug, Clone)]
pub struct CaseDiff {
    /// Case id.
    pub id: String,
    /// Baseline / current virtual seconds.
    pub old_secs: f64,
    /// Current virtual seconds.
    pub new_secs: f64,
    /// Baseline wire bytes.
    pub old_wire: u64,
    /// Current wire bytes.
    pub new_wire: u64,
    /// Current time exceeds baseline by more than the tolerance.
    pub time_regressed: bool,
    /// Current wire traffic exceeds baseline by more than the tolerance.
    pub bytes_regressed: bool,
}

impl CaseDiff {
    /// Relative time change (`+0.10` = 10% slower).
    pub fn time_delta(&self) -> f64 {
        if self.old_secs > 0.0 {
            self.new_secs / self.old_secs - 1.0
        } else {
            0.0
        }
    }
}

/// The outcome of diffing a run against a baseline snapshot.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every case present in both snapshots, in current-run order.
    pub compared: Vec<CaseDiff>,
    /// Case ids only in the current run (new coverage, not a failure).
    pub only_new: Vec<String>,
    /// Case ids only in the baseline (skipped here, not a failure).
    pub only_old: Vec<String>,
}

impl DiffReport {
    /// The regressed subset of [`DiffReport::compared`].
    pub fn regressions(&self) -> Vec<&CaseDiff> {
        self.compared.iter().filter(|d| d.time_regressed || d.bytes_regressed).collect()
    }
}

/// Compare `new` against the `old` baseline over the intersection of case
/// ids. A case regresses when its virtual time grows by more than
/// `tol_time` (relative) or its wire traffic by more than `tol_bytes`.
pub fn diff(old: &Snapshot, new: &Snapshot, tol_time: f64, tol_bytes: f64) -> DiffReport {
    use std::collections::BTreeMap;
    let old_by_id: BTreeMap<&str, &CaseSnap> =
        old.cases.iter().map(|c| (c.id.as_str(), c)).collect();
    let new_ids: std::collections::BTreeSet<&str> =
        new.cases.iter().map(|c| c.id.as_str()).collect();

    let mut compared = Vec::new();
    let mut only_new = Vec::new();
    for c in &new.cases {
        let Some(o) = old_by_id.get(c.id.as_str()) else {
            only_new.push(c.id.clone());
            continue;
        };
        compared.push(CaseDiff {
            id: c.id.clone(),
            old_secs: o.virtual_secs,
            new_secs: c.virtual_secs,
            old_wire: o.wire_bytes,
            new_wire: c.wire_bytes,
            time_regressed: c.virtual_secs > o.virtual_secs * (1.0 + tol_time),
            bytes_regressed: c.wire_bytes as f64 > o.wire_bytes as f64 * (1.0 + tol_bytes),
        });
    }
    let only_old = old
        .cases
        .iter()
        .filter(|c| !new_ids.contains(c.id.as_str()))
        .map(|c| c.id.clone())
        .collect();
    DiffReport { compared, only_new, only_old }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_suite, CaseSpec, Runner, SuiteConfig};
    use hzccl::Variant;
    use tuner::Op;

    fn tiny_results() -> (SuiteConfig, Vec<crate::suite::CaseResult>) {
        let cfg = SuiteConfig::default();
        let rs = CaseSpec::new(Op::ReduceScatter, Runner::Variant(Variant::Hzccl), 4, 4);
        let cases = vec![
            CaseSpec::new(Op::Allreduce, Runner::Variant(Variant::Mpi), 4, 4),
            CaseSpec { segments: 2, ..rs },
        ];
        let results = run_suite(&cases, &cfg, |_| {});
        (cfg, results)
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let (cfg, results) = tiny_results();
        let snap = Snapshot::from_results("custom", &cfg, &results);
        let text = snap.render();
        let back = Snapshot::parse(&text).expect("parse back");
        assert_eq!(back, snap);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn self_diff_is_clean_and_doctored_baseline_regresses() {
        let (cfg, results) = tiny_results();
        let snap = Snapshot::from_results("custom", &cfg, &results);
        let report = diff(&snap, &snap, 0.05, 0.01);
        assert_eq!(report.compared.len(), snap.cases.len());
        assert!(report.regressions().is_empty());
        assert!(report.only_new.is_empty() && report.only_old.is_empty());

        // halve the baseline's first-case time: the current run regresses
        let mut old = snap.clone();
        old.cases[0].virtual_secs /= 2.0;
        let report = diff(&old, &snap, 0.05, 0.01);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, snap.cases[0].id);
        assert!(regs[0].time_regressed && !regs[0].bytes_regressed);
        assert!((regs[0].time_delta() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_schema_version_is_refused() {
        let (cfg, results) = tiny_results();
        let text = Snapshot::from_results("custom", &cfg, &results).render().replacen(
            "\"schema_version\":1",
            "\"schema_version\":999",
            1,
        );
        let err = Snapshot::parse(&text).expect_err("must refuse");
        assert!(err.contains("999"), "{err}");
    }

    #[test]
    fn disjoint_cases_are_reported_not_failed() {
        let (cfg, results) = tiny_results();
        let snap = Snapshot::from_results("custom", &cfg, &results);
        let mut old = snap.clone();
        old.cases.remove(0);
        let report = diff(&old, &snap, 0.05, 0.01);
        assert_eq!(report.only_new, vec![snap.cases[0].id.clone()]);
        assert!(report.regressions().is_empty());
    }
}
