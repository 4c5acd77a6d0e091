//! The benchmark's vocabulary: workloads, flavours, and every metric name
//! with its unit. `BENCHMARK.json` at the repo root lists the same names; a
//! unit test keeps the two equal.

/// The four workloads, in running order.
pub const WORKLOADS: [&str; 4] = ["codec", "ar_large", "ar_manyranks", "mixed_schedules"];

/// A collective flavour (suffix `<f>` of the metric names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Flavour {
    /// fZ-light + hZ-dynamic (hZCCL).
    Hz,
    /// ompSZp decompress-operate-compress (C-Coll).
    Ccoll,
    /// Raw `f32` (plain MPI).
    Mpi,
}

impl Flavour {
    /// All three, in the round-robin order of the timed loop.
    pub const ALL: [Flavour; 3] = [Flavour::Hz, Flavour::Ccoll, Flavour::Mpi];

    /// Position in [`Flavour::ALL`], for per-flavour arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Flavour::Hz => "hz",
            Flavour::Ccoll => "ccoll",
            Flavour::Mpi => "mpi",
        }
    }

    /// The `hzccl` variant this flavour runs.
    pub fn variant(self) -> hzccl::Variant {
        match self {
            Flavour::Hz => hzccl::Variant::Hzccl,
            Flavour::Ccoll => hzccl::Variant::CColl,
            Flavour::Mpi => hzccl::Variant::Mpi,
        }
    }

    /// Whether the flavour sends compressed messages.
    pub fn compresses(self) -> bool {
        self != Flavour::Mpi
    }
}

/// The three synthetic applications of the `codec` workload (suffix `<app>`).
pub const APPS: [(&str, datasets::App); 3] = [
    ("cesm", datasets::App::CesmAtm),
    ("nyx", datasets::App::Nyx),
    ("sim1", datasets::App::SimSet1),
];

/// The steps of `mixed_schedules` that every flavour runs, by metric stem.
pub const MIXED_STEPS: [&str; 5] = ["rs_s8", "reduce_bcast", "hier", "framed", "recover"];

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// Bound of every wall-clock metric (`setup_s`, `peak_rss_mb`, `*_op_ms`):
/// the contract's maximum. The issue asked for 10 %; the shared two-core VM
/// this was written on cannot resolve that. Its speed drifts over minutes:
/// over ten consecutive runs the medians of `hz_op_ms` spread by 1 % in one
/// hour and by 17 % in the next, those of the memory-bound `mpi_op_ms` on
/// `codec` by 5 % and 24 % (README, "How steady it is").
pub const WALL_BOUND: f64 = 0.25;
/// Bound of the deterministic metrics (`*_virtual_ms`, `*_wire_ratio`).
/// They repeat exactly for one seed; the bound only has to cover how far
/// the seed moves them (fabric bandwidth ±0.5 %, field rotation and scale).
pub const EXACT_BOUND: f64 = 0.02;

/// The ten end-to-end metrics, in printing order.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: String, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    let mut v = vec![
        bounded("setup_s".into(), "s", "lower", WALL_BOUND),
        bounded("peak_rss_mb".into(), "MiB", "lower", WALL_BOUND),
    ];
    for f in Flavour::ALL {
        v.push(bounded(format!("{}_op_ms", f.name()), "ms", "lower", WALL_BOUND));
    }
    for f in Flavour::ALL {
        v.push(bounded(format!("{}_virtual_ms", f.name()), "ms", "lower", EXACT_BOUND));
    }
    for f in [Flavour::Hz, Flavour::Ccoll] {
        v.push(bounded(format!("{}_wire_ratio", f.name()), "ratio", "higher", EXACT_BOUND));
    }
    v
}

/// The per-layer metrics, grouped by crate, in printing order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("streambench.peak_gbps", "GB/s", "higher"),
        def("datasets.generate_mbps", "MB/s", "higher"),
    ];
    let per_app = |v: &mut Vec<MetricDef>, stem: &str, unit, better| {
        for (app, _) in APPS {
            v.push(def(format!("{stem}.{app}"), unit, better));
        }
    };
    // fzlight
    per_app(&mut v, "fzlight.compress_gbps", "GB/s", "higher");
    per_app(&mut v, "fzlight.decompress_gbps", "GB/s", "higher");
    per_app(&mut v, "fzlight.ratio", "ratio", "higher");
    v.push(def("fzlight.quantize_block_gbps", "GB/s", "higher"));
    v.push(def("fzlight.compress_small_us", "us", "lower"));
    v.push(def("fzlight.decompress_small_us", "us", "lower"));
    // ompszp
    per_app(&mut v, "ompszp.compress_gbps", "GB/s", "higher");
    per_app(&mut v, "ompszp.decompress_gbps", "GB/s", "higher");
    per_app(&mut v, "ompszp.ratio", "ratio", "higher");
    v.push(def("ompszp.bitshuffle_encode_gbps", "GB/s", "higher"));
    v.push(def("ompszp.bitshuffle_decode_gbps", "GB/s", "higher"));
    v.push(def("ompszp.compress_small_us", "us", "lower"));
    v.push(def("ompszp.decompress_small_us", "us", "lower"));
    // hzdyn
    per_app(&mut v, "hzdyn.hsum_gbps", "GB/s", "higher");
    per_app(&mut v, "hzdyn.p4_share", "%", "lower");
    per_app(&mut v, "hzdyn.doc_reduce_gbps", "GB/s", "higher");
    v.push(def("hzdyn.reduce_gbps", "GB/s", "higher"));
    v.push(def("hzdyn.hsum_small_us", "us", "lower"));
    // netsim
    v.push(def("netsim.ns_per_msg", "ns", "lower"));
    v.push(def("netsim.spawn_us_per_rank", "us", "lower"));
    v.push(def("netsim.events_per_s", "1/s", "higher"));
    v.push(def("netsim.msgs", "count", "lower"));
    v.push(def("netsim.wire_bytes", "B", "lower"));
    v.push(def("netsim.trace_overhead_pct", "%", "lower"));
    v.push(def("netsim.critpath_analyze_ms", "ms", "lower"));
    for share in ["alpha", "wire", "compute", "blocked"] {
        v.push(def(format!("netsim.cp_{share}_share"), "%", "lower"));
    }
    v.push(def("netsim.threads_engine_op_ms", "ms", "lower"));
    // core (hzccl)
    for stem in ["overhead_ms", "cpr_ms", "dpr_ms", "hpr_ms", "cpt_ms", "measured_virtual_ms"] {
        for f in Flavour::ALL {
            v.push(def(format!("core.{stem}.{}", f.name()), "ms", "lower"));
        }
    }
    for f in Flavour::ALL {
        v.push(def(format!("core.err_over_bound.{}", f.name()), "ratio", "lower"));
    }
    for step in MIXED_STEPS {
        for f in Flavour::ALL {
            v.push(def(format!("core.{step}_ms.{}", f.name()), "ms", "lower"));
        }
    }
    v.push(def("core.auto_ms", "ms", "lower"));
    v.push(def("core.rd_ms", "ms", "lower"));
    v.push(def("core.retransmits", "count", "lower"));
    v.push(def("core.recoveries", "count", "lower"));
    // costmodel
    for f in Flavour::ALL {
        v.push(def(format!("costmodel.residual_pct.{}", f.name()), "%", "lower"));
    }
    // tuner
    v.push(def("tuner.decide_us", "us", "lower"));
    v.push(def("tuner.auto_regret_pct", "%", "lower"));
    for k in ["cpr", "dpr", "hpr", "cpt"] {
        v.push(def(format!("tuner.host_vs_paper.{k}"), "ratio", "higher"));
    }
    // harness
    for f in Flavour::ALL {
        v.push(def(format!("harness.op_ms_hi.{}", f.name()), "ms", "lower"));
    }
    v.push(def("harness.timer_ns", "ns", "lower"));
    v.push(def("harness.build_s", "s", "lower"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name.clone()), "duplicate metric {}", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w.to_string()));
        }
        assert_eq!(end_to_end().len(), 10);
        assert_eq!(per_layer().len(), 104);
        assert!(per_layer().len() <= 128);
        for m in end_to_end() {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= WALL_BOUND && WALL_BOUND <= 0.25);
        }
    }

    /// `BENCHMARK.json` and the catalogue must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let names = |key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Json::as_arr).unwrap();
            items.iter().map(|m| m.get("name").unwrap().as_str().unwrap().to_string()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let items = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(items.len(), defs.len(), "{key}");
            for (item, d) in items.iter().zip(&defs) {
                assert_eq!(item.get("name").and_then(Json::as_str), Some(d.name.as_str()));
                assert_eq!(item.get("unit").and_then(Json::as_str), Some(d.unit), "{}", d.name);
                assert_eq!(item.get("better").and_then(Json::as_str), Some(d.better), "{}", d.name);
                assert_eq!(item.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
                let nkeys = if d.bound.is_some() { 4 } else { 3 };
                assert_eq!(item.as_obj().unwrap().len(), nkeys, "{}", d.name);
            }
        }
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.contains('\n') && why.len() <= 200, "why too long: {}", why.len());
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs == secs.trunc());
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".into())]
        );
    }
}
