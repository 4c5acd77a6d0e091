//! The whole command on tiny inputs: every workload, both passes, the merged
//! result file and the comparison tool. What a CI job would run.

use netsim::Json;
use std::path::Path;
use std::process::Command;

fn hzbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hzbench")).args(args).output().expect("spawn hzbench")
}

fn suite(dir: &Path, out: &str, seed: &str, traced: bool) -> Json {
    let out_path = dir.join(out);
    let run = hzbench(&[
        "all",
        "--smoke",
        if traced { "--traced" } else { "--smoke" },
        "--seconds",
        "0.2",
        "--seed",
        seed,
        "--out-dir",
        dir.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));
    // every child ends with the contract's one-line object
    let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("{\"correct\":")).collect();
    assert_eq!(lines.len(), if traced { 8 } else { 4 }, "four workloads, one or two passes");
    for line in lines {
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    }
    Json::parse(&std::fs::read_to_string(out_path).unwrap()).unwrap()
}

#[test]
fn smoke_suite_checks_every_op_and_repeats_its_exact_numbers() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let a = suite(&dir, "a.json", "5", true);
    let b = suite(&dir, "b.json", "5", true);
    let other = suite(&dir, "c.json", "6", false);
    for w in hzbench::catalog::WORKLOADS {
        let of = |doc: &Json, part: &str, metric: &str| -> f64 {
            let m = doc.get("workloads").unwrap().get(w).unwrap().get(part).unwrap();
            m.get(metric)
                .unwrap_or_else(|| panic!("{w} {metric}"))
                .get("median")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        let entry = a.get("workloads").unwrap().get(w).unwrap();
        assert_eq!(entry.get("end_to_end").unwrap().as_obj().unwrap().len(), 10, "{w}");
        assert_eq!(entry.get("per_layer").unwrap().as_obj().unwrap().len(), 104, "{w}");
        assert_eq!(entry.get("ops_failed").and_then(Json::as_f64), Some(0.0), "{w}");
        assert_eq!(entry.get("traced_ops_failed").and_then(Json::as_f64), Some(0.0), "{w}");
        for def in hzbench::catalog::end_to_end() {
            let x = of(&a, "end_to_end", &def.name);
            assert!(
                x > 0.0 && x.is_finite(),
                "{w} {} = {x}: end-to-end metrics are never 0",
                def.name
            );
            // same seed: simulated times and ratios repeat bit for bit
            if def.name.ends_with("_virtual_ms") || def.name.ends_with("_wire_ratio") {
                assert_eq!(x, of(&b, "end_to_end", &def.name), "{w} {}", def.name);
                assert_ne!(x, of(&other, "end_to_end", &def.name), "{w} {}: seed-blind", def.name);
            }
        }
        for exact in ["netsim.msgs", "netsim.wire_bytes", "core.retransmits", "fzlight.ratio.cesm"]
        {
            assert_eq!(of(&a, "per_layer", exact), of(&b, "per_layer", exact), "{w} {exact}");
        }
        // the layer split the workloads exist to show
        let msgs = of(&a, "per_layer", "netsim.msgs");
        assert_eq!(msgs > 0.0, w != "codec", "{w}: netsim works everywhere but on codec");
        assert!(dir.join(format!("trace.{w}.json")).exists());
    }
    let trace = std::fs::read_to_string(dir.join("trace.codec.json")).unwrap();
    let layers: std::collections::BTreeSet<String> = Json::parse(&trace)
        .unwrap()
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|s| s.get("layer").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(layers.into_iter().collect::<Vec<_>>(), ["fzlight", "harness", "hzdyn", "ompszp"]);

    let cmp = hzbench(&[
        "compare",
        dir.join("a.json").to_str().unwrap(),
        dir.join("b.json").to_str().unwrap(),
    ]);
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert_eq!(table.lines().count(), 1 + 4 * 10, "{table}");
    // timings of tiny inputs may wobble; the exact metrics may not
    for line in table.lines().filter(|l| l.contains("_virtual_ms") || l.contains("_wire_ratio")) {
        assert!(line.ends_with(" ok") && line.contains("+0.00%"), "{line}");
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [&["run", "--workload", "nope"][..], &["run"], &["frobnicate"], &["compare", "x"]] {
        let out = hzbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
