//! Integration tests for the `hzc` command-line tool, driving the real
//! binary end to end over temp files.

use std::path::PathBuf;
use std::process::Command;

fn hzc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hzc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hzc_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_compress_info_check_roundtrip() {
    let dir = tmpdir("roundtrip");
    let raw = dir.join("field.f32");
    let fzl = dir.join("field.fzl");
    let back = dir.join("back.f32");

    let out = hzc()
        .args(["gen", "hurricane", raw.to_str().unwrap(), "--mb", "1", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::metadata(&raw).unwrap().len(), 1 << 20);

    let out = hzc()
        .args([
            "compress",
            raw.to_str().unwrap(),
            fzl.to_str().unwrap(),
            "--rel",
            "1e-3",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ratio"), "{stdout}");

    let out = hzc().args(["info", fzl.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("blocks:") && stdout.contains("chunks = 2"), "{stdout}");

    let out =
        hzc().args(["decompress", fzl.to_str().unwrap(), back.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(std::fs::metadata(&back).unwrap().len(), 1 << 20);

    let out = hzc().args(["check", raw.to_str().unwrap(), fzl.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("WITHIN BOUND"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sum_produces_valid_homomorphic_stream() {
    let dir = tmpdir("sum");
    let raw = dir.join("a.f32");
    let fzl = dir.join("a.fzl");
    let sum = dir.join("sum.fzl");
    assert!(hzc()
        .args(["gen", "sim2", raw.to_str().unwrap(), "--mb", "1"])
        .status()
        .unwrap()
        .success());
    assert!(hzc()
        .args(["compress", raw.to_str().unwrap(), fzl.to_str().unwrap(), "--eb", "1e-3"])
        .status()
        .unwrap()
        .success());
    let out = hzc()
        .args(["sum", fzl.to_str().unwrap(), fzl.to_str().unwrap(), sum.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("no decompression"));

    // the summed stream decompresses to ~2x the original
    let a = datasets::load_f32(&raw).unwrap();
    let s = fzlight::CompressedStream::from_bytes(std::fs::read(&sum).unwrap()).unwrap();
    let doubled = fzlight::decompress(&s).unwrap();
    for (x, y) in a.iter().zip(&doubled) {
        assert!((2.0 * x - y).abs() <= 2.0 * 1e-3 + 1e-6, "{x} vs {y}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_runs_a_traced_collective_end_to_end() {
    let dir = tmpdir("sim");
    let trace_path = dir.join("trace.json");
    let out = hzc()
        .args([
            "sim",
            "allreduce",
            "--ranks",
            "2",
            "--mb",
            "1",
            "--variant",
            "hz",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // breakdown table and timeline render
    assert!(stdout.contains("makespan"), "{stdout}");
    assert!(stdout.contains("cpr"), "{stdout}");
    assert!(stdout.contains("rank   0 |"), "{stdout}");
    assert!(stdout.contains("legend:"), "{stdout}");

    // the Chrome trace is valid JSON with one process per rank
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc = netsim::Json::parse(&text).expect("trace file is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let meta: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")).collect();
    assert_eq!(meta.len(), 2, "one process_name entry per rank");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_rejects_bad_arguments() {
    let out = hzc().args(["sim", "gathermax"]).output().unwrap();
    assert!(!out.status.success());
    let out = hzc().args(["sim", "allreduce", "--variant", "nccl"]).output().unwrap();
    assert!(!out.status.success());
    let out = hzc().args(["sim", "allreduce", "--segments", "0"]).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--segments"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A bound the codecs refuse (zero, negative, NaN) is a flag error on every
/// command that takes `--eb`: one `hzc:` line, the usage, exit 1 — not a
/// panic on every rank.
#[test]
fn bad_error_bounds_are_flag_errors() {
    for args in [
        &["sim", "allreduce", "--ranks", "2", "--kb", "4", "--eb", "0"][..],
        &["tune", "--ranks", "2", "--sizes-kb", "4", "--eb", "-1"],
        &["chaos", "--ranks", "2", "--kb", "4", "--eb", "nan"],
    ] {
        let out = hzc().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let bad = args.last().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("hzc: invalid value '{bad}' for --eb (")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:") && !stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The two-tier fabric at the CLI: `--topology` is echoed, the critical-path
/// profile attributes time to both tiers, and Auto decides a hierarchical
/// plan on the paper's 8x8 fabric.
#[test]
fn sim_topology_reaches_both_tiers_and_auto_goes_hierarchical() {
    let sim = |variant: &str, extra: &[&str]| {
        let base = ["sim", "allreduce", "--topology", "8x8", "--mb", "1", "--variant", variant];
        let out = hzc().args(base).args(extra).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let hz = sim("hz", &["--critical-path"]);
    assert!(hz.contains("8 nodes x 8 ranks/node"), "{hz}");
    // a bucket row each, not the `topology:` line's bandwidths
    let bucket = |tier: &str| hz.lines().any(|l| l.split_whitespace().next() == Some(tier));
    assert!(bucket("intra"), "{hz}");
    assert!(bucket("inter"), "{hz}");
    let auto = sim("auto", &[]);
    assert!(auto.contains("hier"), "{auto}");
}

/// The pipeline smoke check CI runs: a segmented hz ring must complete, echo
/// its segment count, and not be slower than the phase-serial schedule.
#[test]
fn sim_segmented_ring_is_no_slower_than_serial() {
    let makespan_of = |segments: &str| -> f64 {
        let out = hzc()
            .args([
                "sim",
                "allreduce",
                "--ranks",
                "4",
                "--mb",
                "1",
                "--variant",
                "hz",
                "--segments",
                segments,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("segments={segments}")), "{stdout}");
        let line = stdout.lines().find(|l| l.starts_with("makespan:")).expect("makespan line");
        line.split_whitespace().nth(1).unwrap().parse::<f64>().expect("makespan parses")
    };
    let serial = makespan_of("1");
    let pipelined = makespan_of("4");
    assert!(
        pipelined <= serial * (1.0 + 1e-9),
        "pipelined {pipelined} must not exceed serial {serial}"
    );
}

#[test]
fn sim_critical_path_reports_a_tiled_path() {
    let out = hzc()
        .args([
            "sim",
            "allreduce",
            "--variant",
            "hz",
            "--ranks",
            "4",
            "--kb",
            "64",
            "--critical-path",
            "--slack",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("critical path"), "{stdout}");
    assert!(stdout.contains("residual"), "{stdout}");
    assert!(stdout.contains("path bucket"), "{stdout}");
    assert!(stdout.contains("slack"), "{stdout}");
}

#[test]
fn errors_are_reported_not_panicked() {
    // unknown command
    let out = hzc().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // missing file
    let out = hzc().args(["info", "/nonexistent/path.fzl"]).output().unwrap();
    assert!(!out.status.success());

    // conflicting flags
    let out = hzc().args(["compress", "a", "b", "--eb", "1e-3", "--rel", "1e-3"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    // no args at all prints usage
    let out = hzc().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn corrupt_stream_is_rejected_by_info() {
    let dir = tmpdir("corrupt");
    let bad = dir.join("bad.fzl");
    std::fs::write(&bad, b"not a stream at all").unwrap();
    let out = hzc().args(["info", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_supports_rd_and_auto_variants() {
    // recursive-doubling variant runs an allreduce end to end
    let out = hzc()
        .args(["sim", "allreduce", "--ranks", "4", "--mb", "1", "--variant", "rd"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("makespan"));

    // …but only an allreduce: every other op must be rejected with a message
    let out = hzc()
        .args(["sim", "reduce_scatter", "--ranks", "4", "--mb", "1", "--variant", "rd"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("allreduce only"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // auto (cacheless) decides from the analytical model and explains itself
    let out = hzc()
        .args(["sim", "allreduce", "--ranks", "4", "--mb", "1", "--variant", "auto"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("auto plan:"), "{stdout}");
    assert!(stdout.contains("why:"), "{stdout}");
    assert!(stdout.contains("->"), "ranked table missing its chosen-plan marker: {stdout}");
}

#[test]
fn sim_variant_error_advertises_every_variant() {
    let out = hzc().args(["sim", "allreduce", "--variant", "nccl"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for v in ["hz", "ccoll", "mpi", "rd", "auto"] {
        assert!(stderr.contains(v), "error message must advertise '{v}': {stderr}");
    }
}

#[test]
fn tune_writes_a_cache_that_auto_then_uses() {
    let dir = tmpdir("tune");
    let cache = dir.join("tune.json");

    // tiny offline sweep -> non-empty, parseable engine state
    let out = hzc()
        .args([
            "tune",
            "--ops",
            "allreduce",
            "--ranks",
            "4",
            "--sizes-kb",
            "64,256",
            "--out",
            cache.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&cache).unwrap();
    let doc = netsim::Json::parse(&text).expect("cache parses");
    // the state file holds what the engine learned, nothing else
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["version", "calibration", "cache"], "{text}");
    assert_eq!(doc.get("version").and_then(netsim::Json::as_f64), Some(4.0));
    let engine = tuner::Engine::from_json(&doc).expect("cache loads as engine state");
    assert!(!engine.cache.is_empty(), "tune recorded no buckets");

    // the auto variant now decides from the cache for a size inside the
    // tuned bucket, and records its own measurement back into the file
    let out = hzc()
        .args([
            "sim",
            "allreduce",
            "--ranks",
            "4",
            "--kb",
            "256",
            "--variant",
            "auto",
            "--cache",
            cache.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let combined =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{combined}");
    assert!(combined.contains("source: cache"), "{combined}");
    assert!(combined.contains("recorded"), "{combined}");

    // resuming the sweep re-parses the file it just wrote (round-trip)
    let out = hzc()
        .args([
            "tune",
            "--ops",
            "allreduce",
            "--ranks",
            "4",
            "--sizes-kb",
            "16",
            "--out",
            cache.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-edited state file whose cached plan the engine would never offer
/// (a block length the codec refuses, a segment count off the candidate
/// list) is ignored for every op: the auto run falls back to the model and
/// succeeds, instead of panicking on every rank or running the odd plan.
#[test]
fn auto_ignores_cached_plans_outside_the_candidate_set() {
    let dir = tmpdir("hostile_cache");
    let cache = dir.join("rs.json");
    let cache_arg = cache.to_str().unwrap();
    let tune = ["tune", "--ops", "reduce_scatter", "--ranks", "4", "--sizes-kb", "256"];
    let out = hzc().args(tune).args(["--out", cache_arg]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let tuned = std::fs::read_to_string(&cache).unwrap();
    let sim = ["sim", "reduce_scatter", "--ranks", "4", "--kb", "256", "--variant", "auto"];
    let run = |state: &str| {
        std::fs::write(&cache, state).unwrap();
        let out = hzc().args(sim).args(["--cache", cache_arg]).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        stdout
    };
    assert!(run(&tuned).contains("(source: cache)"), "the tuned plan is a cache hit");
    let engine = tuner::Engine::from_json(&netsim::Json::parse(&tuned).unwrap()).unwrap();
    let segments = engine.cache.entries.values().next().expect("one cache entry").plan.segments;
    let hostile = [
        tuned.replacen("\"block_len\":32", "\"block_len\":100000000", 1),
        tuned.replacen(&format!("\"segments\":{segments}"), "\"segments\":5000", 1),
    ];
    for state in hostile {
        assert_ne!(state, tuned);
        let stdout = run(&state);
        assert!(stdout.contains("(source: model)"), "{stdout}");
        assert!(!stdout.contains("b100000000") && !stdout.contains("/s5000"), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The fault-injection soak: every resilient flavour, Auto included,
/// completes under 5 % drop within its error bound of the exact sum (the
/// command exits nonzero otherwise), and the transport really retransmits.
#[test]
fn chaos_soak_passes_and_retransmits() {
    let out =
        hzc().args(["chaos", "--seed", "7", "--drop", "0.05", "--ranks", "8"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    for op in ["allreduce", "reduce_scatter"] {
        let auto = |l: &&str| l.split_whitespace().take(3).eq(["0.05", op, "auto"]);
        assert!(stdout.lines().any(|l| auto(&l)), "no auto {op} row:\n{stdout}");
    }
    let passed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("chaos soak passed ("))
        .unwrap_or_else(|| panic!("no `chaos soak passed` line:\n{stdout}"));
    let retransmits: u64 = passed
        .strip_suffix(" retransmits across the sweep)")
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unreadable retransmit count: {passed}"));
    assert!(retransmits > 0, "the transport never retransmitted:\n{stdout}");
}

/// A fault rate that injects nothing asks nothing of the transport: one rank
/// sends no message to drop, and a 1e-4 corruption rate hits none of two
/// ranks' few messages. Every `faults` cell reads 0, so the soak passes.
#[test]
fn chaos_soak_without_injected_faults_passes() {
    for args in [
        &["chaos", "--ranks", "1", "--kb", "4", "--drop", "0.01"][..],
        &["chaos", "--ranks", "2", "--kb", "1", "--drop", "0", "--corrupt", "0.0001"],
    ] {
        let out = hzc().args(args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}\n{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("chaos soak passed (0 retransmits across the sweep)"), "{stdout}");
    }
}

/// The crash-recovery gate: seeded rank crashes under the Shrink policy at 8
/// and 64 ranks. Survivors deliver the survivor sum (bit-exact for mpi,
/// error-bounded for ccoll/hz); a divergence exits nonzero, and a repair
/// that hangs fails the test after 300 s.
#[test]
fn chaos_crash_recovery_gate_passes() {
    for (ranks, rates, kb) in [("8", "0.1,0.25,0.4", "16"), ("64", "0.02,0.05", "8")] {
        let args = ["chaos", "--seed", "7", "--crash-rate", rates, "--ranks", ranks, "--kb", kb];
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(hzc().args(args).output().unwrap()));
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("{args:?} ran past 300 s"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}\n{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.lines().any(|l| l == "crash-recovery gate passed"), "{args:?}\n{stdout}");
    }
}

/// The first line of `hzc <args>`'s stderr (the `hzc: <message>` line; the
/// usage text follows it), and whether the run succeeded.
fn first_error_line(args: &[&str]) -> (bool, String) {
    let out = hzc().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    (out.status.success(), stderr.lines().next().unwrap_or_default().to_string())
}

/// A tuner state file nested 200,000 levels deep is refused with one error
/// line naming it — the JSON parser caps its nesting depth instead of
/// overflowing the stack.
#[test]
fn a_deeply_nested_state_file_is_an_error_not_a_stack_overflow() {
    let dir = tmpdir("deep_state");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000) + &"]".repeat(200_000)).unwrap();
    let path = deep.to_str().unwrap();
    let args = ["sim", "allreduce", "--ranks", "2", "--kb", "4", "--variant", "auto", "--cache"];
    let out = hzc().args(args).arg(path).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("hzc:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].starts_with(&format!("hzc: {path}: nesting deeper than")), "{stderr}");
    assert!(!stderr.contains("overflow"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag the subcommand does not declare, a repeated one and a value-taking
/// one with nothing after it are errors that list the subcommand's flags —
/// not a run on defaults; a boolean flag does not swallow what follows it.
#[test]
fn flags_are_checked_against_the_subcommands_declaration() {
    let sim = "(hzc sim takes: --ranks --mb";
    for (args, problem) in [
        (&["sim", "allreduce", "--rank", "4"][..], format!("unknown flag --rank {sim}")),
        (
            &["sim", "allreduce", "--ranks", "4", "--ranks", "3"],
            format!("repeated flag --ranks {sim}"),
        ),
        (
            &["sim", "allreduce", "--kb", "16", "--ranks"],
            format!("missing value after --ranks {sim}"),
        ),
        (&["info", "x.fzl", "--quick"], "unknown flag --quick (hzc info takes: no flags)".into()),
        (&["sim", "allreduce", "--metrics"], format!("unknown flag --metrics {sim}")),
    ] {
        let (ok, line) = first_error_line(args);
        assert!(!ok && line.contains(&problem), "{args:?}: {line}");
    }

    let args = ["sim", "--slack", "allreduce", "--ranks", "2", "--kb", "16"];
    let out = hzc().args(args).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sim allreduce:") && stdout.contains("slack:"), "{stdout}");
}

/// Every subcommand the usage text names is one `hzc` dispatches (an
/// undeclared flag gets it as far as its flag check and no further), so a
/// usage block cannot outlive its command; the retired `kernels` and `bench`
/// are gone.
#[test]
fn every_subcommand_in_usage_dispatches() {
    let out = hzc().output().unwrap();
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    let names: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  hzc "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(names.len() == 10 && names.contains(&"chaos"), "{names:?}");
    for name in names {
        let (ok, line) = first_error_line(&[name, "--no-such-flag"]);
        assert!(!ok && line.contains(&format!("hzc {name} takes:")), "{name}: {line}");
    }
    for retired in ["kernels", "bench"] {
        let (ok, line) = first_error_line(&[retired]);
        assert!(!ok && line.contains(&format!("unknown command '{retired}'")), "{line}");
    }
}
