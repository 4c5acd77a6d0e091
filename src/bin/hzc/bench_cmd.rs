//! `hzc bench` — the deterministic perf-regression harness.
//!
//! Runs a canonical paper-calibrated suite entirely on the virtual clock
//! ([`hzccl_bench::suite`]), writes a versioned snapshot
//! (`BENCH_results.json`, [`hzccl_bench::snapshot`]), and — with
//! `--against <file>` — diffs the run against a baseline snapshot with
//! per-case tolerances, exiting nonzero on any regression. Because every
//! case is bit-deterministic, a nonzero exit is a real perf change, never
//! noise.

use crate::{app_flag, flag, has_flag, list_flag, usize_list_flag, Args};
use hzccl_bench::snapshot::{self, Snapshot};
use hzccl_bench::suite::{self, CaseResult, CaseSpec, SuiteConfig};
use tuner::Op;

pub(crate) fn bench(args: &Args) -> Result<(), String> {
    let quick = has_flag(args, "--quick");
    let out: String = flag(args, "--out")?.unwrap_or_else(|| "BENCH_results.json".into());
    let against: Option<String> = flag(args, "--against")?;
    let tol_time: f64 = flag(args, "--tol-time")?.unwrap_or(0.05);
    let tol_bytes: f64 = flag(args, "--tol-bytes")?.unwrap_or(0.01);
    let mut cfg = SuiteConfig { app: app_flag(args)?, ..SuiteConfig::default() };
    cfg.seed = flag(args, "--seed")?.unwrap_or(cfg.seed);
    cfg.eb = flag(args, "--eb")?.unwrap_or(cfg.eb);
    if let Some(engine) = flag::<String>(args, "--engine")? {
        cfg.engine = netsim::SimEngine::parse(&engine)
            .ok_or_else(|| format!("unknown engine '{engine}' (events|threads)"))?;
    }

    let (suite_name, cases) = select_cases(args, quick)?;
    println!(
        "bench: suite={suite_name} cases={} seed={} eb={:e} app={} engine={} (virtual time, deterministic)",
        cases.len(),
        cfg.seed,
        cfg.eb,
        cfg.app.name(),
        cfg.engine.name()
    );
    println!();
    println!(
        "{:<40} {:>12} {:>12} {:>7} {:>12}",
        "case", "virtual_s", "wire_bytes", "comm%", "p99_s"
    );
    let results = suite::run_suite(&cases, &cfg, |r| {
        let cp = &r.critpath.buckets;
        let comm = cp.alpha + cp.wire + cp.jitter;
        let share = if r.critpath.length > 0.0 { comm * 100.0 / r.critpath.length } else { 0.0 };
        println!(
            "{:<40} {:>12.6} {:>12} {:>6.1}% {:>12.6}",
            r.spec.id(),
            r.virtual_secs,
            r.wire_bytes,
            share,
            r.latency_p99
        );
    });
    sanity_check(&results)?;

    let snap = Snapshot::from_results(&suite_name, &cfg, &results);
    std::fs::write(&out, snap.render()).map_err(|e| format!("{out}: {e}"))?;
    println!();
    println!("wrote {} case(s) to {out} (schema v{})", snap.cases.len(), snapshot::SCHEMA_VERSION);

    if let Some(baseline_path) = against {
        let text =
            std::fs::read_to_string(&baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
        let baseline = Snapshot::parse(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
        let report = snapshot::diff(&baseline, &snap, tol_time, tol_bytes);
        render_report(&baseline_path, &report, tol_time, tol_bytes);
        if !report.regressions().is_empty() {
            // A perf regression is a check failure, not a usage error:
            // skip the usage banner and exit nonzero directly.
            std::process::exit(2);
        }
    }
    Ok(())
}

/// The case list: the `--quick`/default sweeps, or a custom sweep constructed
/// from `--ops/--variants/--ranks-list/--sizes-kb/--segments-list`.
fn select_cases(args: &Args, quick: bool) -> Result<(String, Vec<CaseSpec>), String> {
    let custom = ["--ops", "--variants", "--ranks-list", "--sizes-kb", "--segments-list"]
        .iter()
        .any(|f| has_flag(args, f));
    if !custom {
        return Ok(if quick {
            ("quick".into(), suite::quick_cases())
        } else {
            ("canonical".into(), suite::canonical_cases())
        });
    }
    let ops = list_flag(args, "--ops", "allreduce,reduce_scatter", |t| match Op::parse(t) {
        Some(op @ (Op::Allreduce | Op::ReduceScatter)) => Ok(op),
        _ => Err(format!("unknown op '{t}' (allreduce|reduce_scatter)")),
    })?;
    let variants = list_flag(args, "--variants", "mpi,ccoll,hz,auto", |t| {
        hzccl::Variant::parse(t).ok_or_else(|| format!("unknown variant '{t}' (mpi|ccoll|hz|auto)"))
    })?;
    let ranks_list = usize_list_flag(args, "--ranks-list", "8")?;
    let sizes_kb = usize_list_flag(args, "--sizes-kb", "16,256")?;
    let segments_list = usize_list_flag(args, "--segments-list", "1,8")?;
    let include_fault = !has_flag(args, "--no-fault");
    let cases =
        suite::build_cases(&ops, &variants, &ranks_list, &sizes_kb, &segments_list, include_fault);
    if cases.is_empty() {
        return Err("the requested sweep is empty".into());
    }
    Ok(("custom".into(), cases))
}

/// The analyzer's invariant, enforced on every case of every bench run: the
/// critical path must tile the run exactly.
fn sanity_check(results: &[CaseResult]) -> Result<(), String> {
    for r in results {
        let rel =
            (r.critpath.length - r.virtual_secs).abs() / r.virtual_secs.max(f64::MIN_POSITIVE);
        if rel > 1e-9 {
            return Err(format!(
                "critical-path invariant violated on {}: path {} vs makespan {} (rel {rel:e})",
                r.spec.id(),
                r.critpath.length,
                r.virtual_secs
            ));
        }
    }
    Ok(())
}

fn render_report(
    baseline_path: &str,
    report: &snapshot::DiffReport,
    tol_time: f64,
    tol_bytes: f64,
) {
    println!();
    println!(
        "against {baseline_path}: {} case(s) compared (tol time {:.1}%, bytes {:.1}%)",
        report.compared.len(),
        tol_time * 100.0,
        tol_bytes * 100.0
    );
    for id in &report.only_old {
        println!("  skipped (baseline only): {id}");
    }
    for id in &report.only_new {
        println!("  new (no baseline): {id}");
    }
    let regs = report.regressions();
    if regs.is_empty() {
        println!("no regressions");
        return;
    }
    println!();
    println!(
        "{:<40} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "REGRESSED case", "base_s", "now_s", "time", "base_bytes", "now_bytes"
    );
    for d in &regs {
        println!(
            "{:<40} {:>12.6} {:>12.6} {:>+7.1}% {:>12} {:>12}",
            d.id,
            d.old_secs,
            d.new_secs,
            d.time_delta() * 100.0,
            d.old_wire,
            d.new_wire
        );
    }
    println!();
    println!("{} regression(s)", regs.len());
}
