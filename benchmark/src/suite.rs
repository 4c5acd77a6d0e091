//! The whole benchmark: every workload in a process of its own (so
//! `peak_rss_mb` is that workload's), merged into one result file; and the
//! comparison of two such files.

use crate::catalog;
use crate::stats::Summary;
use netsim::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Arguments of `hzbench all`.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Run only this workload.
    pub workload: Option<String>,
    /// Input seed.
    pub seed: u64,
    /// Length of each timed loop.
    pub seconds: f64,
    /// Also make the traced per-layer pass.
    pub traced: bool,
    /// Tiny inputs.
    pub smoke: bool,
    /// Seconds `cargo build` took.
    pub build_s: f64,
    /// Directory for per-run files and traces.
    pub out_dir: PathBuf,
    /// The merged result file (default `<out_dir>/results.json`).
    pub out: Option<PathBuf>,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the workloads one child process each, then merge their detail files.
/// Returns the process exit code: 0 only if every run passed its checks.
pub fn run_all(args: &SuiteArgs) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => catalog::WORKLOADS.to_vec(),
    };
    let mut failed = false;
    let mut merged = Vec::new();
    let mut fingerprint = Json::Null;
    for w in workloads {
        let mut entry = Vec::new();
        for trace in [false, true] {
            if trace && !args.traced {
                continue;
            }
            let detail = args.out_dir.join(format!("{w}.trace{}.json", u8::from(trace)));
            let mut cmd = Command::new(&exe);
            cmd.arg("run").args(["--workload", w]);
            cmd.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            cmd.args(["--build-s", &args.build_s.to_string()]);
            cmd.arg("--out-dir").arg(&args.out_dir).arg("--detail").arg(&detail);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // the child shares stdout/stderr; `status` waits for it to end
            let status = cmd.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            failed |= !status.success();
            if !detail.exists() {
                continue;
            }
            let doc = read_json(&detail)?;
            let take = |k: &str| doc.get(k).cloned().unwrap_or(Json::Null);
            if trace {
                entry.push(("per_layer", take("metrics")));
                entry.push(("traced_ops_attempted", take("ops_attempted")));
                entry.push(("traced_ops_failed", take("ops_failed")));
            } else {
                fingerprint = take("fingerprint");
                entry.push(("end_to_end", take("metrics")));
                for k in ["ops_attempted", "ops_failed", "reps", "parts_ms", "err_over_bound"] {
                    entry.push((k, take(k)));
                }
            }
        }
        merged.push((w.to_string(), Json::obj(entry)));
    }
    let results = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("fingerprint", fingerprint),
        ("workloads", Json::Obj(merged)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| args.out_dir.join("results.json"));
    std::fs::write(&out, results.render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results -> {}{}", out.display(), if failed { " (SOME CHECKS FAILED)" } else { "" });
    Ok(i32::from(failed))
}

/// Verdict of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// One file's own interquartile range is wider than the bound, so a
    /// move of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare one metric: `delta` is how much worse B is than A, as a share
/// of A's median (negative: better).
pub fn judge(a: &Summary, b: &Summary, better: &str, bound: f64) -> (f64, Verdict) {
    let worse = if better == "higher" { a.median - b.median } else { b.median - a.median };
    let delta = if a.median == 0.0 { 0.0 } else { worse / a.median.abs() };
    let own = |s: &Summary| if s.median == 0.0 { 0.0 } else { (s.q3 - s.q1) / s.median.abs() };
    let verdict = if own(a) > bound || own(b) > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// `run.sh --compare A.json B.json`: per workload × end-to-end metric, both
/// medians, the delta, the bound and the verdict. Exit code 1 on any
/// `REGRESSED`, 3 on any `unresolved` (and no regression), else 0.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let workloads = |doc: &Json| doc.get("workloads").and_then(Json::as_obj).map(<[_]>::to_vec);
    let (wa, wb) =
        (workloads(&a).ok_or("A: no workloads")?, workloads(&b).ok_or("B: no workloads")?);
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    let (mut regressed, mut unresolved) = (false, false);
    for (w, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(k, _)| k == w) else {
            println!("{w:<16} only in A");
            continue;
        };
        for def in catalog::end_to_end() {
            let pick = |e: &Json| e.get("end_to_end")?.get(&def.name).and_then(Summary::from_json);
            let (Some(sa), Some(sb)) = (pick(ea), pick(eb)) else { continue };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let (delta, verdict) = judge(&sa, &sb, def.better, bound);
            regressed |= verdict == Verdict::Regressed;
            unresolved |= verdict == Verdict::Unresolved;
            println!(
                "{w:<16} {:<18} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%  {}",
                def.name,
                sa.median,
                sb.median,
                delta * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    Ok(if regressed {
        1
    } else if unresolved {
        3
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn judge_knows_direction_bound_and_noise() {
        let steady = |m: f64| summarize(&[m * 0.99, m, m * 1.01, m, m]);
        // lower is better: +5 % within a 10 % bound, +20 % is not
        assert_eq!(judge(&steady(100.0), &steady(105.0), "lower", 0.10).1, Verdict::Ok);
        let (delta, v) = judge(&steady(100.0), &steady(120.0), "lower", 0.10);
        assert!((delta - 0.20).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        // an improvement is never a regression
        assert_eq!(judge(&steady(100.0), &steady(50.0), "lower", 0.10).1, Verdict::Ok);
        // higher is better: a ratio that drops 20 % regressed
        assert_eq!(judge(&steady(8.0), &steady(6.4), "higher", 0.02).1, Verdict::Regressed);
        assert_eq!(judge(&steady(8.0), &steady(9.0), "higher", 0.02).1, Verdict::Ok);
        // a file whose own quartiles are wider than the bound resolves nothing
        let noisy = summarize(&[80.0, 90.0, 100.0, 110.0, 120.0]);
        assert_eq!(judge(&noisy, &steady(150.0), "lower", 0.10).1, Verdict::Unresolved);
        // exact values compare exactly
        let (d, v) = judge(&Summary::exact(2.0), &Summary::exact(2.0), "lower", 0.02);
        assert_eq!((d, v), (0.0, Verdict::Ok));
    }
}
