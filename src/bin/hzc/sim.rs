//! `hzc sim`: one collective on the virtual cluster, explained — the
//! paper-style cost breakdown, an ASCII timeline, and on request the
//! critical-path profile, the slack view and a Chrome/Perfetto trace.

use crate::{app_flag, eb_flag, flag, has_flag, positional, Args};
use hzccl::{Mode, Variant};
use hzccl_bench::suite::{self, CaseSpec, Runner, SuiteConfig};
use netsim::trace;
use std::path::Path;

/// Parse the flags into one [`CaseSpec`] + [`SuiteConfig`], run it
/// ([`suite::run_case`]), print. With `--variant auto`, one rank consults
/// the tuner (optionally persisted via `--cache`) and the chosen plan plus
/// the engine's full ranking are printed.
pub(crate) fn sim(args: &Args) -> Result<(), String> {
    let op_name = positional(args, 0, "collective op")?;
    let op = tuner::Op::parse(op_name).ok_or_else(|| format!("unknown collective '{op_name}'"))?;
    // A two-tier fabric: ranks are placed block-wise on nodes, intra-node
    // links use the fast paper calibration, inter-node links the default
    // one (optionally oversubscribed). Fixes the rank count to nodes*ppn.
    let topology = match flag::<String>(args, "--topology")? {
        Some(spec) => Some(netsim::Topology::parse(&spec)?),
        None => None,
    };
    let ranks = match (topology, flag::<usize>(args, "--ranks")?) {
        (Some(t), Some(r)) if t.nranks() != r => {
            return Err(format!(
                "--ranks {r} contradicts --topology ({} = {} ranks)",
                t.describe(),
                t.nranks()
            ));
        }
        (Some(t), _) => t.nranks(),
        (None, r) => r.unwrap_or(8),
    };
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let mb: usize = flag(args, "--mb")?.unwrap_or(4);
    let kb: Option<usize> = flag(args, "--kb")?;
    let threads: usize = flag(args, "--threads")?.unwrap_or(1);
    let mode = if threads > 1 { Mode::MultiThread(threads) } else { Mode::SingleThread };
    // the three static flavours, the tuner-driven auto front-end, or the
    // recursive-doubling hZCCL allreduce (a plan)
    let variant = flag::<String>(args, "--variant")?.unwrap_or_else(|| "hz".into());
    let runner = match variant.as_str() {
        "rd" if op != tuner::Op::Allreduce => {
            return Err(format!("variant 'rd' implements allreduce only, not '{op_name}'"));
        }
        "rd" => Runner::rd(tuner::Flavor::Hzccl, mode),
        other => Runner::Variant(
            Variant::parse(other)
                .ok_or_else(|| format!("unknown variant '{other}' (hz|ccoll|mpi|rd|auto)"))?,
        ),
    };
    // pipeline segment count for the static ring flavours; auto lets the
    // tuner's plan decide
    let segments: usize = flag(args, "--segments")?.unwrap_or(1);
    if segments == 0 {
        return Err("--segments must be at least 1".into());
    }
    let cache_path: Option<String> = flag(args, "--cache")?;
    let trace_out: Option<String> = flag(args, "--trace")?;
    let want_critpath = has_flag(args, "--critical-path");
    let want_slack = has_flag(args, "--slack");
    let width: usize = flag(args, "--width")?.unwrap_or(100);

    let mut cfg = SuiteConfig { app: app_flag(args)?, ..SuiteConfig::default() };
    cfg.eb = eb_flag(args, cfg.eb)?;
    cfg.seed = flag(args, "--seed")?.unwrap_or(cfg.seed);
    // The tuner engine for --variant auto: loaded from --cache when the file
    // exists, else seeded from the paper calibration.
    if let Some(p) = cache_path.as_deref().map(Path::new).filter(|p| p.exists()) {
        cfg.tuner = tuner::Engine::load(p)?;
    }
    let spec = CaseSpec {
        elems: kb.map(|k| (k << 10) / 4).unwrap_or(mb * (1 << 20) / 4),
        segments,
        mode,
        topology,
        ..CaseSpec::new(op, runner, ranks, 0)
    };
    let run = suite::run_case(&spec, &cfg);
    let (report, critpath) = (&run.report, &run.result.critpath);

    // --- breakdown table ---------------------------------------------------
    let total = run.result.breakdown;
    let makespan = run.result.virtual_secs;
    let field_desc = match kb {
        Some(k) => format!("{k} KiB/rank"),
        None => format!("{mb} MiB/rank"),
    };
    println!(
        "sim {op_name}: variant={variant} ranks={ranks} field={field_desc} eb={:e} mode={mode:?} segments={segments}",
        cfg.eb
    );
    if let Some(t) = &topology {
        println!(
            "topology: {} (intra {} Gb/s, inter {} Gb/s effective)",
            t.describe(),
            t.link(netsim::LinkTier::Intra).bandwidth_gbps,
            t.link(netsim::LinkTier::Inter).bandwidth_gbps,
        );
    }

    // --- the tuner's explanation (auto only) -------------------------------
    if let Some((scenario, decision)) = &report.outcomes[0].value.detail {
        println!();
        println!("auto plan: {} (source: {})", decision.plan.label(), decision.source.name());
        println!("why: {}", decision.why);
        println!("ranked predictions for bucket {}:", scenario.bucket_key());
        for p in &decision.ranked {
            let marker = if p.plan == decision.plan { "->" } else { "  " };
            println!("  {marker} {:<16} {:>12.6} s", p.plan.label(), p.secs);
        }
        if let Some(p) = &cache_path {
            let mut engine = cfg.tuner.clone();
            engine.observe_run(scenario, &decision.plan, report);
            engine.save(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
            println!("recorded {:.6} s into {p}", makespan);
        }
    }
    println!("makespan: {:.6} s (slowest rank)", makespan);
    println!();
    println!("{:<10} {:>14} {:>8}", "bucket", "seconds", "share");
    let grand = total.total();
    for (name, secs) in [
        ("cpr", total.cpr),
        ("dpr", total.dpr),
        ("hpr", total.hpr),
        ("cpt", total.cpt),
        ("mpi", total.mpi),
        ("other", total.other),
    ] {
        let share = if grand > 0.0 { secs * 100.0 / grand } else { 0.0 };
        println!("{name:<10} {secs:>14.6} {share:>7.2}%");
    }
    println!("{:<10} {grand:>14.6} {:>7.2}%", "total", 100.0);

    // --- per-rank timeline --------------------------------------------------
    let traces = &report.traces;
    println!();
    println!("{}", trace::ascii_timeline(traces, width));

    // --- causal critical-path analysis --------------------------------------
    if want_critpath {
        print_critical_path(critpath, makespan);
    }
    if want_slack {
        print_slack(critpath, traces);
    }

    if let Some(path) = trace_out {
        let overlay = (want_critpath || want_slack).then_some(critpath);
        let json = trace::chrome_trace(traces, overlay);
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote Chrome trace to {path} (load in Perfetto / chrome://tracing{})",
            if overlay.is_some() { "; includes the critical-path overlay" } else { "" }
        );
    }
    Ok(())
}

/// Render the critical-path composition: cost buckets, per-rank share, and
/// the communication time folded per collective phase/step via
/// [`hzccl::decode_tag`].
fn print_critical_path(cp: &netsim::CriticalPath, makespan: f64) {
    println!();
    println!(
        "critical path: {:.6} s over {} span(s) (makespan {:.6} s, residual {:.1e})",
        cp.length,
        cp.elements.len(),
        makespan,
        (cp.length - makespan).abs()
    );
    println!();
    println!("{:<14} {:>14} {:>8}", "path bucket", "seconds", "share");
    for (name, secs) in cp.buckets.entries() {
        if secs == 0.0 {
            continue;
        }
        println!("{name:<14} {secs:>14.6} {:>7.2}%", secs * 100.0 / cp.length);
    }
    println!("{:<14} {:>14.6} {:>7.2}%", "total", cp.buckets.total(), 100.0);

    // per-tier communication attribution (two-tier runs only: flat runs
    // charge every hop to the Flat pseudo-tier, which this table elides)
    if netsim::LinkTier::ALL
        .iter()
        .any(|t| *t != netsim::LinkTier::Flat && cp.by_tier[t.index()].hops > 0)
    {
        println!();
        println!(
            "{:<10} {:>6} {:>12} {:>12} {:>12} {:>8}",
            "tier", "hops", "alpha s", "wire s", "jitter s", "share"
        );
        for t in netsim::LinkTier::ALL {
            let tt = cp.by_tier[t.index()];
            if tt.hops == 0 {
                continue;
            }
            println!(
                "{:<10} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>7.2}%",
                t.name(),
                tt.hops,
                tt.alpha,
                tt.wire,
                tt.jitter,
                tt.total() * 100.0 / cp.length
            );
        }
    }

    println!();
    println!("{:<8} {:>14} {:>8}", "rank", "path s", "share");
    for (rank, secs) in cp.per_rank.iter().enumerate() {
        if *secs == 0.0 {
            continue;
        }
        println!("r{rank:<7} {secs:>14.6} {:>7.2}%", secs * 100.0 / cp.length);
    }

    // communication on the path, folded per collective phase/step/segment
    use std::collections::BTreeMap;
    let mut by_phase: BTreeMap<String, (u64, f64, f64, f64)> = BTreeMap::new();
    for (tag, t) in &cp.by_tag {
        let key = match hzccl::decode_tag(*tag) {
            Some(info) => {
                let ctrl = if info.ctrl { " (ctrl)" } else { "" };
                format!("{} step {:>3} seg {:>2}{ctrl}", info.phase, info.step, info.seg)
            }
            None => format!("tag {tag}"),
        };
        let e = by_phase.entry(key).or_default();
        e.0 += t.hops;
        e.1 += t.alpha;
        e.2 += t.wire;
        e.3 += t.jitter;
    }
    if !by_phase.is_empty() {
        println!();
        println!(
            "{:<26} {:>5} {:>12} {:>12} {:>12}",
            "phase/step/segment", "hops", "alpha s", "wire s", "jitter s"
        );
        for (key, (hops, alpha, wire, jitter)) in &by_phase {
            println!("{key:<26} {hops:>5} {alpha:>12.6} {wire:>12.6} {jitter:>12.6}");
        }
    }

    // compute on the path, by pipeline-step label
    if !cp.by_label.is_empty() {
        println!();
        println!("{:<26} {:>14}", "compute label", "path s");
        for (label, secs) in &cp.by_label {
            println!("{label:<26} {secs:>14.6}");
        }
    }
}

/// Render the slack view: how far each rank's schedule is from the path,
/// and which off-path events are nearly critical.
fn print_slack(cp: &netsim::CriticalPath, traces: &[netsim::RankTrace]) {
    println!();
    println!(
        "slack: {:.1}% of events within 1 µs of critical ({:.1}% within 1 ns)",
        cp.critical_fraction(1e-6) * 100.0,
        cp.critical_fraction(1e-9) * 100.0
    );
    println!();
    println!(
        "{:<8} {:>8} {:>10} {:>14} {:>14}",
        "rank", "events", "critical", "min>0 slack", "max slack"
    );
    for (rank, slacks) in cp.slack.iter().enumerate() {
        let critical = slacks.iter().filter(|&&s| s <= 1e-9).count();
        let min_pos = slacks.iter().copied().filter(|&s| s > 1e-9).fold(f64::INFINITY, f64::min);
        let max = slacks.iter().copied().fold(0.0f64, f64::max);
        println!(
            "r{rank:<7} {:>8} {:>10} {:>14} {:>14}",
            slacks.len(),
            critical,
            if min_pos.is_finite() { format!("{min_pos:.3e}") } else { "-".into() },
            format!("{max:.3e}"),
        );
    }
    // the nearest-miss events: smallest positive slack across all ranks
    let mut near: Vec<(f64, usize, usize)> = Vec::new();
    for (rank, slacks) in cp.slack.iter().enumerate() {
        for (idx, &s) in slacks.iter().enumerate() {
            if s > 1e-9 {
                near.push((s, rank, idx));
            }
        }
    }
    near.sort_by(|a, b| a.0.total_cmp(&b.0));
    if !near.is_empty() {
        println!();
        println!("nearest to critical:");
        for &(s, rank, idx) in near.iter().take(8) {
            println!(
                "  r{rank} event {idx} ({}) slack {s:.3e} s",
                event_name(&traces[rank].events[idx])
            );
        }
    }
}

/// Short human label for one trace event (slack listing).
fn event_name(ev: &netsim::Event) -> String {
    match ev {
        netsim::Event::Compute { kind, label, .. } => {
            if label.is_empty() {
                kind.name().to_string()
            } else {
                (*label).to_string()
            }
        }
        netsim::Event::Send { to, tag, .. } => format!("send->r{to} tag {tag}"),
        netsim::Event::Recv { from, tag, .. } => format!("recv<-r{from} tag {tag}"),
        netsim::Event::Fault { kind, .. } => format!("fault:{}", kind.name()),
    }
}
