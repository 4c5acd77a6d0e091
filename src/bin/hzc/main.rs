//! `hzc` — command-line front end for the hZCCL compression stack.
//!
//! ```text
//! hzc gen <app> <out.f32> [--mb N] [--seed S]     generate a synthetic field
//! hzc compress <in.f32> <out.fzl> [--eb E] [--rel E] [--threads T] [--block B]
//! hzc decompress <in.fzl> <out.f32>
//! hzc info <in.fzl>                                header + block statistics
//! hzc sum <a.fzl> <b.fzl> <out.fzl>                homomorphic a + b
//! hzc diff <a.fzl> <b.fzl> <out.fzl>               homomorphic a - b
//! hzc check <in.f32> <stream.fzl>                  verify the error bound
//! hzc sim <op> [--ranks N] [--mb M] [--variant V] [--topology NxP[:oversub]]
//!                                                  run a simulated collective
//! hzc tune [--ranks L] [--sizes-kb L] [--out F]    offline autotune sweep
//! hzc bench [--quick] [--against baseline.json]    deterministic perf suite
//! hzc kernels [--quick] [--gate R] [--out F]       kernel roofline harness
//! ```
//!
//! `.f32` files are raw little-endian floats (the SDRBench layout); `<app>`
//! is one of `sim1`, `sim2`, `nyx`, `cesm`, `hurricane`.

use datasets::{App, Quality};
use fzlight::{CompressedStream, Config, ErrorBound, StreamStats};
use std::path::Path;
use std::process::ExitCode;

mod bench_cmd;
mod kernels_cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hzc: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hzc gen <sim1|sim2|nyx|cesm|hurricane> <out.f32> [--mb N] [--seed S]
  hzc compress <in.f32> <out.fzl> [--eb E | --rel E] [--threads T] [--block B]
  hzc decompress <in.fzl> <out.f32>
  hzc info <in.fzl>
  hzc sum <a.fzl> <b.fzl> <out.fzl>
  hzc diff <a.fzl> <b.fzl> <out.fzl>
  hzc check <in.f32> <stream.fzl>
  hzc sim <allreduce|reduce_scatter|reduce|bcast> [--ranks N] [--mb M | --kb K]
          [--variant hz|ccoll|mpi|rd|auto] [--eb E] [--threads T] [--segments S]
          [--topology NxP[:oversub]] [--app A] [--seed S] [--cache state.json]
          [--trace out.json] [--metrics] [--width W] [--critical-path] [--slack]
  hzc bench [--quick] [--scale] [--out F] [--against baseline.json] [--tol-time R]
          [--tol-bytes R] [--seed S] [--eb E] [--app A] [--engine events|threads]
          [--ops L] [--variants L] [--ranks-list L] [--sizes-kb L]
          [--segments-list L] [--no-fault]
          deterministic perf suite; nonzero exit on regression vs baseline
  hzc kernels [--quick] [--elems N] [--trials K] [--threads T] [--gate R]
          [--out BENCH_kernels.json] [--check BENCH_kernels.json]
          kernel micro-benchmarks vs scalar references + STREAM roofline;
          --gate enforces a minimum speedup, --check verifies a snapshot
  hzc tune [--ops L] [--ranks L] [--sizes-kb L] [--eb E] [--app A] [--seed S]
          [--out state.json]   (L = comma-separated list, e.g. 8,64)
  hzc chaos [--seed S] [--ranks N] [--kb K] [--eb E] [--drop P[,P..]]
          [--corrupt P] [--jitter SECS] [--app A] [--crash-rate P[,P..]]
          soak the resilient collectives under injected faults;
          --crash-rate switches to the crash-recovery gate: seeded rank
          crashes under the Shrink policy, survivor sums checked bit-exact
          (mpi) or error-bounded (ccoll/hz), nonzero exit on divergence";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => gen(rest),
        "compress" => compress(rest),
        "decompress" => decompress(rest),
        "info" => info(rest),
        "sum" => reduce(rest, hzdyn::ReduceOp::Sum),
        "diff" => reduce(rest, hzdyn::ReduceOp::Diff),
        "check" => check(rest),
        "sim" => sim(rest),
        "tune" => tune(rest),
        "chaos" => chaos(rest),
        "bench" => bench_cmd::bench(rest),
        "kernels" => kernels_cmd::kernels(rest),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Fetch the value following `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            let v = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
            return v.parse().map(Some).map_err(|_| format!("invalid value '{v}' for {name}"));
        }
    }
    Ok(None)
}

fn positional<'a>(args: &'a [String], idx: usize, what: &str) -> Result<&'a String, String> {
    let mut seen = 0;
    for a in args {
        if a.starts_with("--") {
            // skip the flag and its value
            continue;
        }
        if seen == idx {
            return Ok(a);
        }
        seen += 1;
    }
    Err(format!("missing {what}"))
}

/// Positional args ignoring `--flag value` pairs.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a);
    }
    out
}

fn gen(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let app = match pos.first().map(|s| s.as_str()) {
        Some("sim1") => App::SimSet1,
        Some("sim2") => App::SimSet2,
        Some("nyx") => App::Nyx,
        Some("cesm") => App::CesmAtm,
        Some("hurricane") => App::Hurricane,
        Some(other) => return Err(format!("unknown app '{other}'")),
        None => return Err("missing app".into()),
    };
    let out = pos.get(1).ok_or("missing output path")?;
    let mb: usize = flag(args, "--mb")?.unwrap_or(16);
    let seed: u64 = flag(args, "--seed")?.unwrap_or(0);
    let data = app.generate(mb * (1 << 20) / 4, seed);
    datasets::save_f32(Path::new(out), &data).map_err(|e| e.to_string())?;
    println!("wrote {out}: {} ({} MiB, seed {seed})", app.name(), mb);
    Ok(())
}

fn compress(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0, "input .f32")?;
    let output = positional(args, 1, "output .fzl")?;
    let abs: Option<f64> = flag(args, "--eb")?;
    let rel: Option<f64> = flag(args, "--rel")?;
    let eb = match (abs, rel) {
        (Some(_), Some(_)) => return Err("--eb and --rel are mutually exclusive".into()),
        (Some(e), None) => ErrorBound::Abs(e),
        (None, Some(e)) => ErrorBound::Rel(e),
        (None, None) => ErrorBound::Abs(1e-4),
    };
    let threads: usize = flag(args, "--threads")?
        .unwrap_or_else(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1));
    let block: usize = flag(args, "--block")?.unwrap_or(fzlight::DEFAULT_BLOCK_LEN);
    let data = datasets::load_f32(Path::new(input)).map_err(|e| e.to_string())?;
    let cfg = Config::new(eb).with_threads(threads).with_block_len(block);
    let t0 = std::time::Instant::now();
    let stream = fzlight::compress(&data, &cfg).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    std::fs::write(output, stream.as_bytes()).map_err(|e| e.to_string())?;
    println!(
        "{input} -> {output}: {} -> {} bytes (ratio {:.2}) in {:.3}s ({:.2} GB/s)",
        data.len() * 4,
        stream.compressed_size(),
        stream.ratio(),
        dt,
        (data.len() * 4) as f64 / dt / 1e9
    );
    Ok(())
}

fn decompress(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0, "input .fzl")?;
    let output = positional(args, 1, "output .f32")?;
    let stream = load_stream(input)?;
    let t0 = std::time::Instant::now();
    let data = fzlight::decompress(&stream).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    datasets::save_f32(Path::new(output), &data).map_err(|e| e.to_string())?;
    println!(
        "{input} -> {output}: {} values in {:.3}s ({:.2} GB/s)",
        data.len(),
        dt,
        (data.len() * 4) as f64 / dt / 1e9
    );
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0, "input .fzl")?;
    let stream = load_stream(input)?;
    let h = stream.header();
    println!("{input}:");
    println!(
        "  n = {} f32 ({} bytes raw), abs eb = {:e}, block_len = {}, chunks = {}",
        h.n,
        h.n * 4,
        h.eb,
        h.block_len,
        h.nchunks
    );
    let stats = StreamStats::inspect(&stream).map_err(|e| e.to_string())?;
    println!("  {stats}");
    Ok(())
}

fn reduce(args: &[String], op: hzdyn::ReduceOp) -> Result<(), String> {
    let a = positional(args, 0, "first .fzl")?;
    let b = positional(args, 1, "second .fzl")?;
    let out = positional(args, 2, "output .fzl")?;
    let sa = load_stream(a)?;
    let sb = load_stream(b)?;
    let t0 = std::time::Instant::now();
    let result = hzdyn::homomorphic_op(&sa, &sb, op).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    std::fs::write(out, result.as_bytes()).map_err(|e| e.to_string())?;
    println!(
        "{a} {op:?} {b} -> {out} ({} bytes, ratio {:.2}) in {:.3}s — no decompression performed",
        result.compressed_size(),
        result.ratio(),
        dt
    );
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let original = positional(args, 0, "original .f32")?;
    let compressed = positional(args, 1, "stream .fzl")?;
    let data = datasets::load_f32(Path::new(original)).map_err(|e| e.to_string())?;
    let stream = load_stream(compressed)?;
    let restored = fzlight::decompress(&stream).map_err(|e| e.to_string())?;
    if restored.len() != data.len() {
        return Err(format!("length mismatch: {} vs {}", data.len(), restored.len()));
    }
    let q = Quality::compare(&data, &restored);
    let eb = stream.eb();
    let ulp = q.max.abs().max(q.min.abs()) * f32::EPSILON as f64;
    println!(
        "max abs err {:.3e} (bound {eb:.3e}), NRMSE {:.3e}, PSNR {:.2} dB",
        q.max_abs_err, q.nrmse, q.psnr
    );
    if q.max_abs_err <= eb + ulp {
        println!("WITHIN BOUND");
        Ok(())
    } else {
        Err("ERROR BOUND VIOLATED".into())
    }
}

fn load_stream(path: &str) -> Result<CompressedStream, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    CompressedStream::from_bytes(bytes).map_err(|e| format!("{path}: {e}"))
}

/// Presence of a boolean `--flag` (no value).
fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// How `hzc sim` interprets `--variant`: the three static flavours, the
/// recursive-doubling hZCCL allreduce, or the tuner-driven auto front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimVariant {
    Static(hzccl::Variant),
    Rd,
    Auto,
}

impl SimVariant {
    fn parse(name: &str) -> Result<SimVariant, String> {
        Ok(match name {
            "rd" => SimVariant::Rd,
            "auto" => SimVariant::Auto,
            other => SimVariant::Static(
                hzccl::Variant::parse(other)
                    .filter(|v| *v != hzccl::Variant::Auto)
                    .ok_or_else(|| format!("unknown variant '{other}' (hz|ccoll|mpi|rd|auto)"))?,
            ),
        })
    }

    fn label(self) -> &'static str {
        match self {
            SimVariant::Static(v) => v.name(),
            SimVariant::Rd => "rd",
            SimVariant::Auto => "auto",
        }
    }

    /// Which variant's paper throughput table times the run.
    fn timing_variant(self) -> hzccl::Variant {
        match self {
            SimVariant::Static(v) => v,
            // rd is the hZCCL recursive-doubling kernel; auto may dispatch
            // anywhere but its headline path is hZCCL, so both borrow the
            // hz table.
            SimVariant::Rd | SimVariant::Auto => hzccl::Variant::Hzccl,
        }
    }
}

fn parse_app(name: &str) -> Result<App, String> {
    Ok(match name {
        "sim1" => App::SimSet1,
        "sim2" => App::SimSet2,
        "nyx" => App::Nyx,
        "cesm" => App::CesmAtm,
        "hurricane" => App::Hurricane,
        other => return Err(format!("unknown app '{other}'")),
    })
}

/// `hzc sim`: run one collective on the virtual cluster with the flight
/// recorder on, then print the paper-style cost breakdown, an ASCII
/// timeline, and (optionally) Prometheus-style metrics; `--trace` writes a
/// Chrome/Perfetto trace-event JSON file. With `--variant auto`, one rank
/// consults the tuner (optionally persisted via `--cache`) and the chosen
/// plan plus the engine's full ranking are printed.
fn sim(args: &[String]) -> Result<(), String> {
    use hzccl::{CollectiveConfig, Mode};
    use netsim::{trace, ComputeTiming, SimBuilder, TraceConfig};

    let op = args.first().map(|s| s.as_str()).ok_or("missing collective op")?;
    if !matches!(op, "allreduce" | "reduce_scatter" | "reduce" | "bcast") {
        return Err(format!("unknown collective '{op}'"));
    }
    let rest = &args[1..];
    // A two-tier fabric: ranks are placed block-wise on nodes, intra-node
    // links use the fast paper calibration, inter-node links the default
    // one (optionally oversubscribed). Fixes the rank count to nodes*ppn.
    let topology = match flag::<String>(rest, "--topology")? {
        Some(spec) => Some(netsim::Topology::parse(&spec)?),
        None => None,
    };
    let ranks = match (topology, flag::<usize>(rest, "--ranks")?) {
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
    let mb: usize = flag(rest, "--mb")?.unwrap_or(4);
    let kb: Option<usize> = flag(rest, "--kb")?;
    let variant = SimVariant::parse(flag::<String>(rest, "--variant")?.as_deref().unwrap_or("hz"))?;
    if variant == SimVariant::Rd && op != "allreduce" {
        return Err(format!("variant 'rd' implements allreduce only, not '{op}'"));
    }
    let eb: f64 = flag(rest, "--eb")?.unwrap_or(1e-4);
    let threads: usize = flag(rest, "--threads")?.unwrap_or(1);
    let mode = if threads > 1 { Mode::MultiThread(threads) } else { Mode::SingleThread };
    // pipeline segment count for the static ring flavours; auto lets the
    // tuner's plan decide
    let segments: usize = flag(rest, "--segments")?.unwrap_or(1);
    if segments == 0 {
        return Err("--segments must be at least 1".into());
    }
    let app = parse_app(flag::<String>(rest, "--app")?.as_deref().unwrap_or("sim2"))?;
    let seed: u64 = flag(rest, "--seed")?.unwrap_or(0);
    let cache_path: Option<String> = flag(rest, "--cache")?;
    let trace_out: Option<String> = flag(rest, "--trace")?;
    let want_metrics = has_flag(rest, "--metrics");
    let want_critpath = has_flag(rest, "--critical-path");
    let want_slack = has_flag(rest, "--slack");
    let width: usize = flag(rest, "--width")?.unwrap_or(100);

    // The tuner engine for --variant auto: loaded from --cache when the file
    // exists, else seeded from the paper calibration.
    let engine = match &cache_path {
        Some(p) if Path::new(p).exists() => tuner::Engine::load(Path::new(p))?,
        _ => tuner::Engine::paper(),
    };

    // Per-rank fields: one base field, slightly rescaled per rank (same
    // compressibility profile, distinct values).
    let elems = kb.map(|k| (k << 10) / 4).unwrap_or(mb * (1 << 20) / 4).max(ranks);
    let base = app.generate(elems, seed);
    let fields: Vec<Vec<f32>> = (0..ranks)
        .map(|r| {
            let k = 1.0 + 0.001 * r as f32;
            base.iter().map(|&v| v * k).collect()
        })
        .collect();

    let cfg = CollectiveConfig::new(eb, mode);
    let timing = ComputeTiming::Modeled(hzccl::paper_model(variant.timing_variant(), mode));
    let net = netsim::NetConfig::default();
    let mut cluster = SimBuilder::new(ranks).net(net).timing(timing).trace(TraceConfig::default());
    if let Some(t) = topology {
        cluster = cluster.topology(t);
    }
    let report = cluster
        .run(|comm| {
            let data = &fields[comm.rank()];
            match variant {
                SimVariant::Auto => {
                    let tuner_op = tuner::Op::parse(op).expect("op validated above");
                    return run_auto(comm, tuner_op, data, &cfg, &engine, topology.as_ref());
                }
                SimVariant::Rd => {
                    hzccl::rd::allreduce_rd_hz(comm, data, &cfg).expect("rd allreduce");
                }
                SimVariant::Static(v) => {
                    let mut opts = hzccl::collectives::CollectiveOpts::for_variant(v, eb)
                        .with_mode(mode)
                        .with_segments(segments);
                    if let Some(t) = topology {
                        opts = opts.with_topology(t);
                    }
                    match op {
                        "allreduce" => {
                            hzccl::collectives::allreduce(comm, data, &opts).expect("allreduce");
                        }
                        "reduce_scatter" => {
                            hzccl::collectives::reduce_scatter(comm, data, &opts)
                                .expect("reduce_scatter");
                        }
                        "reduce" => {
                            hzccl::collectives::reduce(comm, data, &opts).expect("reduce");
                        }
                        "bcast" => {
                            hzccl::collectives::bcast(comm, data, &opts).expect("bcast");
                        }
                        _ => unreachable!("op validated above"),
                    }
                }
            }
            None
        })
        .expect_clean();
    let outcomes = &report.outcomes;

    // --- breakdown table ---------------------------------------------------
    let total = report.stats.total;
    let makespan = report.stats.makespan;
    let field_desc = match kb {
        Some(k) => format!("{k} KiB/rank"),
        None => format!("{mb} MiB/rank"),
    };
    println!(
        "sim {op}: variant={} ranks={ranks} field={field_desc} eb={eb:e} mode={mode:?} segments={segments}",
        variant.label()
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
    let auto_detail = outcomes[0].value.clone();
    if let Some((spec, decision)) = &auto_detail {
        println!();
        println!("auto plan: {} (source: {})", decision.plan.label(), decision.source.name());
        println!("why: {}", decision.why);
        println!("ranked predictions for bucket {}:", spec.bucket_key());
        for p in &decision.ranked {
            let marker = if p.plan == decision.plan { "->" } else { "  " };
            println!("  {marker} {:<16} {:>12.6} s", p.plan.label(), p.secs);
        }
        if let Some(p) = &cache_path {
            let mut engine = engine.clone();
            engine.observe_run(spec, &decision.plan, &report);
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
    let mut registry = netsim::Registry::new();
    registry.record_report(&report);
    let traces = &report.traces;
    println!();
    println!("{}", trace::ascii_timeline(traces, width));

    // --- causal critical-path analysis --------------------------------------
    let critpath = (want_critpath || want_slack)
        .then(|| netsim::CriticalPath::analyze_with_topology(traces, &net, topology.as_ref()));
    if let Some(cp) = critpath.as_ref().filter(|_| want_critpath) {
        print_critical_path(cp, makespan);
    }
    if let Some(cp) = critpath.as_ref().filter(|_| want_slack) {
        print_slack(cp, traces);
    }

    if want_metrics {
        println!(
            "{}",
            registry.render_histogram_ascii(
                "hz_step_compression_ratio",
                "per-step achieved compression ratio",
            )
        );
        println!("{}", registry.render_prometheus());
    }

    if let Some(path) = trace_out {
        let json = trace::chrome_trace_with(traces, critpath.as_ref());
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "wrote Chrome trace to {path} (load in Perfetto / chrome://tracing{})",
            if critpath.is_some() { "; includes the critical-path overlay" } else { "" }
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

/// Run one auto collective on a rank and return the decider's detail.
fn run_auto(
    comm: &mut netsim::Comm,
    op: tuner::Op,
    data: &[f32],
    cfg: &hzccl::CollectiveConfig,
    engine: &tuner::Engine,
    topology: Option<&netsim::Topology>,
) -> Option<(tuner::ScenarioSpec, tuner::Decision)> {
    match op {
        tuner::Op::Allreduce => {
            hzccl::auto::allreduce(comm, data, cfg, engine, topology)
                .expect("auto allreduce")
                .detail
        }
        tuner::Op::ReduceScatter => {
            hzccl::auto::reduce_scatter(comm, data, cfg, engine).expect("auto rs").detail
        }
        tuner::Op::Reduce => {
            hzccl::auto::reduce(comm, data, 0, cfg, engine).expect("auto reduce").detail
        }
        tuner::Op::Bcast => {
            let full = if comm.rank() == 0 { data } else { &[] };
            hzccl::auto::bcast(comm, full, 0, data.len(), cfg, engine).expect("auto bcast").detail
        }
    }
}

/// Parse a comma-separated list of positive integers.
/// `hzc chaos`: soak the resilient collectives under injected faults. For
/// every drop rate × variant × op the sweep runs a fault-free baseline on
/// the stock (unframed) path, then the same collective under a seeded
/// [`netsim::FaultPlan`] with the resilient transport enabled, and checks the
/// results agree — bit-for-bit for `mpi` (retransmission is exact on raw
/// floats), within the compression error budget for `ccoll`/`hz` (a
/// degraded segment may re-quantize once). Retransmit/timeout/degraded
/// counters come from the flight recorder; exits nonzero if any run
/// diverges or if faults were injected but the transport never retried.
fn chaos(args: &[String]) -> Result<(), String> {
    use hzccl::{CollectiveOpts, Mode, Resilience, Variant};
    use netsim::{ComputeTiming, FaultPlan, SimBuilder, TraceConfig};

    let seed: u64 = flag(args, "--seed")?.unwrap_or(7);
    let ranks: usize = flag(args, "--ranks")?.unwrap_or(8);
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let kb: usize = flag(args, "--kb")?.unwrap_or(64);
    let eb: f64 = flag(args, "--eb")?.unwrap_or(1e-4);
    let drops = parse_f64_list(
        flag::<String>(args, "--drop")?.as_deref().unwrap_or("0.01,0.05"),
        "--drop",
    )?;
    let corrupt: f64 = flag(args, "--corrupt")?.unwrap_or(0.01);
    let jitter: f64 = flag(args, "--jitter")?.unwrap_or(0.0);
    let app = parse_app(flag::<String>(args, "--app")?.as_deref().unwrap_or("sim2"))?;
    let crash_rates = match flag::<String>(args, "--crash-rate")? {
        Some(s) => parse_f64_list(&s, "--crash-rate")?,
        None => Vec::new(),
    };

    let elems = ((kb << 10) / 4).max(ranks);
    let base = app.generate(elems, seed);
    let fields: Vec<Vec<f32>> = (0..ranks)
        .map(|r| {
            let k = 1.0 + 0.001 * r as f32;
            base.iter().map(|&v| v * k).collect()
        })
        .collect();

    if !crash_rates.is_empty() {
        // crash recovery is a different fault class (whole ranks die, the
        // membership shrinks) with its own oracle, so it replaces the
        // message-level drop/corrupt soak for this invocation
        return chaos_crash(seed, ranks, eb, &fields, &crash_rates);
    }

    let variants = [("mpi", Variant::Mpi), ("ccoll", Variant::CColl), ("hz", Variant::Hzccl)];
    let ops = ["allreduce", "reduce_scatter"];
    println!(
        "chaos soak: ranks={ranks} field={kb} KiB/rank eb={eb:e} seed={seed} corrupt={corrupt} jitter={jitter}"
    );
    println!(
        "{:<6} {:<15} {:<8} {:>10} {:>9} {:>9} {:>7} {:>12} {:>10}",
        "drop", "op", "variant", "retrans", "timeouts", "degraded", "faults", "makespan", "max_err"
    );

    let mut failures: Vec<String> = Vec::new();
    let mut total_retrans = 0u64;
    let mut any_fault_rate = false;
    for &drop in &drops {
        any_fault_rate |= drop > 0.0 || corrupt > 0.0;
        for (vname, variant) in variants {
            let mode = Mode::SingleThread;
            let timing = ComputeTiming::Modeled(hzccl::paper_model(variant, mode));
            for op in ops {
                let opts = CollectiveOpts::for_variant(variant, eb).with_mode(mode);
                let run_one = |cluster: &SimBuilder, opts: &CollectiveOpts| {
                    cluster
                        .run(|comm| {
                            let data = &fields[comm.rank()];
                            match op {
                                "allreduce" => hzccl::collectives::allreduce(comm, data, opts)
                                    .expect("allreduce"),
                                _ => hzccl::collectives::reduce_scatter(comm, data, opts)
                                    .expect("reduce_scatter"),
                            }
                        })
                        .expect_clean()
                };
                // fault-free baseline on the stock (unframed) path
                let baseline = run_one(&SimBuilder::new(ranks).timing(timing), &opts);
                let plan =
                    FaultPlan::new(seed).with_drop(drop).with_corrupt(corrupt).with_jitter(jitter);
                let cluster = SimBuilder::new(ranks)
                    .timing(timing)
                    .trace(TraceConfig::default())
                    .faults(plan);
                let faulty =
                    run_one(&cluster, &opts.clone().with_resilience(Resilience::default()));

                let makespan = faulty.stats.makespan;
                let mut max_err = 0f64;
                for (b, f) in baseline.outcomes.iter().zip(&faulty.outcomes) {
                    for (x, y) in b.value.iter().zip(&f.value) {
                        max_err = max_err.max((x - y).abs() as f64);
                    }
                }
                // mpi retransmits raw floats verbatim; the compressed
                // flavours may re-quantize each degraded segment once
                let tol = if vname == "mpi" { 0.0 } else { (2.0 * ranks as f64 + 2.0) * eb };
                let mut registry = netsim::Registry::new();
                registry.record_report(&faulty);
                let retrans = registry.counter("hz_retransmits_total").unwrap_or(0);
                let timeouts = registry.counter("hz_timeouts_total").unwrap_or(0);
                let degraded = registry.counter("hz_degraded_segments_total").unwrap_or(0);
                let faults: u64 = ["drop", "corrupt", "jitter"]
                    .iter()
                    .filter_map(|k| {
                        registry.counter(&format!("hz_faults_injected_total{{kind=\"{k}\"}}"))
                    })
                    .sum();
                total_retrans += retrans;
                let ok = max_err <= tol;
                println!(
                    "{:<6} {:<15} {:<8} {:>10} {:>9} {:>9} {:>7} {:>12.6} {:>10.3e}{}",
                    drop,
                    op,
                    vname,
                    retrans,
                    timeouts,
                    degraded,
                    faults,
                    makespan,
                    max_err,
                    if ok { "" } else { "  DIVERGED" }
                );
                if !ok {
                    failures.push(format!(
                        "{op}/{vname} drop={drop}: max_err {max_err:e} exceeds tol {tol:e}"
                    ));
                }
            }
        }
    }
    if any_fault_rate && total_retrans == 0 {
        failures
            .push("faults were injected but the resilient transport never retransmitted".into());
    }
    if failures.is_empty() {
        println!("chaos soak passed ({} retransmits across the sweep)", total_retrans);
        Ok(())
    } else {
        Err(format!("chaos soak failed:\n  {}", failures.join("\n  ")))
    }
}

/// `hzc chaos --crash-rate`: the crash-recovery gate. For every rate the
/// sweep derives a deterministic victim set (1–3 ranks, always leaving a
/// survivor), runs a Shrink-policy recoverable allreduce per flavour under
/// the seeded crash plan, and gates on survivor-sum correctness: `mpi`
/// must reproduce the survivable ring's reduction order bit-for-bit, the
/// compressed flavours must agree bitwise across survivors and stay within
/// `(2m+2)·eb` of the exact f64 survivor sum. Recovery observability
/// (`hz_recoveries_total`, `hz_epochs`, `hz_survivors`) is read back from
/// the flight recorder; any divergence exits nonzero. Hangs are the CI
/// wrapper's job (`timeout` around the invocation).
fn chaos_crash(
    seed: u64,
    ranks: usize,
    eb: f64,
    fields: &[Vec<f32>],
    rates: &[f64],
) -> Result<(), String> {
    use hzccl::collectives::{allreduce_recoverable, RecoveryPolicy};
    use hzccl::{CollectiveOpts, Mode, Variant};
    use netsim::{ComputeTiming, FaultPlan, Registry, SimBuilder, TraceConfig};

    if ranks < 2 {
        return Err("--crash-rate needs at least 2 ranks (someone must survive)".into());
    }
    let n = fields[0].len();
    let variants = [("mpi", Variant::Mpi), ("ccoll", Variant::CColl), ("hz", Variant::Hzccl)];
    // the seeded deaths are the point of the exercise: keep their panic
    // reports off stderr so the table stays readable, and delegate anything
    // unexpected to the stock hook (the process exits right after the sweep,
    // so the hook is not restored)
    let stock_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !(msg.contains("crashed by fault plan") || msg.contains("observed crash of rank")) {
            stock_hook(info);
        }
    }));
    println!("crash-recovery gate: ranks={ranks} elems={n} eb={eb:e} seed={seed} policy=shrink");
    println!(
        "{:<6} {:<8} {:<14} {:>6} {:>11} {:>10} {:>11}",
        "rate", "variant", "crashed", "epoch", "recoveries", "survivors", "max_err"
    );

    let mut failures: Vec<String> = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--crash-rate entries must lie in [0, 1], got {rate}"));
        }
        // deterministic victim set: rate scales the crash count, capped at
        // three deaths and never the whole communicator
        let want = ((rate * ranks as f64).ceil() as usize).clamp(1, 3.min(ranks - 1));
        let mut dead: Vec<usize> = Vec::new();
        let mut ctr = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ri as u64 + 1);
        while dead.len() < want {
            ctr = ctr.wrapping_add(1);
            let r = (netsim::splitmix64(ctr) % ranks as u64) as usize;
            if !dead.contains(&r) {
                dead.push(r);
            }
        }
        dead.sort_unstable();
        let mut plan = FaultPlan::new(seed);
        // a rank makes 2(ranks-1) data-plane sends per attempt; keep the
        // seeded step below that so every victim dies in the first attempt
        // even on tiny communicators
        let max_step = (2 * (ranks as u64 - 1) - 1).clamp(1, 6);
        for (i, &r) in dead.iter().enumerate() {
            plan = plan.with_crash(r, 1 + netsim::splitmix64(ctr ^ (i as u64 + 0x51)) % max_step);
        }
        let survivors: Vec<usize> = (0..ranks).filter(|r| !dead.contains(r)).collect();
        let m = survivors.len();
        let oracle = crash_survivor_sum(fields, &survivors);
        let exact = crash_mpi_expected(fields, &survivors);
        for (vname, variant) in variants {
            let mode = Mode::SingleThread;
            let timing = ComputeTiming::Modeled(hzccl::paper_model(variant, mode));
            let opts = CollectiveOpts::for_variant(variant, eb)
                .with_mode(mode)
                .with_recovery(RecoveryPolicy::Shrink);
            let report = SimBuilder::new(ranks)
                .timing(timing)
                .trace(TraceConfig::default())
                .faults(plan.clone())
                .run(|comm| {
                    let data = &fields[comm.rank()];
                    allreduce_recoverable(comm, data, &opts).expect("recoverable allreduce")
                });
            let mut errs: Vec<String> = Vec::new();
            for &r in &dead {
                match report.panic_of(r) {
                    Some(p) if p.message.contains("crashed by fault plan") => {}
                    Some(p) => {
                        errs.push(format!("rank {r} died for the wrong reason: {}", p.message))
                    }
                    None => errs.push(format!("seeded victim {r} never crashed")),
                }
            }
            let first = report.value(survivors[0]);
            let mut max_err = 0f64;
            for &r in &survivors {
                let got = report.value(r);
                if got.contributors != survivors {
                    errs.push(format!(
                        "rank {r}: contributors {:?} != survivors",
                        got.contributors
                    ));
                }
                if got.epoch < 1 || got.epoch as usize > dead.len() {
                    errs.push(format!("rank {r}: epoch {} outside 1..={}", got.epoch, dead.len()));
                }
                if got.epoch != first.epoch {
                    errs.push(format!(
                        "rank {r}: epoch {} disagrees with {}",
                        got.epoch, first.epoch
                    ));
                }
                if vname == "mpi" {
                    if got.value != exact {
                        errs.push(format!("rank {r}: mpi survivor sum not bit-exact"));
                    }
                } else if got.value != first.value {
                    errs.push(format!("rank {r}: compressed survivors disagree bitwise"));
                }
                // mpi is gated against the replicated reduction order (bit
                // exact); the compressed flavours against the f64 oracle
                if vname == "mpi" {
                    for (a, b) in got.value.iter().zip(&exact) {
                        max_err = max_err.max((f64::from(*a) - f64::from(*b)).abs());
                    }
                } else {
                    for (a, b) in got.value.iter().zip(&oracle) {
                        max_err = max_err.max((f64::from(*a) - b).abs());
                    }
                }
            }
            let tol =
                if vname == "mpi" { 0.0 } else { hzccl::error_bounds::shrink_allreduce(m, eb) };
            if max_err > tol {
                errs.push(format!("max_err {max_err:e} exceeds tol {tol:e}"));
            }
            let mut registry = Registry::new();
            registry.record_report(&report);
            let recoveries = registry.counter("hz_recoveries_total").unwrap_or(0);
            let epoch_gauge = registry.gauge("hz_epochs").unwrap_or(0.0);
            let surv_gauge = registry.gauge("hz_survivors").unwrap_or(0.0);
            if recoveries == 0 {
                errs.push("no recovery counted despite seeded crashes".into());
            }
            if surv_gauge != m as f64 {
                errs.push(format!("hz_survivors gauge {surv_gauge} != {m}"));
            }
            println!(
                "{:<6} {:<8} {:<14} {:>6} {:>11} {:>10} {:>11.3e}{}",
                rate,
                vname,
                format!("{dead:?}"),
                epoch_gauge,
                recoveries,
                surv_gauge,
                max_err,
                if errs.is_empty() { "" } else { "  DIVERGED" }
            );
            failures.extend(errs.into_iter().map(|e| format!("{vname} rate={rate}: {e}")));
        }
    }
    if failures.is_empty() {
        println!("crash-recovery gate passed");
        Ok(())
    } else {
        Err(format!("crash-recovery gate failed:\n  {}", failures.join("\n  ")))
    }
}

/// Exact f64 survivor sum — the accuracy oracle for the compressed flavours.
fn crash_survivor_sum(fields: &[Vec<f32>], survivors: &[usize]) -> Vec<f64> {
    let mut acc = vec![0f64; fields[0].len()];
    for &r in survivors {
        for (a, &b) in acc.iter_mut().zip(&fields[r]) {
            *a += f64::from(b);
        }
    }
    acc
}

/// Replicate the survivable mpi ring's reduction order: the accumulator of
/// segment group `g` originates at virtual rank `(g+1) % m` and folds one
/// member per hop until the owner adds its own share last. f32 addition is
/// bitwise commutative, so this left fold is the bit-exact expectation.
fn crash_mpi_expected(fields: &[Vec<f32>], survivors: &[usize]) -> Vec<f32> {
    let n0 = fields.len();
    let n = fields[0].len();
    let m = survivors.len();
    let ranges = hzccl::chunks::node_chunks(n, n0);
    let groups = hzccl::chunks::node_chunks(n0, m);
    let mut out = vec![0f32; n];
    for (g, segs) in groups.iter().enumerate() {
        for seg in segs.clone() {
            for i in ranges[seg].clone() {
                let mut acc = fields[survivors[(g + 1) % m]][i];
                for k in 2..=m {
                    acc += fields[survivors[(g + k) % m]][i];
                }
                out[i] = acc;
            }
        }
    }
    out
}

/// Comma-separated f64 list, e.g. `0.01,0.05`.
fn parse_f64_list(s: &str, what: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|t| t.trim().parse::<f64>().map_err(|_| format!("invalid value '{t}' in {what}")))
        .collect()
}

fn parse_list(s: &str, what: &str) -> Result<Vec<usize>, String> {
    let out: Vec<usize> = s
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| t.trim().parse::<usize>().map_err(|_| format!("invalid {what} entry '{t}'")))
        .collect::<Result<_, _>>()?;
    if out.is_empty() {
        return Err(format!("empty {what} list"));
    }
    if out.contains(&0) {
        return Err(format!("{what} entries must be positive"));
    }
    Ok(out)
}

/// Run one static plan over the simulated cluster (used by `hzc tune`).
fn run_tune_plan(
    comm: &mut netsim::Comm,
    op: tuner::Op,
    plan: &tuner::Plan,
    data: &[f32],
    eb: f64,
) {
    use hzccl::collectives::{self, CollectiveOpts};
    use tuner::{Algo, Flavor, ThreadMode};
    let mode = match plan.mode {
        ThreadMode::St => hzccl::Mode::SingleThread,
        ThreadMode::Mt(k) => hzccl::Mode::MultiThread(k),
    };
    // Recursive doubling stays on its dedicated entry points; everything
    // else routes through the unified collectives front-end so the plan's
    // segment count is honoured.
    match (op, plan.flavor, plan.algo) {
        (tuner::Op::Allreduce, Flavor::Mpi, Algo::Rd) => {
            hzccl::rd::allreduce_rd(comm, data, mode.threads());
            return;
        }
        (tuner::Op::Allreduce, Flavor::Hzccl, Algo::Rd) => {
            let cfg = hzccl::CollectiveConfig { eb, block_len: plan.block_len, mode, res: None };
            hzccl::rd::allreduce_rd_hz(comm, data, &cfg).expect("tune hz rd");
            return;
        }
        _ => {}
    }
    let variant = match plan.flavor {
        Flavor::Mpi => hzccl::Variant::Mpi,
        Flavor::CColl => hzccl::Variant::CColl,
        Flavor::Hzccl => hzccl::Variant::Hzccl,
    };
    let opts = CollectiveOpts::for_variant(variant, eb)
        .with_mode(mode)
        .with_block_len(plan.block_len)
        .with_segments(plan.segments);
    match op {
        tuner::Op::Allreduce => {
            collectives::allreduce(comm, data, &opts).expect("tune allreduce");
        }
        tuner::Op::ReduceScatter => {
            collectives::reduce_scatter(comm, data, &opts).expect("tune reduce_scatter");
        }
        tuner::Op::Reduce => {
            collectives::reduce(comm, data, &opts).expect("tune reduce");
        }
        tuner::Op::Bcast => {
            collectives::bcast(comm, data, &opts).expect("tune bcast");
        }
    }
}

/// `hzc tune`: offline sweep. For every `(op, rank count, size)` scenario,
/// measure every candidate static plan on the virtual cluster, feed each
/// run's flight-recorder traces to the calibration loop, record winners in
/// the tuning cache, and persist the engine state to `--out` — ready for
/// `hzc sim --variant auto --cache <out>`.
fn tune(args: &[String]) -> Result<(), String> {
    use netsim::{ComputeTiming, SimBuilder, TraceConfig};

    let ops: Vec<tuner::Op> = flag::<String>(args, "--ops")?
        .unwrap_or_else(|| "allreduce".into())
        .split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| tuner::Op::parse(t.trim()).ok_or_else(|| format!("unknown op '{t}'")))
        .collect::<Result<_, _>>()?;
    if ops.is_empty() {
        return Err("empty --ops list".into());
    }
    let ranks_list =
        parse_list(flag::<String>(args, "--ranks")?.as_deref().unwrap_or("8"), "--ranks")?;
    let sizes_kb = parse_list(
        flag::<String>(args, "--sizes-kb")?.as_deref().unwrap_or("16,256,1024"),
        "--sizes-kb",
    )?;
    let eb: f64 = flag(args, "--eb")?.unwrap_or(1e-4);
    let app = parse_app(flag::<String>(args, "--app")?.as_deref().unwrap_or("sim2"))?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(0);
    let out: String = flag(args, "--out")?.unwrap_or_else(|| "hz_tune.json".into());

    // Resume an existing state file, otherwise start from the paper prior.
    let mut engine = if Path::new(&out).exists() {
        tuner::Engine::load(Path::new(&out))?
    } else {
        tuner::Engine::paper()
    };

    println!(
        "tune: ops={:?} ranks={ranks_list:?} sizes_kb={sizes_kb:?} eb={eb:e} app={} -> {out}",
        ops.iter().map(|o| o.name()).collect::<Vec<_>>(),
        app.name(),
    );
    println!();
    println!(
        "{:<16} {:<26} {:<16} {:>12} {:>12}",
        "scenario", "bucket", "plan", "measured", "model"
    );

    for &op in &ops {
        for &nranks in &ranks_list {
            for &kb in &sizes_kb {
                let elems = (kb * 1024 / 4).max(1);
                let base = app.generate(elems, seed);
                let fields: Vec<Vec<f32>> = (0..nranks)
                    .map(|r| {
                        let k = 1.0 + 0.001 * r as f32;
                        base.iter().map(|&v| v * k).collect()
                    })
                    .collect();

                // Offline ratio probe per candidate block length.
                let sample = &base[..base.len().min(hzccl::auto::PROBE_ELEMS)];
                let ratios: Vec<(usize, f64)> = engine
                    .block_candidates
                    .iter()
                    .map(|&b| {
                        let fz = fzlight::Config::new(ErrorBound::Abs(eb)).with_block_len(b);
                        let ratio = fzlight::compress(sample, &fz)
                            .map(|s| (sample.len() * 4) as f64 / s.compressed_size().max(1) as f64)
                            .unwrap_or(1.0);
                        (b, ratio.max(1.0))
                    })
                    .collect();
                let spec = tuner::ScenarioSpec { op, elems, nranks, eb, ratios, topology: None };
                let scenario_label = format!("{}:{}r:{}K", op.name(), nranks, kb);

                for plan in engine.candidates(&spec) {
                    let timing = ComputeTiming::Modeled(engine.calib.model(plan.flavor, plan.mode));
                    let cluster = SimBuilder::new(nranks)
                        .net(netsim::NetConfig::default())
                        .timing(timing)
                        .trace(TraceConfig::default());
                    let report = cluster
                        .run(|comm| {
                            run_tune_plan(comm, op, &plan, &fields[comm.rank()], eb);
                        })
                        .expect_clean();
                    let model = engine.predict(&spec, &plan);
                    let measured = engine.observe_run(&spec, &plan, &report);
                    println!(
                        "{:<16} {:<26} {:<16} {:>10.6}s {:>10.6}s",
                        scenario_label,
                        spec.bucket_key(),
                        plan.label(),
                        measured,
                        model,
                    );
                }
            }
        }
    }

    engine.save(Path::new(&out)).map_err(|e| format!("{out}: {e}"))?;
    println!();
    println!(
        "saved tuner state to {out}: {} bucket(s), {} calibration run(s) absorbed",
        engine.cache.len(),
        engine.calib.samples,
    );
    for (key, e) in &engine.cache.entries {
        println!(
            "  {key}: {} at {:.6} s ({} sample(s))",
            e.plan.label(),
            e.measured_secs,
            e.samples
        );
    }
    Ok(())
}
