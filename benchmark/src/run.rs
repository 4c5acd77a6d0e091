//! One run of one workload: set-up, then either the timed loop
//! (end-to-end metrics, tracing off) or the traced pass (per-layer metrics).
//!
//! A closed loop with one client: one process, the event engine's single
//! host thread, codec `threads = 1`. On a two-core shared host that measures
//! the program, not the scheduler.

use crate::catalog::{self, Flavour};
use crate::codec::Codec;
use crate::report::{contract_line, MetricSet, Ops};
use crate::sim::Sim;
use crate::spans::{self, Recorder};
use crate::stats::{median, summarize, Summary};
use crate::workload::{OpSample, Scale, WarmUp, Workload};
use crate::{host, probes};
use netsim::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed ops a flavour gets even when one of them outlasts the window.
const MIN_REPS: usize = 2;

/// Arguments of `hzbench run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`catalog::WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer pass.
    pub trace: bool,
    /// Tiny inputs.
    pub smoke: bool,
    /// Seconds `cargo build` took, as `run.sh` measured them.
    pub build_s: f64,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
    /// Where to write the detailed result of this run, if anywhere.
    pub detail: Option<PathBuf>,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Checked operations and how many failed.
    pub ops: Ops,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: MetricSet,
    /// The detailed result: fingerprint, counts, every metric's spread.
    pub detail: Json,
}

/// Keep the expected "crashed by fault plan" panic of `mixed_schedules`'
/// recovery step off stderr; every other panic still reports.
pub fn silence_expected_crashes() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("crashed by fault plan") {
            hook(info);
        }
    }));
}

fn generate(
    workload: &str,
    scale: &Scale,
    seed: u64,
    deep: bool,
) -> Result<Box<dyn Workload>, String> {
    let sim = |mut s: Sim| -> Box<dyn Workload> {
        s.deep = deep;
        Box::new(s)
    };
    Ok(match workload {
        "codec" => Box::new(Codec::generate(scale, seed)),
        "ar_large" => sim(Sim::ar_large(scale, seed)),
        "ar_manyranks" => sim(Sim::ar_manyranks(scale, seed)),
        "mixed_schedules" => sim(Sim::mixed(scale, seed)),
        other => {
            return Err(format!("unknown workload {other:?}; one of {:?}", catalog::WORKLOADS))
        }
    })
}

/// An op passes when its output matched and its deterministic numbers are
/// the warm-up's, bit for bit.
fn op_ok(s: &OpSample, warm: &WarmUp) -> bool {
    let same_wire = s.wire.is_none() || s.wire == warm.sample.wire;
    s.ok && s.virtual_s == warm.sample.virtual_s && same_wire
}

/// The timed loop: always run next the flavour that has had the least time,
/// until no flavour can fit another op before the deadline.
fn timed_loop(
    wl: &mut dyn Workload,
    warm: &[WarmUp],
    seconds: f64,
    ops: &mut Ops,
) -> [Vec<OpSample>; 3] {
    let mut rec = Recorder::new(false);
    let mut samples: [Vec<OpSample>; 3] = Default::default();
    let mut spent = [0f64; 3];
    let mut last: Vec<f64> = warm.iter().map(|w| w.sample.parts.iter().sum()).collect();
    let mut active = [true; 3];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while let Some(i) = (0..3).filter(|&i| active[i]).min_by(|&a, &b| spent[a].total_cmp(&spent[b]))
    {
        let fits = Instant::now() + Duration::from_secs_f64(last[i]) <= deadline;
        if !fits && samples[i].len() >= MIN_REPS {
            active[i] = false;
            continue;
        }
        let s = wl.op(Flavour::ALL[i], &mut rec);
        ops.record(op_ok(&s, &warm[i]));
        last[i] = s.parts.iter().sum();
        spent[i] += last[i];
        samples[i].push(s);
    }
    samples
}

fn end_to_end(
    wl: &dyn Workload,
    warm: &[WarmUp],
    samples: &[Vec<OpSample>; 3],
    setup: Summary,
) -> (MetricSet, Json) {
    let mut m = MetricSet::new(catalog::end_to_end());
    m.set_summary("setup_s", setup);
    let mut parts_json = Vec::new();
    for (i, f) in Flavour::ALL.into_iter().enumerate() {
        let name = f.name();
        let totals: Vec<f64> =
            samples[i].iter().map(|s| s.parts.iter().sum::<f64>() * 1e3).collect();
        m.set_samples(&format!("{name}_op_ms"), &totals);
        m.set(&format!("{name}_virtual_ms"), warm[i].sample.virtual_s * 1e3);
        if f.compresses() {
            let (logical, wire) = warm[i].sample.wire.expect("the warm-up sees the wire");
            m.set(&format!("{name}_wire_ratio"), logical as f64 / wire as f64);
        }
        for (p, part) in wl.parts(f).iter().enumerate() {
            let ms = median(&samples[i].iter().map(|s| s.parts[p] * 1e3).collect::<Vec<_>>());
            println!("part {name}.{part} {ms} ms");
            parts_json.push((format!("{name}.{part}"), Json::Num(ms)));
        }
    }
    m.set("peak_rss_mb", host::peak_rss_mb());
    (m, Json::Obj(parts_json))
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let scale = if args.smoke { Scale::smoke() } else { Scale::full() };
    let mut ops = Ops::default();
    // before pinning, which makes `available_parallelism` read 1
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = host::pin_to_first_cpu();

    // set-up: the repeatable part (inputs and references) several times,
    // then the part a process pays once (first use of every code path)
    let mut generate_s = Vec::new();
    let mut built = None;
    for _ in 0..scale.setup_repeats {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(generate(&args.workload, &scale, args.seed, args.trace)?);
        generate_s.push(t0.elapsed().as_secs_f64());
    }
    let mut wl = built.expect("at least one set-up");
    let t0 = Instant::now();
    let warm: Vec<WarmUp> = Flavour::ALL.iter().map(|&f| wl.warm_up(f)).collect();
    let first_use_s = t0.elapsed().as_secs_f64();
    for w in &warm {
        ops.record(w.sample.ok);
    }
    let setup = summarize(&generate_s.iter().map(|g| g + first_use_s).collect::<Vec<_>>());
    println!("setup generate_s {} first_use_s {first_use_s}", median(&generate_s));

    let mut extra = Vec::new();
    let stream_gbps;
    let metrics = if args.trace {
        let mut rec = Recorder::new(true);
        let mut m = MetricSet::new(catalog::per_layer());
        stream_gbps = host::stream_peak_gbps(scale.stream_elems);
        m.set("streambench.peak_gbps", stream_gbps);
        m.set("harness.build_s", args.build_s);
        probes::run(&scale, args.seed, &mut m);
        if args.workload == "codec" {
            wl.layers(&mut rec, &mut m, &mut ops);
        } else {
            // the codec layers are measured on the codec workload's inputs
            // whichever workload is being traced
            let mut codec = Codec::generate(&scale, args.seed);
            for f in Flavour::ALL {
                ops.record(codec.warm_up(f).sample.ok);
            }
            codec.layers(&mut rec, &mut m, &mut ops);
            drop(codec);
            wl.layers(&mut rec, &mut m, &mut ops);
        }
        m.zero_unset();
        let path = args.out_dir.join(format!("trace.{}.json", args.workload));
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        std::fs::write(&path, spans::to_json(&args.workload, &rec.spans).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace {} spans -> {}", rec.spans.len(), path.display());
        m
    } else {
        let samples = timed_loop(wl.as_mut(), &warm, args.seconds, &mut ops);
        let (m, parts) = end_to_end(wl.as_ref(), &warm, &samples, setup);
        // only now, for the fingerprint: STREAM's three 64 MiB arrays must
        // not be what `peak_rss_mb` (read above) reports
        drop(wl);
        stream_gbps = host::stream_peak_gbps(scale.stream_elems);
        let reps =
            Flavour::ALL.iter().zip(&samples).map(|(f, s)| (f.name(), Json::Num(s.len() as f64)));
        extra.push(("reps", Json::obj(reps.collect())));
        extra.push(("parts_ms", parts));
        let slack =
            Flavour::ALL.iter().zip(&warm).map(|(f, w)| (f.name(), Json::Num(w.err_over_bound)));
        extra.push(("err_over_bound", Json::obj(slack.collect())));
        m
    };
    assert!(metrics.missing().is_empty(), "unset metrics: {:?}", metrics.missing());

    metrics.print(&args.workload);
    println!("{} ops_failed {} ops_attempted {}", args.workload, ops.failed, ops.attempted);
    let mut detail = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("seconds", Json::Num(args.seconds)),
        (
            "fingerprint",
            host::fingerprint(args.seed, nproc, pinned_cpu, stream_gbps, scale.stream_elems),
        ),
        ("ops_attempted", Json::Num(ops.attempted as f64)),
        ("ops_failed", Json::Num(ops.failed as f64)),
    ];
    detail.extend(extra);
    detail.push(("metrics", metrics.detail_json()));
    Ok(Outcome { ops, metrics, detail: Json::obj(detail) })
}

/// `hzbench run`: run, print, write the detail file, end with the
/// contract's line. Returns the process exit code.
pub fn run_and_report(args: &RunArgs) -> i32 {
    silence_expected_crashes();
    let outcome = match run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hzbench: {e}");
            return 2;
        }
    };
    if let Some(path) = &args.detail {
        if let Err(e) = std::fs::write(path, outcome.detail.render()) {
            eprintln!("hzbench: {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", contract_line(outcome.ops, &outcome.metrics));
    i32::from(outcome.ops.failed > 0)
}
