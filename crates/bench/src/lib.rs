//! Shared harness utilities for the table/figure benches.
//!
//! Every bench target honours the same environment knobs:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `HZ_SIZE_MB` | 16 | field size for compressor experiments |
//! | `HZ_RANKS` | 64 | rank count for fixed-node collective experiments |
//! | `HZ_MAX_RANKS` | 512 | cap for the scalability sweeps |
//! | `HZ_THREADS` | host cores | multi-thread mode thread count |
//! | `HZ_NODE_MSG_MB` | 8 | per-rank message of the scalability sweeps |
//! | `HZ_PAPER_MODEL` | off | use paper-calibrated throughputs instead of host calibration |
//! | `HZ_METRICS_OUT` | off | directory receiving a `BENCH_<name>.json` metrics snapshot; also enables flight-recorder tracing in [`run_collective`] |
//!
//! Collective benches always use [`netsim::ComputeTiming::Modeled`]: the
//! data path runs for real (ratios, pipeline mixes and correctness are
//! genuine), while per-kernel time comes from throughputs measured once on
//! this host without thread oversubscription — or from the paper's
//! calibration when `HZ_PAPER_MODEL=1`.

use hzccl::{CollectiveConfig, Mode, Variant};
use netsim::{ComputeTiming, NetConfig};
use std::time::Instant;

pub mod kernel_throughput;
mod kernels;
pub mod snapshot;
pub mod suite;

pub use kernels::Kernel;

/// Read a `usize` env knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read a boolean env knob (`1`, `true`, `yes`).
pub fn env_flag(name: &str) -> bool {
    matches!(
        std::env::var(name).unwrap_or_default().to_ascii_lowercase().as_str(),
        "1" | "true" | "yes"
    )
}

/// Field size (elements) for compressor experiments.
pub fn field_elems() -> usize {
    env_usize("HZ_SIZE_MB", 16) * (1 << 20) / 4
}

/// Rank count for fixed-node collective experiments.
pub fn ranks() -> usize {
    env_usize("HZ_RANKS", 64)
}

/// Thread count of the multi-thread mode.
pub fn mt_threads() -> usize {
    env_usize("HZ_THREADS", std::thread::available_parallelism().map(|t| t.get()).unwrap_or(2))
}

/// Per-rank message elements for the node-count sweeps.
pub fn node_msg_elems() -> usize {
    env_usize("HZ_NODE_MSG_MB", 8) * (1 << 20) / 4
}

/// The network model used by all collective benches (effective-goodput
/// calibration; see `netsim::NetConfig` docs).
pub fn net() -> NetConfig {
    NetConfig::default()
}

/// Compute-timing model for a collective variant: paper calibration when
/// `HZ_PAPER_MODEL=1`, otherwise throughputs measured on this host from the
/// real kernels over `sample`.
///
/// Host calibrations are memoized per `(variant, mode)` for the lifetime of
/// the bench process, so every point of a sweep is timed against the same
/// model (and the measurement cost is paid once).
pub fn timing_for(variant: Variant, mode: Mode, sample: &[f32], eb: f64) -> ComputeTiming {
    use std::collections::HashMap;
    use std::sync::Mutex;

    let cfg = CollectiveConfig::new(eb, mode);
    if env_flag("HZ_PAPER_MODEL") {
        return ComputeTiming::Modeled(hzccl::paper_model(variant, mode));
    }
    static CACHE: Mutex<Option<HashMap<(u8, usize), netsim::ThroughputModel>>> = Mutex::new(None);
    let key = (
        match variant {
            Variant::Mpi => 0u8,
            Variant::CColl => 1,
            Variant::Hzccl => 2,
            Variant::Auto => 3,
        },
        mode.threads(),
    );
    let mut guard = CACHE.lock().expect("calibration cache poisoned");
    let cache = guard.get_or_insert_with(HashMap::new);
    let model = *cache.entry(key).or_insert_with(|| match variant {
        Variant::CColl => hzccl::calibrate_doc(sample, &cfg),
        // MPI only exercises Cpt/Other; the hz calibration covers those.
        // Auto may dispatch to any flavour — time it against the hz table
        // (the conservative choice for its headline path).
        Variant::Mpi | Variant::Hzccl | Variant::Auto => hzccl::calibrate_hz(sample, &cfg),
    });
    ComputeTiming::Modeled(model)
}

/// Which collective a bench sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Ring `Reduce_scatter(sum)`.
    ReduceScatter,
    /// Ring `Allreduce(sum)`.
    Allreduce,
}

/// Derive per-rank input fields from one base field (each rank holds a
/// slightly rescaled copy — same compressibility profile, distinct values,
/// zero regions preserved).
pub fn scaled_rank_fields(base: &[f32], nranks: usize) -> Vec<Vec<f32>> {
    (0..nranks)
        .map(|r| {
            let k = 1.0 + 0.001 * r as f32;
            base.iter().map(|&v| v * k).collect()
        })
        .collect()
}

/// Cap the calibration sample so host calibration stays cheap.
fn calibration_sample(field: &[f32]) -> &[f32] {
    &field[..field.len().min(1 << 21)]
}

/// Run one collective kernel over a simulated cluster (modeled timing, real
/// data) and return `(makespan_seconds, aggregated_breakdown)`.
///
/// When `HZ_METRICS_OUT` names a directory, the cluster additionally runs
/// with the flight recorder enabled; per-rank traces are folded into a
/// process-global [`netsim::Registry`] and flushed to
/// `HZ_METRICS_OUT/BENCH_<name>.json` after every run (the file is
/// overwritten, so the last snapshot of a sweep accumulates everything).
pub fn run_collective(
    kernel: Kernel,
    op: CollOp,
    fields: &[Vec<f32>],
    eb: f64,
) -> (f64, netsim::Breakdown) {
    let nranks = fields.len();
    let mt = mt_threads();
    let mode = kernel.mode(mt).unwrap_or(Mode::SingleThread);
    let timing = timing_for(kernel.variant(), mode, calibration_sample(&fields[0]), eb);
    let mut cluster = netsim::SimBuilder::new(nranks).net(net()).timing(timing);
    if metrics_out_dir().is_some() {
        cluster = cluster.trace(netsim::TraceConfig::default());
    }
    let report = cluster
        .run(|comm| {
            let data = &fields[comm.rank()];
            match op {
                CollOp::Allreduce => {
                    kernel.allreduce(comm, data, eb, mt).expect("kernel allreduce");
                }
                CollOp::ReduceScatter => {
                    kernel.reduce_scatter(comm, data, eb, mt).expect("kernel reduce_scatter");
                }
            }
        })
        .expect_clean();
    record_metrics(&report);
    (report.stats.makespan, report.stats.total)
}

/// Ablation (DESIGN.md ablation 4): hZCCL Reduce_scatter followed by the
/// *unfused* C-Coll-style Allgather — decompress at the stage boundary,
/// recompress for gathering. Quantifies the fusion saving of Sec. III-C.2
/// against the fused `collectives::allreduce`.
pub fn allreduce_unfused(
    comm: &mut netsim::Comm,
    data: &[f32],
    eb: f64,
    mode: Mode,
) -> hzccl::collectives::Result<Vec<f32>> {
    use hzccl::collectives::{allgather, reduce_scatter, CollectiveOpts};
    let own = reduce_scatter(comm, data, &CollectiveOpts::hz(eb).with_mode(mode))?;
    allgather(comm, &own, data.len(), &CollectiveOpts::ccoll(eb).with_mode(mode))
}

/// Where metric snapshots go, if requested via `HZ_METRICS_OUT`.
fn metrics_out_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("HZ_METRICS_OUT").map(std::path::PathBuf::from)
}

/// The process-global metrics registry fed by [`run_collective`].
fn global_registry() -> &'static std::sync::Mutex<netsim::Registry> {
    use std::sync::{Mutex, OnceLock};
    static REGISTRY: OnceLock<Mutex<netsim::Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(netsim::Registry::new()))
}

/// Bench name for the metrics file: the executable stem with cargo's
/// trailing `-<hash>` disambiguator stripped.
fn bench_name() -> String {
    let exe = std::env::current_exe().ok();
    let stem =
        exe.as_deref().and_then(|p| p.file_stem()).and_then(|s| s.to_str()).unwrap_or("bench");
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem.to_string(),
    }
}

/// Fold one run's report into the global registry and (re)write the
/// `BENCH_<name>.json` snapshot. No-op unless `HZ_METRICS_OUT` is set.
pub fn record_metrics<R>(report: &netsim::RunReport<R>) {
    let Some(dir) = metrics_out_dir() else {
        return;
    };
    let mut guard = global_registry().lock().expect("metrics registry poisoned");
    guard.record_report(report);
    let path = dir.join(format!("BENCH_{}.json", bench_name()));
    let _ = std::fs::create_dir_all(&dir);
    if let Err(e) = std::fs::write(&path, guard.to_json().render()) {
        eprintln!("warning: could not write metrics snapshot {}: {e}", path.display());
    }
}

/// Best-of-`k` wall time of `f`, in seconds.
pub fn time_best(k: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..k.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// `bytes` processed in `secs`, as GB/s.
pub fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Minimal fixed-width table printer for bench output.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table and print its header row.
    pub fn new(columns: &[(&str, usize)]) -> Table {
        let widths: Vec<usize> = columns.iter().map(|c| c.1).collect();
        let header: Vec<String> = columns.iter().map(|(name, w)| format!("{name:<w$}")).collect();
        println!("{}", header.join(" | "));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1)));
        Table { widths }
    }

    /// Print one row; `cells` must match the header arity.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "row arity mismatch");
        let padded: Vec<String> =
            cells.iter().zip(&self.widths).map(|(c, w)| format!("{c:<w$}")).collect();
        println!("{}", padded.join(" | "));
    }
}

/// Print the standard bench banner.
pub fn banner(id: &str, what: &str) {
    println!();
    println!("=== {id}: {what} ===");
    println!(
        "(HZ_SIZE_MB={} HZ_RANKS={} HZ_THREADS={} HZ_PAPER_MODEL={})",
        env_usize("HZ_SIZE_MB", 16),
        ranks(),
        mt_threads(),
        env_flag("HZ_PAPER_MODEL") as u8
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("HZ_DOES_NOT_EXIST_XYZ", 7), 7);
        assert!(!env_flag("HZ_DOES_NOT_EXIST_XYZ"));
    }

    #[test]
    fn gbps_math() {
        assert!((gbps(2_000_000_000, 2.0) - 1.0).abs() < 1e-12);
    }

    /// The Sec. III-C.2 fusion saving: the unfused ablation pays one more
    /// decompress/recompress pair at the stage boundary — slower, and one
    /// more quantization of error.
    #[test]
    fn fused_allreduce_beats_the_unfused_ablation_and_agrees_within_the_bound() {
        use hzccl::collectives::{allreduce, CollectiveOpts};
        use netsim::{SimBuilder, ThroughputModel};
        let eb = 1e-3;
        let field = |rank: usize| -> Vec<f32> {
            (0..60_000).map(|i| ((i as f32) * 0.013).sin() * (rank + 1) as f32 * 1.7).collect()
        };
        let cluster = SimBuilder::new(6)
            .timing(ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0)));
        let fused = cluster
            .run(|comm| allreduce(comm, &field(comm.rank()), &CollectiveOpts::hz(eb)).unwrap())
            .expect_clean();
        let unfused = cluster
            .run(|comm| {
                allreduce_unfused(comm, &field(comm.rank()), eb, Mode::SingleThread).unwrap()
            })
            .expect_clean();
        assert!(fused.stats.makespan < unfused.stats.makespan);
        for (a, b) in fused.outcomes[0].value.iter().zip(&unfused.outcomes[0].value) {
            assert!(((a - b).abs() as f64) <= 2.0 * eb + 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn table_rejects_wrong_arity() {
        let t = Table::new(&[("a", 4), ("b", 4)]);
        t.row(&["x".into(), "y".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(&["only-one".into()]);
        }));
        assert!(r.is_err());
    }
}
