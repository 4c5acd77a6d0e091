//! The benchmark harness: one scenario runner ([`suite::run_case`]) under
//! every harness, the paper's collective figures as declarations
//! ([`figure`]) rendered over it, and its codec tables ([`codec_tables`]).
//! Both bench targets (`figures` renders any of them by name, `timed` prints
//! the codec speed ratios no other harness measures) read the same
//! environment knobs, each in one place ([`Knobs::from_env`]):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `HZ_SIZE_MB` | 16 | field size of the codec tables and `timed` (and FIG2's message) |
//! | `HZ_RANKS` | 64 | rank count of fixed-node collective figures (FIG7–9, FIG11, TAB7); FIG2, EXT1, EXT3, EXT4 and ABL4 default to 16, EXT2 and FIG13 to 32 |
//! | `HZ_MAX_RANKS` | 512 | cap of the node-count sweeps (FIG10, FIG12) |
//! | `HZ_THREADS` | host cores | multi-thread mode thread count; the codec tables' and `timed`'s compressor threads |
//! | `HZ_NODE_MSG_MB` | 8 | per-rank message of the node-count sweeps; the size sweeps (FIG7–9, FIG11) scale a base that defaults to 4, as do EXT1, EXT4 and ABL4 |
//! | `HZ_IMG_SIDE` | 1024 | stacked image side of TAB7; FIG13 defaults to 512 |
//! | `HZ_PAPER_MODEL` | off | use paper-calibrated throughputs instead of host calibration |
//!
//! Collective benches always use [`netsim::ComputeTiming::Modeled`]: the
//! data path runs for real (ratios, pipeline mixes and correctness are
//! genuine), while per-kernel time comes from throughputs measured once on
//! this host without thread oversubscription — or from the paper's
//! calibration when `HZ_PAPER_MODEL=1`.

use hzccl::{CollectiveConfig, Mode};
use std::io::Write;
use tuner::Flavor;

pub mod codec_tables;
pub mod figure;
mod kernels;
pub mod suite;

pub use kernels::kernels;

/// Read a `usize` env knob.
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// The environment knobs of the bench targets, as read by
/// [`Knobs::from_env`]. A `None` is "unset": the harness default applies
/// unless the figure at hand declares its own.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// `HZ_SIZE_MB`.
    pub size_mb: usize,
    /// `HZ_RANKS`.
    pub ranks: Option<usize>,
    /// `HZ_MAX_RANKS`.
    pub max_ranks: usize,
    /// `HZ_THREADS`.
    pub threads: usize,
    /// `HZ_NODE_MSG_MB`.
    pub node_msg_mb: Option<usize>,
    /// `HZ_IMG_SIDE`.
    pub img_side: Option<usize>,
    /// `HZ_PAPER_MODEL` (`1`, `true`, `yes`).
    pub paper_model: bool,
}

impl Knobs {
    /// Read every knob from the environment.
    pub fn from_env() -> Knobs {
        let cores = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(2);
        let paper = std::env::var("HZ_PAPER_MODEL").unwrap_or_default().to_ascii_lowercase();
        Knobs {
            size_mb: env_usize("HZ_SIZE_MB").unwrap_or(16),
            ranks: env_usize("HZ_RANKS"),
            max_ranks: env_usize("HZ_MAX_RANKS").unwrap_or(512),
            threads: env_usize("HZ_THREADS").unwrap_or(cores),
            node_msg_mb: env_usize("HZ_NODE_MSG_MB"),
            img_side: env_usize("HZ_IMG_SIDE"),
            paper_model: matches!(paper.as_str(), "1" | "true" | "yes"),
        }
    }

    /// Field size (elements) for compressor experiments.
    pub fn field_elems(&self) -> usize {
        self.size_mb * (1 << 20) / 4
    }

    /// The standard bench banner.
    fn banner(&self, id: &str, what: &str) -> String {
        format!(
            "\n=== {id}: {what} ===\n(HZ_SIZE_MB={} HZ_RANKS={} HZ_THREADS={} HZ_PAPER_MODEL={})\n\n",
            self.size_mb,
            self.ranks.unwrap_or(64),
            self.threads,
            self.paper_model as u8
        )
    }
}

/// Throughputs of `flavor` in `mode` measured on this host from the real
/// kernels over (a capped prefix of) `field`. Memoized per `(flavor,
/// threads)` for the lifetime of the process, so every point of a sweep is
/// timed against the same model and the measurement cost is paid once.
fn host_model(flavor: Flavor, mode: Mode, field: &[f32], eb: f64) -> netsim::ThroughputModel {
    use std::collections::HashMap;
    use std::sync::Mutex;

    static CACHE: Mutex<Option<HashMap<(Flavor, usize), netsim::ThroughputModel>>> =
        Mutex::new(None);
    let cfg = CollectiveConfig::new(eb, mode);
    let sample = &field[..field.len().min(1 << 21)];
    let mut guard = CACHE.lock().expect("calibration cache poisoned");
    let cache = guard.get_or_insert_with(HashMap::new);
    *cache.entry((flavor, mode.threads())).or_insert_with(|| match flavor {
        Flavor::CColl => hzccl::calibrate_doc(sample, &cfg),
        // MPI only exercises Cpt/Other; the hz calibration covers those
        Flavor::Mpi | Flavor::Hzccl => hzccl::calibrate_hz(sample, &cfg),
    })
}

/// Ablation (DESIGN.md ablation 4): hZCCL Reduce_scatter followed by the
/// *unfused* C-Coll-style Allgather — decompress at the stage boundary,
/// recompress for gathering. Quantifies the fusion saving of Sec. III-C.2
/// against the fused `collectives::allreduce`.
fn allreduce_unfused(
    comm: &mut netsim::Comm,
    data: &[f32],
    eb: f64,
    mode: Mode,
) -> hzccl::collectives::Result<Vec<f32>> {
    use hzccl::collectives::{allgather, reduce_scatter, CollectiveOpts};
    let own = reduce_scatter(comm, data, &CollectiveOpts::hz(eb).with_mode(mode))?;
    allgather(comm, &own, data.len(), &CollectiveOpts::ccoll(eb).with_mode(mode))
}

/// Minimal fixed-width table printer for bench output.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table on `out`: header row and rule.
    pub fn start(out: &mut dyn Write, columns: &[(&str, usize)]) -> std::io::Result<Table> {
        let widths: Vec<usize> = columns.iter().map(|c| c.1).collect();
        let header: Vec<String> = columns.iter().map(|(name, w)| format!("{name:<w$}")).collect();
        writeln!(out, "{}", header.join(" | "))?;
        writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 3 * (widths.len() - 1)))?;
        Ok(Table { widths })
    }

    /// Write one row to `out`; `cells` must match the header arity.
    pub fn write_row(&self, out: &mut dyn Write, cells: &[String]) -> std::io::Result<()> {
        assert_eq!(cells.len(), self.widths.len(), "row arity mismatch");
        let padded: Vec<String> =
            cells.iter().zip(&self.widths).map(|(c, w)| format!("{c:<w$}")).collect();
        writeln!(out, "{}", padded.join(" | "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_take_the_documented_defaults() {
        assert_eq!(env_usize("HZ_DOES_NOT_EXIST_XYZ"), None);
        let k = Knobs { size_mb: 2, ranks: None, ..Knobs::from_env() };
        assert_eq!(k.field_elems(), 1 << 19);
        assert!(k.banner("X", "y").contains("HZ_SIZE_MB=2 HZ_RANKS=64 "));
    }

    /// The Sec. III-C.2 fusion saving: the unfused ablation pays one more
    /// decompress/recompress pair at the stage boundary — slower, and one
    /// more quantization of error.
    #[test]
    fn fused_allreduce_beats_the_unfused_ablation_and_agrees_within_the_bound() {
        use hzccl::collectives::{allreduce, CollectiveOpts};
        use netsim::{ComputeTiming, SimBuilder, ThroughputModel};
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
        let mut out = Vec::new();
        let t = Table::start(&mut out, &[("a", 4), ("b", 4)]).unwrap();
        t.write_row(&mut out, &["x".into(), "y".into()]).unwrap();
        assert_eq!(
            String::from_utf8(out.clone()).unwrap(),
            "a    | b   \n-----------\nx    | y   \n"
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.write_row(&mut out, &["only-one".into()]).unwrap();
        }));
        assert!(r.is_err());
    }
}
