//! Collective configuration: compression parameters, single/multi-thread
//! modes, and per-variant throughput calibration for modeled runs.

use fzlight::{Config as FzConfig, ErrorBound};
use netsim::ThroughputModel;

/// The thread mode is the tuner's, so plans carry it unconverted.
pub use tuner::Mode;

/// Which collective framework a timing model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Original MPI (no compression; only CPT/Other buckets are exercised).
    Mpi,
    /// C-Coll with its conventional (ompSZp-class) compressor.
    CColl,
    /// hZCCL with fZ-light + hZ-dynamic.
    Hzccl,
    /// Let the tuner pick per call (see [`crate::auto`]): one rank ranks the
    /// static flavours with `tuner::Engine` and broadcasts the winning plan.
    Auto,
}

impl Variant {
    /// Stable lowercase name (CLI, cache keys).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Mpi => "mpi",
            Variant::CColl => "ccoll",
            Variant::Hzccl => "hz",
            Variant::Auto => "auto",
        }
    }

    /// Parse the stable name back.
    pub fn parse(name: &str) -> Option<Variant> {
        Some(match name {
            "mpi" => Variant::Mpi,
            "ccoll" => Variant::CColl,
            "hz" => Variant::Hzccl,
            "auto" => Variant::Auto,
            _ => return None,
        })
    }

    /// The `tuner` flavour this variant corresponds to ([`Variant::Auto`]
    /// maps to hZCCL, its prior before any evidence arrives).
    pub fn flavor(self) -> tuner::Flavor {
        match self {
            Variant::Mpi => tuner::Flavor::Mpi,
            Variant::CColl => tuner::Flavor::CColl,
            Variant::Hzccl | Variant::Auto => tuner::Flavor::Hzccl,
        }
    }
}

/// Parameters shared by every rank of a compression-accelerated collective.
///
/// The error bound is *absolute*: all ranks must bake the identical bound
/// into their streams for homomorphic compatibility, so range-relative
/// bounds must be resolved before the collective starts.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveConfig {
    /// Absolute error bound (paper default: 1e-4).
    pub eb: f64,
    /// Small-block length (paper default: 32).
    pub block_len: usize,
    /// Single- or multi-thread compression mode.
    pub mode: Mode,
    /// Resilient-transport policy. `None` (the default) keeps every
    /// schedule on the exact unframed fast path — bit-identical behaviour
    /// to a build without the resilience layer. `Some` frames every ring
    /// hop ([`crate::Resilience`]).
    pub res: Option<crate::resilient::Resilience>,
}

impl CollectiveConfig {
    /// Config with the paper's defaults and the given mode.
    pub fn new(eb: f64, mode: Mode) -> Self {
        CollectiveConfig { eb, block_len: fzlight::DEFAULT_BLOCK_LEN, mode, res: None }
    }

    /// The fzlight compressor config this collective config implies.
    pub fn fz(&self) -> FzConfig {
        FzConfig::new(ErrorBound::Abs(self.eb))
            .with_block_len(self.block_len)
            .with_threads(self.mode.threads())
    }
}

fn best_of<const K: usize>(mut f: impl FnMut()) -> f64 {
    use std::time::Instant;
    let mut best = f64::INFINITY;
    for _ in 0..K {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Measure hZCCL-side throughputs (GB/s of uncompressed bytes) on this host
/// by timing the real fZ-light / hZ-dynamic kernels on a sample field —
/// feeds [`netsim::ComputeTiming::Modeled`] for runs whose rank count
/// oversubscribes the host.
pub fn calibrate_hz(sample: &[f32], cfg: &CollectiveConfig) -> ThroughputModel {
    let fz = cfg.fz();
    let bytes = sample.len() * 4;
    let mut stream = None;
    let t_cpr = best_of::<3>(|| {
        stream = Some(fzlight::compress(sample, &fz).expect("calibrate compress"));
    });
    let stream = stream.unwrap();
    let mut out = vec![0f32; sample.len()];
    let t_dpr = best_of::<3>(|| {
        fzlight::decompress_into(&stream, &mut out).expect("calibrate decompress");
    });
    let t_hpr = best_of::<3>(|| {
        std::hint::black_box(hzdyn::homomorphic_sum(&stream, &stream).expect("calibrate hz"));
    });
    let (t_cpt, t_other) = calibrate_common(sample, fz.threads, &mut out);
    let gbps = |t: f64| (bytes as f64 / t / 1e9).max(1e-3);
    ThroughputModel::new(gbps(t_cpr), gbps(t_dpr), gbps(t_hpr), gbps(t_cpt), gbps(t_other))
}

/// Measure C-Coll-side throughputs using the ompSZp kernels its DOC workflow
/// runs on (HPR is unused by C-Coll; it inherits the hZ value scale via a
/// placeholder equal to DPR).
pub fn calibrate_doc(sample: &[f32], cfg: &CollectiveConfig) -> ThroughputModel {
    let ocfg = ompszp::Config::new(ompszp::ErrorBound::Abs(cfg.eb))
        .with_block_len(cfg.block_len)
        .with_threads(cfg.mode.threads());
    let bytes = sample.len() * 4;
    let mut stream = None;
    let t_cpr = best_of::<3>(|| {
        stream = Some(ompszp::compress(sample, &ocfg).expect("calibrate ompszp compress"));
    });
    let stream = stream.unwrap();
    let mut out = vec![0f32; sample.len()];
    let t_dpr = best_of::<3>(|| {
        ompszp::decompress_into(&stream, &mut out).expect("calibrate ompszp decompress");
    });
    let (t_cpt, t_other) = calibrate_common(sample, cfg.mode.threads(), &mut out);
    let gbps = |t: f64| (bytes as f64 / t / 1e9).max(1e-3);
    ThroughputModel::new(gbps(t_cpr), gbps(t_dpr), gbps(t_dpr), gbps(t_cpt), gbps(t_other))
}

fn calibrate_common(sample: &[f32], threads: usize, out: &mut [f32]) -> (f64, f64) {
    let mut acc = out.to_vec();
    let t_cpt = best_of::<3>(|| {
        hzdyn::doc::reduce_in_place(&mut acc, out, hzdyn::ReduceOp::Sum, threads);
    });
    let mut copy = vec![0u8; sample.len() * 4];
    let t_other = best_of::<3>(|| {
        crate::chunks::write_f32s(sample, &mut copy);
    });
    (t_cpt, t_other)
}

/// Throughputs calibrated to the paper's 36-thread Broadwell socket,
/// per framework and mode. The hZCCL values come from the paper's Fig. 6 /
/// Tables V-VI (fZ-light ≈ 30/60 GB/s compress/decompress MT, hZ-dynamic
/// ≈ 175 GB/s on mixed data); the C-Coll values reflect its SZx-class
/// compressor, which matches fZ-light single-threaded but scales far worse
/// (Fig. 2's 52% MT DOC share). `HZ_PAPER_MODEL=1` selects these in the
/// benches, reproducing the paper's operating regime on any host.
///
/// The constants themselves live in [`tuner::paper_prior`] — the tuner's
/// calibration tables seed from the same source of truth — and this function
/// merely translates [`Variant`] into the tuner's vocabulary.
/// [`Variant::Auto`] reports the hZCCL table (its prior before evidence).
pub fn paper_model(variant: Variant, mode: Mode) -> ThroughputModel {
    tuner::paper_prior(variant.flavor(), mode.is_mt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fz_config_reflects_collective_config() {
        let c = CollectiveConfig::new(1e-4, Mode::MultiThread(4));
        let fz = c.fz();
        assert_eq!(fz.threads, 4);
        assert_eq!(fz.block_len, 32);
    }

    #[test]
    fn calibration_yields_positive_throughputs() {
        let sample: Vec<f32> = (0..1 << 16).map(|i| (i as f32 * 0.01).sin()).collect();
        let cfg = CollectiveConfig::new(1e-4, Mode::SingleThread);
        let hz = calibrate_hz(&sample, &cfg);
        let doc = calibrate_doc(&sample, &cfg);
        assert!(hz.gbps.iter().all(|&g| g > 0.0), "{hz:?}");
        assert!(doc.gbps.iter().all(|&g| g > 0.0), "{doc:?}");
        // the co-designed homomorphic path must beat the DOC pipeline
        assert!(hz.gbps[2] > 1.0 / (1.0 / doc.gbps[0] + 1.0 / doc.gbps[1]));
    }

    #[test]
    fn variant_names_roundtrip_and_auto_maps_to_hz_prior() {
        for v in [Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto] {
            assert_eq!(Variant::parse(v.name()), Some(v));
        }
        assert_eq!(Variant::parse("warp"), None);
        // Auto's prior is the hZCCL table in both modes.
        for mode in [Mode::SingleThread, Mode::MultiThread(18)] {
            assert_eq!(paper_model(Variant::Auto, mode), paper_model(Variant::Hzccl, mode));
        }
        // and the delegation preserves the paper's literal ST constants
        assert_eq!(
            paper_model(Variant::Hzccl, Mode::SingleThread),
            ThroughputModel::new(1.7, 3.3, 9.7, 2.8, 6.0)
        );
        assert_eq!(
            paper_model(Variant::Mpi, Mode::SingleThread),
            ThroughputModel::new(1.0, 1.0, 1.0, 50.0, 108.0)
        );
    }

    #[test]
    fn paper_model_orders_match_paper() {
        for mode in [Mode::SingleThread, Mode::MultiThread(18)] {
            let hz = paper_model(Variant::Hzccl, mode);
            let cc = paper_model(Variant::CColl, mode);
            // homomorphic processing far faster than the DOC pipeline
            assert!(hz.gbps[2] > cc.gbps[0]);
            assert!(hz.gbps[2] > cc.gbps[1]);
            // hZCCL's compressor is never slower than C-Coll's
            assert!(hz.gbps[0] >= cc.gbps[0]);
        }
        // MT beats ST within each framework
        for v in [Variant::CColl, Variant::Hzccl] {
            let st = paper_model(v, Mode::SingleThread);
            let mt = paper_model(v, Mode::MultiThread(18));
            assert!(mt.gbps[0] > st.gbps[0]);
        }
    }
}
