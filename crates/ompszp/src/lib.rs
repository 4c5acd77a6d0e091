//! # ompSZp — CPU port of cuSZp's parallelism strategy (baseline)
//!
//! The paper's primary compressor baseline (Table II): *"CPU version of
//! cuSZp's parallelism strategy"*. This crate deliberately keeps cuSZp's
//! GPU-idiomatic design decisions so the comparison against `fzlight`
//! isolates exactly what Sec. III-B.2/III-B.3 optimize:
//!
//! * **Single-layer block partitioning** — the input is one flat sequence of
//!   small blocks; threads own blocks *block-cyclically* (thread `t` owns
//!   blocks `t, t+T, t+2T, …`), hopping between distant memory regions
//!   instead of working on contiguous chunks. A compressing group strides
//!   over the input's blocks and writes only buffers it owns; decompression
//!   deals each group its output blocks as disjoint `chunks_mut` slices
//!   (`fzlight::chunk::deal`), so the strided writes need no raw pointers.
//! * **One outlier per small block** — every non-elided block stores its
//!   first quantization integer (4 bytes per 32 values), which is where
//!   `fZ-light`'s per-chunk outlier wins its compression-ratio edge.
//! * **Zero-block elision** — blocks whose values all quantize to zero are
//!   stored as a single marker byte (the design that lets ompSZp edge out
//!   fZ-light on datasets dominated by zero regions, cf. Table III Sim. 1).
//! * **Unfused, globally-synchronized passes** — quantization writes a
//!   full-size intermediate of `i32` integers (each thread group holds its
//!   own blocks', with their codes), a synchronization computes output sizes
//!   from the codes (the GPU global sync), and a second sweep predicts from
//!   the integers and encodes. Both sweeps go through the codec layer's one
//!   fork-join (`fzlight::chunk::fork_join`), so a single-thread call runs
//!   inline and `T > 1` keeps the two forks with the synchronization
//!   between them.
//! * **Bit-shuffle encoding** — magnitudes are stored as `c` one-bit planes
//!   (bit-granular shuffles), versus fZ-light's byte-plane + residual scheme.
//!
//! Quantization itself uses the same round-to-nearest rule as fZ-light, so
//! reconstructed values are identical and quality comparisons isolate the
//! format. (The paper's Table III reports a small NRMSE edge for fZ-light
//! that stems from cuSZp implementation details; here the NRMSE columns come
//! out equal, which EXPERIMENTS.md records as a deviation.)
//!
//! The public API mirrors `fzlight`: [`compress()`], [`decompress()`],
//! [`OszpStream`] — `fzlight`'s stream container and header under ompSZp's
//! own magic, a distinct type the homomorphic operators do not accept.

pub mod bitshuffle;
pub mod compress;
pub mod decompress;
pub mod format;

pub use compress::compress;
pub use decompress::{decompress, decompress_into};
pub use format::OszpStream;

// Shared error taxonomy with fzlight keeps call sites uniform.
pub use fzlight::error::{Error, Result};
pub use fzlight::{Config, ErrorBound};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32], cfg: &Config) -> Vec<f32> {
        let s = compress(data, cfg).expect("compress");
        decompress(&s).expect("decompress")
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        assert!(roundtrip(&[], &cfg).is_empty());
        for n in [1usize, 2, 31, 32, 33, 65] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32).sqrt() - 3.0).collect();
            let out = roundtrip(&data, &cfg);
            assert_eq!(out.len(), n);
            for (a, b) in data.iter().zip(&out) {
                let tol = 1e-3 + (b.abs() as f64) * f32::EPSILON as f64;
                assert!(((a - b).abs() as f64) <= tol, "n={n}: |{a}-{b}|");
            }
        }
    }

    #[test]
    fn error_bounded_on_mixed_signs() {
        let data: Vec<f32> = (0..50_000).map(|i| ((i as f32) * 0.0137).sin() * 42.0).collect();
        for &eb in &[1e-1, 1e-2, 1e-3] {
            let cfg = Config::new(ErrorBound::Abs(eb));
            let out = roundtrip(&data, &cfg);
            for (a, b) in data.iter().zip(&out) {
                let tol = eb * (1.0 + 1e-9) + (b.abs() as f64) * f32::EPSILON as f64;
                assert!(((a - b).abs() as f64) <= tol, "eb={eb}: |{a}-{b}|");
            }
        }
    }

    #[test]
    fn zero_blocks_are_elided() {
        // half zeros, half signal: the zero half must cost ~1 byte per block
        let mut data = vec![0.0f32; 32 * 100];
        for (i, v) in data.iter_mut().enumerate().skip(32 * 50) {
            *v = (i as f32 * 0.1).sin() * 10.0;
        }
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let s = compress(&data, &cfg).unwrap();
        let all_signal: Vec<f32> = (0..32 * 100).map(|i| (i as f32 * 0.1).sin() * 10.0).collect();
        let s2 = compress(&all_signal, &cfg).unwrap();
        assert!(s.compressed_size() < s2.compressed_size() / 2 + 200);
        let out = decompress(&s).unwrap();
        assert!(out[..32 * 50].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn thread_count_does_not_change_values() {
        let data: Vec<f32> = (0..40_000).map(|i| ((i % 251) as f32).ln_1p()).collect();
        let base = roundtrip(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(1));
        for t in [2usize, 3, 8] {
            let out = roundtrip(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(t));
            assert_eq!(base, out, "threads={t}");
        }
    }

    #[test]
    fn stream_survives_byte_serialization() {
        let data: Vec<f32> = (0..9999).map(|i| (i as f32 * 0.01).cos()).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-4)).with_threads(3);
        let s = compress(&data, &cfg).unwrap();
        let s2 = OszpStream::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(decompress(&s).unwrap(), decompress(&s2).unwrap());
    }

    #[test]
    fn rejects_non_finite() {
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        assert!(compress(&[0.0, f32::NAN], &cfg).is_err());
    }

    #[test]
    fn per_block_outliers_cost_ratio_vs_fzlight() {
        // On smooth non-zero data, fZ-light's per-chunk outlier must beat
        // ompSZp's per-block outlier on compression ratio (Table III shape).
        let data: Vec<f32> = (0..1 << 16).map(|i| 5.0 + (i as f32 * 1e-4).sin()).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let o = compress(&data, &cfg).unwrap();
        let f = fzlight::compress(&data, &cfg).unwrap();
        assert!(
            f.ratio() > o.ratio(),
            "fzlight {:.2} should beat ompszp {:.2}",
            f.ratio(),
            o.ratio()
        );
    }
}
