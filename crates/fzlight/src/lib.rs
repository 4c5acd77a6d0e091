//! # fZ-light — an ultra-fast error-bounded lossy compressor for `f32` data
//!
//! This crate reproduces the `fZ-light` compressor from *"hZCCL: Accelerating
//! Collective Communication with Co-Designed Homomorphic Compression"*
//! (SC 2024), Section III-B. It is the substrate on which the homomorphic
//! compressor (`hzdyn`) and the collective framework (`hzccl`) are built.
//!
//! ## Algorithm
//!
//! 1. **Multi-layer block partitioning** (Sec. III-B.2): the input is split
//!    into `nchunks` large contiguous *thread-chunks* (one per compression
//!    thread; the last chunk absorbs the remainder), and each chunk is
//!    subdivided into *small blocks* of `block_len` elements (default 32).
//!    Threads always work on contiguous memory, unlike the GPU-style
//!    block-cyclic assignment of `ompSZp`.
//! 2. **Fused quantization + prediction**: every value is quantized to an
//!    integer `q = round(v / (2*eb))` and immediately delta-predicted against
//!    the previous quantization integer (1-D Lorenzo). Only the *first*
//!    quantization integer of each thread-chunk is stored verbatim (the
//!    chunk's 4-byte *outlier*); everything else is a small signed delta.
//! 3. **Ultra-fast bit-shifting fixed-length encoding** (Sec. III-B.3): each
//!    small block stores a 1-byte code length `c` (the bit width of the
//!    largest delta magnitude; `c == 0` marks a *constant* block whose deltas
//!    are all zero), a sign bitmap, `c / 8` full byte planes, and a packed
//!    plane of the `c % 8` residual (high) bits.
//!
//! Quantization is the *only* lossy step: `|v - decompress(compress(v))| <= eb`
//! in exact arithmetic for every finite input value (storing the
//! reconstruction as `f32` adds at most half an ULP of the reconstructed
//! value on top). Every stage after quantization is bijective, which is what
//! makes the homomorphic reductions in `hzdyn` exact on the quantization
//! integers.
//!
//! ## Quick example
//!
//! ```
//! use fzlight::{compress, decompress, Config, ErrorBound};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.001).sin()).collect();
//! let cfg = Config::new(ErrorBound::Abs(1e-4));
//! let stream = compress(&data, &cfg).unwrap();
//! let restored = decompress(&stream).unwrap();
//! assert!(data.iter().zip(&restored).all(|(a, b)| (a - b).abs() <= 1.001e-4));
//! assert!(stream.compressed_size() < data.len() * 4);
//! ```

pub mod chunk;
pub mod codec;
pub mod compress;
pub mod config;
pub mod decompress;
pub mod error;
pub mod header;
pub mod quantize;
mod stats;
pub mod stream;
mod unfused;

pub use compress::{compress, compress_resolved};
pub use config::{Config, ErrorBound, DEFAULT_BLOCK_LEN};
pub use decompress::{decompress, decompress_into, decompress_range};
pub use error::{Error, Result};
pub use header::Header;
pub use quantize::{quantize_block, quantize_block_scalar};
pub use stats::StreamStats;
pub use stream::CompressedStream;
pub use unfused::compress_unfused;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32], cfg: &Config) -> Vec<f32> {
        let s = compress(data, cfg).expect("compress");
        decompress(&s).expect("decompress")
    }

    #[test]
    fn empty_input_roundtrips() {
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let out = roundtrip(&[], &cfg);
        assert!(out.is_empty());
    }

    #[test]
    fn single_value_roundtrips() {
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let out = roundtrip(&[42.5], &cfg);
        assert_eq!(out.len(), 1);
        assert!((out[0] - 42.5).abs() <= 1e-3);
    }

    #[test]
    fn error_bound_holds_on_sine_wave() {
        let data: Vec<f32> = (0..100_000).map(|i| (i as f32 * 0.01).sin() * 100.0).collect();
        for &eb in &[1e-1, 1e-2, 1e-3, 1e-4] {
            let cfg = Config::new(ErrorBound::Abs(eb));
            let out = roundtrip(&data, &cfg);
            for (a, b) in data.iter().zip(&out) {
                // eb guaranteed in f64 arithmetic; storing as f32 adds at most
                // half an ULP of the reconstructed value.
                let tol = eb * (1.0 + 1e-9) + (b.abs() as f64) * (f32::EPSILON as f64);
                assert!(((a - b).abs() as f64) <= tol, "eb={eb}: |{a} - {b}| = {}", (a - b).abs());
            }
        }
    }

    #[test]
    fn relative_error_bound_resolves_against_range() {
        let data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let cfg = Config::new(ErrorBound::Rel(1e-3));
        let s = compress(&data, &cfg).unwrap();
        // range = 4095, so the absolute bound baked into the stream is ~4.095
        let abs = s.header().eb;
        assert!((abs - 4.095).abs() < 1e-6, "abs={abs}");
    }

    #[test]
    fn constant_data_compresses_to_near_nothing() {
        let data = vec![3.75f32; 1 << 16];
        let cfg = Config::new(ErrorBound::Abs(1e-4));
        let s = compress(&data, &cfg).unwrap();
        // one outlier per chunk + one code byte per block; ratio should be large
        assert!(s.ratio() > 25.0, "ratio = {}", s.ratio());
        let out = decompress(&s).unwrap();
        for v in out {
            assert!((v - 3.75).abs() <= 1e-4);
        }
    }

    #[test]
    fn rejects_non_finite_input() {
        let cfg = Config::new(ErrorBound::Abs(1e-4));
        assert!(matches!(compress(&[1.0, f32::NAN], &cfg), Err(Error::NonFiniteInput { .. })));
        assert!(matches!(compress(&[f32::INFINITY], &cfg), Err(Error::NonFiniteInput { .. })));
    }

    #[test]
    fn rejects_quantization_overflow() {
        let cfg = Config::new(ErrorBound::Abs(1e-30));
        assert!(matches!(compress(&[1.0e9], &cfg), Err(Error::QuantizationOverflow { .. })));
    }

    #[test]
    fn thread_count_does_not_change_decompressed_values() {
        let data: Vec<f32> =
            (0..50_000).map(|i| ((i as f32) * 0.37).cos() * (i % 17) as f32).collect();
        let base = {
            let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(1);
            roundtrip(&data, &cfg)
        };
        for t in [2, 3, 7, 16] {
            let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(t);
            let out = roundtrip(&data, &cfg);
            assert_eq!(base, out, "threads={t} changed reconstruction");
        }
    }

    #[test]
    fn tail_shorter_than_block_roundtrips() {
        for n in [1usize, 5, 31, 32, 33, 63, 64, 65, 1000, 1023, 1025] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32).sqrt()).collect();
            let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(3);
            let out = roundtrip(&data, &cfg);
            assert_eq!(out.len(), n);
            for (a, b) in data.iter().zip(&out) {
                assert!((a - b).abs() <= 1e-3 + 1e-9);
            }
        }
    }

    #[test]
    fn huge_deltas_need_wide_codes() {
        // alternate +/- large values so deltas need close to 32 bits
        let data: Vec<f32> = (0..256).map(|i| if i % 2 == 0 { 1.0e5 } else { -1.0e5 }).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-4));
        let out = roundtrip(&data, &cfg);
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + 1e-6));
        }
    }

    #[test]
    fn stream_survives_byte_serialization() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.02).sin()).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-4)).with_threads(4);
        let s = compress(&data, &cfg).unwrap();
        let bytes = s.as_bytes().to_vec();
        let s2 = CompressedStream::from_bytes(bytes).unwrap();
        assert_eq!(decompress(&s).unwrap(), decompress(&s2).unwrap());
    }
}
