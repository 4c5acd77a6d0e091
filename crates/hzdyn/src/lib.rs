//! # hZ-dynamic — homomorphic reduction directly on compressed streams
//!
//! This crate reproduces the `hZ-dynamic` homomorphic compressor from
//! *"hZCCL: Accelerating Collective Communication with Co-Designed
//! Homomorphic Compression"* (SC 2024), Sec. III-B.4 and Fig. 4.
//!
//! Given two [`fzlight`] streams compressed with identical parameters, the
//! reduction (`sum` by default) is applied **without decompressing**: the
//! chunk outliers are added, and each pair of corresponding small blocks is
//! dispatched through the *dynamic pipeline heuristic*:
//!
//! | # | condition (code lengths `x`, `y`) | action |
//! |---|---|---|
//! | ① | `x == 0 && y == 0` | write a single `0` code byte |
//! | ② | `x == 0 && y != 0` | copy block B's bytes verbatim |
//! | ③ | `x != 0 && y == 0` | copy block A's bytes verbatim |
//! | ④ | `x != 0 && y != 0` | add the integer deltas at the narrowest width the codes allow: both codes ≤ 6 (block length a multiple of 8) in the byte lanes of the packed words, never unpacked; both ≤ 30 by decoding into `i32` lanes and re-encoding; otherwise in `i64` |
//!
//! Only pipeline ④ touches the integer domain, and even it never
//! re-quantizes, so the homomorphic result is **exact on the quantization
//! integers**: `decompress(hz_sum(A, B))` reconstructs from exactly
//! `q_A[i] + q_B[i]`. No error beyond the original per-stream quantization is
//! introduced, and the operation is associative and commutative — summing
//! many streams in any order yields byte-identical outputs.
//!
//! There is one kernel and one chunk walk. The kernel computes
//! `alpha·A + beta·B` for integer coefficients ([`homomorphic_axpby`]);
//! [`ReduceOp::Sum`] and [`ReduceOp::Diff`] are its `(1, 1)` and `(1, −1)`,
//! where ② and ③ are verbatim copies and ④ fuses B's decode with the add or
//! subtract. The walk around it — compatibility check, outlier prologue with
//! its overflow check, one job per chunk, trailing-bytes check, assembly —
//! also carries [`homomorphic_scale`], the scalar [`mod@reference`] and
//! [`Accumulator::finish`], each with its own per-block kernel.
//!
//! The crate also provides, for the paper's comparisons:
//! * [`homomorphic_sum_static`] — the *static* pipeline (always ④: the same
//!   walk with the dispatch disabled) used as an ablation baseline;
//! * [`doc_reduce`] — the traditional decompression-operation-compression
//!   workflow (`fZ-light (DOC)` in Table VI).
//!
//! ```
//! use fzlight::{compress, decompress, Config, ErrorBound};
//! use hzdyn::homomorphic_sum;
//!
//! let cfg = Config::new(ErrorBound::Abs(1e-4));
//! let a: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let b: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.02).cos()).collect();
//! let ca = compress(&a, &cfg).unwrap();
//! let cb = compress(&b, &cfg).unwrap();
//! let sum = homomorphic_sum(&ca, &cb).unwrap();
//! let restored = fzlight::decompress(&sum).unwrap();
//! for i in 0..1000 {
//!     assert!((restored[i] - (a[i] + b[i])).abs() <= 2.0 * 1e-4 + 1e-6);
//! }
//! ```

mod accumulate;
pub mod doc;
mod dynamic;
mod op;
pub mod reference;
mod static_pipeline;
mod stats;
mod walk;

pub use accumulate::Accumulator;
pub use doc::doc_reduce;
pub use dynamic::{
    homomorphic_axpby, homomorphic_op, homomorphic_scale, homomorphic_sum,
    homomorphic_sum_with_stats,
};
pub use op::ReduceOp;
pub use static_pipeline::homomorphic_sum_static;
pub use stats::PipelineStats;

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::{compress, decompress, Config, ErrorBound};

    fn cfg(threads: usize) -> Config {
        Config::new(ErrorBound::Abs(1e-4)).with_threads(threads)
    }

    fn wave(n: usize, f: f32, amp: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * f).sin() * amp).collect()
    }

    /// Recover the quantization integer from a reconstructed value.
    fn requant(v: f32, eb: f64) -> i64 {
        ((v as f64) / (2.0 * eb)).round() as i64
    }

    #[test]
    fn sum_is_exact_on_quantization_integers() {
        let eb = 1e-4;
        let a = wave(10_000, 0.013, 3.0);
        let b = wave(10_000, 0.029, 5.0);
        let ca = compress(&a, &cfg(2)).unwrap();
        let cb = compress(&b, &cfg(2)).unwrap();
        let hz = homomorphic_sum(&ca, &cb).unwrap();
        let da = decompress(&ca).unwrap();
        let db = decompress(&cb).unwrap();
        let ds = decompress(&hz).unwrap();
        for i in 0..a.len() {
            let expect = requant(da[i], eb) + requant(db[i], eb);
            assert_eq!(requant(ds[i], eb), expect, "at {i}");
        }
    }

    #[test]
    fn sum_is_associative_and_byte_identical() {
        let streams: Vec<_> = (0..4)
            .map(|k| {
                let d = wave(5_000, 0.01 + 0.005 * k as f32, 2.0 + k as f32);
                compress(&d, &cfg(3)).unwrap()
            })
            .collect();
        let left = homomorphic_sum(
            &homomorphic_sum(&homomorphic_sum(&streams[0], &streams[1]).unwrap(), &streams[2])
                .unwrap(),
            &streams[3],
        )
        .unwrap();
        let right = homomorphic_sum(
            &streams[0],
            &homomorphic_sum(&streams[1], &homomorphic_sum(&streams[2], &streams[3]).unwrap())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(left.as_bytes(), right.as_bytes());
    }

    #[test]
    fn sum_is_commutative_and_byte_identical() {
        let a = wave(3_000, 0.017, 1.0);
        let b = wave(3_000, 0.031, 4.0);
        let ca = compress(&a, &cfg(2)).unwrap();
        let cb = compress(&b, &cfg(2)).unwrap();
        let ab = homomorphic_sum(&ca, &cb).unwrap();
        let ba = homomorphic_sum(&cb, &ca).unwrap();
        assert_eq!(ab.as_bytes(), ba.as_bytes());
    }

    #[test]
    fn dynamic_static_and_doc_agree() {
        let eb = 1e-4;
        let a = wave(8_000, 0.011, 2.0);
        let b = wave(8_000, 0.023, 3.0);
        let ca = compress(&a, &cfg(2)).unwrap();
        let cb = compress(&b, &cfg(2)).unwrap();
        let dyn_s = homomorphic_sum(&ca, &cb).unwrap();
        let stat_s = homomorphic_sum_static(&ca, &cb).unwrap();
        // static pipeline must produce byte-identical output (canonical codec)
        assert_eq!(dyn_s.as_bytes(), stat_s.as_bytes());
        // DOC re-quantizes decompressed floats; integers may differ by the
        // extra rounding, but values stay within 2*eb of each other.
        let doc_s = doc_reduce(&ca, &cb, ReduceOp::Sum).unwrap();
        let dv = decompress(&dyn_s).unwrap();
        let cv = decompress(&doc_s).unwrap();
        for i in 0..dv.len() {
            assert!((dv[i] - cv[i]).abs() as f64 <= 2.0 * eb + 1e-9, "at {i}");
        }
    }

    #[test]
    fn diff_matches_integer_subtraction() {
        let eb = 1e-4;
        let a = wave(4_000, 0.019, 2.0);
        let b = wave(4_000, 0.007, 1.5);
        let ca = compress(&a, &cfg(2)).unwrap();
        let cb = compress(&b, &cfg(2)).unwrap();
        let hz = homomorphic_op(&ca, &cb, ReduceOp::Diff).unwrap();
        let da = decompress(&ca).unwrap();
        let db = decompress(&cb).unwrap();
        let dd = decompress(&hz).unwrap();
        for i in 0..a.len() {
            assert_eq!(requant(dd[i], eb), requant(da[i], eb) - requant(db[i], eb), "at {i}");
        }
    }

    #[test]
    fn scale_matches_integer_multiplication() {
        let eb = 1e-4;
        let a = wave(4_000, 0.019, 2.0);
        let ca = compress(&a, &cfg(3)).unwrap();
        let hz = homomorphic_scale(&ca, 3).unwrap();
        let da = decompress(&ca).unwrap();
        let ds = decompress(&hz).unwrap();
        for i in 0..a.len() {
            assert_eq!(requant(ds[i], eb), 3 * requant(da[i], eb), "at {i}");
        }
    }

    #[test]
    fn incompatible_streams_rejected() {
        let a = wave(1_000, 0.01, 1.0);
        let ca = compress(&a, &cfg(1)).unwrap();
        // different thread-chunk layout
        let cb = compress(&a, &cfg(2)).unwrap();
        assert!(homomorphic_sum(&ca, &cb).is_err());
        // different error bound
        let cc = compress(&a, &Config::new(ErrorBound::Abs(2e-4))).unwrap();
        assert!(homomorphic_sum(&ca, &cc).is_err());
        // different length
        let cd = compress(&a[..999], &cfg(1)).unwrap();
        assert!(homomorphic_sum(&ca, &cd).is_err());
    }

    #[test]
    fn empty_streams_sum_to_empty() {
        let ca = compress(&[], &cfg(1)).unwrap();
        let cb = compress(&[], &cfg(1)).unwrap();
        let s = homomorphic_sum(&ca, &cb).unwrap();
        assert_eq!(s.n(), 0);
        assert!(decompress(&s).unwrap().is_empty());
    }

    #[test]
    fn pipeline_stats_reflect_data_shape() {
        // a constant, b varying -> every block pair hits pipeline 2
        let a = vec![0.0f32; 32 * 64];
        let b = wave(32 * 64, 0.5, 100.0);
        let ca = compress(&a, &cfg(1)).unwrap();
        let cb = compress(&b, &cfg(1)).unwrap();
        let (_, st) = homomorphic_sum_with_stats(&ca, &cb).unwrap();
        assert_eq!(st.p1, 0);
        assert_eq!(st.p2, 64);
        assert_eq!(st.p3, 0);
        assert_eq!(st.p4, 0);
        // reversed roles -> pipeline 3
        let (_, st) = homomorphic_sum_with_stats(&cb, &ca).unwrap();
        assert_eq!(st.p3, 64);
        // both constant -> pipeline 1
        let (_, st) = homomorphic_sum_with_stats(&ca, &ca).unwrap();
        assert_eq!(st.p1, 64);
        // both varying -> pipeline 4
        let (_, st) = homomorphic_sum_with_stats(&cb, &cb).unwrap();
        assert_eq!(st.p4, 64);
    }

    #[test]
    fn summing_many_streams_stays_within_accumulated_bound() {
        let eb = 1e-3;
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let n = 2_048;
        let fields: Vec<Vec<f32>> = (0..8).map(|k| wave(n, 0.002 * (k + 1) as f32, 1.0)).collect();
        let mut acc = compress(&fields[0], &cfg).unwrap();
        for f in &fields[1..] {
            let c = compress(f, &cfg).unwrap();
            acc = homomorphic_sum(&acc, &c).unwrap();
        }
        let got = decompress(&acc).unwrap();
        for i in 0..n {
            let exact: f64 = fields.iter().map(|f| f[i] as f64).sum();
            assert!(
                (got[i] as f64 - exact).abs() <= 8.0 * eb + 1e-6,
                "at {i}: {} vs {exact}",
                got[i]
            );
        }
    }
}
