//! The traditional **D**ecompression-**O**peration-**C**ompression workflow —
//! the `fZ-light (DOC)` baseline of Table VI and the per-round reduction step
//! of the C-Coll collective framework.
//!
//! Unlike the homomorphic path, DOC fully decompresses both operands, applies
//! the reduction on `f32` values, and recompresses the result. The extra
//! quantization of the recompression step is why the paper observes slightly
//! *worse* NRMSE for DOC than for hZ-dynamic.

use crate::op::ReduceOp;
use fzlight::chunk::fork_join;
use fzlight::error::Result;
use fzlight::stream::CompressedStream;
use fzlight::{compress_resolved, decompress};

/// Reduce two compatible streams through decompress → operate → recompress.
///
/// The result is compressed with the same error bound, block length and
/// chunk layout as the inputs, so it stays homomorphically compatible with
/// other streams of the same family.
pub fn doc_reduce(
    a: &CompressedStream,
    b: &CompressedStream,
    op: ReduceOp,
) -> Result<CompressedStream> {
    a.header().check_compatible(b.header())?;
    let da = decompress(a)?;
    let db = decompress(b)?;
    let mut reduced = da;
    reduce_in_place(&mut reduced, &db, op, a.nchunks());
    compress_resolved(&reduced, a.eb(), a.block_len(), a.nchunks().max(1))
}

/// Element-wise `acc = op(acc, other)` on raw values, parallelized across
/// `threads` chunks (the CPT kernel the collectives charge to `Cpt`).
pub fn reduce_in_place(acc: &mut [f32], other: &[f32], op: ReduceOp, threads: usize) {
    assert_eq!(acc.len(), other.len(), "operand lengths must match");
    // short vectors are not worth a fork
    let threads = if acc.len() < 4096 { 1 } else { threads.max(1) };
    let chunk = acc.len().div_ceil(threads).max(1);
    fork_join(acc.chunks_mut(chunk).zip(other.chunks(chunk)), |_, (xs, ys)| reduce(xs, ys, op))
}

/// `xs[i] = op(xs[i], ys[i])`. Its own function so the two slices arrive as
/// non-aliasing arguments and the loop vectorizes.
fn reduce(xs: &mut [f32], ys: &[f32], op: ReduceOp) {
    for (x, &y) in xs.iter_mut().zip(ys) {
        *x = op.apply_f32(*x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::{compress, Config, ErrorBound};

    #[test]
    fn doc_sum_is_error_bounded() {
        let eb = 1e-3;
        let a: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin() * 4.0).collect();
        let b: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.03).cos() * 2.0).collect();
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let ca = compress(&a, &cfg).unwrap();
        let cb = compress(&b, &cfg).unwrap();
        let s = doc_reduce(&ca, &cb, ReduceOp::Sum).unwrap();
        let out = decompress(&s).unwrap();
        for i in 0..a.len() {
            // each input contributes eb, the recompression another eb
            assert!(
                (out[i] - (a[i] + b[i])).abs() as f64 <= 3.0 * eb + 1e-9,
                "at {i}: {} vs {}",
                out[i],
                a[i] + b[i]
            );
        }
    }

    #[test]
    fn doc_result_stays_homomorphically_compatible() {
        let a: Vec<f32> = (0..1000).map(|i| i as f32 * 0.001).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-4)).with_threads(3);
        let ca = compress(&a, &cfg).unwrap();
        let s = doc_reduce(&ca, &ca, ReduceOp::Sum).unwrap();
        assert!(s.header().check_compatible(ca.header()).is_ok());
        // and a homomorphic op on it works
        assert!(crate::homomorphic_sum(&s, &ca).is_ok());
    }

    #[test]
    fn reduce_in_place_parallel_matches_serial() {
        let a: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..10_000).map(|i| (i * 2) as f32).collect();
        let mut serial = a.clone();
        reduce_in_place(&mut serial, &b, ReduceOp::Sum, 1);
        let mut parallel = a.clone();
        reduce_in_place(&mut parallel, &b, ReduceOp::Sum, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 30.0);
    }

    #[test]
    #[should_panic(expected = "operand lengths")]
    fn reduce_in_place_length_mismatch_panics() {
        let mut a = vec![0f32; 4];
        let b = vec![0f32; 5];
        reduce_in_place(&mut a, &b, ReduceOp::Sum, 1);
    }
}
