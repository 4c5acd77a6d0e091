//! The dynamic homomorphic compression pipeline (Fig. 4, right side).
//!
//! Per chunk: combine the outliers, then walk the two block sequences in
//! lockstep, dispatching each pair through the lightest applicable pipeline.
//! There is one kernel, over integer coefficients: it computes
//! `alpha·A + beta·B`, and [`homomorphic_sum`] and [`ReduceOp::Diff`] are its
//! `(1, 1)` and `(1, −1)`. It works one block at a time, writing each result
//! block straight into the chunk's output. For those two, pipeline ④ picks
//! the narrowest width the operand codes allow: byte lanes of the packed
//! words when both codes are at most 6 (`BYTE_CODE`) and the block length is
//! a multiple of 8, `i32` lanes when both are at most 30 (`LANE_CODE`), and
//! `i64` otherwise. The chunk walk around it is `crate::walk`'s, so
//! work parallelizes over thread-chunks exactly like compression does and
//! the multi-thread mode of the collectives gets homomorphic speedups too.

use crate::op::ReduceOp;
use crate::stats::PipelineStats;
use crate::walk::{drive, emit, Cursor, Walk};
use fzlight::chunk::block_lens;
use fzlight::codec;
use fzlight::config::MAX_BLOCK_LEN;
use fzlight::error::Result;
use fzlight::stream::CompressedStream;

/// Homomorphic element-wise sum of two compatible streams.
pub fn homomorphic_sum(a: &CompressedStream, b: &CompressedStream) -> Result<CompressedStream> {
    homomorphic_op(a, b, ReduceOp::Sum)
}

/// Homomorphic sum that also reports pipeline-selection statistics
/// (Table V).
pub fn homomorphic_sum_with_stats(
    a: &CompressedStream,
    b: &CompressedStream,
) -> Result<(CompressedStream, PipelineStats)> {
    combine(a, 1, b, 1, true)
}

/// Homomorphic binary reduction of two compatible streams.
pub fn homomorphic_op(
    a: &CompressedStream,
    b: &CompressedStream,
    op: ReduceOp,
) -> Result<CompressedStream> {
    let (alpha, beta) = op.coefficients();
    homomorphic_axpby(a, alpha, b, beta)
}

/// Homomorphic linear combination `alpha*A + beta*B` with integer
/// coefficients, computed directly on the compressed streams.
///
/// Generalizes [`homomorphic_sum`] (`1,1`), [`homomorphic_op`] with `Diff`
/// (`1,-1`) and [`homomorphic_scale`]: any operation linear on the
/// quantization integers composes with the delta encoding. The dynamic
/// pipeline heuristic still applies — a constant block contributes nothing,
/// so single-sided blocks reduce to a scale (or a copy when the coefficient
/// is 1).
pub fn homomorphic_axpby(
    a: &CompressedStream,
    alpha: i32,
    b: &CompressedStream,
    beta: i32,
) -> Result<CompressedStream> {
    combine(a, alpha, b, beta, true).map(|(s, _)| s)
}

/// Homomorphic integer scaling: multiply every reconstructed value by `k`
/// without decompressing (`decompress(scale(A, k)) == k * q_A` on the
/// quantization integers).
pub fn homomorphic_scale(a: &CompressedStream, k: i32) -> Result<CompressedStream> {
    let k = k as i64;
    let scaled = drive(
        a.header(),
        [a],
        |_, [o]| o * k,
        |w| {
            let mut scratch = [0i64; MAX_BLOCK_LEN];
            block_lens(w.len, w.block_len)
                .try_for_each(|len| scale_block(&mut w.ops[0], k, len, &mut scratch, w.ci, w.out))
        },
    )?;
    Ok(scaled.0)
}

/// `alpha·A + beta·B` over `crate::walk`: through the dynamic dispatch,
/// or — the static ablation — with every block pair forced down pipeline ④.
pub(crate) fn combine(
    a: &CompressedStream,
    alpha: i32,
    b: &CompressedStream,
    beta: i32,
    dispatch: bool,
) -> Result<(CompressedStream, PipelineStats)> {
    let (alpha, beta) = (alpha as i64, beta as i64);
    drive(
        a.header(),
        [a, b],
        |_, [oa, ob]| alpha * oa + beta * ob,
        |w| combine_blocks(w, alpha, beta, dispatch),
    )
}

/// The widest operand code pipeline ④ adds in `i32` lanes: magnitudes of
/// two code-30 blocks are below `2^30`, so `|a ± b| <= 2^31 - 2` fits an
/// `i32` and the lanes never widen or wrap. Wider operands take the `i64`
/// route.
const LANE_CODE: u8 = 30;

/// The widest operand code pipeline ④ adds in byte lanes
/// ([`codec::add_narrow_blocks`]): magnitudes of two code-6 blocks are at
/// most 63, so `128 + a ± b` stays inside a byte. Blocks whose length is not
/// a multiple of 8 take the `i32` lanes.
const BYTE_CODE: u8 = 6;

/// The result block when the other operand's block is constant (pipelines ②
/// and ③, and all of [`homomorphic_scale`]): `k` times `src`'s next block —
/// a verbatim copy when `k == 1`, and a constant block stays constant.
fn scale_block(
    src: &mut Cursor<'_>,
    k: i64,
    len: usize,
    scratch: &mut [i64; MAX_BLOCK_LEN],
    ci: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    if k == 1 || codec::peek_code(src.rest())? == 0 {
        src.pos += codec::copy_block(src.rest(), len, out)?;
        return Ok(());
    }
    src.pos += codec::decode_block(src.rest(), &mut scratch[..len])?;
    scratch[..len].iter_mut().for_each(|d| *d *= k);
    emit(&scratch[..len], ci, out)
}

/// The dynamic kernel: one chunk pair, block by block, each result block
/// encoded straight into `out`.
fn combine_blocks(w: &mut Walk<'_, 2>, alpha: i64, beta: i64, dispatch: bool) -> Result<()> {
    let Walk { ci, len, block_len, ops: [a, b], out, stats } = w;
    let ci = *ci;
    let unit = alpha == 1 && beta.abs() == 1;
    let mut lanes = [0i32; MAX_BLOCK_LEN];
    let mut da = [0i64; MAX_BLOCK_LEN];
    let mut db = [0i64; MAX_BLOCK_LEN];
    for len in block_lens(*len, *block_len) {
        let ca = codec::peek_code(a.rest())?;
        let cb = codec::peek_code(b.rest())?;
        match (ca, cb) {
            (0, 0) if dispatch => {
                // ① both constant: every result delta is zero.
                out.push(0);
                a.pos += 1;
                b.pos += 1;
                stats.p1 += 1;
            }
            (0, _) if dispatch => {
                // ② left constant: the result is beta·B (0 + b = b copies B
                // verbatim; 0 - b needs a negation pass over B's deltas).
                a.pos += 1;
                scale_block(b, beta, len, &mut da, ci, out)?;
                stats.p2 += 1;
            }
            (_, 0) if dispatch => {
                // ③ right constant: the result is alpha·A.
                b.pos += 1;
                scale_block(a, alpha, len, &mut da, ci, out)?;
                stats.p3 += 1;
            }
            _ if unit && ca.min(cb) > 0 && ca.max(cb) <= BYTE_CODE && len.is_multiple_of(8) => {
                // ④ in byte lanes: both blocks stay packed, eight deltas per
                // word, and the result block is written once.
                let (na, nb) = codec::add_narrow_blocks(a.rest(), b.rest(), len, beta < 0, out)?;
                a.pos += na;
                b.pos += nb;
                stats.p4 += 1;
            }
            _ if unit && ca.max(cb) <= LANE_CODE => {
                // ④ in i32 lanes: IFE A, fuse B's decode with the add or
                // subtract, FE the lanes (their magnitudes, signs and code in
                // one pass).
                let lanes = &mut lanes[..len];
                a.pos += codec::decode_block_i32(a.rest(), lanes)?;
                b.pos += codec::decode_block_add_i32(b.rest(), lanes, beta < 0)?;
                codec::encode_deltas_i32(lanes, out);
                stats.p4 += 1;
            }
            _ => {
                // ④ in i64: a code-31 or -32 operand, or other coefficients.
                let (da, db) = (&mut da[..len], &mut db[..len]);
                a.pos += codec::decode_block(a.rest(), da)?;
                b.pos += codec::decode_block(b.rest(), db)?;
                da.iter_mut().zip(&*db).for_each(|(d, s)| *d = alpha * *d + beta * s);
                emit(da, ci, out)?;
                stats.p4 += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::{compress, decompress, Config, Error, ErrorBound};

    #[test]
    fn outlier_overflow_is_detected() {
        // Two large constant fields: outliers near i32 max each.
        let eb = 1e-4f64;
        let big = (i32::MAX as f64 * 2.0 * eb * 0.9) as f32;
        let data = vec![big; 64];
        let cfg = Config::new(ErrorBound::Abs(eb));
        let ca = compress(&data, &cfg).unwrap();
        let err = homomorphic_sum(&ca, &ca).unwrap_err();
        assert!(matches!(err, Error::HomomorphicOverflow { chunk: 0 }));
    }

    /// 96 elements in three chunks of 32: chunks 0 and 1 smooth, chunk 2
    /// all `tail`.
    fn three_chunks(tail: f32) -> CompressedStream {
        let data: Vec<f32> =
            (0..96).map(|i| if i < 64 { (i as f32 * 0.1).sin() } else { tail }).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-4)).with_threads(3);
        let stream = compress(&data, &cfg).unwrap();
        assert_eq!(stream.nchunks(), 3);
        stream
    }

    /// `stream` with chunk 1's payload one byte short: its last block record
    /// is cut.
    fn chunk_1_cut(stream: &CompressedStream) -> CompressedStream {
        let [p0, p1, p2] = [0, 1, 2].map(|ci| stream.chunk_payload(ci));
        let payloads = [p0, &p1[..p1.len() - 1], p2];
        CompressedStream::from_chunks(96, stream.eb(), stream.block_len(), payloads)
    }

    #[test]
    fn multi_chunk_errors_name_the_first_failing_chunk() {
        // chunk 2's outliers sum past i32, chunks 0 and 1 are fine
        let big = three_chunks((i32::MAX as f64 * 2.0 * 1e-4 * 0.9) as f32);
        let overflow = Error::HomomorphicOverflow { chunk: 2 };
        assert_eq!(homomorphic_sum(&big, &big), Err(overflow));
        // chunk 1's last block, code 9 over 32 elements, is 1 + 4 + 36 bytes
        let small = three_chunks(1.0);
        let truncated = Error::Truncated { need: 41, have: 40 };
        let cut = chunk_1_cut(&small);
        assert_eq!(homomorphic_sum(&cut, &small), Err(truncated.clone()));
        assert_eq!(homomorphic_sum(&small, &cut), Err(truncated.clone()));
        // both at once: chunk 1's error is reported, whichever finishes first
        assert_eq!(homomorphic_sum(&chunk_1_cut(&big), &big), Err(truncated));
    }

    #[test]
    fn scale_by_zero_one_and_negative() {
        let data: Vec<f32> = (0..500).map(|i| (i as f32 * 0.1).sin()).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
        let c = compress(&data, &cfg).unwrap();
        let z = decompress(&homomorphic_scale(&c, 0).unwrap()).unwrap();
        assert!(z.iter().all(|&v| v == 0.0));
        let one = homomorphic_scale(&c, 1).unwrap();
        assert_eq!(one.as_bytes(), c.as_bytes());
        let neg = decompress(&homomorphic_scale(&c, -2).unwrap()).unwrap();
        let base = decompress(&c).unwrap();
        for i in 0..base.len() {
            assert!((neg[i] + 2.0 * base[i]).abs() < 1e-5, "at {i}");
        }
    }

    #[test]
    fn axpby_matches_integer_combination() {
        let eb = 1e-4f64;
        let a: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.02).sin() * 4.0).collect();
        let b: Vec<f32> = (0..3000).map(|i| (i as f32 * 0.05).cos() * 2.0).collect();
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let ca = compress(&a, &cfg).unwrap();
        let cb = compress(&b, &cfg).unwrap();
        let q = |v: f32| ((v as f64) / (2.0 * eb)).round() as i64;
        let da = decompress(&ca).unwrap();
        let db = decompress(&cb).unwrap();
        for (alpha, beta) in [(2i32, 3i32), (1, -1), (-4, 1), (0, 5), (1, 1)] {
            let out = decompress(&homomorphic_axpby(&ca, alpha, &cb, beta).unwrap()).unwrap();
            for i in 0..a.len() {
                assert_eq!(
                    q(out[i]),
                    alpha as i64 * q(da[i]) + beta as i64 * q(db[i]),
                    "alpha={alpha} beta={beta} at {i}"
                );
            }
        }
    }

    #[test]
    fn axpby_one_one_equals_sum_bytes() {
        let a: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.03).sin()).collect();
        let b: Vec<f32> = (0..2000).map(|i| (i as f32 * 0.07).cos()).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(3);
        let ca = compress(&a, &cfg).unwrap();
        let cb = compress(&b, &cfg).unwrap();
        let sum = homomorphic_sum(&ca, &cb).unwrap();
        let axpby = homomorphic_axpby(&ca, 1, &cb, 1).unwrap();
        assert_eq!(sum.as_bytes(), axpby.as_bytes());
    }

    #[test]
    fn payload_size_mismatch_detected() {
        // Craft incompatible bodies by concatenating a truncated chunk: the
        // simplest way is to corrupt a code byte so block walking desyncs.
        let data: Vec<f32> = (0..256).map(|i| (i as f32).sin() * 10.0).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let c = compress(&data, &cfg).unwrap();
        let mut bytes = c.as_bytes().to_vec();
        let body_start = fzlight::header::Header::serialized_len(1);
        bytes[body_start + 4] = 33; // invalid code length
        let bad = CompressedStream::from_bytes(bytes).unwrap();
        assert!(homomorphic_sum(&bad, &c).is_err());
    }
}
