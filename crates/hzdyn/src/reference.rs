//! Retained scalar reference for the homomorphic sum.
//!
//! This is the original block-at-a-time walk over the two operand streams,
//! built on the scalar codec paths
//! ([`codec::decode_block_scalar`]/[`codec::encode_deltas_scalar`]): `i64`
//! deltas whatever the codes, per-byte `Vec` pushes, bit-buffered residual
//! handling. It is kept for differential testing: the fast path in
//! `dynamic.rs`, byte or `i32` lanes where both codes allow, must produce
//! byte-identical streams (asserted by the
//! workspace `kernel_equivalence` property tests and the `scalar` column of
//! `tests/codec_goldens.tsv`).
//!
//! The chunk walk around the kernel is the fast path's (`crate::walk`);
//! only the per-block kernels differ.

use crate::walk::{drive, Walk};
use fzlight::chunk::block_lens;
use fzlight::codec;
use fzlight::config::MAX_BLOCK_LEN;
use fzlight::error::{Error, Result};
use fzlight::stream::CompressedStream;

/// Homomorphic element-wise sum via the scalar reference kernels.
///
/// Byte-identical to [`crate::homomorphic_sum`]; slower by design.
pub fn homomorphic_sum_scalar(
    a: &CompressedStream,
    b: &CompressedStream,
) -> Result<CompressedStream> {
    drive(a.header(), [a, b], |_, [oa, ob]| oa + ob, hz_chunk_scalar).map(|(s, _)| s)
}

/// The original per-block chunk walk: dynamic pipeline dispatch with scalar
/// decode → add → scalar encode on pipeline ④.
fn hz_chunk_scalar(w: &mut Walk<'_, 2>) -> Result<()> {
    let Walk { ci, len, block_len, ops: [a, b], out, .. } = w;
    let mut da = [0i64; MAX_BLOCK_LEN];
    let mut db = [0i64; MAX_BLOCK_LEN];
    for len in block_lens(*len, *block_len) {
        let ca = codec::peek_code(a.rest())?;
        let cb = codec::peek_code(b.rest())?;
        match (ca, cb) {
            (0, 0) => {
                out.push(0);
                a.pos += 1;
                b.pos += 1;
            }
            (0, _) => {
                a.pos += 1;
                b.pos += codec::copy_block(b.rest(), len, out)?;
            }
            (_, 0) => {
                b.pos += 1;
                a.pos += codec::copy_block(a.rest(), len, out)?;
            }
            (_, _) => {
                a.pos += codec::decode_block_scalar(a.rest(), &mut da[..len])?;
                b.pos += codec::decode_block_scalar(b.rest(), &mut db[..len])?;
                for k in 0..len {
                    da[k] += db[k];
                }
                codec::encode_deltas_scalar(&da[..len], out)
                    .map_err(|_| Error::HomomorphicOverflow { chunk: *ci })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::{compress, Config, ErrorBound};

    #[test]
    fn scalar_reference_is_byte_identical_to_fast_path() {
        let a: Vec<f32> = (0..20_000).map(|i| (i as f32 * 0.013).sin() * 6.0).collect();
        let b: Vec<f32> = (0..20_000).map(|i| (i as f32 * 0.029).cos() * 3.0).collect();
        for threads in [1usize, 3] {
            let cfg = Config::new(ErrorBound::Abs(1e-4)).with_threads(threads);
            let ca = compress(&a, &cfg).unwrap();
            let cb = compress(&b, &cfg).unwrap();
            let fast = crate::homomorphic_sum(&ca, &cb).unwrap();
            let slow = homomorphic_sum_scalar(&ca, &cb).unwrap();
            assert_eq!(fast.as_bytes(), slow.as_bytes(), "threads={threads}");
        }
    }

    #[test]
    fn scalar_reference_handles_mixed_pipelines() {
        // interleave constant and varying regions to exercise ①②③④
        let n = 32 * 128;
        let a: Vec<f32> =
            (0..n).map(|i| if (i / 64) % 2 == 0 { 0.0 } else { (i as f32 * 0.7).sin() }).collect();
        let b: Vec<f32> =
            (0..n).map(|i| if (i / 128) % 2 == 0 { 0.0 } else { (i as f32 * 0.3).cos() }).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let ca = compress(&a, &cfg).unwrap();
        let cb = compress(&b, &cfg).unwrap();
        let fast = crate::homomorphic_sum(&ca, &cb).unwrap();
        let slow = homomorphic_sum_scalar(&ca, &cb).unwrap();
        assert_eq!(fast.as_bytes(), slow.as_bytes());
    }
}
