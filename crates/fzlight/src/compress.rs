//! Parallel fused compression (quantization + prediction + encoding in one
//! pass over contiguous memory, Sec. III-B.2).
//!
//! Per block of at most [`MAX_BLOCK_LEN`] values, everything stays in three
//! stack buffers: [`quantize_block`] rounds the values to `i32` (no call, no
//! branch), one loop over neighbouring integers takes each delta's `u32`
//! magnitude and sign in 32-bit wrapping arithmetic, and
//! `codec::encode_block` packs them behind the bitmap that
//! `codec::sign_bitmap` gathers from the sign bytes. Nothing is widened to
//! 64 bits and no loop carries a value from one element to the next, so each
//! of them compiles to vector code on the baseline target.

use crate::chunk::{chunk_spans, effective_chunks, ChunkSpan};
use crate::codec;
use crate::config::{check_block_len, Config, MAX_BLOCK_LEN};
use crate::error::Result;
use crate::quantize::{inv_step, quantize_block};
use crate::stream::CompressedStream;

/// Compress `data` with the given configuration.
///
/// Relative error bounds are resolved against the data range first; see
/// [`compress_resolved`] when the absolute bound is already known (e.g. in
/// collectives, where every rank must bake the *same* bound into its stream).
pub fn compress(data: &[f32], cfg: &Config) -> Result<CompressedStream> {
    cfg.validate()?;
    let eb = cfg.eb.resolve(data)?;
    compress_resolved(data, eb, cfg.block_len, cfg.threads)
}

/// Compress with an already-resolved absolute error bound.
///
/// `threads` is both the parallelism degree and the number of thread-chunks
/// in the stream layout (clamped to the element count). `block_len` outside
/// `1..=MAX_BLOCK_LEN` and a bound the quantizer cannot use are typed errors,
/// as they are from [`compress`].
pub fn compress_resolved(
    data: &[f32],
    eb_abs: f64,
    block_len: usize,
    threads: usize,
) -> Result<CompressedStream> {
    check_block_len(block_len)?;
    let inv_2eb = inv_step(eb_abs)?;
    compress_chunks(data, eb_abs, block_len, threads, |chunk, base, out| {
        compress_chunk(chunk, base, block_len, inv_2eb, out)
    })
}

/// The compress driver: cut `data` into thread-chunks and assemble the
/// stream from `kernel(chunk, index of its first element, out)` on each,
/// which appends the chunk's payload to `out`.
pub(crate) fn compress_chunks(
    data: &[f32],
    eb_abs: f64,
    block_len: usize,
    threads: usize,
    kernel: impl Fn(&[f32], usize, &mut Vec<u8>) -> Result<()> + Sync,
) -> Result<CompressedStream> {
    let n = data.len();
    // Estimate: outlier + one code byte per block + a quarter of the raw size
    // (ratio 4 heuristic; the buffer grows for low-compressibility data).
    let estimate = |_, span: &ChunkSpan| 4 + span.len.div_ceil(block_len) + span.len;
    let spans = chunk_spans(n, effective_chunks(n, threads));
    let built =
        CompressedStream::assemble(n, eb_abs, block_len, spans, estimate, |_, span, out| {
            kernel(&data[span.start..span.start + span.len], span.start, out)
        });
    built.map(|(stream, ())| stream)
}

/// Fused quantization + prediction + encoding of one thread-chunk.
///
/// Emits `[outlier i32][block records...]` into `out`. The first delta of the
/// chunk is always zero (the first quantization integer lives in the
/// outlier), which the homomorphic sum preserves.
///
/// The integers of a block land in `q[1..=len]`; `q[0]` carries the previous
/// block's last integer in, so delta `k` is `q[k + 1] - q[k]` for every `k`
/// with no special first element. The difference of two `i32` spans 33 bits
/// signed, but its magnitude always fits `u32`: `a.wrapping_sub(b)` is the
/// difference modulo `2^32`, which is the magnitude itself when `a >= b` and
/// its two's-complement negation when `a < b`.
pub(crate) fn compress_chunk(
    chunk: &[f32],
    base: usize,
    block_len: usize,
    inv_2eb: f64,
    out: &mut Vec<u8>,
) -> Result<()> {
    debug_assert!(!chunk.is_empty());
    debug_assert!(block_len <= MAX_BLOCK_LEN);
    let mut q = [0i32; MAX_BLOCK_LEN + 1];
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mut neg = [0u8; MAX_BLOCK_LEN];
    let mut index = base;
    for block in chunk.chunks(block_len) {
        let len = block.len();
        quantize_block(block, inv_2eb, index, &mut q[1..=len])?;
        if index == base {
            // chunk outlier: the first quantization integer, stored verbatim
            out.extend_from_slice(&q[1].to_le_bytes());
            q[0] = q[1];
        }
        let pairs = q[..len].iter().zip(&q[1..=len]);
        for ((m, s), (&b, &a)) in mags.iter_mut().zip(&mut neg).zip(pairs) {
            let d = a.wrapping_sub(b) as u32;
            *s = u8::from(a < b);
            *m = if a < b { d.wrapping_neg() } else { d };
        }
        q[0] = q[len];
        index += len;
        codec::encode_block(&mags[..len], codec::sign_bitmap(&neg[..len]), out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;

    #[test]
    fn chunk_layout_matches_thread_count() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-2)).with_threads(4)).unwrap();
        assert_eq!(s.nchunks(), 4);
        let s1 = compress(&data, &Config::new(ErrorBound::Abs(1e-2))).unwrap();
        assert_eq!(s1.nchunks(), 1);
    }

    #[test]
    fn first_delta_of_every_chunk_is_zero() {
        // The first block of each chunk must decode with delta[0] == 0.
        let data: Vec<f32> = (0..256).map(|i| (i as f32).sin() * 10.0).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(4)).unwrap();
        for ci in 0..s.nchunks() {
            let payload = s.chunk_payload(ci);
            let mut deltas = [0i64; 32];
            codec::decode_block(&payload[4..], &mut deltas).unwrap();
            assert_eq!(deltas[0], 0, "chunk {ci}");
        }
    }

    #[test]
    fn compressed_size_accounts_header_and_body() {
        let data = vec![0.0f32; 4096];
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(2)).unwrap();
        // all-zero data: per chunk 4-byte outlier + 64 one-byte constant blocks
        let expected_body = 2 * (4 + 64);
        assert_eq!(s.body_len(), expected_body);
        assert_eq!(s.compressed_size(), crate::Header::serialized_len(2) + expected_body);
    }

    #[test]
    fn error_reported_with_global_index() {
        let mut data: Vec<f32> = vec![1.0; 100];
        data[73] = f32::NAN;
        let err = compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(3))
            .expect_err("should fail");
        assert_eq!(err, crate::error::Error::NonFiniteInput { index: 73 });
    }
}
