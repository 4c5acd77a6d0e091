//! Parallel fused compression (quantization + prediction + encoding in one
//! pass over contiguous memory, Sec. III-B.2).

use crate::chunk::{chunk_spans, effective_chunks, fork_join};
use crate::codec;
use crate::config::{Config, MAX_BLOCK_LEN};
use crate::error::Result;
use crate::quantize::quantize_block;
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
/// in the stream layout (clamped to the element count).
pub fn compress_resolved(
    data: &[f32],
    eb_abs: f64,
    block_len: usize,
    threads: usize,
) -> Result<CompressedStream> {
    let inv_2eb = 1.0 / (2.0 * eb_abs);
    compress_chunks(data, eb_abs, block_len, threads, |chunk, base, out| {
        compress_chunk(chunk, base, block_len, inv_2eb, out)
    })
}

/// The compress driver: cut `data` into thread-chunks, run `kernel(chunk,
/// index of its first element, out)` on each, assemble the stream.
pub(crate) fn compress_chunks(
    data: &[f32],
    eb_abs: f64,
    block_len: usize,
    threads: usize,
    kernel: impl Fn(&[f32], usize, &mut Vec<u8>) -> Result<()> + Sync,
) -> Result<CompressedStream> {
    let n = data.len();
    let chunks = fork_join(chunk_spans(n, effective_chunks(n, threads)), |_, span| {
        // Capacity guess: outlier + one code byte per block + a quarter of
        // the raw size (ratio 4 heuristic; `Vec` growth handles
        // low-compressibility data).
        let mut out = Vec::with_capacity(4 + span.len.div_ceil(block_len) + span.len);
        kernel(&data[span.start..span.start + span.len], span.start, &mut out).map(|()| out)
    });
    let chunks = chunks.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(CompressedStream::from_chunks(n, eb_abs, block_len, &chunks))
}

/// Fused quantization + prediction + encoding of one thread-chunk.
///
/// Emits `[outlier i32][block records...]` into `out`. The first delta of the
/// chunk is always zero (the first quantization integer lives in the
/// outlier), which the homomorphic sum preserves.
pub(crate) fn compress_chunk(
    chunk: &[f32],
    base: usize,
    block_len: usize,
    inv_2eb: f64,
    out: &mut Vec<u8>,
) -> Result<()> {
    debug_assert!(!chunk.is_empty());
    debug_assert!(block_len <= MAX_BLOCK_LEN);
    let mut qbuf = [0i32; MAX_BLOCK_LEN];
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mut q_prev = 0i64;
    let mut index = base;
    for block in chunk.chunks(block_len) {
        let qb = &mut qbuf[..block.len()];
        quantize_block(block, inv_2eb, index, qb)?;
        if index == base {
            // chunk outlier: the first quantization integer, stored verbatim
            out.extend_from_slice(&qb[0].to_le_bytes());
            q_prev = qb[0] as i64;
        }
        let mut signs = 0u64;
        for (k, &qi) in qb.iter().enumerate() {
            let q = qi as i64;
            let d = q - q_prev;
            q_prev = q;
            // |d| <= 2^32 - 2 because both integers fit in i32.
            mags[k] = d.unsigned_abs() as u32;
            signs |= u64::from(d < 0) << k;
        }
        index += block.len();
        codec::encode_block(&mags[..block.len()], signs, out);
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
        assert_eq!(s.header().body_len(), expected_body);
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
