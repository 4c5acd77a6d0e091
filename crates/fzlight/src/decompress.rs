//! Parallel decompression: each thread-chunk decodes independently into its
//! disjoint output range, driven by the header's offset table.

use crate::chunk::{chunk_spans, fork_join, split_mut};
use crate::codec;
use crate::config::MAX_BLOCK_LEN;
use crate::error::{Error, Result};
use crate::stream::CompressedStream;

/// Decompress a stream into a freshly allocated vector.
///
/// Parallelism follows the stream's chunk layout (see
/// [`fork_join`]).
pub fn decompress(stream: &CompressedStream) -> Result<Vec<f32>> {
    let mut out = vec![0f32; stream.n()];
    decompress_into(stream, &mut out)?;
    Ok(out)
}

/// Decompress a stream into a caller-provided buffer of exactly `stream.n()`
/// elements.
pub fn decompress_into(stream: &CompressedStream, out: &mut [f32]) -> Result<()> {
    if out.len() != stream.n() {
        return Err(Error::Mismatch("output buffer length != stream element count"));
    }
    let (block_len, two_eb) = (stream.block_len(), 2.0 * stream.eb());
    let parts = split_mut(out, stream.nchunks());
    fork_join(parts, |ci, part| decompress_chunk(stream.chunk_payload(ci), block_len, two_eb, part))
}

/// Decompress only the elements in `range`, without touching the rest of the
/// stream.
///
/// Random access is chunk-granular (the delta chain restarts at every chunk
/// outlier), so the chunks overlapping `range` are decoded and sliced. Cost
/// is proportional to the covering chunks, not the stream — with `nchunks`
/// equal to the compression thread count, a range query on a large stream
/// touches `len(range) + O(n / nchunks)` elements.
pub fn decompress_range(
    stream: &CompressedStream,
    range: std::ops::Range<usize>,
) -> Result<Vec<f32>> {
    let n = stream.n();
    if range.start > range.end || range.end > n {
        return Err(Error::Mismatch("range out of bounds"));
    }
    if range.is_empty() {
        return Ok(Vec::new());
    }
    let block_len = stream.block_len();
    let two_eb = 2.0 * stream.eb();
    let mut out = Vec::with_capacity(range.len());
    let mut scratch = Vec::new();
    for (ci, span) in chunk_spans(n, stream.nchunks()).enumerate() {
        let chunk_range = span.start..span.start + span.len;
        if chunk_range.end <= range.start || chunk_range.start >= range.end {
            continue;
        }
        scratch.clear();
        scratch.resize(span.len, 0f32);
        decompress_chunk(stream.chunk_payload(ci), block_len, two_eb, &mut scratch)?;
        let lo = range.start.max(chunk_range.start) - chunk_range.start;
        let hi = range.end.min(chunk_range.end) - chunk_range.start;
        out.extend_from_slice(&scratch[lo..hi]);
    }
    debug_assert_eq!(out.len(), range.len());
    Ok(out)
}

/// Decode one chunk payload (`[outlier i32][blocks...]`) into `out`.
pub(crate) fn decompress_chunk(
    payload: &[u8],
    block_len: usize,
    two_eb: f64,
    out: &mut [f32],
) -> Result<()> {
    if payload.len() < 4 {
        return Err(Error::Truncated { need: 4, have: payload.len() });
    }
    let outlier = i32::from_le_bytes(payload[0..4].try_into().unwrap()) as i64;
    let mut pos = 4usize;
    let mut q = outlier;
    let mut deltas = [0i64; MAX_BLOCK_LEN];
    for block_out in out.chunks_mut(block_len) {
        // Constant-block fast path: a zero code byte means every delta is
        // zero, so the whole block is one `fill` — this is what lets
        // decompression of smooth data run at near-STREAM speed (Table IV).
        if codec::peek_code(&payload[pos..])? == 0 {
            pos += 1;
            block_out.fill((q as f64 * two_eb) as f32);
            continue;
        }
        let used = codec::decode_block(&payload[pos..], &mut deltas[..block_out.len()])?;
        pos += used;
        // The chunk's first delta is zero by construction, so `q` starts at
        // the outlier; corrupt streams may violate this but stay memory-safe.
        for (k, o) in block_out.iter_mut().enumerate() {
            q += deltas[k];
            *o = (q as f64 * two_eb) as f32;
        }
    }
    if pos != payload.len() {
        return Err(Error::Corrupt("chunk payload longer than its blocks"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, Config, ErrorBound};

    #[test]
    fn wrong_output_length_rejected() {
        let data = vec![1.0f32; 100];
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let mut out = vec![0f32; 99];
        assert!(matches!(decompress_into(&s, &mut out), Err(Error::Mismatch(_))));
    }

    #[test]
    fn corrupt_body_detected_not_panicking() {
        let data: Vec<f32> = (0..1024).map(|i| (i as f32).sin()).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(2)).unwrap();
        let nchunks = s.nchunks();
        let mut bytes = s.into_bytes();
        // Stomp on the first block's code byte of chunk 0: it sits right
        // after the header and the chunk's 4-byte outlier. 33 is an invalid
        // code length, so decoding must fail cleanly, not panic or read OOB.
        let at = crate::Header::serialized_len(nchunks) + 4;
        bytes[at] = 33;
        let s2 = crate::stream::CompressedStream::from_bytes(bytes).unwrap();
        assert!(decompress(&s2).is_err());
    }

    #[test]
    fn trailing_payload_bytes_detected() {
        // Hand-build a chunk payload with an extra byte.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0i32.to_le_bytes());
        payload.push(0); // one constant block of len<=32
        payload.push(0); // spurious extra block byte
        let mut out = vec![0f32; 16];
        assert!(decompress_chunk(&payload, 32, 2e-3, &mut out).is_err());
    }

    #[test]
    fn range_decompression_matches_full() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.007).sin() * 5.0).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(4)).unwrap();
        let full = decompress(&s).unwrap();
        for range in [0..0, 0..1, 0..10_000, 5..7, 2400..2600, 9_990..10_000, 7_500..7_500] {
            let part = decompress_range(&s, range.clone()).unwrap();
            assert_eq!(part, full[range.clone()], "range {range:?}");
        }
    }

    #[test]
    fn range_out_of_bounds_rejected() {
        let data = vec![1.0f32; 100];
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        assert!(decompress_range(&s, 50..101).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert!(decompress_range(&s, 60..50).is_err());
        }
    }

    #[test]
    fn decompresses_exactly_quantized_grid() {
        // values exactly on the quantization grid reconstruct bit-exactly
        let eb = 0.5f64;
        let data: Vec<f32> = (-50..50).map(|q| (q as f64 * 2.0 * eb) as f32).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(eb))).unwrap();
        assert_eq!(decompress(&s).unwrap(), data);
    }
}
