//! The *static* homomorphic compression pipeline (Fig. 4, left side) —
//! ablation baseline.
//!
//! The static approach (as in HoSZp \[30\]) always performs "partial"
//! decompression and recompression: every block pair is inverse fixed-length
//! decoded into integer deltas, reduced, and re-encoded — even when both
//! blocks are constant. It produces byte-identical output to the dynamic
//! pipeline (the codec is canonical), just slower; the
//! `abl_static_vs_dynamic` bench quantifies the gap that Table V attributes
//! to pipelines ①–③.

use crate::op::ReduceOp;
use fzlight::chunk::chunk_spans;
use fzlight::codec;
use fzlight::config::MAX_BLOCK_LEN;
use fzlight::error::{Error, Result};
use fzlight::header::Header;
use fzlight::stream::CompressedStream;

/// Homomorphic sum through the static (always decode + re-encode) pipeline.
pub fn homomorphic_sum_static(
    a: &CompressedStream,
    b: &CompressedStream,
) -> Result<CompressedStream> {
    static_op(a, b, ReduceOp::Sum)
}

fn static_op(a: &CompressedStream, b: &CompressedStream, op: ReduceOp) -> Result<CompressedStream> {
    a.header().check_compatible(b.header())?;
    let n = a.n();
    let nchunks = a.nchunks();
    let block_len = a.block_len();
    let spans = chunk_spans(n, nchunks);

    let parts: Vec<Result<Vec<u8>>> = if nchunks <= 1 {
        spans
            .iter()
            .enumerate()
            .map(|(ci, span)| {
                static_chunk(a.chunk_payload(ci), b.chunk_payload(ci), ci, span.len, block_len, op)
            })
            .collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = spans
                .iter()
                .enumerate()
                .map(|(ci, span)| {
                    let (pa, pb, len) = (a.chunk_payload(ci), b.chunk_payload(ci), span.len);
                    s.spawn(move || static_chunk(pa, pb, ci, len, block_len, op))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("static hz thread panicked")).collect()
        })
    };

    let mut offsets = Vec::with_capacity(nchunks + 1);
    offsets.push(0u64);
    let mut body = Vec::new();
    for part in parts {
        body.extend_from_slice(&part?);
        offsets.push(body.len() as u64);
    }
    let header = Header {
        n: n as u64,
        eb: a.eb(),
        block_len: block_len as u32,
        nchunks: nchunks as u32,
        offsets,
    };
    Ok(CompressedStream::from_parts(header, &body))
}

fn static_chunk(
    pa: &[u8],
    pb: &[u8],
    ci: usize,
    chunk_len: usize,
    block_len: usize,
    op: ReduceOp,
) -> Result<Vec<u8>> {
    if pa.len() < 4 || pb.len() < 4 {
        return Err(Error::Truncated { need: 4, have: pa.len().min(pb.len()) });
    }
    let oa = i32::from_le_bytes(pa[0..4].try_into().unwrap()) as i64;
    let ob = i32::from_le_bytes(pb[0..4].try_into().unwrap()) as i64;
    let o32 =
        i32::try_from(op.apply(oa, ob)).map_err(|_| Error::HomomorphicOverflow { chunk: ci })?;

    // The static pipeline materializes the whole chunk's integer prediction
    // array (the memory cost the dynamic design avoids).
    let mut ia = vec![0i64; chunk_len];
    let mut ib = vec![0i64; chunk_len];
    let mut pos = 4usize;
    for start in (0..chunk_len).step_by(block_len) {
        let len = block_len.min(chunk_len - start);
        pos += codec::decode_block(&pa[pos..], &mut ia[start..start + len])?;
    }
    if pos != pa.len() {
        return Err(Error::Corrupt("chunk payload longer than its blocks"));
    }
    let mut pos = 4usize;
    for start in (0..chunk_len).step_by(block_len) {
        let len = block_len.min(chunk_len - start);
        pos += codec::decode_block(&pb[pos..], &mut ib[start..start + len])?;
    }
    if pos != pb.len() {
        return Err(Error::Corrupt("chunk payload longer than its blocks"));
    }

    for k in 0..chunk_len {
        ia[k] = op.apply(ia[k], ib[k]);
    }

    let mut out = Vec::with_capacity(pa.len().max(pb.len()) + 16);
    out.extend_from_slice(&o32.to_le_bytes());
    let mut scratch = [0i64; MAX_BLOCK_LEN];
    for block in ia.chunks(block_len) {
        scratch[..block.len()].copy_from_slice(block);
        codec::encode_deltas(&scratch[..block.len()], &mut out)
            .map_err(|_| Error::HomomorphicOverflow { chunk: ci })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::homomorphic_sum;
    use fzlight::{compress, Config, ErrorBound};

    #[test]
    fn static_matches_dynamic_byte_for_byte() {
        let data_a: Vec<f32> = (0..7777).map(|i| (i as f32 * 0.01).sin() * 7.0).collect();
        let data_b: Vec<f32> = (0..7777).map(|i| (i as f32 * 0.002).cos() * 3.0).collect();
        for threads in [1usize, 2, 4] {
            let cfg = Config::new(ErrorBound::Abs(1e-4)).with_threads(threads);
            let ca = compress(&data_a, &cfg).unwrap();
            let cb = compress(&data_b, &cfg).unwrap();
            let d = homomorphic_sum(&ca, &cb).unwrap();
            let s = homomorphic_sum_static(&ca, &cb).unwrap();
            assert_eq!(d.as_bytes(), s.as_bytes(), "threads={threads}");
        }
    }

    #[test]
    fn static_rejects_incompatible_streams() {
        let a: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let ca = compress(&a, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let cb = compress(&a, &Config::new(ErrorBound::Abs(1e-2))).unwrap();
        assert!(homomorphic_sum_static(&ca, &cb).is_err());
    }
}
