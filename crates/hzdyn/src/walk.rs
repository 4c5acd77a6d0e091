//! The one chunk walk under every homomorphic operator.
//!
//! Whatever is computed — sum, difference, `alpha·A + beta·B`, a scale, the
//! static ablation, the scalar reference, an accumulator's final encode — a
//! result chunk is made the same way: check the operands are compatible,
//! combine their chunk outliers (refusing a result that leaves `i32`), let a
//! per-block kernel read the operands' block records in lockstep and emit
//! the result's, check no operand has bytes left over. Chunks are
//! independent, so they go through `Stream::assemble` exactly like
//! compression's do, each written straight into the result stream when it
//! runs on the calling thread. Only the kernel differs between operators.

use crate::stats::PipelineStats;
use fzlight::chunk::{chunk_spans, ChunkSpan};
use fzlight::codec;
use fzlight::error::{Error, Result};
use fzlight::header::Header;
use fzlight::stream::CompressedStream;

/// One operand's chunk payload and how far the walk has read it.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    /// Offset of the next unread block record.
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    /// The unread bytes; the next block record starts here.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

/// One result chunk in the making: what a per-block kernel reads and writes.
pub(crate) struct Walk<'a, const N: usize> {
    /// Chunk index (for error reports).
    pub(crate) ci: usize,
    /// Elements in the chunk.
    pub(crate) len: usize,
    pub(crate) block_len: usize,
    /// The operands' payloads, positioned after their outliers.
    pub(crate) ops: [Cursor<'a>; N],
    /// The stream being assembled, ending in this chunk's combined outlier
    /// and the result blocks emitted so far.
    pub(crate) out: &'a mut Vec<u8>,
    pub(crate) stats: PipelineStats,
}

/// Encode `deltas` as the next block of chunk `ci`'s result.
pub(crate) fn emit(deltas: &[i64], ci: usize, out: &mut Vec<u8>) -> Result<()> {
    codec::encode_deltas(deltas, out)
        .map(drop)
        .map_err(|_| Error::HomomorphicOverflow { chunk: ci })
}

/// Produce a stream shaped like `header` from `N` operand streams:
/// `outlier(chunk, operand outliers)` gives each chunk's outlier, `kernel`
/// its block records, appended to the stream in the making.
pub(crate) fn drive<const N: usize>(
    header: &Header,
    operands: [&CompressedStream; N],
    outlier: impl Fn(usize, [i64; N]) -> i64 + Sync,
    kernel: impl Fn(&mut Walk<'_, N>) -> Result<()> + Sync,
) -> Result<(CompressedStream, PipelineStats)> {
    for operand in operands {
        header.check_compatible(operand.header())?;
    }
    let (n, block_len) = (header.n as usize, header.block_len as usize);
    let estimate = |ci, span: &ChunkSpan| {
        let longest = operands.iter().map(|s| s.chunk_payload(ci).len()).max();
        // pipeline ④ can widen a block by one code bit: one more bit per
        // element, rounded up to a byte per block
        longest.unwrap_or(span.len) + span.len / 8 + span.len.div_ceil(block_len)
    };
    let spans = chunk_spans(n, header.nchunks as usize);
    CompressedStream::assemble(n, header.eb, block_len, spans, estimate, |ci, span, out| {
        let payloads = operands.map(|s| s.chunk_payload(ci));
        let shortest = payloads.iter().map(|p| p.len()).min();
        if let Some(have) = shortest.filter(|&have| have < 4) {
            return Err(Error::Truncated { need: 4, have });
        }
        let outliers = payloads.map(|p| i32::from_le_bytes(p[..4].try_into().unwrap()) as i64);
        let combined = i32::try_from(outlier(ci, outliers))
            .map_err(|_| Error::HomomorphicOverflow { chunk: ci })?;
        out.extend_from_slice(&combined.to_le_bytes());
        let ops = payloads.map(|bytes| Cursor { bytes, pos: 4 });
        let stats = PipelineStats::default();
        let mut walk = Walk { ci, len: span.len, block_len, ops, out, stats };
        kernel(&mut walk)?;
        if walk.ops.iter().any(|op| op.pos != op.bytes.len()) {
            return Err(Error::Corrupt("chunk payload longer than its blocks"));
        }
        Ok(walk.stats)
    })
}
