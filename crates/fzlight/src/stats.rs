//! Stream inspection: walk a compressed stream's blocks and summarize the
//! code-length distribution — the statistic that decides which hZ-dynamic
//! pipeline a block pair will take and what the compression ratio will be.

use crate::chunk::{block_lens, chunk_spans};
use crate::codec;
use crate::error::{Error, Result};
use crate::stream::CompressedStream;

/// Aggregate statistics of one compressed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Total number of small blocks.
    pub blocks: u64,
    /// Blocks with code length 0 (all deltas zero).
    pub constant_blocks: u64,
    /// Code-length counts: `code_hist[c]` counts blocks with code
    /// length `c` (0..=32).
    pub code_hist: [u64; 33],
    /// Per-chunk payload sizes in bytes.
    pub chunk_bytes: Vec<usize>,
    /// Compression ratio (original / compressed, incl. header).
    pub ratio: f64,
}

impl StreamStats {
    /// Walk `stream` and collect its statistics. Validates the whole body in
    /// the process (every block header and size is checked).
    pub fn inspect(stream: &CompressedStream) -> Result<StreamStats> {
        let n = stream.n();
        let block_len = stream.block_len();
        let mut stats = StreamStats {
            blocks: 0,
            constant_blocks: 0,
            code_hist: [0; 33],
            chunk_bytes: Vec::with_capacity(stream.nchunks()),
            ratio: stream.ratio(),
        };
        for (ci, span) in chunk_spans(n, stream.nchunks()).enumerate() {
            let payload = stream.chunk_payload(ci);
            if payload.len() < 4 {
                return Err(Error::Truncated { need: 4, have: payload.len() });
            }
            stats.chunk_bytes.push(payload.len());
            let mut pos = 4usize;
            for len in block_lens(span.len, block_len) {
                let c = codec::peek_code(&payload[pos..])?;
                pos += codec::skip_block(&payload[pos..], len)?;
                stats.blocks += 1;
                stats.code_hist[c as usize] += 1;
                if c == 0 {
                    stats.constant_blocks += 1;
                }
            }
            if pos != payload.len() {
                return Err(Error::Corrupt("chunk payload longer than its blocks"));
            }
        }
        Ok(stats)
    }

    /// Fraction of constant blocks, in `[0, 1]`.
    pub fn constant_fraction(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        self.constant_blocks as f64 / self.blocks as f64
    }

    /// Mean code length over all blocks (bits).
    fn mean_code(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        let weighted: u64 = self.code_hist.iter().enumerate().map(|(c, &k)| c as u64 * k).sum();
        weighted as f64 / self.blocks as f64
    }
}

impl std::fmt::Display for StreamStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "blocks: {} ({:.2}% constant), mean code {:.2} bits, ratio {:.2}",
            self.blocks,
            self.constant_fraction() * 100.0,
            self.mean_code(),
            self.ratio
        )?;
        write!(f, "code hist:")?;
        for (c, &k) in self.code_hist.iter().enumerate() {
            if k > 0 {
                write!(f, " {c}:{k}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, Config, ErrorBound};

    #[test]
    fn constant_data_is_all_constant_blocks() {
        let data = vec![1.0f32; 32 * 10];
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let st = StreamStats::inspect(&s).unwrap();
        assert_eq!(st.blocks, 10);
        assert_eq!(st.constant_blocks, 10);
        assert_eq!(st.constant_fraction(), 1.0);
        assert_eq!(st.mean_code(), 0.0);
    }

    #[test]
    fn histogram_counts_every_block_once() {
        let data: Vec<f32> = (0..32 * 64).map(|i| ((i / 100) as f32).sin() * 30.0).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-4)).with_threads(3)).unwrap();
        let st = StreamStats::inspect(&s).unwrap();
        assert_eq!(st.code_hist.iter().sum::<u64>(), st.blocks);
        assert_eq!(st.chunk_bytes.len(), 3);
        assert_eq!(st.chunk_bytes.iter().sum::<usize>(), s.body_len());
        assert!(st.mean_code() > 0.0);
    }

    #[test]
    fn inspect_validates_corrupt_streams() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let mut bytes = s.into_bytes();
        let at = crate::header::Header::serialized_len(1) + 4;
        bytes[at] = 33;
        let bad = CompressedStream::from_bytes(bytes).unwrap();
        assert!(StreamStats::inspect(&bad).is_err());
    }

    #[test]
    fn display_is_informative() {
        let data = vec![0.0f32; 64];
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        let st = StreamStats::inspect(&s).unwrap();
        let text = st.to_string();
        assert!(text.contains("100.00% constant"));
    }
}
