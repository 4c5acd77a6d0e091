//! Multi-stream homomorphic accumulation.
//!
//! Summing `k` streams with pairwise [`crate::homomorphic_sum`] costs `k`
//! decode+encode round trips over the growing partial sums. The
//! [`Accumulator`] instead keeps the running sum as raw integer deltas:
//! each pushed stream is decoded once (constant blocks are skipped
//! entirely — the same shortcut as dynamic pipeline ①), and the fixed-length
//! encoding happens a single time in [`Accumulator::finish`]. The result is
//! byte-identical to the pairwise chain (the codec is canonical and integer
//! addition is associative), just cheaper: `k` decodes + 1 encode instead of
//! `k` decodes + `k` encodes.
//!
//! ```
//! use fzlight::{compress, decompress, Config, ErrorBound};
//! use hzdyn::Accumulator;
//!
//! let cfg = Config::new(ErrorBound::Abs(1e-3));
//! let streams: Vec<_> = (0..4)
//!     .map(|k| {
//!         let field: Vec<f32> = (0..500).map(|i| (i + k) as f32 * 0.01).collect();
//!         compress(&field, &cfg).unwrap()
//!     })
//!     .collect();
//! let mut acc = Accumulator::new(&streams[0]).unwrap();
//! for s in &streams[1..] {
//!     acc.push(s).unwrap();
//! }
//! let total = acc.finish().unwrap();
//! assert_eq!(total.n(), 500);
//! # let _ = decompress(&total).unwrap();
//! ```

use crate::walk::{drive, emit};
use fzlight::chunk::{block_lens, chunk_spans, ChunkSpan};
use fzlight::codec;
use fzlight::config::MAX_BLOCK_LEN;
use fzlight::error::{Error, Result};
use fzlight::header::Header;
use fzlight::stream::CompressedStream;

/// Running homomorphic sum of compatible streams, held as integer deltas.
#[derive(Debug, Clone)]
pub struct Accumulator {
    header: Header,
    spans: Vec<ChunkSpan>,
    /// Chunk outliers of the running sum.
    outliers: Vec<i64>,
    /// All delta integers, in stream order (chunk-major).
    deltas: Vec<i64>,
}

impl Accumulator {
    /// Start an accumulation with `first` as the initial value.
    pub fn new(first: &CompressedStream) -> Result<Accumulator> {
        let mut acc = Accumulator {
            header: *first.header(),
            spans: chunk_spans(first.n(), first.nchunks()).collect(),
            outliers: vec![0i64; first.nchunks()],
            deltas: vec![0i64; first.n()],
        };
        acc.push(first)?;
        Ok(acc)
    }

    /// Add a compatible stream to the running sum (one decode pass;
    /// constant blocks are skipped).
    pub fn push(&mut self, stream: &CompressedStream) -> Result<()> {
        self.header.check_compatible(stream.header())?;
        let block_len = self.header.block_len as usize;
        let mut scratch = [0i64; MAX_BLOCK_LEN];
        for (ci, span) in self.spans.iter().enumerate() {
            let payload = stream.chunk_payload(ci);
            if payload.len() < 4 {
                return Err(Error::Truncated { need: 4, have: payload.len() });
            }
            self.outliers[ci] += i32::from_le_bytes(payload[0..4].try_into().unwrap()) as i64;
            let mut pos = 4usize;
            let mut at = span.start;
            for len in block_lens(span.len, block_len) {
                let c = codec::peek_code(&payload[pos..])?;
                if c == 0 {
                    // pipeline ①: nothing to add
                    pos += 1;
                } else {
                    pos += codec::decode_block(&payload[pos..], &mut scratch[..len])?;
                    for (d, &s) in self.deltas[at..at + len].iter_mut().zip(&scratch[..len]) {
                        *d += s;
                    }
                }
                at += len;
            }
            if pos != payload.len() {
                return Err(Error::Corrupt("chunk payload longer than its blocks"));
            }
        }
        Ok(())
    }

    /// Encode the running sum into a compressed stream (single encode pass).
    ///
    /// The accumulator remains usable afterwards (more streams can be
    /// pushed and `finish` called again).
    pub fn finish(&self) -> Result<CompressedStream> {
        let block_len = self.header.block_len as usize;
        let encoded = drive(
            &self.header,
            [],
            |ci, []| self.outliers[ci],
            |w| {
                let span = self.spans[w.ci];
                self.deltas[span.start..span.start + span.len]
                    .chunks(block_len)
                    .try_for_each(|block| emit(block, w.ci, w.out))
            },
        )?;
        Ok(encoded.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homomorphic_sum;
    use fzlight::{compress, decompress, Config, ErrorBound};

    fn streams(k: usize, n: usize, threads: usize) -> Vec<CompressedStream> {
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(threads);
        (0..k)
            .map(|s| {
                let f: Vec<f32> =
                    (0..n).map(|i| ((i + 31 * s) as f32 * 0.011).sin() * 3.0).collect();
                compress(&f, &cfg).unwrap()
            })
            .collect()
    }

    #[test]
    fn accumulator_matches_pairwise_chain_byte_for_byte() {
        let ss = streams(5, 3000, 2);
        let mut acc = Accumulator::new(&ss[0]).unwrap();
        let mut chain = ss[0].clone();
        for s in &ss[1..] {
            acc.push(s).unwrap();
            chain = homomorphic_sum(&chain, s).unwrap();
        }
        let total = acc.finish().unwrap();
        assert_eq!(total.as_bytes(), chain.as_bytes());
    }

    #[test]
    fn finish_is_repeatable_and_incremental() {
        let ss = streams(3, 1000, 1);
        let mut acc = Accumulator::new(&ss[0]).unwrap();
        acc.push(&ss[1]).unwrap();
        let two = acc.finish().unwrap();
        acc.push(&ss[2]).unwrap();
        let three = acc.finish().unwrap();
        // two-stream prefix agrees with the pairwise sum
        assert_eq!(two.as_bytes(), homomorphic_sum(&ss[0], &ss[1]).unwrap().as_bytes());
        // three-stream total agrees with extending the chain
        assert_eq!(
            three.as_bytes(),
            homomorphic_sum(&homomorphic_sum(&ss[0], &ss[1]).unwrap(), &ss[2]).unwrap().as_bytes()
        );
    }

    #[test]
    fn incompatible_stream_rejected() {
        let ss = streams(1, 1000, 1);
        let other = streams(1, 999, 1);
        let mut acc = Accumulator::new(&ss[0]).unwrap();
        assert!(acc.push(&other[0]).is_err());
    }

    #[test]
    fn values_are_error_bounded() {
        let k = 8;
        let n = 2000;
        let ss = streams(k, n, 3);
        let mut acc = Accumulator::new(&ss[0]).unwrap();
        for s in &ss[1..] {
            acc.push(s).unwrap();
        }
        let total = decompress(&acc.finish().unwrap()).unwrap();
        // compare against summing the individually decompressed streams
        let mut expect = vec![0f64; n];
        for s in &ss {
            for (e, v) in expect.iter_mut().zip(decompress(s).unwrap()) {
                *e += v as f64;
            }
        }
        for (a, b) in total.iter().zip(&expect) {
            assert!(
                ((*a as f64) - b).abs() <= 1e-6 + b.abs() * 1e-6,
                "accumulated {a} vs exact-integer {b}"
            );
        }
    }
}
