//! Unfused, globally-synchronized compression with block-cyclic thread
//! ownership — cuSZp's GPU pipeline transplanted onto CPU threads.
//!
//! Pass 1 has thread group `t` quantize its blocks `t, t+T, t+2T, …`
//! (hopping between distant regions of the input) into an `i32` buffer it
//! owns, in record order, and note each block's code: together the groups
//! hold a full-size intermediate of `n` quantization integers, the memory
//! traffic the fused fZ-light pipeline avoids. A global synchronization then
//! derives every group's output size from its codes (the GPU
//! prefix-sum/sync stage). Pass 2 has each group derive its blocks' deltas
//! from its own integers and bit-shuffle-encode them into the stream
//! (`Stream::assemble`): on the calling thread straight behind the header,
//! the stream sized exactly from the sync, so a one-group call allocates the
//! stream once and copies nothing; on workers into exactly sized buffers,
//! copied in after the join.
//!
//! The intermediate is the quantizer's 4-byte integers: what cuSZp keeps
//! between its size and write phases.

use crate::bitshuffle;
use crate::format::{OszpStream, ZERO_BLOCK};
use fzlight::chunk::fork_join;
use fzlight::config::{Config, MAX_BLOCK_LEN};
use fzlight::error::Result;
use fzlight::quantize::quantize_block;

/// What pass 1 leaves a thread group.
struct Group {
    /// The quantization integers of the group's blocks, in record order.
    q: Vec<i32>,
    /// Per block: [`ZERO_BLOCK`], or the bit width of its largest delta
    /// magnitude.
    codes: Vec<u8>,
}

impl Group {
    /// The group's blocks with their codes, in record order.
    fn blocks(&self, block_len: usize) -> impl Iterator<Item = (&[i32], u8)> {
        self.q.chunks(block_len).zip(self.codes.iter().copied())
    }

    /// Bytes of the group's records.
    fn encoded_len(&self, block_len: usize) -> usize {
        self.blocks(block_len).map(|(q, code)| record_len(q.len(), code)).sum()
    }
}

/// Compress `data` with cuSZp's parallelism strategy.
pub fn compress(data: &[f32], cfg: &Config) -> Result<OszpStream> {
    cfg.validate()?;
    let eb = cfg.eb.resolve(data)?;
    let n = data.len();
    let block_len = cfg.block_len;
    let nblocks = n.div_ceil(block_len);
    let ngroups = cfg.threads.max(1).min(nblocks);
    let inv_2eb = 1.0 / (2.0 * eb);

    // ---- Pass 1: block-wise quantization (strided ownership).
    let pass1: Result<Vec<Group>> = fork_join(0..ngroups, |_, t| {
        let owned = (nblocks - t).div_ceil(ngroups);
        let mut group =
            Group { q: Vec::with_capacity(owned * block_len), codes: Vec::with_capacity(owned) };
        for (bi, block) in data.chunks(block_len).enumerate().skip(t).step_by(ngroups) {
            let start = group.q.len();
            group.q.resize(start + block.len(), 0);
            let q = &mut group.q[start..];
            quantize_block(block, inv_2eb, bi * block_len, q)?;
            group.codes.push(block_code(q));
        }
        Ok(group)
    });
    let groups = pass1?;

    // ---- Global synchronization: every group's output size from its codes
    // (the GPU prefix-sum/sync stage), which sizes the stream. Pass 2:
    // encode each group's blocks into it.
    let size = |_, group: &&Group| group.encoded_len(block_len);
    let built = OszpStream::assemble(n, eb, block_len, &groups, size, |_, group, out| {
        let start = out.len();
        let mut mags = [0u32; MAX_BLOCK_LEN];
        for (q, code) in group.blocks(block_len) {
            encode_record(q, code, &mut mags, out);
        }
        debug_assert_eq!(out.len() - start, group.encoded_len(block_len));
        Ok(())
    });
    built.map(|(stream, ())| stream)
}

/// The magnitude and sign of `q - prev`. The difference of two `i32` spans
/// 33 bits signed, but its magnitude always fits `u32`: the wrapping
/// difference is the magnitude when `q >= prev` and its two's-complement
/// negation otherwise.
fn delta(prev: i32, q: i32) -> (u32, bool) {
    let d = q.wrapping_sub(prev) as u32;
    if q < prev {
        (d.wrapping_neg(), true)
    } else {
        (d, false)
    }
}

/// A block's code: [`ZERO_BLOCK`] when every integer is zero, else the bit
/// width of its largest delta magnitude (that of their bitwise or).
fn block_code(q: &[i32]) -> u8 {
    if q.iter().fold(0, |acc, &v| acc | v) == 0 {
        return ZERO_BLOCK;
    }
    let spread = q.iter().zip(&q[1..]).fold(0u32, |acc, (&prev, &v)| acc | delta(prev, v).0);
    (u32::BITS - spread.leading_zeros()) as u8
}

/// Bytes of the record of a `len`-value block with code `code`.
fn record_len(len: usize, code: u8) -> usize {
    match code {
        ZERO_BLOCK => 1,
        0 => 1 + 4,
        c => 1 + 4 + bitshuffle::plane_bytes(len) + bitshuffle::planes_size(c, len),
    }
}

/// Append the record of the block with integers `q` and code `code`: the
/// marker, the outlier (its first integer), then the sign bitmap and
/// bit-shuffled magnitude planes of its deltas. The first delta is always
/// zero, as the outlier carries that value.
fn encode_record(q: &[i32], code: u8, mags: &mut [u32; MAX_BLOCK_LEN], out: &mut Vec<u8>) {
    out.push(code);
    if code == ZERO_BLOCK {
        return;
    }
    out.extend_from_slice(&q[0].to_le_bytes());
    if code == 0 {
        return;
    }
    mags[0] = 0;
    let mut signs = 0u64;
    for (k, (&prev, &v)) in q.iter().zip(&q[1..]).enumerate() {
        let (mag, neg) = delta(prev, v);
        mags[k + 1] = mag;
        signs |= u64::from(neg) << (k + 1);
    }
    let sb = bitshuffle::plane_bytes(q.len());
    out.extend_from_slice(&signs.to_le_bytes()[..sb]);
    bitshuffle::encode_planes(&mags[..q.len()], code, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fzlight::ErrorBound;

    #[test]
    fn quantization_matches_fzlight_reconstruction() {
        // Same round-to-nearest rule as fZ-light: decompressed values must be
        // identical, so Table III quality comparisons isolate the format.
        let data: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.7).sin() * 9.0).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3));
        let o = crate::decompress(&compress(&data, &cfg).unwrap()).unwrap();
        let f = fzlight::decompress(&fzlight::compress(&data, &cfg).unwrap()).unwrap();
        assert_eq!(o, f);
    }

    #[test]
    fn group_count_clamped_to_blocks() {
        let data = vec![1.0f32; 40]; // 2 blocks of 32
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3)).with_threads(8)).unwrap();
        assert_eq!(s.nchunks(), 2);
    }

    #[test]
    fn all_zero_data_is_one_marker_per_block() {
        let data = vec![0.0f32; 32 * 10];
        let s = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
        assert_eq!(s.body_len(), 10);
    }

    #[test]
    fn deltas_spanning_the_i32_range_roundtrip() {
        // neighbours near i32::MIN and i32::MAX: delta magnitudes beyond
        // i32::MAX, of both signs, in all 32 planes
        let data: Vec<f32> = (0..100).map(|i| [-2.1e9, 2.1e9, 0.0, 1.0][i % 4]).collect();
        let cfg = Config::new(ErrorBound::Abs(0.5));
        let s = compress(&data, &cfg).unwrap();
        assert_eq!(s.chunk_payload(0)[0], 32, "code of the first block");
        let f = fzlight::decompress(&fzlight::compress(&data, &cfg).unwrap()).unwrap();
        assert_eq!(crate::decompress(&s).unwrap(), f);
    }
}
