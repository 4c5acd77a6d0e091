//! Unfused, globally-synchronized compression with block-cyclic thread
//! ownership — cuSZp's GPU pipeline transplanted onto CPU threads.
//!
//! Pass 1 quantizes and delta-predicts every owned block into a full-size
//! intermediate array (threads hop between distant blocks). A global
//! synchronization then derives per-group output offsets from the per-block
//! record sizes (the GPU prefix-sum/sync stage). Pass 2 sweeps the blocks
//! again to bit-shuffle-encode them.

use crate::bitshuffle;
use crate::format::{OszpStream, ZERO_BLOCK};
use fzlight::chunk::{deal, fork_join};
use fzlight::config::{Config, MAX_BLOCK_LEN};
use fzlight::error::Result;

/// What pass 1 leaves per block besides its deltas.
#[derive(Clone, Copy, Default)]
struct BlockHead {
    /// First quantization integer of the block.
    outlier: i32,
    /// [`ZERO_BLOCK`], or the bit width of the largest delta magnitude.
    code: u8,
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

    // ---- Pass 1: block-wise quantization + prediction (strided ownership).
    // Full-size intermediate arrays, exactly the memory cost the fused
    // fZ-light pipeline avoids. Group `t` is dealt blocks `t, t+T, t+2T, …`
    // and hops between those distant regions.
    let mut deltas = vec![0i64; n];
    let mut heads = vec![BlockHead::default(); nblocks];
    let blocks = data.chunks(block_len).zip(deltas.chunks_mut(block_len)).zip(&mut heads);
    let pass1: Result<()> = fork_join(deal(blocks.enumerate(), ngroups), |_, owned| {
        owned.into_iter().try_for_each(|(bi, ((block, deltas), head))| {
            *head = quantize_predict_block(block, bi * block_len, inv_2eb, deltas)?;
            Ok(())
        })
    });
    pass1?;

    // ---- Global synchronization: record sizes -> group sizes (the GPU
    // prefix-sum/sync stage; the offset table is their running sum).
    let mut group_sizes = vec![0usize; ngroups];
    for (bi, head) in heads.iter().enumerate() {
        let len = block_len.min(n - bi * block_len);
        group_sizes[bi % ngroups] += match head.code {
            ZERO_BLOCK => 1,
            0 => 1 + 4,
            c => 1 + 4 + bitshuffle::plane_bytes(len) + bitshuffle::planes_size(c, len),
        };
    }

    // ---- Pass 2: encode owned blocks into per-group buffers.
    let groups: Vec<Vec<u8>> = fork_join(group_sizes, |t, size| {
        let mut out = Vec::with_capacity(size);
        let mut mags = [0u32; MAX_BLOCK_LEN];
        for bi in (t..nblocks).step_by(ngroups) {
            let block = &deltas[bi * block_len..n.min((bi + 1) * block_len)];
            let BlockHead { outlier, code } = heads[bi];
            out.push(code);
            if code == ZERO_BLOCK {
                continue;
            }
            out.extend_from_slice(&outlier.to_le_bytes());
            if code > 0 {
                let mut signs = 0u64;
                for (k, &d) in block.iter().enumerate() {
                    mags[k] = d.unsigned_abs() as u32;
                    signs |= u64::from(d < 0) << k;
                }
                let sb = bitshuffle::plane_bytes(block.len());
                out.extend_from_slice(&signs.to_le_bytes()[..sb]);
                bitshuffle::encode_planes(&mags[..block.len()], code, &mut out);
            }
        }
        debug_assert_eq!(out.len(), size);
        out
    });
    Ok(OszpStream::from_chunks(n, eb, block_len, &groups))
}

/// Quantize one block (round-to-nearest, same rule as fZ-light so the
/// quality comparison isolates the format, not the quantizer) and
/// delta-predict it into `deltas`; returns the block's outlier and code.
fn quantize_predict_block(
    block: &[f32],
    base: usize,
    inv_2eb: f64,
    deltas: &mut [i64],
) -> Result<BlockHead> {
    let mut qbuf = [0i32; MAX_BLOCK_LEN];
    let qb = &mut qbuf[..block.len()];
    fzlight::quantize::quantize_block(block, inv_2eb, base, qb)?;
    let mut q_prev = qb[0] as i64;
    let mut all_zero = true;
    let mut max_mag = 0u64;
    for (d, &qi) in deltas.iter_mut().zip(qb.iter()) {
        let q = qi as i64;
        all_zero &= q == 0;
        *d = q - q_prev;
        max_mag = max_mag.max(d.unsigned_abs());
        q_prev = q;
    }
    let code = if all_zero {
        ZERO_BLOCK
    } else {
        debug_assert!(max_mag <= u32::MAX as u64);
        (64 - max_mag.leading_zeros()) as u8
    };
    Ok(BlockHead { outlier: qb[0], code })
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
}
