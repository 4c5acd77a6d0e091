//! Ablation variant: *unfused* quantization → prediction → encoding.
//!
//! Sec. III-B.2 argues that fusing quantization and prediction "reduces the
//! number of memory accesses compared to the unfused version". This module
//! implements the unfused version — three separate passes with a full-size
//! intermediate integer array, as in cuSZp's staged GPU pipeline — producing
//! **byte-identical streams** to [`crate::compress()`], so the ablation bench
//! isolates exactly the memory-traffic effect.

use crate::codec;
use crate::compress::compress_chunks;
use crate::config::Config;
use crate::error::Result;
use crate::quantize::{inv_step, quantize_block};
use crate::stream::CompressedStream;

/// Compress with separate quantize / predict / encode passes.
///
/// The output is byte-identical to [`crate::compress()`] with the same
/// configuration; only the memory-access pattern (and therefore throughput)
/// differs.
pub fn compress_unfused(data: &[f32], cfg: &Config) -> Result<CompressedStream> {
    cfg.validate()?;
    let eb = cfg.eb.resolve(data)?;
    let inv_2eb = inv_step(eb)?;
    compress_chunks(data, eb, cfg.block_len, cfg.threads, |chunk, base, out| {
        // Pass 1: quantize everything into an intermediate array.
        let mut qi = vec![0i32; chunk.len()];
        quantize_block(chunk, inv_2eb, base, &mut qi)?;
        let mut q: Vec<i64> = qi.iter().map(|&x| x as i64).collect();
        // Pass 2: delta-predict in place (reverse order keeps predecessors).
        let outlier = q[0] as i32;
        for k in (1..q.len()).rev() {
            q[k] -= q[k - 1];
        }
        q[0] = 0;
        // Pass 3: fixed-length encode block by block.
        out.extend_from_slice(&outlier.to_le_bytes());
        q.chunks(cfg.block_len).try_for_each(|block| codec::encode_deltas(block, out).map(drop))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;

    #[test]
    fn unfused_output_is_byte_identical_to_fused() {
        let data: Vec<f32> =
            (0..20_000).map(|i| ((i as f32) * 0.013).sin() * ((i % 100) as f32)).collect();
        for threads in [1usize, 2, 5] {
            let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(threads);
            let fused = crate::compress(&data, &cfg).unwrap();
            let unfused = compress_unfused(&data, &cfg).unwrap();
            assert_eq!(fused.as_bytes(), unfused.as_bytes(), "threads={threads}");
        }
    }

    #[test]
    fn unfused_detects_non_finite_with_global_index() {
        let mut data = vec![0.5f32; 64];
        data[40] = f32::INFINITY;
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
        let err = compress_unfused(&data, &cfg).unwrap_err();
        assert_eq!(err, crate::error::Error::NonFiniteInput { index: 40 });
    }
}
