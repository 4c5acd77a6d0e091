//! Compressor configuration: error bound, block length and thread count.

use crate::error::{Error, Result};
use crate::quantize::inv_step;

/// Default small-block length (elements per fixed-length-encoded block).
///
/// 32 matches the paper's cuSZp/fZ-light block size and keeps the residual-bit
/// plane byte-aligned (`32 * r` bits is always a whole number of bytes).
pub const DEFAULT_BLOCK_LEN: usize = 32;

/// Maximum supported small-block length. Sign bitmaps are stored in a `u64`.
pub const MAX_BLOCK_LEN: usize = 64;

/// User-specified error bound.
///
/// The paper evaluates both absolute bounds (collectives, default `1e-4`) and
/// *relative* bounds (compression tables, `1e-1..=1e-4`), where a relative
/// bound is resolved to `rel * (max - min)` of the input field before
/// quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute point-wise bound: `|v - v'| <= eb`.
    Abs(f64),
    /// Range-relative bound: `|v - v'| <= rel * (max(data) - min(data))`.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to the absolute bound used for quantization.
    ///
    /// For [`ErrorBound::Rel`] this scans the data once for its value range;
    /// a zero range (constant data) falls back to `rel * max(|v|)` and, if the
    /// data is all zero, to `rel` itself so quantization stays well defined.
    /// The bound returned is one the quantizer can use: positive, finite, and
    /// with a finite reciprocal step `1 / (2*eb)`.
    pub fn resolve(&self, data: &[f32]) -> Result<f64> {
        let raw = match *self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => {
                if !(rel.is_finite() && rel > 0.0) {
                    return Err(Error::InvalidErrorBound { eb: rel });
                }
                if data.is_empty() {
                    return Ok(rel);
                }
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &v in data {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if !lo.is_finite() || !hi.is_finite() {
                    return Err(Error::NonFiniteInput { index: 0 });
                }
                let range = (hi - lo) as f64;
                if range > 0.0 {
                    rel * range
                } else {
                    let amp = lo.abs().max(hi.abs()) as f64;
                    if amp > 0.0 {
                        rel * amp
                    } else {
                        rel
                    }
                }
            }
        };
        inv_step(raw).map(|_| raw)
    }
}

/// Compression configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Error bound applied during quantization.
    pub eb: ErrorBound,
    /// Small-block length (elements per fixed-length-encoded block).
    pub block_len: usize,
    /// Number of compression threads, which is also the number of
    /// thread-chunks in the stream layout. `1` = single-thread mode.
    pub threads: usize,
}

impl Config {
    /// Create a configuration with the given error bound, the default block
    /// length and single-threaded operation.
    pub fn new(eb: ErrorBound) -> Self {
        Config { eb, block_len: DEFAULT_BLOCK_LEN, threads: 1 }
    }

    /// Set the number of compression threads (and thread-chunks).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the small-block length.
    pub fn with_block_len(mut self, block_len: usize) -> Self {
        self.block_len = block_len;
        self
    }

    /// Validate structural parameters (the error bound is validated when it
    /// is resolved against the data).
    pub fn validate(&self) -> Result<()> {
        check_block_len(self.block_len)
    }
}

/// `block_len` must be in `1..=MAX_BLOCK_LEN`.
pub(crate) fn check_block_len(block_len: usize) -> Result<()> {
    if block_len == 0 || block_len > MAX_BLOCK_LEN {
        return Err(Error::InvalidBlockLen { block_len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_bound_resolves_verbatim() {
        assert_eq!(ErrorBound::Abs(1e-3).resolve(&[1.0, 2.0]).unwrap(), 1e-3);
    }

    #[test]
    fn rel_bound_scales_with_range() {
        let data = [0.0f32, 10.0, -10.0];
        let eb = ErrorBound::Rel(1e-2).resolve(&data).unwrap();
        assert!((eb - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rel_bound_on_constant_data_uses_amplitude() {
        let data = [5.0f32; 8];
        let eb = ErrorBound::Rel(1e-2).resolve(&data).unwrap();
        assert!((eb - 0.05).abs() < 1e-12);
    }

    #[test]
    fn rel_bound_on_zero_data_falls_back_to_rel() {
        let data = [0.0f32; 8];
        let eb = ErrorBound::Rel(1e-2).resolve(&data).unwrap();
        assert_eq!(eb, 1e-2);
    }

    #[test]
    fn invalid_bounds_rejected() {
        assert!(ErrorBound::Abs(0.0).resolve(&[1.0]).is_err());
        assert!(ErrorBound::Abs(-1.0).resolve(&[1.0]).is_err());
        assert!(ErrorBound::Abs(f64::NAN).resolve(&[1.0]).is_err());
        assert!(ErrorBound::Rel(0.0).resolve(&[1.0]).is_err());
    }

    #[test]
    fn block_len_validation() {
        let mut cfg = Config::new(ErrorBound::Abs(1e-3));
        assert!(cfg.validate().is_ok());
        cfg.block_len = 0;
        assert!(cfg.validate().is_err());
        cfg.block_len = 65;
        assert!(cfg.validate().is_err());
        cfg.block_len = 64;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn threads_clamped_to_at_least_one() {
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(0);
        assert_eq!(cfg.threads, 1);
    }
}
