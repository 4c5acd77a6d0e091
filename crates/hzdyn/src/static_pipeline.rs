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

use crate::dynamic::combine;
use fzlight::error::Result;
use fzlight::stream::CompressedStream;

/// Homomorphic sum through the static (always decode + re-encode) pipeline:
/// the dynamic kernel's walk with its dispatch disabled.
pub fn homomorphic_sum_static(
    a: &CompressedStream,
    b: &CompressedStream,
) -> Result<CompressedStream> {
    combine(a, 1, b, 1, false).map(|(s, _)| s)
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
