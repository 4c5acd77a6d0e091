//! Scalar quantization helpers.
//!
//! Quantization is the single lossy step of the whole pipeline:
//! `q = round(v / (2*eb))`, reconstructed as `v' = q * 2*eb`, which bounds the
//! point-wise error by `eb`. All downstream stages (prediction, encoding,
//! homomorphic reduction) operate on the integers `q` exactly.
//!
//! The hot-path entry point is the slice-level [`quantize_block`]: one tight
//! pass with no call and no branch in it. `f64::round` (half away from zero)
//! has no SSE2 instruction, so on the baseline x86-64 target it is a libm
//! call per element; the pass instead rounds with three IEEE additions and a
//! tie fix-up that give the same integer for every input (see
//! `round_half_away`), reads the `i32` out of the sum's mantissa, and hoists
//! the finite/overflow checks into one accumulated flag. Only when the flag
//! trips does a cold rescan attribute the exact failing index — the error
//! values and ordering are identical to the per-element path, which keeps
//! `f64::round` and is retained as [`quantize_block_scalar`] (the
//! differential-test reference).

use crate::error::{Error, Result};

/// Quantize one value with the precomputed reciprocal `inv_2eb = 1 / (2*eb)`
/// — the per-element reference and the cold rescan path.
///
/// Rejects non-finite inputs and quantization integers outside `i32` range
/// (the stream stores 4-byte outliers and 32-bit delta magnitudes).
#[inline]
fn quantize_one(v: f32, inv_2eb: f64, index: usize) -> Result<i32> {
    if !v.is_finite() {
        return Err(Error::NonFiniteInput { index });
    }
    let q = (v as f64 * inv_2eb).round();
    if q > i32::MAX as f64 || q < i32::MIN as f64 {
        return Err(Error::QuantizationOverflow { index, value: v });
    }
    Ok(q as i32)
}

/// Reciprocal quantization step `1 / (2*eb)` of an absolute error bound: the
/// one check of the bound, shared by [`crate::ErrorBound::resolve`] and the
/// entry points that take an already-resolved bound.
///
/// The step must be finite and positive. That rejects a NaN, zero or negative
/// bound, a bound so large that the step is 0 (every value would decode to
/// `0 * inf`), and one so small that its reciprocal overflows (`0.0 * inf` is
/// a NaN no element can be blamed for).
pub(crate) fn inv_step(eb_abs: f64) -> Result<f64> {
    let inv = 1.0 / (2.0 * eb_abs);
    if inv.is_finite() && inv > 0.0 {
        Ok(inv)
    } else {
        Err(Error::InvalidErrorBound { eb: eb_abs })
    }
}

/// `1.5 * 2^52`. For `|x| < 2^51` the sum `x + MAGIC` lies in `[2^52, 2^53)`,
/// where consecutive doubles are consecutive integers: the addition itself
/// rounds `x` to the nearest integer (ties to even), and the low mantissa
/// bits of the sum hold that integer in two's complement.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// `x.round()` (half away from zero) from IEEE additions only, exact for
/// every `x` whose rounding fits `i32`.
///
/// `(x + MAGIC) - MAGIC` is `x` rounded to nearest with ties to *even*, and
/// `x - r` is exact, so the two roundings differ only when `x - r` is exactly
/// half a unit pointing away from zero (the even neighbour was the one nearer
/// zero); that case steps one further out. Nothing is ever added to `x`
/// before it is rounded, so `0.49999999999999994` (the double below one half,
/// which `floor(x + 0.5)` rounds up) stays 0. For `|x| >= 2^51`, infinities
/// and NaN the result is not `x.round()`, but its magnitude stays at least
/// `2^51 - 1` (or it is NaN), so [`quantize_block`]'s range flag trips just as
/// it would on the true rounding.
#[inline]
fn round_half_away(x: f64) -> f64 {
    let r = (x + MAGIC) - MAGIC;
    let tie_toward_zero = x - r == 0.5f64.copysign(x);
    r + if tie_toward_zero { 1.0f64.copysign(x) } else { 0.0 }
}

/// Quantize a slice in one pass, writing the integers into `out`
/// (`out.len() == values.len()`).
///
/// `inv_2eb` must be finite and positive, which every compress entry point
/// checks before it gets here. Global element indices for error reporting
/// start at `base` (the slice's offset within the full field). The fast pass
/// accumulates a single validity flag instead of branching per element; on
/// failure, a cold rescan reports exactly the error the per-element reference
/// would have raised first.
pub fn quantize_block(values: &[f32], inv_2eb: f64, base: usize, out: &mut [i32]) -> Result<()> {
    debug_assert_eq!(values.len(), out.len());
    let mut ok = true;
    for (o, &v) in out.iter_mut().zip(values) {
        let q = round_half_away(v as f64 * inv_2eb);
        // NaN fails both comparisons and an infinity times a positive finite
        // step stays infinite, so one accumulated flag covers every error
        // class.
        ok &= (q <= i32::MAX as f64) & (q >= i32::MIN as f64);
        // An in-range integer `q` is the low 32 bits of `q + MAGIC` (a
        // saturating `as i32` would cost the loop its vector form); out of
        // range the bits are meaningless and the flag has tripped.
        *o = (q + MAGIC).to_bits() as i32;
    }
    if ok {
        return Ok(());
    }
    // Cold path: rescan in element order so the reported index and error
    // variant match the scalar reference exactly.
    for (k, &v) in values.iter().enumerate() {
        quantize_one(v, inv_2eb, base + k)?;
    }
    // A finite value times a finite positive step is finite or infinite,
    // never NaN, so the rescan names an element unless the caller skipped the
    // entry points' check of the bound.
    unreachable!("quantization flag tripped on no element: inv_2eb = {inv_2eb} is not a step")
}

/// Per-element reference implementation of [`quantize_block`]: calls the
/// original scalar quantizer with full per-call error plumbing. Retained for
/// the differential property tests (`tests/kernel_equivalence.rs`).
pub fn quantize_block_scalar(
    values: &[f32],
    inv_2eb: f64,
    base: usize,
    out: &mut [i32],
) -> Result<()> {
    debug_assert_eq!(values.len(), out.len());
    for (k, (o, &v)) in out.iter_mut().zip(values).enumerate() {
        *o = quantize_one(v, inv_2eb, base + k)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstruct a value from its quantization integer.
    fn dequantize(q: i32, two_eb: f64) -> f32 {
        (q as f64 * two_eb) as f32
    }

    #[test]
    fn quantize_dequantize_respects_bound() {
        let eb = 1e-3f64;
        let inv = 1.0 / (2.0 * eb);
        for i in 0..10_000 {
            let v = (i as f32 * 0.01).sin() * 50.0;
            let q = quantize_one(v, inv, i).unwrap();
            let v2 = dequantize(q, 2.0 * eb);
            assert!(((v - v2).abs() as f64) <= eb * (1.0 + 1e-9), "{v} -> {q} -> {v2}");
        }
    }

    #[test]
    fn rounds_to_nearest() {
        let inv = 1.0 / 2.0; // eb = 1, bucket width 2
        assert_eq!(quantize_one(0.9, inv, 0).unwrap(), 0);
        assert_eq!(quantize_one(1.1, inv, 0).unwrap(), 1);
        assert_eq!(quantize_one(-1.1, inv, 0).unwrap(), -1);
    }

    #[test]
    fn zero_maps_to_zero() {
        assert_eq!(quantize_one(0.0, 5000.0, 0).unwrap(), 0);
        assert_eq!(quantize_one(-0.0, 5000.0, 0).unwrap(), 0);
        assert_eq!(dequantize(0, 2e-4), 0.0);
    }

    #[test]
    fn overflow_detected() {
        let inv = 1.0 / (2.0 * 1e-30);
        assert!(matches!(
            quantize_one(1.0e9, inv, 3),
            Err(Error::QuantizationOverflow { index: 3, .. })
        ));
    }

    #[test]
    fn non_finite_detected() {
        assert!(quantize_one(f32::NAN, 1.0, 0).is_err());
        assert!(quantize_one(f32::NEG_INFINITY, 1.0, 1).is_err());
    }

    #[test]
    fn block_matches_scalar_on_clean_data() {
        let inv = 1.0 / (2.0 * 1e-3);
        let values: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.013).sin() * 40.0).collect();
        let mut fast = vec![0i32; values.len()];
        let mut slow = vec![0i32; values.len()];
        quantize_block(&values, inv, 100, &mut fast).unwrap();
        quantize_block_scalar(&values, inv, 100, &mut slow).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn block_reports_first_error_with_global_index() {
        let inv = 1.0 / (2.0 * 1e-3);
        let mut values: Vec<f32> = vec![1.0; 64];
        values[41] = f32::NAN;
        values[50] = f32::INFINITY;
        let mut out = vec![0i32; 64];
        let err = quantize_block(&values, inv, 1000, &mut out).unwrap_err();
        assert_eq!(err, Error::NonFiniteInput { index: 1041 });
        let err_ref = quantize_block_scalar(&values, inv, 1000, &mut out).unwrap_err();
        assert_eq!(err, err_ref);
    }

    #[test]
    fn block_reports_overflow_like_scalar() {
        let inv = 1.0 / (2.0 * 1e-30);
        let values = [0.0f32, 1.0e9, f32::NAN];
        let mut out = [0i32; 3];
        let err = quantize_block(&values, inv, 7, &mut out).unwrap_err();
        assert!(matches!(err, Error::QuantizationOverflow { index: 8, .. }));
        let err_ref = quantize_block_scalar(&values, inv, 7, &mut out).unwrap_err();
        assert_eq!(err, err_ref);
    }

    #[test]
    fn empty_block_is_ok() {
        quantize_block(&[], 1.0, 0, &mut []).unwrap();
    }
}
