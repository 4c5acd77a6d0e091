//! Reduction operations supported homomorphically.
//!
//! The paper demonstrates `sum` and notes the principles apply to other
//! reduction operations; any operation that is *linear on the quantization
//! integers* composes with the delta encoding. `Sum` and `Diff` are provided
//! here — both are coefficient pairs of [`crate::homomorphic_axpby`] — and
//! [`crate::homomorphic_scale`] covers integer scaling.

/// A binary reduction applied on quantization integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise addition (`MPI_SUM` analogue) — the collective default.
    Sum,
    /// Element-wise subtraction `a - b`.
    Diff,
}

impl ReduceOp {
    /// The operation as integer coefficients `(alpha, beta)` of
    /// `alpha·a + beta·b` — how the one homomorphic kernel runs it.
    #[inline]
    pub(crate) fn coefficients(self) -> (i32, i32) {
        match self {
            ReduceOp::Sum => (1, 1),
            ReduceOp::Diff => (1, -1),
        }
    }

    /// Apply the operation to two floats (used by the DOC baseline).
    #[inline]
    pub(crate) fn apply_f32(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Diff => a - b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficients_and_float_semantics_agree() {
        for op in [ReduceOp::Sum, ReduceOp::Diff] {
            let (alpha, beta) = op.coefficients();
            assert_eq!(op.apply_f32(1.5, 2.5), alpha as f32 * 1.5 + beta as f32 * 2.5);
        }
        assert_eq!(ReduceOp::Diff.apply_f32(1.5, 2.5), -1.0);
    }
}
