//! Error type shared by compression, decompression and stream parsing.

use std::fmt;

/// Result alias for fZ-light operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by fZ-light.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The input contained a NaN or infinity, which error-bounded quantization
    /// cannot represent.
    NonFiniteInput { index: usize },
    /// A value's quantization integer does not fit in `i32`
    /// (`|v| / (2*eb)` too large). Use a larger error bound.
    QuantizationOverflow { index: usize, value: f32 },
    /// The configured error bound is not a positive finite number with a
    /// finite quantization step `1 / (2*eb)`, or a relative bound met an
    /// all-constant/non-finite range.
    InvalidErrorBound { eb: f64 },
    /// `block_len` must be in `1..=64`.
    InvalidBlockLen { block_len: usize },
    /// The byte stream is not a valid fZ-light stream.
    Corrupt(&'static str),
    /// Stream ends before its declared contents.
    Truncated { need: usize, have: usize },
    /// Two streams passed to a homomorphic operation have incompatible
    /// parameters (length, error bound, block length or chunk layout).
    Mismatch(&'static str),
    /// A delta magnitude exceeded the 32-bit encodable range. Compression
    /// itself never produces this; it can arise when homomorphically
    /// accumulating many streams whose quantization integers grow too large,
    /// or when a block of code 32 is decoded into `i32` lanes.
    DeltaOverflow,
    /// Adding two quantization deltas overflowed the representable range.
    HomomorphicOverflow { chunk: usize },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NonFiniteInput { index } => {
                write!(f, "non-finite input value at index {index}")
            }
            Error::QuantizationOverflow { index, value } => write!(
                f,
                "quantization overflow at index {index} (value {value}); increase the error bound"
            ),
            Error::InvalidErrorBound { eb } => {
                write!(f, "invalid error bound {eb}: it and 1/(2*eb) must be positive and finite")
            }
            Error::InvalidBlockLen { block_len } => {
                write!(f, "invalid block length {block_len}: must be in 1..=64")
            }
            Error::Corrupt(what) => write!(f, "corrupt fZ-light stream: {what}"),
            Error::Truncated { need, have } => {
                write!(f, "truncated fZ-light stream: need {need} bytes, have {have}")
            }
            Error::Mismatch(what) => {
                write!(f, "incompatible streams for homomorphic operation: {what}")
            }
            Error::DeltaOverflow => {
                write!(f, "delta magnitude exceeds the 32-bit encodable range")
            }
            Error::HomomorphicOverflow { chunk } => {
                write!(f, "homomorphic delta overflow in chunk {chunk}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::QuantizationOverflow { index: 7, value: 1.0e9 };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains("error bound"));
        assert!(Error::Corrupt("bad magic").to_string().contains("bad magic"));
        assert!(Error::Truncated { need: 10, have: 3 }.to_string().contains("10"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::Corrupt("x"));
    }
}
