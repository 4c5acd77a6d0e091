//! Node-level data chunking for ring collectives, plus the raw little-endian
//! `f32 <-> bytes` conversion of the uncompressed baseline: one slice-to-slice
//! writer and one reader (ring, codec and calibration sites convert straight
//! into their destination) and two allocating wrappers for outside callers.

use fzlight::{Error, Result};
use std::ops::Range;

/// Split `n` elements into `nranks` contiguous node chunks (chunk `i` is the
/// block that Reduce_scatter delivers to rank `i`); the last chunk absorbs
/// the remainder.
///
/// Panics if `n < nranks` — ring collectives need at least one element per
/// rank.
pub fn node_chunks(n: usize, nranks: usize) -> Vec<Range<usize>> {
    assert!(nranks > 0, "need at least one rank");
    assert!(n >= nranks, "ring collectives need n >= nranks (n={n}, nranks={nranks})");
    let base = n / nranks;
    (0..nranks)
        .map(|i| {
            let start = i * base;
            let end = if i == nranks - 1 { n } else { start + base };
            start..end
        })
        .collect()
}

/// Write `src` over `dst` (exactly `4 * src.len()` bytes, or it panics).
pub(crate) fn write_f32s(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), 4 * src.len(), "byte buffer is not 4 x the element count");
    dst.chunks_exact_mut(4).zip(src).for_each(|(b, v)| b.copy_from_slice(&v.to_le_bytes()));
}

/// Read `bytes` into `dst`, bit for bit. A payload that is not `4 * dst.len()`
/// bytes came from a peer that disagrees about the vector length: an error.
pub(crate) fn read_f32s(bytes: &[u8], dst: &mut [f32]) -> Result<()> {
    let (words, tail) = bytes.as_chunks::<4>();
    if words.len() != dst.len() || !tail.is_empty() {
        return Err(Error::Mismatch("raw payload length != 4 x the expected element count"));
    }
    dst.iter_mut().zip(words).for_each(|(v, w)| *v = f32::from_le_bytes(*w));
    Ok(())
}

/// Serialize an `f32` slice to little-endian bytes (wire format of the
/// uncompressed baseline).
pub(crate) fn f32_to_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; data.len() * 4];
    write_f32s(data, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_to_f32(bytes: &[u8]) -> Vec<f32> {
        let mut out = vec![0f32; bytes.len() / 4];
        read_f32s(bytes, &mut out).expect("payload is not a whole number of f32s");
        out
    }

    #[test]
    fn chunks_tile_and_last_absorbs() {
        let c = node_chunks(10, 3);
        assert_eq!(c, vec![0..3, 3..6, 6..10]);
        let c = node_chunks(8, 8);
        assert!(c.iter().all(|r| r.len() == 1));
    }

    #[test]
    #[should_panic(expected = "n >= nranks")]
    fn too_few_elements_panics() {
        node_chunks(3, 4);
    }

    #[test]
    fn f32_bytes_roundtrip() {
        let data = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 3.4e38];
        assert_eq!(bytes_to_f32(&f32_to_bytes(&data)), data);
    }

    /// Writer and reader move bits, not values: NaN payloads, signed zeros,
    /// subnormals and infinities survive, at every length around the
    /// vector widths.
    #[test]
    fn writer_and_reader_round_trip_every_bit_pattern() {
        let special = [
            0x7FC0_0001u32, // quiet NaN, payload bit set
            0xFFC5_5555,    // negative quiet NaN, payload bits set
            0x7F80_0001,    // signalling NaN
            0x7FBF_FFFF,    // signalling NaN, every payload bit set
            0x0000_0000,    // +0
            0x8000_0000,    // -0
            0x0000_0001,    // smallest subnormal
            0x807F_FFFF,    // largest negative subnormal
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
            0x3FC0_0000,    // 1.5
        ];
        for len in 0..=67usize {
            let bits: Vec<u32> = (0..len)
                .map(|i| special[i % special.len()] ^ ((i / special.len()) as u32))
                .collect();
            let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut wire = vec![0xAAu8; 4 * len];
            write_f32s(&vals, &mut wire);
            let want: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            assert_eq!(wire, want, "len {len}");
            let mut back = vec![1f32; len];
            read_f32s(&wire, &mut back).expect("matching lengths");
            assert!(back.iter().zip(&bits).all(|(v, &b)| v.to_bits() == b), "len {len}");
            assert_eq!(f32_to_bytes(&vals), wire);
            assert!(bytes_to_f32(&wire).iter().zip(&bits).all(|(v, &b)| v.to_bits() == b));
        }
    }

    #[test]
    fn a_payload_of_the_wrong_length_is_a_typed_error() {
        let wire = f32_to_bytes(&[1.0, 2.0, 3.0]);
        for len in [0usize, 2, 4] {
            let err = read_f32s(&wire, &mut vec![0f32; len]).unwrap_err();
            assert!(matches!(err, Error::Mismatch(_)), "{err:?}");
        }
        assert!(matches!(read_f32s(&wire[..11], &mut [0f32; 3]), Err(Error::Mismatch(_))));
        read_f32s(&wire, &mut [0f32; 3]).expect("the right length reads");
    }
}
