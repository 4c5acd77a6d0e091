//! Bit-shuffle (one-bit-plane) encoding, as cuSZp stores fixed-length
//! integers on the GPU.
//!
//! For a block of `L` magnitudes with code length `c`, plane `b`
//! (`0 <= b < c`) stores one bit per element: bit `i % 8` of plane byte
//! `i / 8` is bit `b` of `mag[i]`.
//!
//! The production [`encode_planes`]/[`decode_planes`] pair is *bit-parallel*:
//! instead of shifting one bit per iteration, eight elements' bytes of a
//! byte-plane are packed into one `u64` and an 8x8 bit-matrix transpose
//! (`transpose8`) yields eight plane bytes at once (the symmetric transpose
//! scatters them back on decode). The original bit-granular loops are
//! retained as [`encode_planes_scalar`]/[`decode_planes_scalar`] — the
//! verified reference the fast path is property-tested against
//! (`tests/kernel_equivalence.rs`).

use fzlight::error::{Error, Result};

/// Bytes per one-bit plane for a block of `len` elements.
#[inline]
pub(crate) const fn plane_bytes(len: usize) -> usize {
    len.div_ceil(8)
}

/// Total payload bytes for `c` planes over `len` elements.
#[inline]
pub const fn planes_size(c: u8, len: usize) -> usize {
    plane_bytes(len) * c as usize
}

/// Transpose a u64 viewed as an 8x8 bit matrix (row `j` = byte `j`, column
/// `b` = bit `b` of each byte): output byte `b` bit `j` = input byte `j` bit
/// `b`. The classic three-step block swap; an involution, so the same
/// function serves encode and decode.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Append `c` bit planes of `mags[..len]` to `out`.
///
/// Bit-parallel fast path: byte-identical to [`encode_planes_scalar`], which
/// the unit and workspace property tests assert across code lengths, partial
/// blocks and adversarial patterns.
pub fn encode_planes(mags: &[u32], c: u8, out: &mut Vec<u8>) {
    let len = mags.len();
    if c == 0 || len == 0 {
        return;
    }
    let pb = plane_bytes(len);
    let base = out.len();
    out.resize(base + planes_size(c, len), 0);
    let planes = &mut out[base..];
    let full_groups = len / 8;
    if c < 8 {
        // Few planes (the dominant case on smooth fields): the full 8x8
        // transpose doesn't amortize, so gather each plane byte with the
        // LSB-column multiply trick instead (see [`gather_column`]).
        match c {
            1 => encode_low::<1>(mags, pb, planes),
            2 => encode_low::<2>(mags, pb, planes),
            3 => encode_low::<3>(mags, pb, planes),
            4 => encode_low::<4>(mags, pb, planes),
            5 => encode_low::<5>(mags, pb, planes),
            6 => encode_low::<6>(mags, pb, planes),
            _ => encode_low::<7>(mags, pb, planes),
        }
        return;
    }
    // One byte-plane (8 bit planes) at a time: pack 8 elements' bytes into a
    // u64, transpose, scatter the resulting plane bytes.
    for p in 0..(c as usize).div_ceil(8) {
        let bits = (c as usize - 8 * p).min(8);
        let shift = (8 * p) as u32;
        for g in 0..full_groups {
            let e = &mags[8 * g..8 * g + 8];
            let mut x = 0u64;
            for (j, &m) in e.iter().enumerate() {
                x |= (((m >> shift) & 0xFF) as u64) << (8 * j);
            }
            let t = transpose8(x);
            for b in 0..bits {
                planes[(8 * p + b) * pb + g] = (t >> (8 * b)) as u8;
            }
        }
        if !len.is_multiple_of(8) {
            // tail group: fewer than 8 elements, bit-granular
            let g = full_groups;
            for b in 0..bits {
                let mut byte = 0u8;
                for (bit, &m) in mags[8 * g..].iter().enumerate() {
                    byte |= (((m >> (shift + b as u32)) & 1) as u8) << bit;
                }
                planes[(8 * p + b) * pb + g] = byte;
            }
        }
    }
}

/// Gather the LSB of each byte of `x` into one byte: bit `j` of the result is
/// bit `0` of byte `j`. The multiply sums each lane's bit into the top byte
/// (lane `j` lands at weight `2^j` because the multiplier's byte `7-j` is
/// `2^j`), which works because the masked lanes cannot carry into each other.
#[inline]
fn gather_column(x: u64) -> u8 {
    ((x & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Encode `C < 8` planes: per 8-element group, pack the low bytes into one
/// `u64` once, then extract each plane byte with [`gather_column`] — constant
/// `C` keeps the plane loop fully unrolled.
#[inline]
fn encode_low<const C: usize>(mags: &[u32], pb: usize, planes: &mut [u8]) {
    let len = mags.len();
    let full_groups = len / 8;
    for g in 0..full_groups {
        let mut x = 0u64;
        for (j, &m) in mags[8 * g..8 * g + 8].iter().enumerate() {
            x |= ((m & 0xFF) as u64) << (8 * j);
        }
        for b in 0..C {
            planes[b * pb + g] = gather_column(x >> b);
        }
    }
    let tail = len % 8;
    if tail > 0 {
        let g = full_groups;
        let mut x = 0u64;
        for (j, &m) in mags[8 * g..].iter().enumerate() {
            x |= ((m & 0xFF) as u64) << (8 * j);
        }
        for b in 0..C {
            planes[b * pb + g] = gather_column(x >> b);
        }
    }
}

/// Decode `c` bit planes from `input` into `mags` (length = block length).
/// Returns bytes consumed.
///
/// Validates that `input` actually holds all `c` planes and returns a typed
/// [`Error::Truncated`] otherwise (the scalar loop used to panic on short
/// input). Bit-parallel inverse of [`encode_planes`].
pub fn decode_planes(input: &[u8], c: u8, mags: &mut [u32]) -> Result<usize> {
    let len = mags.len();
    let need = planes_size(c, len);
    if input.len() < need {
        return Err(Error::Truncated { need, have: input.len() });
    }
    let pb = plane_bytes(len);
    if c < 8 && c > 0 {
        // Few planes: direct constant-C bit extraction beats the flat cost
        // of the 8x8 transpose.
        match c {
            1 => decode_low::<1>(input, pb, mags),
            2 => decode_low::<2>(input, pb, mags),
            3 => decode_low::<3>(input, pb, mags),
            4 => decode_low::<4>(input, pb, mags),
            5 => decode_low::<5>(input, pb, mags),
            6 => decode_low::<6>(input, pb, mags),
            _ => decode_low::<7>(input, pb, mags),
        }
        return Ok(need);
    }
    mags.fill(0);
    let full_groups = len / 8;
    for p in 0..(c as usize).div_ceil(8) {
        let bits = (c as usize - 8 * p).min(8);
        let shift = (8 * p) as u32;
        for g in 0..full_groups {
            let mut y = 0u64;
            for b in 0..bits {
                y |= (input[(8 * p + b) * pb + g] as u64) << (8 * b);
            }
            let t = transpose8(y);
            for (j, m) in mags[8 * g..8 * g + 8].iter_mut().enumerate() {
                *m |= (((t >> (8 * j)) & 0xFF) as u32) << shift;
            }
        }
        if !len.is_multiple_of(8) {
            let g = full_groups;
            for b in 0..bits {
                let byte = input[(8 * p + b) * pb + g];
                for (bit, m) in mags[8 * g..].iter_mut().enumerate() {
                    *m |= (((byte >> bit) & 1) as u32) << (shift + b as u32);
                }
            }
        }
    }
    Ok(need)
}

/// Decode `C < 8` planes: per 8-element group, load the `C` plane bytes once
/// and rebuild each magnitude with a fully unrolled constant-`C` bit gather
/// (stores, no prior `fill`).
#[inline]
fn decode_low<const C: usize>(input: &[u8], pb: usize, mags: &mut [u32]) {
    let len = mags.len();
    let full_groups = len / 8;
    for g in 0..full_groups {
        let mut bytes = [0u8; C];
        for (b, byte) in bytes.iter_mut().enumerate() {
            *byte = input[b * pb + g];
        }
        for (j, m) in mags[8 * g..8 * g + 8].iter_mut().enumerate() {
            let mut v = 0u32;
            for (b, &byte) in bytes.iter().enumerate() {
                v |= (((byte >> j) & 1) as u32) << b;
            }
            *m = v;
        }
    }
    let tail = len % 8;
    if tail > 0 {
        let g = full_groups;
        let mut bytes = [0u8; C];
        for (b, byte) in bytes.iter_mut().enumerate() {
            *byte = input[b * pb + g];
        }
        for (j, m) in mags[8 * g..len].iter_mut().enumerate() {
            let mut v = 0u32;
            for (b, &byte) in bytes.iter().enumerate() {
                v |= (((byte >> j) & 1) as u32) << b;
            }
            *m = v;
        }
    }
}

/// Scalar reference encoder: one bit per iteration, exactly the original
/// CPU-unfriendly pattern the paper contrasts against. Kept as the verified
/// baseline for the fast path.
pub fn encode_planes_scalar(mags: &[u32], c: u8, out: &mut Vec<u8>) {
    let len = mags.len();
    let pb = plane_bytes(len);
    for b in 0..c as u32 {
        for byte_idx in 0..pb {
            let mut byte = 0u8;
            let start = byte_idx * 8;
            let end = (start + 8).min(len);
            for (bit, &m) in mags[start..end].iter().enumerate() {
                byte |= (((m >> b) & 1) as u8) << bit;
            }
            out.push(byte);
        }
    }
}

/// Scalar reference decoder (bit-at-a-time), with the same length validation
/// as [`decode_planes`].
pub fn decode_planes_scalar(input: &[u8], c: u8, mags: &mut [u32]) -> Result<usize> {
    let len = mags.len();
    let need = planes_size(c, len);
    if input.len() < need {
        return Err(Error::Truncated { need, have: input.len() });
    }
    let pb = plane_bytes(len);
    mags.fill(0);
    for b in 0..c as u32 {
        let plane = &input[b as usize * pb..(b as usize + 1) * pb];
        for (i, m) in mags.iter_mut().enumerate() {
            let bit = (plane[i / 8] >> (i % 8)) & 1;
            *m |= (bit as u32) << b;
        }
    }
    Ok(need)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_roundtrip_all_code_lengths() {
        for c in 0..=32u8 {
            let mags: Vec<u32> = (0..32u32)
                .map(|i| {
                    if c == 0 {
                        0
                    } else {
                        i.wrapping_mul(0x9E37_79B9) & ((1u64 << c) - 1) as u32
                    }
                })
                .collect();
            let mut buf = Vec::new();
            encode_planes(&mags, c, &mut buf);
            assert_eq!(buf.len(), planes_size(c, 32));
            let mut out = vec![0u32; 32];
            let used = decode_planes(&buf, c, &mut out).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(out, mags, "c={c}");
        }
    }

    #[test]
    fn partial_block_roundtrips() {
        for len in [1usize, 7, 8, 9, 17, 31] {
            let mags: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
            let c = 8u8;
            let mut buf = Vec::new();
            encode_planes(&mags, c, &mut buf);
            let mut out = vec![0u32; len];
            decode_planes(&buf, c, &mut out).unwrap();
            assert_eq!(out, mags, "len={len}");
        }
    }

    #[test]
    fn zero_planes_cost_nothing() {
        let mags = [0u32; 32];
        let mut buf = Vec::new();
        encode_planes(&mags, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn transpose8_is_an_involution_and_transposes() {
        let x = 0x8040_2010_0804_0201u64; // identity matrix
        assert_eq!(transpose8(x), x);
        // single bit: input byte 3 bit 5 -> output byte 5 bit 3
        let x = 1u64 << (8 * 3 + 5);
        assert_eq!(transpose8(x), 1u64 << (8 * 5 + 3));
        for seed in [0x1234_5678_9ABC_DEF0u64, 0xFFFF_0000_AAAA_5555, 1, u64::MAX] {
            assert_eq!(transpose8(transpose8(seed)), seed);
        }
    }

    #[test]
    fn fast_encode_matches_scalar_reference() {
        for len in [1usize, 7, 8, 9, 16, 31, 32, 63, 64] {
            for c in 0..=32u8 {
                let mags: Vec<u32> = (0..len as u32)
                    .map(|i| {
                        let full = i.wrapping_mul(0x9E37_79B9) ^ (i << 13);
                        if c == 0 {
                            0
                        } else {
                            full & ((1u64 << c) - 1) as u32
                        }
                    })
                    .collect();
                let mut fast = Vec::new();
                encode_planes(&mags, c, &mut fast);
                let mut scalar = Vec::new();
                encode_planes_scalar(&mags, c, &mut scalar);
                assert_eq!(fast, scalar, "len={len} c={c}");
                let mut df = vec![0u32; len];
                let mut ds = vec![0u32; len];
                assert_eq!(
                    decode_planes(&fast, c, &mut df).unwrap(),
                    decode_planes_scalar(&fast, c, &mut ds).unwrap()
                );
                assert_eq!(df, ds, "len={len} c={c}");
                assert_eq!(df, mags, "len={len} c={c}");
            }
        }
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mags: Vec<u32> = (0..32u32).map(|i| i * 7 + 1).collect();
        let mut buf = Vec::new();
        encode_planes(&mags, 12, &mut buf);
        let mut out = vec![0u32; 32];
        for cut in 0..buf.len() {
            for decode in
                [decode_planes as fn(&[u8], u8, &mut [u32]) -> Result<usize>, decode_planes_scalar]
            {
                match decode(&buf[..cut], 12, &mut out) {
                    Err(Error::Truncated { need, have }) => {
                        assert_eq!(need, buf.len());
                        assert_eq!(have, cut);
                    }
                    other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }
}
