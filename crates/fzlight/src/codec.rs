//! Ultra-fast bit-shifting fixed-length block codec (Sec. III-B.3).
//!
//! A *block* is up to [`crate::config::MAX_BLOCK_LEN`] signed quantization
//! deltas. Deltas are differences of `i32` quantization integers, so a single
//! delta can span 33 bits signed; they are therefore handled as `i64` with a
//! sign bitmap plus a `u32` magnitude (magnitudes above `u32::MAX` are a
//! [`DeltaOverflow`](crate::error::Error::DeltaOverflow), which can only arise
//! from homomorphic accumulation, never from compression itself).
//!
//! On the wire a block is:
//!
//! ```text
//! [ code: u8 ]                      bit width c of the largest |delta|
//! if c > 0:
//!   [ signs: ceil(L/8) bytes ]      LSB-first sign bitmap (1 = negative)
//!   [ planes: (c/8) * L bytes ]     full byte planes, plane p = bits 8p..8p+8
//!   [ resid: ceil(L*r/8) bytes ]    r = c%8 high residual bits, LSB-first
//! ```
//!
//! `c == 0` marks a **constant block** (all deltas zero) — a single byte on
//! the wire. This is the representation the `hZ-dynamic` pipeline heuristic
//! dispatches on: constant+constant blocks need no work at all, and
//! constant+non-constant blocks are verbatim byte copies.
//!
//! The byte-plane layout is the CPU analogue of the paper's
//! `ultra_fast_bit_shifting_x` scheme: full bytes of every element are stored
//! with plain shifts (no bit-granular work), and only the final `r < 8`
//! residual bits per element go through a packed bit writer.
//!
//! ## Word-parallel hot paths
//!
//! The production [`encode_block`]/[`decode_block`] pair is word-parallel:
//! output is written once via `resize` + slice stores (no per-byte `Vec`
//! growth checks), the sign bitmap moves as one `u64`, byte planes are plain
//! vectorizable gather/scatter loops, and the residual plane exploits that
//! **8 elements × r bits is always exactly `r` whole bytes** — each group of
//! eight elements packs into one `u64` with shifts and moves with a single
//! bounded copy, no carry state between groups. Sign application on decode is
//! branchless (`(m ^ -s) + s`). The original byte-at-a-time/bit-buffered
//! loops are retained as [`encode_block_scalar`]/[`decode_block_scalar`]: the
//! verified reference the fast path is property-tested against byte-for-byte
//! (`tests/kernel_equivalence.rs`).

use crate::config::MAX_BLOCK_LEN;
use crate::error::{Error, Result};

/// Number of sign-bitmap bytes for a block of `len` deltas.
#[inline]
pub const fn sign_bytes(len: usize) -> usize {
    len.div_ceil(8)
}

/// Bit width needed to store `max_mag` (0 for 0).
#[inline]
pub fn code_for_max(max_mag: u32) -> u8 {
    (32 - max_mag.leading_zeros()) as u8
}

/// Payload size in bytes (excluding the 1-byte code) for a block of `len`
/// deltas encoded with code length `c`.
#[inline]
pub const fn payload_size(c: u8, len: usize) -> usize {
    if c == 0 {
        return 0;
    }
    let byte_count = (c / 8) as usize;
    let r = (c % 8) as usize;
    sign_bytes(len) + byte_count * len + (len * r).div_ceil(8)
}

/// Total on-wire size (code byte + payload).
#[inline]
pub const fn block_size(c: u8, len: usize) -> usize {
    1 + payload_size(c, len)
}

/// Read the code byte of the block starting at `input[0]`.
#[inline]
pub fn peek_code(input: &[u8]) -> Result<u8> {
    match input.first() {
        Some(&c) if c <= 32 => Ok(c),
        Some(_) => Err(Error::Corrupt("code length > 32")),
        None => Err(Error::Truncated { need: 1, have: 0 }),
    }
}

/// Encode a block given `u32` magnitudes and a sign bitmap; appends to `out`
/// and returns the code length used.
///
/// `signs` bit `i` set means delta `i` is negative. Magnitude 0 must carry
/// sign bit 0 so the encoding is canonical (the homomorphic sum relies on
/// byte-identical copies for pipelines ② and ③).
///
/// Word-parallel fast path, byte-identical to [`encode_block_scalar`].
pub fn encode_block(mags: &[u32], signs: u64, out: &mut Vec<u8>) -> u8 {
    debug_assert!(mags.len() <= MAX_BLOCK_LEN);
    let len = mags.len();
    let mut max = 0u32;
    for &m in mags {
        max |= m;
    }
    let c = code_for_max(max);
    let start = out.len();
    out.resize(start + block_size(c, len), 0);
    let buf = &mut out[start..];
    buf[0] = c;
    if c == 0 {
        return 0;
    }
    // sign bitmap: one u64 store, clipped
    let sb = sign_bytes(len);
    buf[1..1 + sb].copy_from_slice(&signs.to_le_bytes()[..sb]);
    let mut pos = 1 + sb;
    // full byte planes: contiguous scatter, vectorizable
    let byte_count = (c / 8) as usize;
    for p in 0..byte_count {
        let shift = 8 * p as u32;
        for (o, &m) in buf[pos..pos + len].iter_mut().zip(mags) {
            *o = (m >> shift) as u8;
        }
        pos += len;
    }
    // residual (high) bits: 8 elements * r bits == r whole bytes per group.
    // Dispatch to a monomorphized packer so the group loop fully unrolls
    // with constant shifts (a runtime `j * r` shift defeats unrolling).
    let r = (c % 8) as u32;
    let base = 8 * byte_count as u32;
    match r {
        0 => {}
        1 => pack_resid::<1>(mags, base, &mut buf[pos..]),
        2 => pack_resid::<2>(mags, base, &mut buf[pos..]),
        3 => pack_resid::<3>(mags, base, &mut buf[pos..]),
        4 => pack_resid::<4>(mags, base, &mut buf[pos..]),
        5 => pack_resid::<5>(mags, base, &mut buf[pos..]),
        6 => pack_resid::<6>(mags, base, &mut buf[pos..]),
        _ => pack_resid::<7>(mags, base, &mut buf[pos..]),
    }
    c
}

/// Pack the `R`-bit residual plane of every magnitude (bits `base..base+R`)
/// into `buf`: each full 8-element group is built in one `u64` and stored as
/// exactly `R` bytes; the tail group stores `ceil(tail*R/8)` bytes.
#[inline]
fn pack_resid<const R: usize>(mags: &[u32], base: u32, buf: &mut [u8]) {
    let mask = (1u32 << R) - 1;
    let len = mags.len();
    let full_groups = len / 8;
    let mut pos = 0usize;
    for g in 0..full_groups {
        let mut w = 0u64;
        for (j, &m) in mags[8 * g..8 * g + 8].iter().enumerate() {
            w |= (((m >> base) & mask) as u64) << (j * R);
        }
        buf[pos..pos + R].copy_from_slice(&w.to_le_bytes()[..R]);
        pos += R;
    }
    let tail = len % 8;
    if tail > 0 {
        let mut w = 0u64;
        for (j, &m) in mags[8 * full_groups..].iter().enumerate() {
            w |= (((m >> base) & mask) as u64) << (j * R);
        }
        let nb = (tail * R).div_ceil(8);
        buf[pos..pos + nb].copy_from_slice(&w.to_le_bytes()[..nb]);
    }
}

/// Scalar reference encoder: per-byte `Vec::push` and a carried bit
/// accumulator, exactly the original element-at-a-time loop. Retained as the
/// verified baseline for differential tests and the kernel harness.
pub fn encode_block_scalar(mags: &[u32], signs: u64, out: &mut Vec<u8>) -> u8 {
    debug_assert!(mags.len() <= MAX_BLOCK_LEN);
    let len = mags.len();
    let mut max = 0u32;
    for &m in mags {
        max |= m;
    }
    let c = code_for_max(max);
    out.push(c);
    if c == 0 {
        return 0;
    }
    let sb = sign_bytes(len);
    for b in 0..sb {
        out.push(((signs >> (8 * b)) & 0xFF) as u8);
    }
    let byte_count = (c / 8) as usize;
    for p in 0..byte_count {
        let shift = 8 * p as u32;
        for &m in mags {
            out.push((m >> shift) as u8);
        }
    }
    let r = (c % 8) as u32;
    if r > 0 {
        let base = 8 * byte_count as u32;
        let mask = (1u32 << r) - 1;
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &m in mags {
            acc |= (((m >> base) & mask) as u64) << nbits;
            nbits += r;
            while nbits >= 8 {
                out.push((acc & 0xFF) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push((acc & 0xFF) as u8);
        }
    }
    c
}

/// Gather a block's sign flags — one byte per delta, 1 = negative, else 0 —
/// into the LSB-first bitmap [`encode_block`] takes.
///
/// Eight flag bytes are read as one `u64` and a multiply sums flag `j` into
/// bit `56 + j` (the multiplier's byte `7 - j` is `2^j`, and 0/1 lanes cannot
/// carry into each other): `ompszp::bitshuffle`'s column gather, here in
/// place of a 64-step `signs |= flag << k` chain.
#[inline]
pub(crate) fn sign_bitmap(neg: &[u8]) -> u64 {
    debug_assert!(neg.len() <= MAX_BLOCK_LEN);
    let mut signs = 0u64;
    for (g, group) in neg.chunks(8).enumerate() {
        let mut flags = [0u8; 8];
        flags[..group.len()].copy_from_slice(group);
        signs |= (u64::from_le_bytes(flags).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    signs
}

/// Encode a block of signed `i64` deltas (computes magnitudes + sign bitmap
/// first). Appends to `out`, returns the code length used.
///
/// Fails with [`Error::DeltaOverflow`] if any `|delta| > u32::MAX`.
pub fn encode_deltas(deltas: &[i64], out: &mut Vec<u8>) -> Result<u8> {
    debug_assert!(deltas.len() <= MAX_BLOCK_LEN);
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mut neg = [0u8; MAX_BLOCK_LEN];
    let mut wide = 0u64;
    for ((o, s), &d) in mags.iter_mut().zip(&mut neg).zip(deltas) {
        let mag = d.unsigned_abs();
        wide |= mag;
        *o = mag as u32;
        *s = u8::from(d < 0);
    }
    if wide > u32::MAX as u64 {
        return Err(Error::DeltaOverflow);
    }
    Ok(encode_block(&mags[..deltas.len()], sign_bitmap(&neg[..deltas.len()]), out))
}

/// Reference counterpart of [`encode_deltas`] built on the scalar encoder.
pub fn encode_deltas_scalar(deltas: &[i64], out: &mut Vec<u8>) -> Result<u8> {
    debug_assert!(deltas.len() <= MAX_BLOCK_LEN);
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mut signs = 0u64;
    for (i, &d) in deltas.iter().enumerate() {
        let mag = d.unsigned_abs();
        if mag > u32::MAX as u64 {
            return Err(Error::DeltaOverflow);
        }
        mags[i] = mag as u32;
        signs |= u64::from(d < 0) << i;
    }
    Ok(encode_block_scalar(&mags[..deltas.len()], signs, out))
}

/// Decode the magnitude planes + sign bitmap of a non-constant block body
/// (`input` starts right after the code byte). Shared by the delta and
/// parts decoders; the caller has already validated the total length.
fn decode_body(input: &[u8], c: u8, len: usize, mags: &mut [u32], signs: &mut u64) {
    // sign bitmap as one u64 load, clipped
    let sb = sign_bytes(len);
    let mut sbuf = [0u8; 8];
    sbuf[..sb].copy_from_slice(&input[..sb]);
    *signs = u64::from_le_bytes(sbuf);
    let mut pos = sb;
    // full byte planes: contiguous gather, vectorizable. The first plane
    // stores (no prior fill needed); later planes OR.
    let byte_count = (c / 8) as usize;
    let r = (c % 8) as u32;
    if byte_count == 0 {
        // residual-only block (c < 8, the dominant case on smooth fields):
        // magnitudes come wholly from the packed residual plane.
        match r {
            1 => unpack_resid::<1, false>(&input[pos..], 0, &mut mags[..len]),
            2 => unpack_resid::<2, false>(&input[pos..], 0, &mut mags[..len]),
            3 => unpack_resid::<3, false>(&input[pos..], 0, &mut mags[..len]),
            4 => unpack_resid::<4, false>(&input[pos..], 0, &mut mags[..len]),
            5 => unpack_resid::<5, false>(&input[pos..], 0, &mut mags[..len]),
            6 => unpack_resid::<6, false>(&input[pos..], 0, &mut mags[..len]),
            _ => unpack_resid::<7, false>(&input[pos..], 0, &mut mags[..len]),
        }
        return;
    }
    for (m, &byte) in mags[..len].iter_mut().zip(&input[pos..pos + len]) {
        *m = byte as u32;
    }
    pos += len;
    for p in 1..byte_count {
        let shift = 8 * p as u32;
        for (m, &byte) in mags[..len].iter_mut().zip(&input[pos..pos + len]) {
            *m |= (byte as u32) << shift;
        }
        pos += len;
    }
    let base = 8 * byte_count as u32;
    match r {
        0 => {}
        1 => unpack_resid::<1, true>(&input[pos..], base, &mut mags[..len]),
        2 => unpack_resid::<2, true>(&input[pos..], base, &mut mags[..len]),
        3 => unpack_resid::<3, true>(&input[pos..], base, &mut mags[..len]),
        4 => unpack_resid::<4, true>(&input[pos..], base, &mut mags[..len]),
        5 => unpack_resid::<5, true>(&input[pos..], base, &mut mags[..len]),
        6 => unpack_resid::<6, true>(&input[pos..], base, &mut mags[..len]),
        _ => unpack_resid::<7, true>(&input[pos..], base, &mut mags[..len]),
    }
}

/// Unpack the `R`-bit residual plane into `mags` (bits `base..base+R`): one
/// bounded `u64` load per 8-element group, fully unrolled for constant `R`.
/// `OR` selects accumulate (after byte planes) vs plain store (c < 8).
#[inline]
fn unpack_resid<const R: usize, const OR: bool>(input: &[u8], base: u32, mags: &mut [u32]) {
    let mask = (1u64 << R) - 1;
    let len = mags.len();
    let full_groups = len / 8;
    let mut pos = 0usize;
    for g in 0..full_groups {
        let mut wbuf = [0u8; 8];
        wbuf[..R].copy_from_slice(&input[pos..pos + R]);
        let w = u64::from_le_bytes(wbuf);
        for (j, m) in mags[8 * g..8 * g + 8].iter_mut().enumerate() {
            let bits = (((w >> (j * R)) & mask) as u32) << base;
            if OR {
                *m |= bits;
            } else {
                *m = bits;
            }
        }
        pos += R;
    }
    let tail = len % 8;
    if tail > 0 {
        let nb = (tail * R).div_ceil(8);
        let mut wbuf = [0u8; 8];
        wbuf[..nb].copy_from_slice(&input[pos..pos + nb]);
        let w = u64::from_le_bytes(wbuf);
        for (j, m) in mags[8 * full_groups..len].iter_mut().enumerate() {
            let bits = (((w >> (j * R)) & mask) as u32) << base;
            if OR {
                *m |= bits;
            } else {
                *m = bits;
            }
        }
    }
}

/// Store (`MODE == 0`), add (`MODE == 1`), or subtract (`MODE == 2`) the
/// decoded deltas into `deltas`. One body serves all three so the bit
/// unpacking stays identical; `MODE` is const, so the sink folds to a single
/// instruction per element.
#[inline]
fn decode_block_with<const MODE: u8>(input: &[u8], deltas: &mut [i64]) -> Result<usize> {
    let len = deltas.len();
    debug_assert!(len <= MAX_BLOCK_LEN);
    let sink = |slot: &mut i64, d: i64| match MODE {
        0 => *slot = d,
        1 => *slot += d,
        _ => *slot -= d,
    };
    let c = peek_code(input)?;
    let total = block_size(c, len);
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    if c == 0 {
        // all deltas are zero: nothing to accumulate in add/sub mode
        if MODE == 0 {
            deltas.fill(0);
        }
        return Ok(1);
    }
    if c < 8 {
        // residual-only block: skip the magnitude staging array entirely and
        // apply signs while unpacking (one pass, branchless).
        let sb = sign_bytes(len);
        let mut sbuf = [0u8; 8];
        sbuf[..sb].copy_from_slice(&input[1..1 + sb]);
        let signs = u64::from_le_bytes(sbuf);
        let resid = &input[1 + sb..total];
        match c {
            1 => unpack_signed::<1>(resid, signs, deltas, sink),
            2 => unpack_signed::<2>(resid, signs, deltas, sink),
            3 => unpack_signed::<3>(resid, signs, deltas, sink),
            4 => unpack_signed::<4>(resid, signs, deltas, sink),
            5 => unpack_signed::<5>(resid, signs, deltas, sink),
            6 => unpack_signed::<6>(resid, signs, deltas, sink),
            _ => unpack_signed::<7>(resid, signs, deltas, sink),
        }
        return Ok(total);
    }
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mut signs = 0u64;
    decode_body(&input[1..], c, len, &mut mags, &mut signs);
    // branchless sign application: (m ^ -s) + s negates when s == 1
    for (i, d) in deltas.iter_mut().enumerate() {
        let m = mags[i] as i64;
        let s = ((signs >> i) & 1) as i64;
        sink(d, (m ^ -s) + s);
    }
    Ok(total)
}

/// Decode the block starting at `input[0]` into `deltas` (whose length is the
/// block length). Returns the number of bytes consumed.
///
/// Word-parallel fast path; result-identical to [`decode_block_scalar`].
pub fn decode_block(input: &[u8], deltas: &mut [i64]) -> Result<usize> {
    decode_block_with::<0>(input, deltas)
}

/// Decode the block starting at `input[0]` and **add** its deltas into `acc`
/// (fused decode-accumulate: no staging buffer, one pass over the tile).
/// Returns the number of bytes consumed.
pub fn decode_block_add(input: &[u8], acc: &mut [i64]) -> Result<usize> {
    decode_block_with::<1>(input, acc)
}

/// Like [`decode_block_add`] but **subtracts** the decoded deltas from `acc`.
pub fn decode_block_sub(input: &[u8], acc: &mut [i64]) -> Result<usize> {
    decode_block_with::<2>(input, acc)
}

/// Decode a residual-only block body (c < 8) straight into signed deltas:
/// per 8-element group, one bounded `u64` load, constant-`R` unrolled bit
/// extraction, and branchless sign application fused into the same pass.
/// `sink` stores/accumulates the decoded delta into the output slot — it
/// monomorphizes per call site, so store/add/sub variants stay branch-free.
#[inline]
fn unpack_signed<const R: usize>(
    input: &[u8],
    signs: u64,
    deltas: &mut [i64],
    sink: impl Fn(&mut i64, i64) + Copy,
) {
    let mask = (1u64 << R) - 1;
    let len = deltas.len();
    let full_groups = len / 8;
    let mut pos = 0usize;
    for g in 0..full_groups {
        let mut wbuf = [0u8; 8];
        wbuf[..R].copy_from_slice(&input[pos..pos + R]);
        let w = u64::from_le_bytes(wbuf);
        for (j, d) in deltas[8 * g..8 * g + 8].iter_mut().enumerate() {
            let m = ((w >> (j * R)) & mask) as i64;
            let s = ((signs >> (8 * g + j)) & 1) as i64;
            sink(d, (m ^ -s) + s);
        }
        pos += R;
    }
    let tail = len % 8;
    if tail > 0 {
        let nb = (tail * R).div_ceil(8);
        let mut wbuf = [0u8; 8];
        wbuf[..nb].copy_from_slice(&input[pos..pos + nb]);
        let w = u64::from_le_bytes(wbuf);
        for (j, d) in deltas[8 * full_groups..len].iter_mut().enumerate() {
            let m = ((w >> (j * R)) & mask) as i64;
            let s = ((signs >> (8 * full_groups + j)) & 1) as i64;
            sink(d, (m ^ -s) + s);
        }
    }
}

/// Decode a block into its wire-native parts: `u32` magnitudes plus the sign
/// bitmap, skipping the signed-integer conversion. `mags.len()` is the block
/// length. Returns bytes consumed; a constant block yields all-zero
/// magnitudes and an empty bitmap.
///
/// This is the entry point for homomorphic kernels that re-encode
/// immediately (the magnitudes+signs form is exactly what
/// [`encode_block`] consumes).
pub fn decode_block_parts(input: &[u8], mags: &mut [u32], signs: &mut u64) -> Result<usize> {
    let len = mags.len();
    debug_assert!(len <= MAX_BLOCK_LEN);
    let c = peek_code(input)?;
    let total = block_size(c, len);
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    if c == 0 {
        mags.fill(0);
        *signs = 0;
        return Ok(1);
    }
    decode_body(&input[1..], c, len, mags, signs);
    Ok(total)
}

/// Scalar reference decoder: bit-buffered residual reads and branchy sign
/// application, exactly the original loop. Retained as the verified baseline
/// for differential tests and the kernel harness.
pub fn decode_block_scalar(input: &[u8], deltas: &mut [i64]) -> Result<usize> {
    let len = deltas.len();
    debug_assert!(len <= MAX_BLOCK_LEN);
    let c = peek_code(input)?;
    let total = block_size(c, len);
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    if c == 0 {
        deltas.fill(0);
        return Ok(1);
    }
    let mut pos = 1usize;
    let sb = sign_bytes(len);
    let mut signs = 0u64;
    for b in 0..sb {
        signs |= (input[pos + b] as u64) << (8 * b);
    }
    pos += sb;
    let byte_count = (c / 8) as usize;
    let mut mags = [0u32; MAX_BLOCK_LEN];
    for p in 0..byte_count {
        let shift = 8 * p as u32;
        let plane = &input[pos..pos + len];
        for (i, &byte) in plane.iter().enumerate() {
            mags[i] |= (byte as u32) << shift;
        }
        pos += len;
    }
    let r = (c % 8) as u32;
    if r > 0 {
        let base = 8 * byte_count as u32;
        let mask = (1u64 << r) - 1;
        let mut acc = 0u64;
        let mut nbits = 0u32;
        let mut src = pos;
        for m in mags.iter_mut().take(len) {
            while nbits < r {
                acc |= (input[src] as u64) << nbits;
                src += 1;
                nbits += 8;
            }
            *m |= ((acc & mask) as u32) << base;
            acc >>= r;
            nbits -= r;
        }
    }
    for (i, d) in deltas.iter_mut().enumerate() {
        let m = mags[i] as i64;
        *d = if (signs >> i) & 1 == 1 { -m } else { m };
    }
    Ok(total)
}

/// Copy a whole encoded block (code byte + payload) from `input` to `out`.
/// Returns the number of bytes copied. Used by hZ-dynamic pipelines ② and ③.
pub fn copy_block(input: &[u8], len: usize, out: &mut Vec<u8>) -> Result<usize> {
    let c = peek_code(input)?;
    let total = block_size(c, len);
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    out.extend_from_slice(&input[..total]);
    Ok(total)
}

/// Skip over an encoded block, returning its on-wire size.
pub fn skip_block(input: &[u8], len: usize) -> Result<usize> {
    let c = peek_code(input)?;
    let total = block_size(c, len);
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(deltas: &[i64]) -> Vec<i64> {
        let mut buf = Vec::new();
        encode_deltas(deltas, &mut buf).unwrap();
        let mut out = vec![0i64; deltas.len()];
        let used = decode_block(&buf, &mut out).unwrap();
        assert_eq!(used, buf.len(), "decoder must consume exactly what encoder wrote");
        // the scalar reference must agree byte-for-byte and value-for-value
        let mut sbuf = Vec::new();
        encode_deltas_scalar(deltas, &mut sbuf).unwrap();
        assert_eq!(buf, sbuf, "fast encoder diverged from the scalar reference");
        let mut sout = vec![0i64; deltas.len()];
        assert_eq!(decode_block_scalar(&buf, &mut sout).unwrap(), used);
        assert_eq!(out, sout, "fast decoder diverged from the scalar reference");
        out
    }

    #[test]
    fn zero_block_is_one_byte() {
        let deltas = [0i64; 32];
        let mut buf = Vec::new();
        let c = encode_deltas(&deltas, &mut buf).unwrap();
        assert_eq!(c, 0);
        assert_eq!(buf, vec![0u8]);
        assert_eq!(roundtrip(&deltas), deltas);
    }

    #[test]
    fn small_values_roundtrip() {
        let deltas: Vec<i64> = (0..32).map(|i| (i % 7) - 3).collect();
        assert_eq!(roundtrip(&deltas), deltas);
    }

    #[test]
    fn every_code_length_roundtrips() {
        for c in 1..=32u32 {
            let hi = (1u64 << c) - 1;
            let deltas: Vec<i64> = (0..32)
                .map(|i| {
                    let v = (hi * (i as u64 + 1) / 32) as i64;
                    if i % 2 == 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            assert_eq!(roundtrip(&deltas), deltas, "code length {c}");
        }
    }

    #[test]
    fn extreme_deltas_roundtrip() {
        let max = u32::MAX as i64;
        let deltas = [max, -max, 0, -1, 1, max - 1, 0, 0];
        assert_eq!(roundtrip(&deltas), deltas);
    }

    #[test]
    fn delta_overflow_detected() {
        let deltas = [u32::MAX as i64 + 1];
        let mut buf = Vec::new();
        assert!(matches!(encode_deltas(&deltas, &mut buf), Err(Error::DeltaOverflow)));
        assert!(matches!(encode_deltas_scalar(&deltas, &mut buf), Err(Error::DeltaOverflow)));
        let deltas = [-(u32::MAX as i64) - 1];
        assert!(matches!(encode_deltas(&deltas, &mut buf), Err(Error::DeltaOverflow)));
        assert!(matches!(encode_deltas_scalar(&deltas, &mut buf), Err(Error::DeltaOverflow)));
    }

    #[test]
    fn partial_blocks_roundtrip() {
        for len in 1..=33usize {
            let len = len.min(MAX_BLOCK_LEN);
            let deltas: Vec<i64> = (0..len).map(|i| (i as i64 - 5) * 1000).collect();
            assert_eq!(roundtrip(&deltas), deltas, "len {len}");
        }
    }

    #[test]
    fn sixty_four_element_blocks_roundtrip() {
        let deltas: Vec<i64> = (0..64).map(|i| (i as i64 - 32) * 77777).collect();
        assert_eq!(roundtrip(&deltas), deltas);
    }

    #[test]
    fn block_size_matches_encoded_size() {
        for c_target in [0u32, 1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32] {
            let v: i64 = if c_target == 0 { 0 } else { 1i64 << (c_target - 1) };
            let deltas = vec![v; 32];
            let mut buf = Vec::new();
            let c = encode_deltas(&deltas, &mut buf).unwrap();
            assert_eq!(c as u32, c_target);
            assert_eq!(buf.len(), block_size(c, 32));
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let deltas = [12345i64; 32];
        let mut buf = Vec::new();
        encode_deltas(&deltas, &mut buf).unwrap();
        let mut out = [0i64; 32];
        let mut mags = [0u32; 32];
        let mut signs = 0u64;
        for cut in 0..buf.len() {
            assert!(decode_block(&buf[..cut], &mut out).is_err(), "cut at {cut} should fail");
            assert!(decode_block_scalar(&buf[..cut], &mut out).is_err(), "cut at {cut}");
            assert!(decode_block_parts(&buf[..cut], &mut mags, &mut signs).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn invalid_code_is_rejected() {
        let buf = [40u8, 0, 0];
        let mut out = [0i64; 4];
        assert!(matches!(decode_block(&buf, &mut out), Err(Error::Corrupt(_))));
    }

    #[test]
    fn copy_and_skip_agree_with_decode() {
        let deltas: Vec<i64> = (0..32).map(|i| i * 37 - 400).collect();
        let mut buf = Vec::new();
        encode_deltas(&deltas, &mut buf).unwrap();
        buf.extend_from_slice(&[0xAA; 5]); // trailing noise
        let mut copied = Vec::new();
        let n1 = copy_block(&buf, 32, &mut copied).unwrap();
        let n2 = skip_block(&buf, 32).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(&buf[..n1], copied.as_slice());
    }

    #[test]
    fn canonical_zero_sign_for_zero_magnitude() {
        let deltas = [0i64, -5, 0, 5];
        let mut buf = Vec::new();
        encode_deltas(&deltas, &mut buf).unwrap();
        // signs byte: only bit 1 set
        assert_eq!(buf[1], 0b0000_0010);
    }

    #[test]
    fn encoding_is_deterministic() {
        let deltas: Vec<i64> = (0..32).map(|i| i * i - 200).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        encode_deltas(&deltas, &mut a).unwrap();
        encode_deltas(&deltas, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parts_decode_matches_delta_decode() {
        for len in [1usize, 7, 8, 31, 32, 63, 64] {
            let deltas: Vec<i64> =
                (0..len).map(|i| ((i as i64 * 97) % 5000 - 2500) * (i as i64 % 3 + 1)).collect();
            let mut buf = Vec::new();
            encode_deltas(&deltas, &mut buf).unwrap();
            let mut mags = vec![0u32; len];
            let mut signs = 0u64;
            let used = decode_block_parts(&buf, &mut mags, &mut signs).unwrap();
            assert_eq!(used, buf.len());
            for (i, &d) in deltas.iter().enumerate() {
                assert_eq!(mags[i] as u64, d.unsigned_abs(), "len={len} at {i}");
                assert_eq!((signs >> i) & 1 == 1, d < 0, "len={len} at {i}");
            }
            // and re-encoding the parts reproduces the exact bytes
            let mut rebuf = Vec::new();
            encode_block(&mags, signs, &mut rebuf);
            assert_eq!(rebuf, buf, "len={len}");
        }
    }
}
