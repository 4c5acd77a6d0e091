//! Ultra-fast bit-shifting fixed-length block codec (Sec. III-B.3).
//!
//! A *block* is up to [`crate::config::MAX_BLOCK_LEN`] signed quantization
//! deltas. Deltas are differences of `i32` quantization integers, so a single
//! delta can span 33 bits signed; they are therefore handled as `i64` with a
//! sign bitmap plus a `u32` magnitude (magnitudes above `u32::MAX` are a
//! [`DeltaOverflow`](crate::error::Error::DeltaOverflow), which can only arise
//! from homomorphic accumulation, never from compression itself).
//!
//! The homomorphic kernel adds two blocks at the narrowest width their codes
//! allow. Two blocks of code `c ≤ 6` whose length is a multiple of 8 are
//! added without leaving the packed residual words
//! ([`add_narrow_blocks`]): each 8-element group is spread into the byte
//! lanes of one `u64`, biased so that the two words add lane by lane with no
//! carry between lanes, and compacted back to the result's width. A block of
//! code `c ≤ 30` has magnitudes below `2^30`, so the sum or difference of two
//! such blocks stays below `2^31` in magnitude: those are added in `i32`
//! lanes ([`decode_block_i32`], [`decode_block_add_i32`],
//! [`encode_deltas_i32`]). Wider codes go through the `i64` entry points.
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
//! The production `encode_block`/[`decode_block`] pair is word-parallel:
//! output is written once via `resize` + slice stores (no per-byte `Vec`
//! growth checks), the sign bitmap moves as one `u64`, byte planes are plain
//! vectorizable gather/scatter loops, and the residual plane exploits that
//! **8 elements × r bits is always exactly `r` whole bytes** — each group of
//! eight elements packs into one `u64` with shifts and moves with a single
//! bounded copy, no carry state between groups. Sign application on decode is
//! branchless (`(m ^ -s) + s`), each group's sign byte read once and its
//! eight flags taken at constant shifts. The original
//! byte-at-a-time/bit-buffered loops are retained as
//! [`encode_block_scalar`]/[`decode_block_scalar`]: the verified reference the
//! fast path is property-tested against byte-for-byte
//! (`tests/kernel_equivalence.rs`).

use crate::config::MAX_BLOCK_LEN;
use crate::error::{Error, Result};

/// Number of sign-bitmap bytes for a block of `len` deltas.
#[inline]
const fn sign_bytes(len: usize) -> usize {
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
const fn payload_size(c: u8, len: usize) -> usize {
    if c == 0 {
        return 0;
    }
    let byte_count = (c / 8) as usize;
    let r = (c % 8) as usize;
    sign_bytes(len) + byte_count * len + (len * r).div_ceil(8)
}

/// Total on-wire size (code byte + payload).
#[inline]
const fn block_size(c: u8, len: usize) -> usize {
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
pub(crate) fn encode_block(mags: &[u32], signs: u64, out: &mut Vec<u8>) -> u8 {
    let max = mags.iter().fold(0u32, |max, &m| max | m);
    encode_coded(mags, signs, code_for_max(max), out)
}

/// [`encode_block`] once the caller has OR-reduced the magnitudes into their
/// code `c`.
#[inline]
fn encode_coded(mags: &[u32], signs: u64, c: u8, out: &mut Vec<u8>) -> u8 {
    debug_assert!(mags.len() <= MAX_BLOCK_LEN);
    let len = mags.len();
    let start = out.len();
    out.resize(start + block_size(c, len), 0);
    let buf = &mut out[start..];
    buf[0] = c;
    if c == 0 {
        return 0;
    }
    // sign bitmap: the low bytes of one u64, clipped
    let sb = sign_bytes(len);
    for (o, b) in buf[1..1 + sb].iter_mut().zip(signs.to_le_bytes()) {
        *o = b;
    }
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

/// Eight 0/1 flag bytes as one byte, flag `j` at bit `j`: the multiply sums
/// flag `j` into bit `56 + j` (the multiplier's byte `7 - j` is `2^j`, and
/// 0/1 lanes cannot carry into each other) — `ompszp::bitshuffle`'s column
/// gather.
#[inline(always)]
fn gather_flags(flags: u64) -> u64 {
    flags.wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Gather a block's sign flags — one byte per delta, 1 = negative, else 0 —
/// into the LSB-first bitmap [`encode_block`] takes: eight flag bytes at a
/// time through [`gather_flags`], in place of a 64-step
/// `signs |= flag << k` chain.
#[inline]
pub(crate) fn sign_bitmap(neg: &[u8]) -> u64 {
    debug_assert!(neg.len() <= MAX_BLOCK_LEN);
    let mut groups = neg.chunks_exact(8);
    let mut signs = 0u64;
    for (g, group) in (&mut groups).enumerate() {
        let flags = u64::from_le_bytes(group.try_into().expect("groups of eight"));
        signs |= gather_flags(flags) << (8 * g);
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut flags = [0u8; 8];
        flags[..tail.len()].copy_from_slice(tail);
        signs |= gather_flags(u64::from_le_bytes(flags)) << (neg.len() - tail.len());
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
    let len = deltas.len();
    Ok(encode_coded(&mags[..len], sign_bitmap(&neg[..len]), code_for_max(wide as u32), out))
}

/// [`encode_deltas`] over `i32` lanes: magnitudes, sign flags and the
/// OR-reduced code come out of one pass over the lanes. Infallible, since
/// every `|i32|` fits the 32-bit magnitude.
pub fn encode_deltas_i32(deltas: &[i32], out: &mut Vec<u8>) -> u8 {
    debug_assert!(deltas.len() <= MAX_BLOCK_LEN);
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mut neg = [0u8; MAX_BLOCK_LEN];
    let mut max = 0u32;
    for ((o, s), &d) in mags.iter_mut().zip(&mut neg).zip(deltas) {
        *o = d.unsigned_abs();
        max |= *o;
        *s = u8::from(d < 0);
    }
    let len = deltas.len();
    encode_coded(&mags[..len], sign_bitmap(&neg[..len]), code_for_max(max), out)
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

/// A signed lane the block decoders write deltas into.
trait Lane: Copy + Default {
    /// The widest code whose magnitudes the lane holds.
    const MAX_CODE: u8;
    /// Magnitude `m` under sign flag `s` (0 or 1), branchlessly: `(m ^ -s) + s`
    /// negates when `s == 1` and keeps a zero magnitude zero either way.
    fn signed(m: u32, s: u32) -> Self;
    fn wrapping_add(self, d: Self) -> Self;
}

impl Lane for i64 {
    const MAX_CODE: u8 = 32;
    #[inline(always)]
    fn signed(m: u32, s: u32) -> i64 {
        let (m, s) = (i64::from(m), i64::from(s));
        (m ^ -s) + s
    }
    #[inline(always)]
    fn wrapping_add(self, d: i64) -> i64 {
        i64::wrapping_add(self, d)
    }
}

impl Lane for i32 {
    const MAX_CODE: u8 = 31;
    #[inline(always)]
    fn signed(m: u32, s: u32) -> i32 {
        let (m, s) = (m as i32, s as i32);
        (m ^ -s) + s
    }
    #[inline(always)]
    fn wrapping_add(self, d: i32) -> i32 {
        i32::wrapping_add(self, d)
    }
}

/// Decode the magnitudes of a block of code `c >= 8` from its byte planes
/// and residual plane (`input` starts right after the sign bitmap; the
/// caller has validated the total length).
fn unpack_planes(input: &[u8], c: u8, mags: &mut [u32]) {
    let len = mags.len();
    // full byte planes: contiguous gather, vectorizable. The first plane
    // stores (no prior fill needed); later planes OR.
    let byte_count = (c / 8) as usize;
    for (m, &byte) in mags.iter_mut().zip(&input[..len]) {
        *m = byte as u32;
    }
    let mut pos = len;
    for p in 1..byte_count {
        let shift = 8 * p as u32;
        for (m, &byte) in mags.iter_mut().zip(&input[pos..pos + len]) {
            *m |= (byte as u32) << shift;
        }
        pos += len;
    }
    let base = 8 * byte_count as u32;
    match c % 8 {
        0 => {}
        1 => unpack_resid::<1>(&input[pos..], base, mags),
        2 => unpack_resid::<2>(&input[pos..], base, mags),
        3 => unpack_resid::<3>(&input[pos..], base, mags),
        4 => unpack_resid::<4>(&input[pos..], base, mags),
        5 => unpack_resid::<5>(&input[pos..], base, mags),
        6 => unpack_resid::<6>(&input[pos..], base, mags),
        _ => unpack_resid::<7>(&input[pos..], base, mags),
    }
}

/// OR the `R`-bit residual plane into `mags` (bits `base..base+R`): one
/// bounded `u64` load per 8-element group, fully unrolled for constant `R`.
#[inline]
fn unpack_resid<const R: usize>(input: &[u8], base: u32, mags: &mut [u32]) {
    let mask = (1u64 << R) - 1;
    let len = mags.len();
    let full_groups = len / 8;
    let mut pos = 0usize;
    for g in 0..full_groups {
        let mut wbuf = [0u8; 8];
        wbuf[..R].copy_from_slice(&input[pos..pos + R]);
        let w = u64::from_le_bytes(wbuf);
        for (j, m) in mags[8 * g..8 * g + 8].iter_mut().enumerate() {
            *m |= (((w >> (j * R)) & mask) as u32) << base;
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
            *m |= (((w >> (j * R)) & mask) as u32) << base;
        }
    }
}

/// Decode the block at `input[0]` into `deltas` (whose length is the block
/// length), storing each delta or, with `ADD`, wrapping-adding it; `flip` is
/// XORed into the sign bitmap, so `u64::MAX` adds the negated deltas. One
/// body serves every lane type and mode so the bit unpacking stays
/// identical; both are compile-time, so the sink folds to one instruction
/// per element.
#[inline]
fn decode_block_with<T: Lane, const ADD: bool>(
    input: &[u8],
    deltas: &mut [T],
    flip: u64,
) -> Result<usize> {
    let len = deltas.len();
    debug_assert!(len <= MAX_BLOCK_LEN);
    let c = peek_code(input)?;
    let total = block_size(c, len);
    if input.len() < total {
        return Err(Error::Truncated { need: total, have: input.len() });
    }
    if c > T::MAX_CODE {
        return Err(Error::DeltaOverflow);
    }
    if c == 0 {
        // all deltas are zero: nothing to add
        if !ADD {
            deltas.fill(T::default());
        }
        return Ok(1);
    }
    let sink = |slot: &mut T, d: T| *slot = if ADD { slot.wrapping_add(d) } else { d };
    // sign bitmap: at most eight bytes, gathered little-endian
    let sb = sign_bytes(len);
    let signs = input[1..1 + sb].iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b)) ^ flip;
    let body = &input[1 + sb..total];
    if c < 8 {
        // residual-only block: skip the magnitude staging array entirely and
        // apply signs while unpacking (one pass, branchless).
        match c {
            1 => unpack_signed::<1, T>(body, signs, deltas, sink),
            2 => unpack_signed::<2, T>(body, signs, deltas, sink),
            3 => unpack_signed::<3, T>(body, signs, deltas, sink),
            4 => unpack_signed::<4, T>(body, signs, deltas, sink),
            5 => unpack_signed::<5, T>(body, signs, deltas, sink),
            6 => unpack_signed::<6, T>(body, signs, deltas, sink),
            _ => unpack_signed::<7, T>(body, signs, deltas, sink),
        }
        return Ok(total);
    }
    let mut mags = [0u32; MAX_BLOCK_LEN];
    let mags = &mut mags[..len];
    unpack_planes(body, c, mags);
    // per 8-element group: its sign byte once, each flag at a constant shift
    let full = len / 8 * 8;
    let groups = deltas[..full].chunks_exact_mut(8).zip(mags.chunks_exact(8));
    for (g, (group, m8)) in groups.enumerate() {
        let s = (signs >> (8 * g)) as u32;
        for (j, (d, &m)) in group.iter_mut().zip(m8).enumerate() {
            sink(d, T::signed(m, (s >> j) & 1));
        }
    }
    if full < len {
        let s = (signs >> full) as u32;
        for (j, (d, &m)) in deltas[full..].iter_mut().zip(&mags[full..]).enumerate() {
            sink(d, T::signed(m, (s >> j) & 1));
        }
    }
    Ok(total)
}

/// Decode the block starting at `input[0]` into `deltas` (whose length is the
/// block length). Returns the number of bytes consumed.
///
/// Word-parallel fast path; result-identical to [`decode_block_scalar`].
pub fn decode_block(input: &[u8], deltas: &mut [i64]) -> Result<usize> {
    decode_block_with::<i64, false>(input, deltas, 0)
}

/// [`decode_block`] into `i32` lanes. A block of code 32, whose magnitudes
/// need not fit, is refused with [`Error::DeltaOverflow`].
pub fn decode_block_i32(input: &[u8], lanes: &mut [i32]) -> Result<usize> {
    decode_block_with::<i32, false>(input, lanes, 0)
}

/// Decode the block starting at `input[0]` and **add** its deltas into
/// `lanes` — or, with `negate`, subtract them — in the same pass, with no
/// staging buffer. Returns the number of bytes consumed.
///
/// Lanes wrap, so the result is exact when every sum fits an `i32`: always
/// when this block and the one in `lanes` both have codes of at most 30.
/// Refuses a code-32 block like [`decode_block_i32`].
pub fn decode_block_add_i32(input: &[u8], lanes: &mut [i32], negate: bool) -> Result<usize> {
    decode_block_with::<i32, true>(input, lanes, if negate { u64::MAX } else { 0 })
}

/// Decode a residual-only block body (c < 8) straight into signed deltas:
/// per 8-element group, one bounded `u64` load and one sign byte,
/// constant-`R` unrolled bit extraction, and branchless sign application
/// fused into the same pass. `sink` stores or accumulates the decoded delta
/// into the output slot — it monomorphizes per call site, so every variant
/// stays branch-free.
#[inline]
fn unpack_signed<const R: usize, T: Lane>(
    input: &[u8],
    signs: u64,
    deltas: &mut [T],
    sink: impl Fn(&mut T, T) + Copy,
) {
    let mask = (1u64 << R) - 1;
    let len = deltas.len();
    let full_groups = len / 8;
    let mut pos = 0usize;
    for g in 0..full_groups {
        let mut wbuf = [0u8; 8];
        wbuf[..R].copy_from_slice(&input[pos..pos + R]);
        let w = u64::from_le_bytes(wbuf);
        let s = (signs >> (8 * g)) as u32;
        for (j, d) in deltas[8 * g..8 * g + 8].iter_mut().enumerate() {
            let m = ((w >> (j * R)) & mask) as u32;
            sink(d, T::signed(m, (s >> j) & 1));
        }
        pos += R;
    }
    let tail = len % 8;
    if tail > 0 {
        let nb = (tail * R).div_ceil(8);
        let mut wbuf = [0u8; 8];
        wbuf[..nb].copy_from_slice(&input[pos..pos + nb]);
        let w = u64::from_le_bytes(wbuf);
        let s = (signs >> (8 * full_groups)) as u32;
        for (j, d) in deltas[8 * full_groups..len].iter_mut().enumerate() {
            let m = ((w >> (j * R)) & mask) as u32;
            sink(d, T::signed(m, (s >> j) & 1));
        }
    }
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

/// `0x01` in every byte lane.
const LANE_ONES: u64 = 0x0101_0101_0101_0101;

/// Sign byte → lane mask: byte `j` is `0xFF` when bit `j` is set.
const SIGN_LANES: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut s = 0;
    while s < 256 {
        let mut j = 0;
        while j < 8 {
            table[s] |= ((s as u64 >> j) & 1) * (0xFF << (8 * j));
            j += 1;
        }
        s += 1;
    }
    table
};

/// The keep masks of the three spread / compact steps for `c`-bit fields:
/// a `4c`-, `2c`- and `c`-bit field at the bottom of every 64-, 32- and
/// 16-bit lane.
#[inline(always)]
fn field_masks(c: u32) -> [u64; 3] {
    let field = |bits: u32| (1u64 << bits) - 1;
    [field(4 * c), field(2 * c) * 0x0000_0001_0000_0001, field(c) * 0x0001_0001_0001_0001]
}

/// Spread the eight `c`-bit fields of `w` (field `j` at bit `j·c`) into byte
/// lanes (field `j` at bit `8j`): fields 4–7 move to the upper half, then the
/// upper pair of every half, then the upper field of every pair.
#[inline(always)]
fn spread_lanes(w: u64, c: u32) -> u64 {
    let [k4, k2, k1] = field_masks(c);
    let x = (w & k4) | ((w << (32 - 4 * c)) & (k4 << 32));
    let x = (x & k2) | ((x << (16 - 2 * c)) & (k2 << 16));
    (x & k1) | ((x << (8 - c)) & (k1 << 8))
}

/// The inverse of [`spread_lanes`]: eight byte lanes, each below `2^c`,
/// packed into `c` bytes.
#[inline(always)]
fn compact_lanes(x: u64, c: u32) -> u64 {
    let [k4, k2, k1] = field_masks(c);
    let x = (x & k1) | ((x >> (8 - c)) & (k1 << c));
    let x = (x & k2) | ((x >> (16 - 2 * c)) & (k2 << (2 * c)));
    (x & k4) | ((x >> (32 - 4 * c)) & (k4 << (4 * c)))
}

/// The `n < 8` little-endian bytes at the front of `bytes` as one word: a
/// single masked 8-byte load wherever the slice runs on that far.
#[inline(always)]
fn load_le(bytes: &[u8], n: usize) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(w) => u64::from_le_bytes(*w) & ((1u64 << (8 * n)) - 1),
        None => {
            let mut w = [0u8; 8];
            w[..n].copy_from_slice(&bytes[..n]);
            u64::from_le_bytes(w)
        }
    }
}

/// Group `g` of the residual-only block at `block[0]` (code `c`, `groups`
/// 8-element groups), biased into byte lanes: lane `j` holds `64 + d_j`
/// (`flip` is XORed into the group's sign byte). Every `|d_j| < 2^6`, so
/// each lane stays in `[1, 127]`.
#[inline(always)]
fn biased_group(block: &[u8], groups: usize, g: usize, flip: u8) -> u64 {
    let c = block[0] as usize;
    let mags = spread_lanes(load_le(&block[1 + groups + g * c..], c), c as u32);
    let neg = mags & SIGN_LANES[(block[1 + g] ^ flip) as usize];
    0x40 * LANE_ONES + mags - (neg << 1)
}

/// Pipeline ④ in byte lanes: append to `out` the block holding the sum of
/// the blocks at `a[0]` and `b[0]` (both of length `len`) — or, with
/// `negate`, their difference — and return the bytes read from `a` and from
/// `b`. Panics unless both codes are in `1..=6` and `len` is a multiple of 8
/// (at most 64).
///
/// Eight deltas are added per `u64` word, never unpacked: each operand's
/// group is spread into byte lanes biased to `64 ± |d|`, so the two words add
/// to `128 + (a ± b)` in `[2, 254]` in every lane and no carry crosses one.
/// A lane's top bit is then the result's sign (clear = negative), its
/// magnitude the low seven bits or `0x80 − lane`, and the OR of the
/// magnitudes its code (at most 7). Byte-identical to decoding both blocks,
/// adding and [`encode_deltas`]; a truncated operand is the same
/// [`Error::Truncated`] [`decode_block`] reports, `a` checked first.
pub fn add_narrow_blocks(
    a: &[u8],
    b: &[u8],
    len: usize,
    negate: bool,
    out: &mut Vec<u8>,
) -> Result<(usize, usize)> {
    let (na, nb) = (skip_block(a, len)?, skip_block(b, len)?);
    // outside these the lanes carry into each other: wrong bytes, no error
    let narrow = |c: u8| (1..=6).contains(&c);
    assert!(len.is_multiple_of(8) && len <= MAX_BLOCK_LEN && narrow(a[0]) && narrow(b[0]));
    let groups = len / 8;
    let flip = if negate { 0xFF } else { 0 };
    // A's groups first, then B's: one operand's masks live at a time
    let mut lanes = [0u64; MAX_BLOCK_LEN / 8];
    for (g, lane) in lanes[..groups].iter_mut().enumerate() {
        *lane = biased_group(a, groups, g, 0);
    }
    let (mut signs, mut any) = (0u64, 0u64);
    for (g, lane) in lanes[..groups].iter_mut().enumerate() {
        let sum = *lane + biased_group(b, groups, g, flip);
        // 0x01 in the lanes whose top bit is clear: the negative sums, whose
        // magnitude `0x80 - lane` is `(lane ^ 0x7F) + 1`
        let neg = !(sum >> 7) & LANE_ONES;
        *lane = ((sum & (0x7F * LANE_ONES)) ^ (neg * 0x7F)) + neg;
        any |= *lane;
        signs |= gather_flags(neg) << (8 * g);
    }
    let c = code_for_max(any.to_le_bytes().iter().fold(0, |max, &m| max | m) as u32);
    out.push(c);
    if c == 0 {
        return Ok((na, nb));
    }
    out.extend_from_slice(&signs.to_le_bytes()[..groups]);
    for &lane in &lanes[..groups] {
        out.extend_from_slice(&compact_lanes(lane, c as u32).to_le_bytes()[..c as usize]);
    }
    Ok((na, nb))
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
pub(crate) fn skip_block(input: &[u8], len: usize) -> Result<usize> {
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
        let mut lanes = [0i32; 32];
        for cut in 0..buf.len() {
            assert!(decode_block(&buf[..cut], &mut out).is_err(), "cut at {cut} should fail");
            assert!(decode_block_scalar(&buf[..cut], &mut out).is_err(), "cut at {cut}");
            assert!(decode_block_i32(&buf[..cut], &mut lanes).is_err(), "cut {cut}");
            assert!(decode_block_add_i32(&buf[..cut], &mut lanes, true).is_err(), "cut {cut}");
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
    fn i32_lanes_match_i64_decode_and_reencode_the_same_bytes() {
        for len in [1usize, 7, 8, 31, 32, 63, 64] {
            for c in 1..=32u32 {
                let hi = (1u64 << c) - 1;
                let deltas: Vec<i64> = (0..len)
                    .map(|i| {
                        let v = if i == len / 2 { hi } else { hi * (i as u64 % 5) / 5 } as i64;
                        if i % 3 == 1 {
                            -v
                        } else {
                            v
                        }
                    })
                    .collect();
                let mut buf = Vec::new();
                encode_deltas(&deltas, &mut buf).unwrap();
                let mut lanes = vec![0i32; len];
                let mut acc = vec![0i32; len];
                if c == 32 {
                    // magnitudes up to 2^32 - 1 do not fit an i32 lane
                    assert_eq!(decode_block_i32(&buf, &mut lanes), Err(Error::DeltaOverflow));
                    let added = decode_block_add_i32(&buf, &mut acc, false);
                    assert_eq!(added, Err(Error::DeltaOverflow));
                    continue;
                }
                assert_eq!(decode_block_i32(&buf, &mut lanes).unwrap(), buf.len());
                let wide: Vec<i64> = lanes.iter().map(|&d| d as i64).collect();
                assert_eq!(wide, deltas, "len={len} c={c}");
                assert_eq!(decode_block_add_i32(&buf, &mut acc, true).unwrap(), buf.len());
                let negated: Vec<i64> = acc.iter().map(|&d| -(d as i64)).collect();
                assert_eq!(negated, deltas, "len={len} c={c} negated");
                let mut rebuf = Vec::new();
                assert_eq!(encode_deltas_i32(&lanes, &mut rebuf) as u32, c);
                assert_eq!(rebuf, buf, "len={len} c={c}");
            }
        }
    }
}
