//! Differential property tests for the bit-parallel kernel overhaul: every
//! fast kernel (bitshuffle planes, block quantization, block codec, the
//! per-block homomorphic sum in its byte, `i32` and `i64` lanes) must be **bit-identical** to its retained scalar
//! reference across block lengths, code lengths and adversarial inputs.
//!
//! Lengths sweep {1, 7, 8, 63, 64, 65, 4096} — one element, a partial
//! 8-group, an exact group, both sides of the 64-element block boundary and a
//! multi-block slice — and code lengths sweep the full 0..=32 range so every
//! const-generic specialization (residual widths 1..=7, byte planes, the
//! transpose path) is exercised, not just the codes paper-like data happens
//! to produce. The paper-like input — Sim Set 2, 65,536 elements, seed 42,
//! bound 1e-3, what the retired `hzc` roofline harness checked its kernels on
//! before timing them — rides along as one more input of the bitshuffle,
//! quantization and homomorphic-sum tests.

use datasets::App;
use fzlight::config::MAX_BLOCK_LEN;
use fzlight::{codec, compress, decompress, quantize, CompressedStream, Config, Error, ErrorBound};
use ompszp::bitshuffle;

/// Deterministic xorshift64* PRNG — the workspace's zero-dependency test
/// generator (same idiom as `tests/properties.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Slice lengths exercised by every kernel (block-level kernels clamp to the
/// 64-element codec maximum).
const LENS: [usize; 7] = [1, 7, 8, 63, 64, 65, 4096];

/// Magnitudes that need exactly `bits` planes: random below the top bit, and
/// (when the slice allows) one element pinned at the maximum so the sweep
/// covers the saturated case too.
fn mags_for_bits(rng: &mut Rng, len: usize, bits: u8) -> Vec<u32> {
    let mask = if bits == 0 { 0 } else { (1u64 << bits) - 1 } as u32;
    let mut mags: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32 & mask).collect();
    if bits > 0 {
        let at = rng.next_u64() as usize % len;
        mags[at] = mask;
    }
    mags
}

/// Signed deltas whose magnitudes fit `bits`, sign-heavy (every element gets
/// an independent random sign, so sign planes are dense).
fn deltas_for_bits(rng: &mut Rng, len: usize, bits: u8) -> Vec<i64> {
    mags_for_bits(rng, len, bits)
        .into_iter()
        .map(|m| if rng.next_u64() & 1 == 1 { -(m as i64) } else { m as i64 })
        .collect()
}

/// The paper-like field.
fn sim_set2_field() -> Vec<f32> {
    App::SimSet2.generate(1 << 16, 42)
}

/// [`sim_set2_field`] as the compressor hands it to the plane kernels: per
/// 32-element block, the magnitudes of the Lorenzo deltas of the quantization
/// integers and the code length of their maximum.
fn sim_set2_blocks() -> Vec<(Vec<u32>, u8)> {
    let field = sim_set2_field();
    let mut q = vec![0i32; field.len()];
    quantize::quantize_block(&field, 1.0 / 2e-3, 0, &mut q).unwrap();
    q.chunks(32)
        .map(|block| {
            let mut prev = block[0] as i64;
            let mags: Vec<u32> = block
                .iter()
                .map(|&qi| {
                    let d = qi as i64 - prev;
                    prev = qi as i64;
                    d.unsigned_abs() as u32
                })
                .collect();
            let code = codec::code_for_max(mags.iter().fold(0, |max, m| max | m));
            (mags, code)
        })
        .collect()
}

/// Every `(magnitudes, code length)` input of the two plane-kernel tests: the
/// length × code sweep, then the paper-like blocks.
fn plane_inputs(rng: &mut Rng) -> Vec<(Vec<u32>, u8)> {
    let mut inputs = Vec::new();
    for &len in &LENS {
        for bits in 0u8..=32 {
            inputs.push((mags_for_bits(rng, len, bits), bits));
        }
    }
    inputs.extend(sim_set2_blocks());
    inputs
}

#[test]
fn bitshuffle_encode_matches_scalar() {
    for (mags, bits) in plane_inputs(&mut Rng::new(0xB17_5F0F)) {
        let len = mags.len();
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        bitshuffle::encode_planes(&mags, bits, &mut fast);
        bitshuffle::encode_planes_scalar(&mags, bits, &mut slow);
        assert_eq!(fast, slow, "len={len} c={bits}");
        assert_eq!(fast.len(), bitshuffle::planes_size(bits, len));
    }
}

#[test]
fn bitshuffle_decode_matches_scalar() {
    for (mags, bits) in plane_inputs(&mut Rng::new(0xDEC0DE)) {
        let len = mags.len();
        let mut planes = Vec::new();
        bitshuffle::encode_planes(&mags, bits, &mut planes);
        // the next block's bytes follow in a stream: neither decoder may
        // consume them
        let used = planes.len();
        planes.extend_from_slice(&[0xA5; 3]);
        // prefill with a sentinel so overwrite/fill behavior is compared
        // too, not just the decoded bits
        let mut fast = vec![0xFFFF_FFFFu32; len];
        let mut slow = vec![0xFFFF_FFFFu32; len];
        let nf = bitshuffle::decode_planes(&planes, bits, &mut fast).unwrap();
        let ns = bitshuffle::decode_planes_scalar(&planes, bits, &mut slow).unwrap();
        assert_eq!((nf, ns), (used, used), "len={len} c={bits}");
        assert_eq!(fast, slow, "len={len} c={bits}");
        assert_eq!(fast, mags, "len={len} c={bits} roundtrip");
    }
}

#[test]
fn codec_encode_matches_scalar() {
    let mut rng = Rng::new(0xE2C0DE);
    for &len in &LENS {
        let len = len.min(MAX_BLOCK_LEN);
        for bits in 0u8..=32 {
            let deltas = deltas_for_bits(&mut rng, len, bits);
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            let cf = codec::encode_deltas(&deltas, &mut fast).unwrap();
            let cs = codec::encode_deltas_scalar(&deltas, &mut slow).unwrap();
            assert_eq!(cf, cs, "len={len} bits={bits}");
            assert_eq!(fast, slow, "len={len} bits={bits}");
        }
    }
}

#[test]
fn codec_decode_matches_scalar() {
    let mut rng = Rng::new(0x5EED);
    for &len in &LENS {
        let len = len.min(MAX_BLOCK_LEN);
        for bits in 0u8..=32 {
            let deltas = deltas_for_bits(&mut rng, len, bits);
            let mut enc = Vec::new();
            codec::encode_deltas(&deltas, &mut enc).unwrap();
            let mut fast = vec![i64::MIN; len];
            let mut slow = vec![i64::MIN; len];
            let nf = codec::decode_block(&enc, &mut fast).unwrap();
            let ns = codec::decode_block_scalar(&enc, &mut slow).unwrap();
            assert_eq!(nf, ns, "len={len} bits={bits}");
            assert_eq!(fast, slow, "len={len} bits={bits}");
            assert_eq!(fast, deltas, "len={len} bits={bits} roundtrip");
        }
    }
}

/// The `i32` lane entry points (`decode_block_i32`, the fused
/// `decode_block_add_i32` in both signs) must equal the scalar decode, then
/// the combination, on every code length the lanes hold; code 32 is refused.
#[test]
fn codec_fused_accumulate_matches_decode_then_combine() {
    let mut rng = Rng::new(0xACC);
    for &len in &LENS {
        let len = len.min(MAX_BLOCK_LEN);
        for bits in 0u8..=32 {
            let deltas = deltas_for_bits(&mut rng, len, bits);
            let mut enc = Vec::new();
            codec::encode_deltas(&deltas, &mut enc).unwrap();
            let base: Vec<i32> = (0..len).map(|_| rng.next_u64() as i32).collect();
            let mut tmp = vec![0i64; len];
            let nref = codec::decode_block_scalar(&enc, &mut tmp).unwrap();
            let mut lanes = vec![i32::MIN; len];
            if bits == 32 {
                assert_eq!(codec::decode_block_i32(&enc, &mut lanes), Err(Error::DeltaOverflow));
                let added = codec::decode_block_add_i32(&enc, &mut lanes, false);
                assert_eq!(added, Err(Error::DeltaOverflow), "len={len}");
                continue;
            }
            assert_eq!(codec::decode_block_i32(&enc, &mut lanes).unwrap(), nref);
            assert!(lanes.iter().zip(&tmp).all(|(&l, &d)| l as i64 == d), "len={len} bits={bits}");
            for negate in [false, true] {
                // the lanes wrap: exact whenever the true sum fits an i32
                let sign = if negate { -1 } else { 1 };
                let want: Vec<i32> =
                    base.iter().zip(&tmp).map(|(&b, &d)| (b as i64 + sign * d) as i32).collect();
                let mut acc = base.clone();
                assert_eq!(codec::decode_block_add_i32(&enc, &mut acc, negate).unwrap(), nref);
                assert_eq!(acc, want, "negate={negate} len={len} bits={bits}");
            }
        }
    }
}

#[test]
fn quantize_block_matches_scalar_on_adversarial_inputs() {
    let mut rng = Rng::new(0x0_44A7);
    for &len in &LENS {
        for case in 0..6 {
            // outlier-heavy mixes: huge magnitudes, denormals, exact zeros,
            // and sprinkled non-finite values / overflow triggers
            let values: Vec<f32> = (0..len)
                .map(|_| match (rng.next_u64() % 8, case) {
                    (_, 3) => f32::NAN,
                    (0, 4) => f32::INFINITY,
                    (1, 5) => 1.0e30,
                    (0..=3, _) => ((rng.next_u64() as u32) as f32 - 2.0e9) * 1.0e-3,
                    (4..=5, _) => (rng.next_u64() as u32) as f32 * 1.0e-38,
                    _ => 0.0,
                })
                .collect();
            for inv_2eb in [1.0 / 2e-3, 1.0 / 2e-10] {
                let mut fast = vec![0i32; len];
                let mut slow = vec![0i32; len];
                let rf = quantize::quantize_block(&values, inv_2eb, 17, &mut fast);
                let rs = quantize::quantize_block_scalar(&values, inv_2eb, 17, &mut slow);
                assert_eq!(rf, rs, "len={len} case={case} inv={inv_2eb}");
                if rf.is_ok() {
                    assert_eq!(fast, slow, "len={len} case={case} inv={inv_2eb}");
                }
            }
        }
    }
    // and the input that is not adversarial at all
    assert_quantize_agrees(&sim_set2_field(), 1.0 / 2e-3);
}

/// `quantize_block` against its `f64::round` reference on one slice: the same
/// `Err` (variant, index, value) or the same integers.
fn assert_quantize_agrees(values: &[f32], inv_2eb: f64) {
    let mut fast = vec![0i32; values.len()];
    let mut slow = vec![0i32; values.len()];
    let rf = quantize::quantize_block(values, inv_2eb, 17, &mut fast);
    let rs = quantize::quantize_block_scalar(values, inv_2eb, 17, &mut slow);
    assert_eq!(rf, rs, "inv_2eb={inv_2eb:e} values={values:?}");
    if rf.is_ok() {
        assert_eq!(fast, slow, "inv_2eb={inv_2eb:e} values={values:?}");
    }
}

/// The rounding itself. `v * inv_2eb` is exact for `v` a power of two, so
/// `inv_2eb = x` with `v = ±1` puts any positive double `x`, bit for bit, in
/// front of the rounding — in both signs, next to its half and its double.
#[test]
fn quantize_block_rounds_like_f64_round_on_ties_and_boundaries() {
    let block = [1.0f32, -1.0, 0.5, -0.5, 2.0, -2.0, 0.0, -0.0];
    let mut targets = vec![0.49999999999999994f64, f64::MIN_POSITIVE, 5e-324, 1e-310];
    // every tie k ± 0.5 around 0, 2^23 and 2^31 (the last straddle i32::MAX
    // and, negated, i32::MIN: 2147483647.5 overflows, -2147483648.5 does too,
    // their inward neighbours do not), and the integers themselves
    for centre in [0i64, 1 << 23, 1 << 31] {
        for k in (centre - 3).max(0)..=centre + 3 {
            targets.extend([k as f64 - 0.5, k as f64, k as f64 + 0.5]);
        }
    }
    // where the magic constant stops being exact: all out of range
    targets.extend([(1u64 << 51) as f64 - 0.5, (1u64 << 51) as f64, (1u64 << 52) as f64, 1e300]);
    for t in targets {
        for x in [t.next_down(), t, t.next_up()] {
            if x > 0.0 {
                assert_quantize_agrees(&block, x);
                // alone, too: in `block` an overflow at -1.0 or 2.0 hides the rest
                block.iter().for_each(|&v| assert_quantize_agrees(&[v], x));
            }
        }
    }
    // zeros and subnormal values under small, ordinary and huge steps
    let tiny = [0.0f32, -0.0, f32::from_bits(1), -f32::from_bits(1), f32::MIN_POSITIVE, 1e-40];
    for inv_2eb in [5e-324, 1e-6, 0.5, 5e3, 1e12, 1e38, 1e45, 1e300, f64::MAX] {
        assert_quantize_agrees(&tiny, inv_2eb);
    }
}

/// Error precedence: the first offender in element order wins, whatever its
/// class and wherever it and a later offender of another class sit.
#[test]
fn quantize_block_reports_the_first_offender_at_every_position() {
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e30, -1.0e30];
    for len in [1usize, 5, 32, 64] {
        let clean: Vec<f32> = (0..len).map(|i| i as f32 * 0.37 - 3.0).collect();
        for pos in 0..len {
            for (b, &first) in bad.iter().enumerate() {
                let mut values = clean.clone();
                values[pos] = first;
                assert_quantize_agrees(&values, 5e3);
                for later in pos + 1..len.min(pos + 3) {
                    values[later] = bad[(b + 1 + later) % bad.len()];
                }
                assert_quantize_agrees(&values, 5e3);
            }
        }
    }
}

/// Over ten million xorshift bit patterns, the step swept across eighteen
/// decades. Most blocks scale their exponents so that `|v * inv_2eb|` lands
/// between 1/4 and just past `2^31` (integers are compared; a few overflow);
/// every sixteenth block keeps the raw bits (NaN, infinities, overflows).
#[test]
fn quantize_block_matches_scalar_on_ten_million_bit_patterns() {
    const BLOCKS_PER_STEP: usize = 8192;
    let mut rng = Rng::new(0x20_F00D);
    let steps = (-6..=12).map(|e| 10f64.powi(e)).chain([1.0 / 2e-4]);
    let mut values = [0f32; MAX_BLOCK_LEN];
    let mut patterns = 0usize;
    for inv_2eb in steps {
        let shift = inv_2eb.log2().round() as i32;
        for block in 0..BLOCKS_PER_STEP {
            for v in values.iter_mut() {
                let bits = rng.next_u64();
                *v = if block % 16 == 0 {
                    f32::from_bits(bits as u32)
                } else {
                    let exp = ((bits >> 32) % 33) as i32 - 2 - shift;
                    f32::from_bits((bits as u32 & 0x807F_FFFF) | (((exp + 127) as u32) << 23))
                };
            }
            assert_quantize_agrees(&values, inv_2eb);
            patterns += values.len();
        }
    }
    assert!(patterns >= 10_000_000, "{patterns}");
}

/// Fields that put the 32-bit delta pass and the gathered sign bitmap on
/// their edges. With `eb = 0.5` the quantization integers are the values.
fn delta_edge_fields(len: usize) -> [(&'static str, Vec<f32>); 4] {
    // both ends of i32 in turn: every delta is ±(2^32 - 256), wider than an
    // i32, so the magnitude only exists modulo 2^32 (c = 32, signs alternate)
    let ends = (0..len).map(|i| if i % 2 == 0 { 2147483520.0 } else { -2147483520.0 }).collect();
    let equal = vec![-77.0f32; len];
    // every delta negative: an all-ones bitmap, whose last byte must still be
    // cut at the block's length
    let falling = (0..len).map(|i| -3.0 * i as f32).collect();
    // falling runs of nine, then a jump up: flags change inside every sign
    // byte, and a short last block follows blocks that set higher flags
    let saw = (0..len).map(|i| (i / 9 * 40) as f32 - 4.0 * (i % 9) as f32).collect();
    [("ends", ends), ("equal", equal), ("falling", falling), ("saw", saw)]
}

/// The fused pass against the retained `i64` + `encode_deltas` route, byte
/// for byte. The lengths put a chunk's last block at 1..7 elements for every
/// block length (33 = 32 + 1, 65 = 64 + 1 = 8·8 + 1, 7 alone; three threads
/// cut 4096 into 1366 + 1365 + 1365).
#[test]
fn compress_matches_unfused_on_the_delta_edges() {
    for len in [1usize, 7, 8, 31, 32, 33, 63, 64, 65, 4096] {
        for (name, field) in delta_edge_fields(len) {
            for block_len in [1usize, 8, 32, 64] {
                for threads in [1usize, 3] {
                    let cfg = Config::new(ErrorBound::Abs(0.5))
                        .with_block_len(block_len)
                        .with_threads(threads);
                    let fused = compress(&field, &cfg).unwrap();
                    let unfused = fzlight::compress_unfused(&field, &cfg).unwrap();
                    let at = format!("{name} len={len} block_len={block_len} threads={threads}");
                    assert_eq!(fused.as_bytes(), unfused.as_bytes(), "{at}");
                    assert_eq!(decompress(&fused).unwrap(), field, "{at}");
                }
            }
        }
    }
}

/// Sign- and outlier-heavy field: alternating-sign large values with abrupt
/// jumps, so blocks land on high code lengths and dense sign planes.
fn spiky_field(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let m = (rng.next_u64() % 1000) as f32;
            let spike = if rng.next_u64().is_multiple_of(16) { 1.0e3 } else { 1.0 };
            if i.is_multiple_of(2) {
                m * spike
            } else {
                -m * spike
            }
        })
        .collect()
}

#[test]
fn homomorphic_sum_matches_scalar_reference() {
    let check = |a: &[f32], b: &[f32], threads: usize| {
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(threads);
        let ca = compress(a, &cfg).unwrap();
        let cb = compress(b, &cfg).unwrap();
        let fast = hzdyn::homomorphic_sum(&ca, &cb).unwrap();
        let slow = hzdyn::reference::homomorphic_sum_scalar(&ca, &cb).unwrap();
        assert_eq!(fast.as_bytes(), slow.as_bytes(), "len={} threads={threads}", a.len());
    };
    let mut rng = Rng::new(0x50_0050);
    for &len in &LENS {
        for threads in [1usize, 3] {
            check(&spiky_field(&mut rng, len), &spiky_field(&mut rng, len), threads);
        }
    }
    // the paper-like field and a rescaled copy, in one chunk and across a
    // chunk boundary
    let a = sim_set2_field();
    let b: Vec<f32> = a.iter().map(|&v| v * 1.001 + 0.5).collect();
    check(&a, &b, 1);
    check(&a, &b, 2);
}

/// The Diff pipeline (④'s subtract lane) must produce the same bytes as
/// negating B through the separate `homomorphic_scale` path and summing —
/// equal because the codec is canonical — and decompress to the quantized
/// difference.
#[test]
fn homomorphic_diff_matches_axpby() {
    let mut rng = Rng::new(0xD1FF);
    for &len in &[63usize, 65, 4096] {
        let a = spiky_field(&mut rng, len);
        let b = spiky_field(&mut rng, len);
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
        let ca = compress(&a, &cfg).unwrap();
        let cb = compress(&b, &cfg).unwrap();
        let diff = hzdyn::homomorphic_op(&ca, &cb, hzdyn::ReduceOp::Diff).unwrap();
        let negated = hzdyn::homomorphic_scale(&cb, -1).unwrap();
        let sum = hzdyn::homomorphic_sum(&ca, &negated).unwrap();
        assert_eq!(diff.as_bytes(), sum.as_bytes(), "len={len}");
        let want: Vec<f32> = decompress(&ca)
            .unwrap()
            .iter()
            .zip(decompress(&cb).unwrap())
            .map(|(x, y)| x - y)
            .collect();
        let got = decompress(&diff).unwrap();
        for i in 0..len {
            assert!((got[i] - want[i]).abs() <= 2.1e-3, "len={len} at {i}");
        }
    }
}

/// One chunk of blocks with code `code` each, as its deltas: element 0 pinned
/// at `±(2^code - 1)` with the sign `signs(k)` gives block `k`, the rest
/// random below `2^(code - 1)`, so only the pinned elements can carry a sum
/// past 32 bits.
fn pinned_blocks(
    rng: &mut Rng,
    code: u8,
    lens: &[usize],
    signs: impl Fn(usize) -> i64,
) -> Vec<Vec<i64>> {
    let top = (1i64 << code) - 1;
    let half = 1u64 << (code - 1);
    lens.iter()
        .enumerate()
        .map(|(k, &len)| {
            (0..len)
                .map(|i| match i {
                    0 => signs(k) * top,
                    _ => {
                        let m = (rng.next_u64() % half) as i64;
                        if rng.next_u64() & 1 == 1 {
                            -m
                        } else {
                            m
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// A one-chunk stream of `blocks`, each encoded by the scalar reference
/// encoder; with `signed_zero`, element 1 of every block is a zero magnitude
/// whose sign bit is set (a non-canonical encoding every decoder must read
/// as zero).
fn stream_of(
    block_len: usize,
    outlier: i32,
    blocks: &[Vec<i64>],
    signed_zero: bool,
) -> CompressedStream {
    let mut payload = outlier.to_le_bytes().to_vec();
    for deltas in blocks {
        let at = payload.len();
        let mut deltas = deltas.clone();
        if signed_zero && deltas.len() > 1 {
            deltas[1] = 0;
        }
        codec::encode_deltas_scalar(&deltas, &mut payload).unwrap();
        if signed_zero && deltas.len() > 1 {
            payload[at + 1] |= 0b10;
        }
    }
    let n = blocks.iter().map(Vec::len).sum();
    CompressedStream::from_chunks(n, 0.5, block_len, &[payload])
}

/// Pipeline ④ on both sides of its `i32` lane rule (operand codes ≤ 30):
/// block pairs at codes (30, 30), (30, 31), (31, 31), (32, 32) and (1, 32),
/// pinned so that the (30, 30) sums and differences reach exactly
/// `±(2^31 - 2)` and the widest ones overflow, every A block holding a
/// zero with its sign bit set. Sum and Diff, each block length: the bytes or
/// the typed error of the scalar reference (for Diff, the sum with B's
/// deltas negated).
#[test]
fn homomorphic_lane_boundaries_match_scalar_reference() {
    let mut rng = Rng::new(0x1A_4E5);
    for block_len in [1usize, 7, 8, 32, 63, 64] {
        let n = 4 * block_len + block_len / 2;
        let lens: Vec<usize> = fzlight::chunk::block_lens(n, block_len).collect();
        for (ca, cb) in [(30u8, 30u8), (30, 31), (31, 31), (32, 32), (1, 32)] {
            // pinned elements of equal signs, then of opposite signs
            for flip in [1i64, -1] {
                let sa = |k: usize| if k.is_multiple_of(2) { 1 } else { -1 };
                let sb = |k: usize| flip * sa(k);
                let da = pinned_blocks(&mut rng, ca, &lens, sa);
                let db = pinned_blocks(&mut rng, cb, &lens, sb);
                let neg: Vec<Vec<i64>> =
                    db.iter().map(|d| d.iter().map(|v| -v).collect()).collect();
                let a = stream_of(block_len, 7, &da, true);
                let b = stream_of(block_len, -3, &db, false);
                let minus_b = stream_of(block_len, 3, &neg, false);
                let bytes =
                    |s: fzlight::Result<CompressedStream>| s.map(CompressedStream::into_bytes);
                let at = format!("block_len={block_len} codes=({ca}, {cb}) flip={flip}");
                let sum = hzdyn::homomorphic_op(&a, &b, hzdyn::ReduceOp::Sum);
                let reference = hzdyn::reference::homomorphic_sum_scalar(&a, &b);
                assert_eq!(bytes(sum), bytes(reference), "Sum {at}");
                let diff = hzdyn::homomorphic_op(&a, &b, hzdyn::ReduceOp::Diff);
                let reference = hzdyn::reference::homomorphic_sum_scalar(&a, &minus_b);
                assert_eq!(bytes(diff), bytes(reference), "Diff {at}");
            }
        }
    }
}

/// Pipeline ④'s byte lanes on both sides of their rule (both operand codes
/// in `1..=6`, block length a multiple of 8): code pairs from (1, 1) to
/// (7, 7), pinned so that the (6, 6) sums and differences reach exactly
/// `±126` (code 7) and the pairs with a code-7 operand would carry out of a
/// byte lane, every A block holding a zero with its sign bit set. Block 1's
/// B is A negated and block 2's is A, so the Sum and the Diff each cancel
/// one block to a code-0 result. Block lengths off a multiple of 8 take the
/// `i32` lanes and must match too. Sum and Diff against the scalar reference,
/// as in [`homomorphic_lane_boundaries_match_scalar_reference`].
#[test]
fn homomorphic_byte_lane_boundaries_match_scalar_reference() {
    let mut rng = Rng::new(0xB7_7E5);
    let pairs = [(1u8, 1u8), (1, 6), (6, 1), (5, 6), (6, 6), (6, 7), (7, 6), (7, 7)];
    for block_len in [7usize, 8, 16, 32, 40, 63, 64] {
        let n = 4 * block_len + block_len / 2;
        let lens: Vec<usize> = fzlight::chunk::block_lens(n, block_len).collect();
        for (ca, cb) in pairs {
            for flip in [1i64, -1] {
                let sa = |k: usize| if k.is_multiple_of(2) { 1 } else { -1 };
                let sb = |k: usize| flip * sa(k);
                let da = pinned_blocks(&mut rng, ca, &lens, sa);
                let mut db = pinned_blocks(&mut rng, cb, &lens, sb);
                // A's element 1 is the signed zero `stream_of` writes
                let a_as_written = |k: usize| {
                    da[k].iter().enumerate().map(move |(i, &v)| if i == 1 { 0 } else { v })
                };
                db[1] = a_as_written(1).map(|v| -v).collect();
                db[2] = a_as_written(2).collect();
                let neg: Vec<Vec<i64>> =
                    db.iter().map(|d| d.iter().map(|v| -v).collect()).collect();
                let a = stream_of(block_len, 7, &da, true);
                let b = stream_of(block_len, -3, &db, false);
                let minus_b = stream_of(block_len, 3, &neg, false);
                let bytes =
                    |s: fzlight::Result<CompressedStream>| s.map(CompressedStream::into_bytes);
                let at = format!("block_len={block_len} codes=({ca}, {cb}) flip={flip}");
                let sum = hzdyn::homomorphic_op(&a, &b, hzdyn::ReduceOp::Sum);
                let reference = hzdyn::reference::homomorphic_sum_scalar(&a, &b);
                assert_eq!(bytes(sum), bytes(reference), "Sum {at}");
                let diff = hzdyn::homomorphic_op(&a, &b, hzdyn::ReduceOp::Diff);
                let reference = hzdyn::reference::homomorphic_sum_scalar(&a, &minus_b);
                assert_eq!(bytes(diff), bytes(reference), "Diff {at}");
            }
        }
    }
}

/// The byte lanes check their operands' lengths themselves. A one-chunk pair
/// of code-3 and code-5 blocks, one operand's payload cut at every byte (then
/// both, A shorter): Sum and Diff return exactly the scalar reference's
/// typed `Truncated`, A's before B's, and never panic. Uncut, every pair
/// counts under pipeline ④.
#[test]
fn homomorphic_byte_lanes_refuse_truncated_operands_like_the_reference() {
    let mut rng = Rng::new(0x7_2C47);
    let block_len = 32;
    let lens = [block_len; 3];
    let da = pinned_blocks(&mut rng, 3, &lens, |_| 1);
    let db = pinned_blocks(&mut rng, 5, &lens, |k| if k == 1 { -1 } else { 1 });
    let neg: Vec<Vec<i64>> = db.iter().map(|d| d.iter().map(|v| -v).collect()).collect();
    let n = lens.iter().sum();
    let a = stream_of(block_len, 7, &da, true);
    let b = stream_of(block_len, -3, &db, false);
    let minus_b = stream_of(block_len, 3, &neg, false);
    let (_, stats) = hzdyn::homomorphic_sum_with_stats(&a, &b).unwrap();
    assert_eq!((stats.p1, stats.p2, stats.p3, stats.p4), (0, 0, 0, lens.len() as u64));
    let cut = |s: &CompressedStream, at: usize| {
        CompressedStream::from_chunks(n, 0.5, block_len, &[&s.chunk_payload(0)[..at]])
    };
    let (full_a, full_b) = (a.chunk_payload(0).len(), b.chunk_payload(0).len());
    let bytes = |s: fzlight::Result<CompressedStream>| s.map(CompressedStream::into_bytes);
    let check = |a: &CompressedStream, b: &CompressedStream, minus_b: &CompressedStream, at| {
        let sum = bytes(hzdyn::homomorphic_sum(a, b));
        let reference = bytes(hzdyn::reference::homomorphic_sum_scalar(a, b));
        assert!(matches!(reference, Err(Error::Truncated { .. })), "{at}: {reference:?}");
        assert_eq!(sum, reference, "Sum {at}");
        let diff = bytes(hzdyn::homomorphic_op(a, b, hzdyn::ReduceOp::Diff));
        let reference = bytes(hzdyn::reference::homomorphic_sum_scalar(a, minus_b));
        assert_eq!(diff, reference, "Diff {at}");
    };
    for at in 0..full_b {
        check(&a, &cut(&b, at), &cut(&minus_b, at), format!("B cut at {at}"));
    }
    // negated, B's blocks keep their codes and so their sizes
    let (b_short, minus_b_short) = (cut(&b, full_b - 1), cut(&minus_b, full_b - 1));
    for at in 0..full_a {
        check(&cut(&a, at), &b, &minus_b, format!("A cut at {at}"));
        check(&cut(&a, at), &b_short, &minus_b_short, format!("A cut at {at}, B too"));
    }
}
