//! Randomized property tests on the core invariants: error-bounded round
//! trips, homomorphic exactness, codec bijectivity and stream-format
//! robustness under arbitrary inputs.
//!
//! Uses a local deterministic xorshift generator instead of an external
//! property-testing crate so the whole workspace builds offline from the
//! standard library alone. Each property runs a fixed number of seeded
//! cases; failures print the case index and seed so they reproduce exactly.

use fzlight::header::{Fzl, Header, Layout};
use fzlight::stream::Stream;
use fzlight::{codec, compress, decompress, Config, Error, ErrorBound};

/// Deterministic xorshift64* PRNG — good enough statistical quality for
/// generating test inputs, zero dependencies, fully reproducible.
#[derive(Clone)]
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

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform usize in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.unit() * (hi - lo) as f64) as usize
    }

    /// Uniform f64 in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    /// Log-uniform f64 in `[lo, hi)` — matches how error bounds span
    /// magnitudes.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (self.f64_in(lo.ln(), hi.ln())).exp()
    }

    /// Plausible scientific field: values spanning signs and magnitudes,
    /// always finite; ~3/5 large-range, ~1/5 unit-range, ~1/5 exact zeros.
    fn field(&mut self, max_len: usize) -> Vec<f32> {
        let n = self.range(0, max_len);
        (0..n)
            .map(|_| match self.next_u64() % 5 {
                0..=2 => self.f64_in(-1.0e3, 1.0e3) as f32,
                3 => self.f64_in(-1.0, 1.0) as f32,
                _ => 0.0f32,
            })
            .collect()
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let n = self.range(0, max_len);
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

const CASES: usize = 64;

#[test]
fn fzlight_roundtrip_respects_bound() {
    let mut rng = Rng::new(0xF21);
    for case in 0..CASES {
        let data = rng.field(2000);
        let eb = rng.log_uniform(1e-5, 1e-1);
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(3);
        let stream = compress(&data, &cfg).unwrap();
        let out = decompress(&stream).unwrap();
        assert_eq!(out.len(), data.len(), "case {case}");
        for (a, b) in data.iter().zip(&out) {
            let tol = eb * (1.0 + 1e-9) + (b.abs() as f64) * f32::EPSILON as f64;
            assert!(((a - b).abs() as f64) <= tol, "case {case}: |{a} - {b}| > {tol} (eb {eb})");
        }
    }
}

#[test]
fn ompszp_roundtrip_respects_bound() {
    let mut rng = Rng::new(0x052);
    for case in 0..CASES {
        let data = rng.field(2000);
        let eb = rng.log_uniform(1e-5, 1e-1);
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let stream = ompszp::compress(&data, &cfg).unwrap();
        let out = ompszp::decompress(&stream).unwrap();
        assert_eq!(out.len(), data.len(), "case {case}");
        for (a, b) in data.iter().zip(&out) {
            let tol = eb * (1.0 + 1e-9) + (b.abs() as f64) * f32::EPSILON as f64;
            assert!(((a - b).abs() as f64) <= tol, "case {case}: |{a} - {b}| > {tol}");
        }
    }
}

/// The headline invariant: the homomorphic sum reconstructs from exactly
/// the sum of the quantization integers — no error beyond per-stream
/// quantization, bit-for-bit reproducible.
#[test]
fn homomorphic_sum_is_exact_on_integers() {
    let mut rng = Rng::new(0x407);
    for case in 0..CASES {
        let a = rng.field(1500);
        let n = a.len();
        let b: Vec<f32> = (0..n)
            .map(|_| ((rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 100.0)
            .collect();
        let eb = rng.log_uniform(1e-4, 1e-1);
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let ca = compress(&a, &cfg).unwrap();
        let cb = compress(&b, &cfg).unwrap();
        let hz = hzdyn::homomorphic_sum(&ca, &cb).unwrap();
        let da = decompress(&ca).unwrap();
        let db = decompress(&cb).unwrap();
        let ds = decompress(&hz).unwrap();
        let q = |v: f32| ((v as f64) / (2.0 * eb)).round() as i64;
        for i in 0..n {
            assert_eq!(q(ds[i]), q(da[i]) + q(db[i]), "case {case} at {i}");
        }
    }
}

#[test]
fn homomorphic_sum_commutes() {
    let mut rng = Rng::new(0xC03);
    for case in 0..CASES {
        let data = rng.field(1000);
        let eb = rng.log_uniform(1e-4, 1e-2);
        let shifted: Vec<f32> = data.iter().map(|v| v * 0.5 + 1.0).collect();
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let ca = compress(&data, &cfg).unwrap();
        let cb = compress(&shifted, &cfg).unwrap();
        let ab = hzdyn::homomorphic_sum(&ca, &cb).unwrap();
        let ba = hzdyn::homomorphic_sum(&cb, &ca).unwrap();
        assert_eq!(ab.as_bytes(), ba.as_bytes(), "case {case}");
    }
}

#[test]
fn codec_roundtrips_arbitrary_deltas() {
    let mut rng = Rng::new(0xDE1);
    for case in 0..CASES {
        let len = rng.range(1, 65);
        let deltas: Vec<i64> = (0..len)
            .map(|_| {
                let span = 2 * (u32::MAX as i64) + 1;
                (rng.next_u64() % span as u64) as i64 - u32::MAX as i64
            })
            .collect();
        let mut buf = Vec::new();
        codec::encode_deltas(&deltas, &mut buf).unwrap();
        let mut out = vec![0i64; deltas.len()];
        let used = codec::decode_block(&buf, &mut out).unwrap();
        assert_eq!(used, buf.len(), "case {case}");
        assert_eq!(out, deltas, "case {case}");
    }
}

/// Parsing arbitrary bytes must never panic — it either errors or yields
/// a stream whose decompression is also panic-free.
#[test]
fn stream_parser_is_panic_free() {
    let mut rng = Rng::new(0xABC);
    for _ in 0..4 * CASES {
        let bytes = rng.bytes(512);
        if let Ok(stream) = fzlight::CompressedStream::from_bytes(bytes) {
            let _ = decompress(&stream);
        }
    }
}

/// Same for ompSZp.
#[test]
fn oszp_parser_is_panic_free() {
    let mut rng = Rng::new(0xABD);
    for _ in 0..4 * CASES {
        let bytes = rng.bytes(512);
        if let Ok(stream) = ompszp::OszpStream::from_bytes(bytes) {
            let _ = ompszp::decompress(&stream);
        }
    }
}

/// A random offset table under a valid header: monotone from zero, or with
/// one entry lowered (non-monotone), or with a non-zero first entry, and a
/// body as long as its last entry says, or longer, or shorter. A body too
/// short to hold a one-byte record per block of the header's elements is
/// refused too.
fn offset_table_property<L: Layout>(seed: u64) {
    let mut rng = Rng::new(seed);
    let mut accepted = 0;
    for case in 0..4 * CASES {
        let n = rng.range(1, 300);
        let block_len = rng.range(1, 65);
        let nchunks = rng.range(1, L::max_parts(n as u64, block_len as u32) as usize + 1);
        let mut table = vec![0u64];
        for _ in 0..nchunks {
            let end = table.last().unwrap() + rng.range(0, 40) as u64;
            table.push(end);
        }
        match rng.next_u64() % 4 {
            0 => {
                let at = rng.range(1, nchunks + 1);
                table[at] = table[at].wrapping_sub(rng.range(1, 50) as u64);
            }
            1 => table[0] = rng.range(1, 50) as u64,
            _ => {}
        }
        let wrapped = table.iter().any(|&o| o > 1 << 32);
        let last = *table.last().unwrap();
        let body = match rng.next_u64() % 3 {
            0 if !wrapped => last as usize + rng.range(1, 9),
            1 if !wrapped => (last as usize).saturating_sub(rng.range(1, 9)),
            _ if !wrapped => last as usize,
            _ => rng.range(0, 64),
        };
        let header =
            Header { n: n as u64, eb: 1e-3, block_len: block_len as u32, nchunks: nchunks as u32 };
        let mut bytes = Vec::new();
        header.write_to::<L>(table.iter().copied(), &mut bytes);
        let body_start = bytes.len();
        bytes.extend((0..body).map(|_| rng.next_u64() as u8));
        let valid = table[0] == 0
            && table.windows(2).all(|w| w[0] <= w[1])
            && body as u64 == last
            && n as u64 <= last.saturating_mul(block_len as u64);
        match Stream::<L>::from_bytes(bytes) {
            Ok(stream) => {
                assert!(valid, "case {case}: accepted table {table:?} over a {body}-byte body");
                let mut at = body_start;
                for i in 0..nchunks {
                    let payload = stream.chunk_payload(i);
                    assert_eq!(payload.as_ptr(), stream.as_bytes()[at..].as_ptr(), "case {case}");
                    at += payload.len();
                }
                assert_eq!(at, stream.compressed_size(), "case {case}: payloads tile the body");
                accepted += 1;
            }
            Err(Error::Corrupt(_) | Error::Truncated { .. }) => {
                assert!(!valid, "case {case}: refused table {table:?} over a {body}-byte body")
            }
            Err(e) => panic!("case {case}: {e:?} is not a parse error"),
        }
    }
    assert!(
        (CASES / 2..2 * CASES).contains(&accepted),
        "{accepted} of {} tables accepted",
        4 * CASES
    );
}

/// The offset table is validated where it lies: what `Stream::from_bytes`
/// accepts, `chunk_payload` can read in bounds, and what it refuses is a
/// typed error — under both stream families.
#[test]
fn offset_table_is_validated_in_place() {
    offset_table_property::<Fzl>(0x0FF5);
    offset_table_property::<ompszp::format::Oszp>(0x0FF6);
}

/// Truncating a valid stream anywhere must error cleanly, never panic.
#[test]
fn truncated_streams_error_cleanly() {
    let mut rng = Rng::new(0x7C7);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let data: Vec<f32> =
            (0..500).map(|i| ((i as f32) * 0.1 + seed as f32 * 1e-9).sin()).collect();
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
        let bytes = compress(&data, &cfg).unwrap().into_bytes();
        let cut = ((bytes.len() as f64) * rng.unit()) as usize;
        if cut < bytes.len() {
            assert!(
                fzlight::CompressedStream::from_bytes(bytes[..cut].to_vec()).is_err(),
                "case {case}: truncation at {cut}/{} parsed",
                bytes.len()
            );
        }
    }
}

#[test]
fn scale_distributes_over_sum() {
    let mut rng = Rng::new(0x5CA);
    for case in 0..CASES {
        let data = rng.field(800);
        let k = (rng.next_u64() % 11) as i32 - 5;
        let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
        let c = compress(&data, &cfg).unwrap();
        // k*(a+a) == (k*a) + (k*a) on the integers => byte-identical streams
        let sum = hzdyn::homomorphic_sum(&c, &c).unwrap();
        let left = hzdyn::homomorphic_scale(&sum, k);
        let scaled = hzdyn::homomorphic_scale(&c, k).unwrap();
        let right = hzdyn::homomorphic_sum(&scaled, &scaled);
        // overflow may occur on either path for extreme k; when both paths
        // succeed they must agree byte for byte
        if let (Ok(l), Ok(r)) = (left, right) {
            assert_eq!(l.as_bytes(), r.as_bytes(), "case {case} (k {k})");
        }
    }
}
