//! Kernel micro-benchmark harness behind `hzc kernels`: Table IV-style
//! memory-bandwidth efficiency for the three overhauled hot kernels.
//!
//! Each kernel is timed twice on paper-like data ([`datasets::App`] fields) —
//! once through the production bit-parallel path, once through the retained
//! scalar reference — and both are normalized two ways:
//!
//! * **speedup** = scalar time / fast time (the acceptance gate is ≥1.5× for
//!   all four — bitshuffle encode and decode, `quantize_block`, whose scalar
//!   reference keeps the libm `round` call, and the homomorphic sum — on
//!   release builds);
//! * **efficiency** = fast-path throughput / STREAM peak ([`streambench`]),
//!   the paper's memory-roofline metric.
//!
//! Throughput follows the Table IV convention: logical (uncompressed) `f32`
//! bytes divided by wall time, so kernels with different wire footprints stay
//! comparable.
//!
//! Before any timing, every fast kernel's output is asserted byte-identical
//! to its scalar reference on the benchmark data — the harness refuses to
//! report a speedup for a kernel that diverged.
//!
//! ## The bit-stable snapshot (`BENCH_kernels.json`)
//!
//! [`canonical_snapshot`] renders a committed, versioned snapshot holding
//! only bit-stable fields — element counts, byte counts, and FNV-1a
//! checksums of each kernel's output on a fixed canonical input. Wall-clock
//! never enters the file, so it is byte-identical across machines and CI
//! runs; any diff means the kernels' *outputs* changed, which the bit-identity
//! contract forbids.

use crate::{gbps, time_best};
use datasets::App;
use fzlight::codec;
use fzlight::quantize::{quantize_block, quantize_block_scalar};
use fzlight::{Config, ErrorBound};
use netsim::Json;
use ompszp::bitshuffle;
use std::hint::black_box;

/// Snapshot format version written into `BENCH_kernels.json`.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;
/// Canonical input size (elements) for the bit-stable snapshot.
pub(crate) const CANONICAL_ELEMS: usize = 1 << 16;
/// Canonical field seed for the bit-stable snapshot.
pub(crate) const CANONICAL_SEED: u64 = 42;
/// Canonical absolute error bound for the bit-stable snapshot.
pub(crate) const CANONICAL_EB: f64 = 1e-3;

/// Block length used for the shuffle/codec kernels (the fZ-light default).
const BLOCK: usize = 32;

/// Timing configuration for one harness run.
#[derive(Debug, Clone, Copy)]
pub struct KernelBenchConfig {
    /// Field size in `f32` elements.
    pub elems: usize,
    /// Best-of-`trials` timing repetitions per kernel.
    pub trials: usize,
    /// Threads for the STREAM roofline and the homomorphic-sum streams.
    pub threads: usize,
}

impl KernelBenchConfig {
    /// Smoke configuration (`hzc kernels --quick`): small field, few trials.
    pub fn quick() -> KernelBenchConfig {
        KernelBenchConfig { elems: 1 << 20, trials: 3, threads: 1 }
    }

    /// Default configuration: a 16 MiB field, best of 5.
    pub fn full() -> KernelBenchConfig {
        KernelBenchConfig { elems: 1 << 22, trials: 5, threads: 1 }
    }
}

/// One kernel's measured result.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name (snapshot/diff key).
    pub name: &'static str,
    /// Logical `f32` bytes processed per timed run.
    pub bytes: usize,
    /// Best fast-path wall time, seconds.
    pub fast_secs: f64,
    /// Best scalar-reference wall time, seconds.
    pub scalar_secs: f64,
}

impl KernelResult {
    /// Fast-path throughput in GB/s (logical bytes).
    pub fn fast_gbps(&self) -> f64 {
        gbps(self.bytes, self.fast_secs)
    }

    /// Scalar-reference throughput in GB/s (logical bytes).
    pub fn scalar_gbps(&self) -> f64 {
        gbps(self.bytes, self.scalar_secs)
    }

    /// Speedup of the fast path over the scalar reference.
    pub fn speedup(&self) -> f64 {
        self.scalar_secs / self.fast_secs
    }

    /// Memory-bandwidth efficiency against a STREAM peak, in percent.
    pub fn efficiency_pct(&self, stream_peak_gbps: f64) -> f64 {
        100.0 * self.fast_gbps() / stream_peak_gbps
    }
}

/// A full harness run: the STREAM roofline plus every kernel row.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// STREAM results on this host (peak = roofline denominator).
    pub stream: streambench::StreamResult,
    /// Per-kernel measurements, in report order.
    pub kernels: Vec<KernelResult>,
}

/// Per-block magnitudes + code lengths derived from a field exactly the way
/// the compressor produces them (quantize → Lorenzo delta → |mag|).
struct ShuffleInput {
    mags: Vec<u32>,
    codes: Vec<u8>,
    nblocks: usize,
}

fn shuffle_input(field: &[f32], eb: f64) -> ShuffleInput {
    let inv_2eb = 1.0 / (2.0 * eb);
    let mut q = vec![0i32; field.len()];
    quantize_block(field, inv_2eb, 0, &mut q).expect("finite bench field");
    let nblocks = field.len().div_ceil(BLOCK);
    let mut mags = vec![0u32; field.len()];
    let mut codes = vec![0u8; nblocks];
    for (bi, block) in q.chunks(BLOCK).enumerate() {
        let mut q_prev = block[0] as i64;
        let mut max = 0u32;
        for (k, &qi) in block.iter().enumerate() {
            let d = qi as i64 - q_prev;
            q_prev = qi as i64;
            let m = d.unsigned_abs() as u32;
            mags[bi * BLOCK + k] = m;
            max |= m;
        }
        codes[bi] = codec::code_for_max(max);
    }
    ShuffleInput { mags, codes, nblocks }
}

/// Run the full harness: verify bit-identity, measure the STREAM roofline,
/// then time each kernel fast vs scalar.
pub fn run_kernel_bench(cfg: &KernelBenchConfig) -> KernelReport {
    let field = App::SimSet2.generate(cfg.elems, 0);
    let field_b: Vec<f32> = field.iter().map(|&v| v * 1.001 + 0.5).collect();
    let bytes = cfg.elems * 4;

    // roofline: STREAM arrays at least 16 MiB each so cache reuse does not
    // inflate the denominator
    let stream_n = cfg.elems.max(1 << 21);
    let stream = streambench::run(stream_n, cfg.threads, cfg.trials);

    let mut kernels = Vec::new();

    // --- bitshuffle encode/decode ---------------------------------------
    let sh = shuffle_input(&field, CANONICAL_EB);
    let block_len = |bi: usize| BLOCK.min(sh.mags.len() - bi * BLOCK);
    // bit-identity before timing
    let mut fast_buf = Vec::new();
    let mut scalar_buf = Vec::new();
    for bi in 0..sh.nblocks {
        let m = &sh.mags[bi * BLOCK..bi * BLOCK + block_len(bi)];
        bitshuffle::encode_planes(m, sh.codes[bi], &mut fast_buf);
        bitshuffle::encode_planes_scalar(m, sh.codes[bi], &mut scalar_buf);
    }
    assert_eq!(fast_buf, scalar_buf, "bitshuffle encode diverged from the scalar reference");

    let mut buf = Vec::with_capacity(fast_buf.len());
    type EncodeFn = dyn Fn(&[u32], u8, &mut Vec<u8>);
    let enc = |encode: &EncodeFn, buf: &mut Vec<u8>| {
        buf.clear();
        for bi in 0..sh.nblocks {
            let m = &sh.mags[bi * BLOCK..bi * BLOCK + block_len(bi)];
            encode(black_box(m), sh.codes[bi], buf);
        }
    };
    let t_fast = time_best(cfg.trials, || enc(&bitshuffle::encode_planes, &mut buf));
    let t_scalar = time_best(cfg.trials, || enc(&bitshuffle::encode_planes_scalar, &mut buf));
    kernels.push(KernelResult {
        name: "bitshuffle_encode",
        bytes,
        fast_secs: t_fast,
        scalar_secs: t_scalar,
    });

    // decode: offsets into the encoded buffer, one slice per block
    let mut offs = Vec::with_capacity(sh.nblocks + 1);
    offs.push(0usize);
    for bi in 0..sh.nblocks {
        offs.push(offs[bi] + bitshuffle::planes_size(sh.codes[bi], block_len(bi)));
    }
    let mut out_mags = vec![0u32; sh.mags.len()];
    let mut dec_ok = vec![0u32; sh.mags.len()];
    for bi in 0..sh.nblocks {
        let len = block_len(bi);
        bitshuffle::decode_planes(
            &fast_buf[offs[bi]..offs[bi + 1]],
            sh.codes[bi],
            &mut dec_ok[bi * BLOCK..bi * BLOCK + len],
        )
        .expect("decode bench blocks");
    }
    assert_eq!(dec_ok, sh.mags, "bitshuffle decode diverged from the encoded input");
    type DecodeFn = fn(&[u8], u8, &mut [u32]) -> fzlight::Result<usize>;
    let dec = |decode: DecodeFn, out: &mut [u32]| {
        for bi in 0..sh.nblocks {
            let len = block_len(bi);
            decode(
                black_box(&fast_buf[offs[bi]..offs[bi + 1]]),
                sh.codes[bi],
                &mut out[bi * BLOCK..bi * BLOCK + len],
            )
            .expect("decode bench blocks");
        }
    };
    let t_fast = time_best(cfg.trials, || dec(bitshuffle::decode_planes, &mut out_mags));
    let t_scalar = time_best(cfg.trials, || dec(bitshuffle::decode_planes_scalar, &mut out_mags));
    kernels.push(KernelResult {
        name: "bitshuffle_decode",
        bytes,
        fast_secs: t_fast,
        scalar_secs: t_scalar,
    });

    // --- quantize_block ---------------------------------------------------
    let inv_2eb = 1.0 / (2.0 * CANONICAL_EB);
    let mut q_fast = vec![0i32; cfg.elems];
    let mut q_scalar = vec![0i32; cfg.elems];
    quantize_block(&field, inv_2eb, 0, &mut q_fast).expect("bench field is finite");
    quantize_block_scalar(&field, inv_2eb, 0, &mut q_scalar).expect("bench field is finite");
    assert_eq!(q_fast, q_scalar, "quantize_block diverged from the scalar reference");
    let t_fast = time_best(cfg.trials, || {
        quantize_block(black_box(&field), inv_2eb, 0, &mut q_fast).expect("quantize");
    });
    let t_scalar = time_best(cfg.trials, || {
        quantize_block_scalar(black_box(&field), inv_2eb, 0, &mut q_scalar).expect("quantize");
    });
    kernels.push(KernelResult {
        name: "quantize_block",
        bytes: cfg.elems * 8, // 4 bytes read + 4 bytes written per element
        fast_secs: t_fast,
        scalar_secs: t_scalar,
    });

    // --- homomorphic_sum --------------------------------------------------
    let fz = Config::new(ErrorBound::Abs(CANONICAL_EB)).with_threads(cfg.threads);
    let ca = fzlight::compress(&field, &fz).expect("compress a");
    let cb = fzlight::compress(&field_b, &fz).expect("compress b");
    let fast_sum = hzdyn::homomorphic_sum(&ca, &cb).expect("hz sum");
    let scalar_sum = hzdyn::reference::homomorphic_sum_scalar(&ca, &cb).expect("hz sum scalar");
    assert_eq!(
        fast_sum.as_bytes(),
        scalar_sum.as_bytes(),
        "homomorphic_sum diverged from the scalar reference"
    );
    let t_fast = time_best(cfg.trials, || {
        black_box(hzdyn::homomorphic_sum(black_box(&ca), black_box(&cb)).expect("hz sum"));
    });
    let t_scalar = time_best(cfg.trials, || {
        black_box(
            hzdyn::reference::homomorphic_sum_scalar(black_box(&ca), black_box(&cb))
                .expect("hz sum scalar"),
        );
    });
    kernels.push(KernelResult {
        name: "homomorphic_sum",
        bytes,
        fast_secs: t_fast,
        scalar_secs: t_scalar,
    });

    KernelReport { stream, kernels }
}

/// FNV-1a 64-bit over a byte slice (bit-stable across platforms).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn u32s_as_bytes(v: &[u32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn i32s_as_bytes(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Render the bit-stable `BENCH_kernels.json` content: kernel outputs on the
/// canonical input, reduced to sizes and checksums. Asserts fast == scalar on
/// every kernel along the way, so a successful render re-proves bit-identity.
pub fn canonical_snapshot() -> String {
    let field = App::SimSet2.generate(CANONICAL_ELEMS, CANONICAL_SEED);
    let field_b: Vec<f32> = field.iter().map(|&v| v * 1.001 + 0.5).collect();
    let mut kernels: Vec<Json> = Vec::new();
    let entry = |name: &str, input_bytes: usize, output_bytes: usize, checksum: u64| {
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("input_bytes", Json::Num(input_bytes as f64)),
            ("output_bytes", Json::Num(output_bytes as f64)),
            ("checksum", Json::Str(format!("{checksum:#018x}"))),
        ])
    };

    // quantize_block
    let inv_2eb = 1.0 / (2.0 * CANONICAL_EB);
    let mut q_fast = vec![0i32; CANONICAL_ELEMS];
    let mut q_scalar = vec![0i32; CANONICAL_ELEMS];
    quantize_block(&field, inv_2eb, 0, &mut q_fast).expect("canonical field is finite");
    quantize_block_scalar(&field, inv_2eb, 0, &mut q_scalar).expect("canonical field is finite");
    assert_eq!(q_fast, q_scalar, "quantize_block diverged on the canonical input");
    let q_bytes = i32s_as_bytes(&q_fast);
    kernels.push(entry("quantize_block", CANONICAL_ELEMS * 4, q_bytes.len(), fnv1a64(&q_bytes)));

    // bitshuffle encode + decode
    let sh = shuffle_input(&field, CANONICAL_EB);
    let mut fast_buf = Vec::new();
    let mut scalar_buf = Vec::new();
    for bi in 0..sh.nblocks {
        let len = BLOCK.min(sh.mags.len() - bi * BLOCK);
        let m = &sh.mags[bi * BLOCK..bi * BLOCK + len];
        bitshuffle::encode_planes(m, sh.codes[bi], &mut fast_buf);
        bitshuffle::encode_planes_scalar(m, sh.codes[bi], &mut scalar_buf);
    }
    assert_eq!(fast_buf, scalar_buf, "bitshuffle encode diverged on the canonical input");
    kernels.push(entry("bitshuffle_encode", sh.mags.len() * 4, fast_buf.len(), fnv1a64(&fast_buf)));
    let mut decoded = vec![0u32; sh.mags.len()];
    let mut decoded_scalar = vec![0u32; sh.mags.len()];
    let mut pos = 0usize;
    for bi in 0..sh.nblocks {
        let len = BLOCK.min(sh.mags.len() - bi * BLOCK);
        let dst = bi * BLOCK..bi * BLOCK + len;
        let used =
            bitshuffle::decode_planes(&fast_buf[pos..], sh.codes[bi], &mut decoded[dst.clone()])
                .expect("canonical decode");
        let used_s = bitshuffle::decode_planes_scalar(
            &fast_buf[pos..],
            sh.codes[bi],
            &mut decoded_scalar[dst],
        )
        .expect("canonical decode");
        assert_eq!(used, used_s);
        pos += used;
    }
    assert_eq!(decoded, decoded_scalar, "bitshuffle decode diverged on the canonical input");
    assert_eq!(decoded, sh.mags, "bitshuffle roundtrip broke on the canonical input");
    let dec_bytes = u32s_as_bytes(&decoded);
    kernels.push(entry("bitshuffle_decode", fast_buf.len(), dec_bytes.len(), fnv1a64(&dec_bytes)));

    // homomorphic_sum (two chunks so the walk crosses a chunk boundary)
    let fz = Config::new(ErrorBound::Abs(CANONICAL_EB)).with_threads(2);
    let ca = fzlight::compress(&field, &fz).expect("canonical compress a");
    let cb = fzlight::compress(&field_b, &fz).expect("canonical compress b");
    let fast_sum = hzdyn::homomorphic_sum(&ca, &cb).expect("canonical hz sum");
    let scalar_sum =
        hzdyn::reference::homomorphic_sum_scalar(&ca, &cb).expect("canonical hz sum scalar");
    assert_eq!(
        fast_sum.as_bytes(),
        scalar_sum.as_bytes(),
        "homomorphic_sum diverged on the canonical input"
    );
    kernels.push(entry(
        "homomorphic_sum",
        ca.as_bytes().len() + cb.as_bytes().len(),
        fast_sum.as_bytes().len(),
        fnv1a64(fast_sum.as_bytes()),
    ));

    let doc = Json::obj(vec![
        ("schema_version", Json::Num(SNAPSHOT_SCHEMA_VERSION as f64)),
        ("canonical_elems", Json::Num(CANONICAL_ELEMS as f64)),
        ("canonical_seed", Json::Num(CANONICAL_SEED as f64)),
        ("eb", Json::Num(CANONICAL_EB)),
        ("block_len", Json::Num(BLOCK as f64)),
        ("app", Json::Str(App::SimSet2.name().to_string())),
        ("kernels", Json::Arr(kernels)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    out
}

/// Check a committed snapshot file against a fresh canonical render.
pub fn verify_snapshot(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("snapshot does not parse: {e}"))?;
    let version =
        doc.get("schema_version").and_then(Json::as_f64).ok_or("snapshot missing schema_version")?
            as u64;
    if version != SNAPSHOT_SCHEMA_VERSION {
        return Err(format!(
            "snapshot schema version {version} is not supported (this build writes {SNAPSHOT_SCHEMA_VERSION})"
        ));
    }
    let fresh = canonical_snapshot();
    if text == fresh {
        return Ok(());
    }
    // pinpoint which kernel moved, for an actionable failure message
    let fresh_doc = Json::parse(&fresh).expect("fresh snapshot parses");
    let names = |d: &Json| -> Vec<(String, String)> {
        d.get("kernels")
            .and_then(Json::as_arr)
            .map(|ks| {
                ks.iter()
                    .filter_map(|k| {
                        let name = k.get("name")?.as_str()?.to_string();
                        let sum = k.get("checksum")?.as_str()?.to_string();
                        Some((name, sum))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let old = names(&doc);
    let new = names(&fresh_doc);
    for (name, sum) in &new {
        match old.iter().find(|(n, _)| n == name) {
            Some((_, old_sum)) if old_sum != sum => {
                return Err(format!(
                    "kernel '{name}' output changed: checksum {old_sum} -> {sum} \
                     (bit-identity contract violated; regenerate with hzc kernels --out)"
                ));
            }
            None => return Err(format!("kernel '{name}' missing from the committed snapshot")),
            _ => {}
        }
    }
    Err("snapshot text differs from a fresh render (metadata drift); regenerate with hzc kernels --out".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_snapshot_is_deterministic_and_verifies() {
        let a = canonical_snapshot();
        let b = canonical_snapshot();
        assert_eq!(a, b, "snapshot must be bit-stable");
        verify_snapshot(&a).expect("fresh snapshot verifies against itself");
    }

    #[test]
    fn verify_rejects_doctored_checksum() {
        let snap = canonical_snapshot();
        let pos = snap.find("0x").expect("has a checksum");
        let mut bad = snap.clone();
        // flip one hex digit of the first checksum
        let digit = bad.as_bytes()[pos + 2];
        let flipped = if digit == b'0' { '1' } else { '0' };
        bad.replace_range(pos + 2..pos + 3, &flipped.to_string());
        let err = verify_snapshot(&bad).expect_err("must detect the changed checksum");
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn verify_rejects_unknown_schema() {
        let snap = canonical_snapshot().replacen("\"schema_version\":1", "\"schema_version\":9", 1);
        let err = verify_snapshot(&snap).expect_err("must refuse");
        assert!(err.contains('9'), "{err}");
    }

    #[test]
    fn quick_bench_runs_and_reports_sane_numbers() {
        let cfg = KernelBenchConfig { elems: 1 << 14, trials: 1, threads: 1 };
        let report = run_kernel_bench(&cfg);
        assert!(report.stream.peak() > 0.0);
        assert_eq!(report.kernels.len(), 4);
        for k in &report.kernels {
            assert!(k.fast_secs > 0.0 && k.scalar_secs > 0.0, "{}", k.name);
            assert!(k.fast_gbps() > 0.0, "{}", k.name);
        }
        // debug builds give no meaningful speedup, so only check the ratio is finite
        assert!(report.kernels.iter().all(|k| k.speedup().is_finite()));
    }

    #[test]
    fn shuffle_input_matches_compressor_codes() {
        let field = App::SimSet2.generate(4096, 7);
        let sh = shuffle_input(&field, CANONICAL_EB);
        assert_eq!(sh.nblocks, 4096 / BLOCK);
        // every first-of-block delta is zero by construction, mags bounded by code
        for bi in 0..sh.nblocks {
            assert_eq!(sh.mags[bi * BLOCK], 0, "block {bi} leads with its anchor");
            for k in 0..BLOCK {
                let m = sh.mags[bi * BLOCK + k];
                if sh.codes[bi] < 32 {
                    assert!(m < 1u32.wrapping_shl(sh.codes[bi] as u32), "block {bi} elem {k}");
                }
            }
        }
    }

    #[test]
    fn max_block_len_is_at_least_bench_block() {
        const { assert!(BLOCK <= fzlight::config::MAX_BLOCK_LEN) }
    }
}
