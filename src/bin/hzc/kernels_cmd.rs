//! `hzc kernels` — the kernel micro-benchmark harness.
//!
//! Times the overhauled hot kernels (bitshuffle encode/decode, block
//! quantization, homomorphic sum) against their retained scalar references
//! ([`hzccl_bench::kernel_throughput`]), verifies the fast paths are
//! byte-identical before any timing, and prints a Table IV-style report:
//! fast/scalar GB/s, speedup, and memory-bandwidth efficiency relative to
//! this host's STREAM peak.
//!
//! `--out` additionally writes the bit-stable `BENCH_kernels.json` snapshot
//! (kernel output sizes + checksums on a fixed canonical input — never
//! wall-clock), and `--check` verifies a committed snapshot, exiting nonzero
//! on any output drift. `--gate R` enforces a minimum speedup on every
//! kernel (a release-build acceptance check; skip it on debug builds or
//! noisy shared runners).

use crate::{flag, has_flag};
use hzccl_bench::kernel_throughput::{
    canonical_snapshot, run_kernel_bench, verify_snapshot, KernelBenchConfig,
    SNAPSHOT_SCHEMA_VERSION,
};
use hzccl_bench::Table;

pub(crate) fn kernels(args: &[String]) -> Result<(), String> {
    let quick = has_flag(args, "--quick");
    let mut cfg = if quick { KernelBenchConfig::quick() } else { KernelBenchConfig::full() };
    if let Some(elems) = flag(args, "--elems")? {
        cfg.elems = elems;
    }
    if cfg.elems == 0 {
        return Err("--elems must be at least 1".into());
    }
    if let Some(trials) = flag(args, "--trials")? {
        cfg.trials = trials;
    }
    if let Some(threads) = flag(args, "--threads")? {
        cfg.threads = threads;
    }
    if cfg.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let gate: Option<f64> = flag(args, "--gate")?;
    let out: Option<String> = flag(args, "--out")?;
    let check: Option<String> = flag(args, "--check")?;

    // Snapshot modes are deterministic and need no timing (so they work on
    // debug builds and loaded CI runners); they skip the timed report.
    if check.is_some() || out.is_some() {
        if let Some(path) = &check {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            match verify_snapshot(&text) {
                Ok(()) => println!(
                    "{path}: kernel outputs match the canonical input (schema v{SNAPSHOT_SCHEMA_VERSION})"
                ),
                Err(msg) => {
                    eprintln!("{path}: {msg}");
                    std::process::exit(2);
                }
            }
        }
        if let Some(path) = &out {
            std::fs::write(path, canonical_snapshot()).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote bit-stable kernel snapshot to {path} (schema v{SNAPSHOT_SCHEMA_VERSION})"
            );
        }
        return Ok(());
    }

    println!(
        "kernels: elems={} ({} MiB field) trials={} threads={}{}",
        cfg.elems,
        (cfg.elems * 4) >> 20,
        cfg.trials,
        cfg.threads,
        if cfg!(debug_assertions) { "  [debug build: timings not meaningful]" } else { "" }
    );
    let report = run_kernel_bench(&cfg);
    let peak = report.stream.peak();
    println!(
        "STREAM peak on this host: {peak:.2} GB/s (copy {:.2}, scale {:.2}, add {:.2}, triad {:.2})",
        report.stream.copy, report.stream.scale, report.stream.add, report.stream.triad
    );
    println!();
    let t = Table::new(&[
        ("kernel", 18),
        ("fast GB/s", 10),
        ("scalar GB/s", 11),
        ("speedup", 8),
        ("% of STREAM", 11),
    ]);
    for k in &report.kernels {
        t.row(&[
            k.name.to_string(),
            format!("{:.2}", k.fast_gbps()),
            format!("{:.2}", k.scalar_gbps()),
            format!("{:.2}x", k.speedup()),
            format!("{:.1}%", k.efficiency_pct(peak)),
        ]);
    }
    println!();
    println!("(throughput = logical f32 bytes / wall time, Table IV convention; every fast");
    println!(" kernel was verified byte-identical to its scalar reference before timing)");

    if let Some(min) = gate {
        let failing: Vec<String> = report
            .kernels
            .iter()
            .filter(|k| k.speedup() < min)
            .map(|k| format!("{} at {:.2}x", k.name, k.speedup()))
            .collect();
        if failing.is_empty() {
            println!("gate: every kernel at or above {min:.2}x over its scalar reference");
        } else {
            eprintln!("gate FAILED (< {min:.2}x): {}", failing.join(", "));
            std::process::exit(2);
        }
    }
    Ok(())
}
