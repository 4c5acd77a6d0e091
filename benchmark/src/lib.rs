//! # hzbench — the wall-clock benchmark of hZCCL-rs
//!
//! Four workloads, ten end-to-end metrics, 104 per-layer metrics; see
//! `benchmark/README.md` for what each is and why, and `BENCHMARK.json` at
//! the repo root for the contract the driver checks. The benchmark times
//! calls into the crates' public functions only; nothing outside
//! `benchmark/` knows it exists.

pub mod catalog;
pub mod codec;
pub mod host;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod run;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workload;
