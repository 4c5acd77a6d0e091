//! What a workload is to the runner, and how big each one is.

use crate::catalog::Flavour;
use crate::report::{MetricSet, Ops};
use crate::spans::Recorder;

/// Input sizes. `full` is what `BENCHMARK.json` measures; `smoke` is the
/// same code on tiny inputs, for `--smoke` and the crate's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `codec`: nominal elements per field.
    pub codec_elems: usize,
    /// `ar_large`: `(ranks, nominal elements per rank)`.
    pub large: (usize, usize),
    /// `ar_manyranks`: `(ranks, nominal elements per rank)`.
    pub many: (usize, usize),
    /// `mixed_schedules`: nominal elements per rank (always 16 ranks: the
    /// hierarchical step runs on `Topology::paper(4, 4)`).
    pub mixed_elems: usize,
    /// Calls per small-call probe.
    pub small_calls: usize,
    /// Elements of the kernel probes' field.
    pub kernel_elems: usize,
    /// Repetitions of the kernel and netsim probes.
    pub probe_reps: usize,
    /// `f64` elements per STREAM array.
    pub stream_elems: usize,
    /// Ranks of the netsim message/spawn probes.
    pub probe_ranks: usize,
    /// Times the repeatable part of set-up runs (its median is reported).
    pub setup_repeats: usize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Scale {
        Scale {
            codec_elems: 4 << 20,   // 16 MiB per field
            large: (8, 2 << 20),    // 8 ranks x 8 MiB
            many: (128, 8 << 10),   // 128 ranks x 32 KiB: 64-element ring chunks
            mixed_elems: 256 << 10, // 16 ranks x 1 MiB
            small_calls: 10_000,
            kernel_elems: 1 << 20, // 4 MiB: past L2, cheap to make
            probe_reps: 7,
            stream_elems: crate::host::STREAM_ELEMS,
            probe_ranks: 256,
            setup_repeats: 3,
        }
    }

    /// Tiny inputs: every code path, no meaningful timing.
    pub fn smoke() -> Scale {
        Scale {
            codec_elems: 32 << 10,
            large: (4, 16 << 10),
            many: (16, 1 << 10),
            mixed_elems: 4 << 10,
            small_calls: 200,
            kernel_elems: 16 << 10,
            probe_reps: 2,
            stream_elems: 1 << 16,
            probe_ranks: 16,
            setup_repeats: 2,
        }
    }
}

/// One executed operation.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Host wall seconds of each part of the op, in [`Workload::parts`]
    /// order: one per app on `codec`, one per step on `mixed_schedules`,
    /// a single part on the allreduce workloads.
    pub parts: Vec<f64>,
    /// Simulated (paper-model) seconds of the whole op; repeats exactly.
    pub virtual_s: f64,
    /// `(logical bytes, wire bytes)` the op put on the wire, where the op
    /// could observe them (every op on `codec`, traced ops elsewhere).
    pub wire: Option<(u64, u64)>,
    /// Whether the op's output passed its check.
    pub ok: bool,
}

/// The first, fully checked op of a flavour.
#[derive(Debug, Clone)]
pub struct WarmUp {
    /// The op itself; `wire` is always known here.
    pub sample: OpSample,
    /// Largest observed error over the bound that applies (worst part).
    pub err_over_bound: f64,
}

/// One of the four workloads, with its inputs generated.
pub trait Workload {
    /// Names of the parts of one op of flavour `f`.
    fn parts(&self, f: Flavour) -> Vec<String>;

    /// Run flavour `f` once with every output checked against the exact
    /// reference, and keep the output as what later ops must reproduce
    /// bit for bit. Must run before [`Workload::op`] for that flavour.
    fn warm_up(&mut self, f: Flavour) -> WarmUp;

    /// One timed op. Only the calls into the program are timed; the output
    /// is compared with the warm-up's afterwards.
    fn op(&mut self, f: Flavour, rec: &mut Recorder) -> OpSample;

    /// The traced pass: run the workload with spans on and fill in the
    /// per-layer metrics this workload can observe.
    fn layers(&mut self, rec: &mut Recorder, out: &mut MetricSet, ops: &mut Ops);
}
