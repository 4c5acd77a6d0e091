//! Micro-probes of single layers that no workload isolates: one kernel, one
//! 64-element call, one message, one rank spawn, one tuner decision. They
//! run in every traced pass, on inputs of their own.

use crate::inputs;
use crate::report::MetricSet;
use crate::workload::Scale;
use datasets::App;
use fzlight::{codec, Config, ErrorBound};
use hzccl::{CollectiveConfig, Mode, Variant};
use netsim::{ComputeTiming, OpKind, SimBuilder, ThroughputModel};
use ompszp::bitshuffle;
use std::hint::black_box;
use std::time::Instant;

const EB: f64 = 1e-4;
const BLOCK: usize = fzlight::DEFAULT_BLOCK_LEN;
/// Elements of one "small" call: two fZ-light blocks, an `ar_manyranks`
/// ring chunk.
const SMALL_ELEMS: usize = 64;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// `reps` timings of `f`, as GB/s of `bytes`.
fn gbps(bytes: usize, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps).map(|_| bytes as f64 / 1e9 / secs(&mut f)).collect()
}

/// `calls` timings of `f`, in microseconds.
fn micros(calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..calls).map(|_| secs(&mut f) * 1e6).collect()
}

/// Cost of one `Instant::now()` pair, the floor under every small timing.
fn timer_ns() -> Vec<f64> {
    (0..1000).map(|_| secs(|| ()) * 1e9).collect()
}

/// Quantize → Lorenzo delta → magnitudes and per-block code lengths, the
/// way the compressors feed the bit shuffle.
fn shuffle_input(field: &[f32]) -> (Vec<u32>, Vec<u8>) {
    let mut q = vec![0i32; field.len()];
    fzlight::quantize_block(field, 1.0 / (2.0 * EB), 0, &mut q).expect("finite field");
    let mut mags = vec![0u32; field.len()];
    let mut codes = Vec::with_capacity(field.len().div_ceil(BLOCK));
    for (block, out) in q.chunks(BLOCK).zip(mags.chunks_mut(BLOCK)) {
        let mut prev = i64::from(block[0]);
        let mut max = 0u32;
        for (&qi, m) in block.iter().zip(out.iter_mut()) {
            *m = (i64::from(qi) - prev).unsigned_abs() as u32;
            prev = i64::from(qi);
            max |= *m;
        }
        codes.push(codec::code_for_max(max));
    }
    (mags, codes)
}

fn kernels(seed: u64, reps: usize, elems: usize, out: &mut MetricSet) {
    let field = inputs::field(App::CesmAtm, elems, seed, 1);
    let bytes = field.len() * 4;
    let mut q = vec![0i32; field.len()];
    let rates = gbps(bytes, reps, || {
        fzlight::quantize_block(black_box(&field), 1.0 / (2.0 * EB), 0, &mut q).expect("quantize")
    });
    out.set_samples("fzlight.quantize_block_gbps", &rates);

    let (mags, codes) = shuffle_input(&field);
    let mut planes = Vec::new();
    let rates = gbps(bytes, reps, || {
        planes.clear();
        for (m, &c) in mags.chunks(BLOCK).zip(&codes) {
            bitshuffle::encode_planes(black_box(m), c, &mut planes);
        }
    });
    out.set_samples("ompszp.bitshuffle_encode_gbps", &rates);
    let mut back = vec![0u32; mags.len()];
    let rates = gbps(bytes, reps, || {
        let mut at = 0;
        for (m, &c) in back.chunks_mut(BLOCK).zip(&codes) {
            at += bitshuffle::decode_planes(black_box(&planes[at..]), c, m).expect("decode");
        }
    });
    assert_eq!(back, mags, "bit shuffle round trip");
    out.set_samples("ompszp.bitshuffle_decode_gbps", &rates);
}

fn small_calls(seed: u64, calls: usize, out: &mut MetricSet) {
    let a = inputs::field(App::SimSet2, 8 << 10, seed, 1);
    let a = &a[..SMALL_ELEMS];
    let b: Vec<f32> = a.iter().map(|&v| v * 1.001).collect();
    let cfg = Config::new(ErrorBound::Abs(EB));
    let (c1, c2) =
        (fzlight::compress(a, &cfg).expect("c1"), fzlight::compress(&b, &cfg).expect("c2"));
    let o1 = ompszp::compress(a, &cfg).expect("o1");
    let mut buf = vec![0f32; SMALL_ELEMS];
    let us = micros(calls, || drop(black_box(fzlight::compress(black_box(a), &cfg))));
    out.set_samples("fzlight.compress_small_us", &us);
    let us = micros(calls, || fzlight::decompress_into(black_box(&c1), &mut buf).expect("dpr"));
    out.set_samples("fzlight.decompress_small_us", &us);
    let us = micros(calls, || drop(black_box(ompszp::compress(black_box(a), &cfg))));
    out.set_samples("ompszp.compress_small_us", &us);
    let us = micros(calls, || ompszp::decompress_into(black_box(&o1), &mut buf).expect("dpr"));
    out.set_samples("ompszp.decompress_small_us", &us);
    let us = micros(calls, || drop(black_box(hzdyn::homomorphic_sum(black_box(&c1), &c2))));
    out.set_samples("hzdyn.hsum_small_us", &us);
}

fn netsim_host(ranks: usize, reps: usize, out: &mut MetricSet) {
    // no compute inside the ranks: what remains is the engine itself
    let timing = ComputeTiming::Modeled(ThroughputModel::new(1.0, 1.0, 1.0, 1.0, 1.0));
    let sim = SimBuilder::new(ranks).timing(timing);
    let rounds = 64u64;
    let spawn: Vec<f64> = (0..reps).map(|_| secs(|| drop(sim.run(|_| ())))).collect();
    let ring: Vec<f64> = (0..reps)
        .map(|_| {
            secs(|| {
                let report = sim.run(|comm| {
                    let (to, from) = (
                        (comm.rank() + 1) % comm.size(),
                        (comm.rank() + comm.size() - 1) % comm.size(),
                    );
                    for round in 0..rounds {
                        black_box(comm.sendrecv(to, round, vec![0u8; SMALL_ELEMS], from));
                    }
                });
                assert!(report.is_clean(), "probe ring");
            })
        })
        .collect();
    let msgs = (ranks as u64 * rounds) as f64;
    let spawn_s = crate::stats::median(&spawn);
    out.set_samples(
        "netsim.spawn_us_per_rank",
        &spawn.iter().map(|s| s * 1e6 / ranks as f64).collect::<Vec<_>>(),
    );
    let per_msg: Vec<f64> = ring.iter().map(|s| (s - spawn_s).max(0.0) * 1e9 / msgs).collect();
    out.set_samples("netsim.ns_per_msg", &per_msg);
    // one send and one receive event per message
    out.set_samples(
        "netsim.events_per_s",
        &ring.iter().map(|s| 2.0 * msgs / s).collect::<Vec<_>>(),
    );
}

fn tuner_host(seed: u64, elems: usize, calls: usize, out: &mut MetricSet) {
    let engine = tuner::Engine::paper();
    let spec = tuner::ScenarioSpec::new(tuner::Op::Allreduce, 2 << 20, 8, EB, BLOCK, 8.0);
    let us = micros(calls, || drop(black_box(engine.decide(black_box(&spec)))));
    out.set_samples("tuner.decide_us", &us);
    // this host's kernels against the paper's single-thread constants: the
    // kernel → calibration hop of ROADMAP's reconciliation chain
    let sample = inputs::field(App::SimSet2, elems, seed, 1);
    let host = hzccl::calibrate_hz(&sample, &CollectiveConfig::new(EB, Mode::SingleThread));
    let paper = hzccl::paper_model(Variant::Hzccl, Mode::SingleThread);
    for (key, kind) in
        [("cpr", OpKind::Cpr), ("dpr", OpKind::Dpr), ("hpr", OpKind::Hpr), ("cpt", OpKind::Cpt)]
    {
        let i = kind.index();
        out.set(&format!("tuner.host_vs_paper.{key}"), host.gbps[i] / paper.gbps[i]);
    }
}

/// Run every probe and record its metrics.
pub fn run(scale: &Scale, seed: u64, out: &mut MetricSet) {
    let (reps, elems) = (scale.probe_reps, scale.kernel_elems);
    out.set_samples("harness.timer_ns", &timer_ns());
    kernels(seed, reps, elems, out);
    small_calls(seed, scale.small_calls, out);
    netsim_host(scale.probe_ranks, reps, out);
    tuner_host(seed, elems, scale.small_calls.min(2000), out);
}
