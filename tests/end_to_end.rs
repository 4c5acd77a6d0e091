//! Cross-crate integration: synthetic datasets → compressors → homomorphic
//! reduction → collectives, verifying the paper's correctness claims end to
//! end.

use datasets::{App, Quality};
use fzlight::{Config, ErrorBound};
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::error_bounds::{bound, Call};
use hzccl_bench::kernels;
use netsim::{ComputeTiming, SimBuilder, ThroughputModel};
use tuner::{Algo, Op, Plan};

fn q_ulp(data: &[f32]) -> f64 {
    data.iter().fold(0f32, |m, v| m.max(v.abs())) as f64
}

fn modeled() -> ComputeTiming {
    ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
}

#[test]
fn every_dataset_roundtrips_within_bound_on_both_compressors() {
    let n = 1 << 16;
    for app in App::ALL {
        let data = app.generate(n, 3);
        for rel in [1e-2, 1e-4] {
            let cfg = Config::new(ErrorBound::Rel(rel)).with_threads(2);
            let eb = ErrorBound::Rel(rel).resolve(&data).unwrap();

            // eb guaranteed in f64; the f32 reconstruction adds <= half an
            // ULP of the largest value
            let tol = eb * (1.0 + 1e-9) + q_ulp(&data) * f32::EPSILON as f64;

            let s = fzlight::compress(&data, &cfg).unwrap();
            let out = fzlight::decompress(&s).unwrap();
            let q = Quality::compare(&data, &out);
            assert!(q.max_abs_err <= tol, "{app} fzlight rel={rel}: {q:?}");

            let s = ompszp::compress(&data, &cfg).unwrap();
            let out = ompszp::decompress(&s).unwrap();
            let q = Quality::compare(&data, &out);
            assert!(q.max_abs_err <= tol, "{app} ompszp rel={rel}: {q:?}");
        }
    }
}

#[test]
fn homomorphic_sum_of_every_dataset_pair_is_error_bounded() {
    let n = 1 << 15;
    for app in App::ALL {
        let a = app.generate(n, 0);
        let b = app.generate(n, 1);
        let eb = ErrorBound::Rel(1e-3).resolve(&a).unwrap();
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(2);
        let ca = fzlight::compress(&a, &cfg).unwrap();
        let cb = fzlight::compress(&b, &cfg).unwrap();
        let hz = hzdyn::homomorphic_sum(&ca, &cb).unwrap();
        let out = fzlight::decompress(&hz).unwrap();
        for i in 0..n {
            let exact = a[i] as f64 + b[i] as f64;
            assert!(
                (out[i] as f64 - exact).abs() <= 2.0 * eb + exact.abs() * 1e-6,
                "{app} at {i}: {} vs {exact}",
                out[i]
            );
        }
    }
}

/// The artifact's five kernels, single- and multi-thread, each within its
/// Allreduce bound (`hzccl::error_bounds`) of the exact sum.
#[test]
fn all_kernels_are_within_their_bounds() {
    let n = 4096;
    let nranks = 8;
    let eb = 1e-4;
    let base = App::Hurricane.generate(n, 5);
    let fields: Vec<Vec<f32>> =
        (0..nranks).map(|r| base.iter().map(|&v| v * (1.0 + 0.01 * r as f32)).collect()).collect();
    let exact: Vec<f64> = (0..n).map(|i| fields.iter().map(|f| f64::from(f[i])).sum()).collect();
    let at = |i: usize| fields.iter().map(|f| f64::from(f[i]).abs()).sum::<f64>();
    let peak = (0..n).map(at).fold(0.0, f64::max);

    let cluster = SimBuilder::new(nranks).timing(modeled());
    for (label, variant, mode) in kernels(2) {
        let opts = CollectiveOpts::for_variant(variant, eb).with_mode(mode);
        let outcomes = cluster
            .run(|comm| collectives::allreduce(comm, &fields[comm.rank()], &opts).expect("kernel"))
            .expect_clean()
            .outcomes;
        let plan = Plan::serial(variant.flavor(), Algo::Ring, mode, fzlight::DEFAULT_BLOCK_LEN);
        let policy = RecoveryPolicy::FailFast;
        let call = Call {
            op: Op::Allreduce,
            plan,
            policy,
            degraded: 0,
            launched: nranks,
            contributors: nranks,
        };
        let (quantization, representation) = bound(&call, eb, peak);
        let tol = quantization + representation;
        for o in &outcomes {
            for (a, b) in o.value.iter().zip(&exact) {
                assert!((f64::from(*a) - b).abs() <= tol, "{label}: {a} vs {b} (tol {tol})");
            }
        }
    }
}

#[test]
fn reduce_scatter_then_allgather_equals_allreduce_for_hzccl() {
    let n = 2000;
    let nranks = 4;
    let eb = 1e-4;
    let base = App::SimSet2.generate(n, 1);
    let fields: Vec<Vec<f32>> =
        (0..nranks).map(|r| base.iter().map(|&v| v + r as f32 * 0.01).collect()).collect();
    let opts = CollectiveOpts::hz(eb);
    let cluster = SimBuilder::new(nranks).timing(modeled());
    let fused = cluster
        .run(|comm| collectives::allreduce(comm, &fields[comm.rank()], &opts).expect("fused"))
        .expect_clean()
        .outcomes;
    let staged = cluster
        .run(|comm| {
            let own = collectives::reduce_scatter(comm, &fields[comm.rank()], &opts).expect("rs");
            collectives::allgather(comm, &own, n, &CollectiveOpts::mpi()).expect("allgather")
        })
        .expect_clean()
        .outcomes;
    for (f, s) in fused.iter().zip(&staged) {
        // staged path gathers the decompressed chunks uncompressed, so both
        // decode the same quantization integers
        assert_eq!(f.value, s.value);
    }
}

#[test]
fn compressed_streams_survive_the_simulated_wire() {
    // send a real compressed stream through netsim and decompress remotely
    let data = App::Nyx.generate(10_000, 2);
    let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
    let stream = fzlight::compress(&data, &cfg).unwrap();
    let expect = fzlight::decompress(&stream).unwrap();
    let bytes = stream.into_bytes();

    let cluster = SimBuilder::new(2).timing(modeled());
    let outcomes = cluster
        .run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, bytes.clone());
                Vec::new()
            } else {
                let got = comm.recv(0, 0);
                let s = fzlight::CompressedStream::from_bytes(got).expect("parse");
                fzlight::decompress(&s).expect("remote decompress")
            }
        })
        .expect_clean()
        .outcomes;
    assert_eq!(outcomes[1].value, expect);
}

#[test]
fn costmodel_and_simulation_agree_on_the_winner() {
    // the closed-form model and the discrete simulation must pick the same
    // winner (hZCCL) for a bandwidth-bound configuration
    let n = 1 << 18;
    let nranks = 8;
    let eb = 1e-4;
    let base = App::SimSet1.generate(n, 0);
    let fields: Vec<Vec<f32>> = (0..nranks).map(|_| base.clone()).collect();

    let thr = ThroughputModel::new(2.0, 4.0, 20.0, 10.0, 20.0);
    let timing = ComputeTiming::Modeled(thr);
    let hz_opts = CollectiveOpts::hz(eb);
    let cluster = SimBuilder::new(nranks).timing(timing);

    let t_mpi = {
        let s = cluster
            .run(|comm| {
                collectives::allreduce(comm, &fields[comm.rank()], &CollectiveOpts::mpi())
                    .expect("mpi");
            })
            .expect_clean()
            .stats;
        s.makespan
    };
    let t_hz = {
        let s = cluster
            .run(|comm| {
                collectives::allreduce(comm, &fields[comm.rank()], &hz_opts).expect("hz");
            })
            .expect_clean()
            .stats;
        s.makespan
    };

    let fz_cfg = Config::new(ErrorBound::Abs(eb));
    let ratio = fzlight::compress(&base, &fz_cfg).unwrap().ratio();
    let scen = costmodel::Scenario {
        nranks,
        message_bytes: n * 4,
        ratio,
        net: netsim::NetConfig::default(),
        thr,
    };
    let model = |flavor| {
        costmodel::predict(&scen, costmodel::Op::Allreduce, flavor, costmodel::Algo::Ring, 1, None)
    };
    let (m_mpi, m_hz) = (model(costmodel::Flavor::Mpi), model(costmodel::Flavor::Hzccl));

    assert!(t_hz < t_mpi, "simulation: hz {t_hz} vs mpi {t_mpi}");
    assert!(m_hz < m_mpi, "model: hz {m_hz} vs mpi {m_mpi}");
    // and the model tracks the simulated MPI time within 2x
    assert!((m_mpi / t_mpi) < 2.0 && (t_mpi / m_mpi) < 2.0, "model {m_mpi} vs sim {t_mpi}");
}
