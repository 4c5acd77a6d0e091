//! Larger-scale collective integration: many ranks, uneven chunk sizes,
//! breakdown accounting, and the virtual-time orderings the paper reports.

use datasets::App;
use hzccl::collectives::{self, CollectiveOpts};
use hzccl::Mode;
use hzccl::Variant;
use hzccl_bench::kernels;
use hzccl_bench::suite::{rank_fields, CaseSpec, Runner, SuiteConfig};
use netsim::{ComputeTiming, SimBuilder, ThroughputModel};

fn modeled() -> ComputeTiming {
    ComputeTiming::Modeled(ThroughputModel::new(2.0, 4.0, 20.0, 10.0, 20.0))
}

fn fields(nranks: usize, n: usize) -> Vec<Vec<f32>> {
    let base = App::SimSet1.generate(n, 0);
    (0..nranks).map(|r| base.iter().map(|&v| v * (1.0 + 0.001 * r as f32)).collect()).collect()
}

#[test]
fn sixty_four_rank_allreduce_is_consistent_everywhere() {
    let nranks = 64;
    let n = 64 * 200 + 13; // uneven: last chunk bigger
    let data = fields(nranks, n);
    let opts = CollectiveOpts::hz(1e-4);
    let cluster = SimBuilder::new(nranks).timing(modeled());
    let outcomes = cluster
        .run(|comm| collectives::allreduce(comm, &data[comm.rank()], &opts).expect("allreduce"))
        .expect_clean()
        .outcomes;
    // all ranks identical, and error-bounded against the exact sum
    let exact: Vec<f64> = (0..n).map(|i| data.iter().map(|f| f[i] as f64).sum()).collect();
    let tol = nranks as f64 * 1e-4 + 1e-6;
    for o in &outcomes {
        assert_eq!(o.value, outcomes[0].value);
    }
    for (i, v) in outcomes[0].value.iter().enumerate() {
        assert!(
            ((*v as f64) - exact[i]).abs() <= tol + exact[i].abs() * 1e-6,
            "at {i}: {v} vs {}",
            exact[i]
        );
    }
}

#[test]
fn breakdown_totals_are_consistent_with_makespan() {
    let nranks = 16;
    let data = fields(nranks, 16 * 512);
    let opts = CollectiveOpts::hz(1e-4);
    let cluster = SimBuilder::new(nranks).timing(modeled());
    let outcomes = cluster
        .run(|comm| {
            collectives::allreduce(comm, &data[comm.rank()], &opts).expect("allreduce");
            (comm.elapsed(), comm.breakdown())
        })
        .expect_clean()
        .outcomes;
    for o in &outcomes {
        let (elapsed, b) = o.value;
        // every second of a rank's virtual clock is attributed to a bucket
        assert!(
            (elapsed - b.total()).abs() <= 1e-9 + elapsed * 1e-9,
            "elapsed {elapsed} vs accounted {}",
            b.total()
        );
    }
}

#[test]
fn hzccl_beats_ccoll_beats_mpi_at_scale() {
    let nranks = 32;
    let n = 1 << 17;
    let data = fields(nranks, n);
    let run = |opts: &CollectiveOpts| -> f64 {
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let stats = cluster
            .run(|comm| {
                let d = &data[comm.rank()];
                collectives::allreduce(comm, d, opts).expect("allreduce");
            })
            .expect_clean()
            .stats;
        stats.makespan
    };
    let (t_mpi, t_ccoll, t_hz) = (
        run(&CollectiveOpts::mpi()),
        run(&CollectiveOpts::ccoll(1e-4)),
        run(&CollectiveOpts::hz(1e-4)),
    );
    assert!(t_hz < t_ccoll, "hz {t_hz} vs ccoll {t_ccoll}");
    assert!(t_ccoll < t_mpi, "ccoll {t_ccoll} vs mpi {t_mpi}");
}

#[test]
fn reduce_scatter_chunks_reassemble_to_the_full_sum() {
    let nranks = 9;
    let n = 1000; // 9 chunks of 111 + last 112
    let data = fields(nranks, n);
    let opts = CollectiveOpts::hz(1e-4).with_mode(Mode::MultiThread(2));
    let cluster = SimBuilder::new(nranks).timing(modeled());
    let outcomes = cluster
        .run(|comm| collectives::reduce_scatter(comm, &data[comm.rank()], &opts).expect("rs"))
        .expect_clean()
        .outcomes;
    let gathered: Vec<f32> = outcomes.iter().flat_map(|o| o.value.clone()).collect();
    assert_eq!(gathered.len(), n);
    let exact: Vec<f64> = (0..n).map(|i| data.iter().map(|f| f[i] as f64).sum()).collect();
    for (i, v) in gathered.iter().enumerate() {
        assert!(
            ((*v as f64) - exact[i]).abs() <= nranks as f64 * 1e-4 + exact[i].abs() * 1e-6,
            "at {i}"
        );
    }
}

#[test]
fn kernels_are_deterministic_in_virtual_time() {
    let nranks = 8;
    let data = fields(nranks, 1 << 14);
    let once = |opts: &CollectiveOpts| -> f64 {
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let stats = cluster
            .run(|comm| {
                collectives::allreduce(comm, &data[comm.rank()], opts).expect("kernel");
            })
            .expect_clean()
            .stats;
        stats.makespan
    };
    for (label, variant, mode) in kernels(2) {
        let opts = CollectiveOpts::for_variant(variant, 1e-4).with_mode(mode);
        assert_eq!(once(&opts), once(&opts), "{label} must be deterministic");
    }
}

/// Today's integer-range frontier (ROADMAP item 1), pinned as it stands:
/// `hzc sim allreduce --app nyx --kb 64 --eb 1e-4` on the fields
/// `suite::rank_fields` gives it. hZCCL's homomorphic sum leaves `i32` from
/// 10 ranks and C-Coll's re-compressed partial sum from 5, while plain MPI
/// completes at 12. Fixing item 1 turns the failing rows into `Ok` within
/// the bound. The result is read from the report: once one rank returns the
/// error its peers die of the cascade, and that must not fail this test.
#[test]
fn nyx_integer_range_frontier_is_pinned() {
    let cfg = SuiteConfig { app: App::Nyx, eb: 1e-4, ..SuiteConfig::default() };
    let hz_overflow =
        |e: &fzlight::Error| matches!(e, fzlight::Error::HomomorphicOverflow { chunk: 0 });
    let quant_overflow =
        |e: &fzlight::Error| matches!(e, fzlight::Error::QuantizationOverflow { .. });
    type Fails = Option<fn(&fzlight::Error) -> bool>;
    let table: [(Variant, usize, Fails); 5] = [
        (Variant::Hzccl, 9, None),
        (Variant::Hzccl, 10, Some(hz_overflow)),
        (Variant::CColl, 4, None),
        (Variant::CColl, 5, Some(quant_overflow)),
        (Variant::Mpi, 12, None),
    ];
    for (variant, ranks, fails) in table {
        let spec = CaseSpec::new(tuner::Op::Allreduce, Runner::Variant(variant), ranks, 64);
        let fields = rank_fields(&spec, &cfg);
        let opts = CollectiveOpts::for_variant(variant, cfg.eb);
        let report = SimBuilder::new(ranks)
            .timing(modeled())
            .run(|comm| collectives::allreduce(comm, &fields[comm.rank()], &opts));
        let results: Vec<_> = report.outcomes.iter().map(|o| &o.value).collect();
        let case = format!("{variant:?} at {ranks} ranks");
        match fails {
            None => {
                assert!(report.is_clean(), "{case}: {:?}", report.panics.first());
                assert!(results.iter().all(|r| r.is_ok()), "{case} completes");
            }
            Some(expected) => {
                let failed = results
                    .iter()
                    .any(|r| matches!(r, Err(collectives::Error::Compression(e)) if expected(e)));
                assert!(failed, "{case} must fail with the listed compression error");
            }
        }
    }
}
