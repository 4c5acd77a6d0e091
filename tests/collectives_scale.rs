//! Larger-scale collective integration: many ranks, uneven chunk sizes,
//! breakdown accounting, and the virtual-time orderings the paper reports.

use datasets::App;
use hzccl::collectives::{self, CollectiveOpts};
use hzccl::Mode;
use hzccl_bench::kernels;
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
