//! The artifact's five collective kernels (Appendix, "Artifact Execution"),
//! as the paper's `different_sizes.sh` / `different_nodes.sh` sweep them.

use hzccl::{Mode, Variant};

/// The five kernels in artifact order (kernel ids 0..=4) as `(label,
/// flavour, thread mode)` rows, labels matching Table II. Plain MPI runs
/// single-threaded CPT, matching the artifact's `MPI_Allreduce`;
/// `mt_threads` is the thread count of the multi-thread mode.
pub fn kernels(mt_threads: usize) -> [(&'static str, Variant, Mode); 5] {
    let (st, mt) = (Mode::SingleThread, Mode::MultiThread(mt_threads));
    [
        ("Original MPI", Variant::Mpi, st),
        ("C-Coll (multi-thread)", Variant::CColl, mt),
        ("hZCCL (multi-thread)", Variant::Hzccl, mt),
        ("C-Coll (single-thread)", Variant::CColl, st),
        ("hZCCL (single-thread)", Variant::Hzccl, st),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hzccl::collectives::{allreduce, CollectiveOpts, RecoveryPolicy};
    use hzccl::error_bounds::{bound, Call};
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};
    use tuner::{Algo, Op, Plan};

    #[test]
    fn all_kernels_produce_bounded_allreduce() {
        let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
        let n = 640;
        let nranks = 4;
        let eb = 1e-4;
        let field = |rank: usize| -> Vec<f32> {
            (0..n).map(|i| ((i as f32) * 0.05).cos() * (rank + 1) as f32).collect()
        };
        let exact: Vec<f64> =
            (0..n).map(|i| (0..nranks).map(|r| f64::from(field(r)[i])).sum()).collect();
        let at = |i: usize| (0..nranks).map(|r| f64::from(field(r)[i]).abs()).sum::<f64>();
        let peak = (0..n).map(at).fold(0.0, f64::max);
        for (label, variant, mode) in kernels(2) {
            let opts = CollectiveOpts::for_variant(variant, eb).with_mode(mode);
            let outcomes = SimBuilder::new(nranks)
                .timing(timing)
                .run(|comm| allreduce(comm, &field(comm.rank()), &opts).expect("kernel allreduce"))
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
            for o in outcomes {
                for (a, b) in o.value.iter().zip(&exact) {
                    let err = (f64::from(*a) - b).abs();
                    assert!(err <= quantization + representation, "{label}: {a} vs {b}");
                }
            }
        }
    }
}
