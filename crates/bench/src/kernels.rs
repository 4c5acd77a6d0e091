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
    use hzccl::collectives::{allreduce, CollectiveOpts};
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};

    #[test]
    fn all_kernels_produce_bounded_allreduce() {
        let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
        let n = 640;
        let nranks = 4;
        let eb = 1e-4;
        let field = |rank: usize| -> Vec<f32> {
            (0..n).map(|i| ((i as f32) * 0.05).cos() * (rank + 1) as f32).collect()
        };
        let mut expect = vec![0f32; n];
        for r in 0..nranks {
            for (a, b) in expect.iter_mut().zip(field(r)) {
                *a += b;
            }
        }
        for (label, variant, mode) in kernels(2) {
            let opts = CollectiveOpts::for_variant(variant, eb).with_mode(mode);
            let outcomes = SimBuilder::new(nranks)
                .timing(timing)
                .run(|comm| allreduce(comm, &field(comm.rank()), &opts).expect("kernel allreduce"))
                .expect_clean()
                .outcomes;
            let tol = if variant == Variant::Mpi { 1e-5 } else { 2.0 * nranks as f64 * eb };
            for o in outcomes {
                for (a, b) in o.value.iter().zip(&expect) {
                    assert!(((a - b).abs() as f64) <= tol + 1e-9, "{label}: {a} vs {b}");
                }
            }
        }
    }
}
