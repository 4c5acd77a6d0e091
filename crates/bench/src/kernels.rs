//! The artifact's five collective kernels (Appendix, "Artifact Execution"):
//! a single dispatcher so benches sweep kernels exactly like the paper's
//! `different_sizes.sh` / `different_nodes.sh` scripts.

use hzccl::collectives::{self, CollectiveOpts, Result};
use hzccl::{Mode, Variant};
use netsim::Comm;

/// Kernel ids as used by the paper's artifact outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Kernel 0: the original `MPI_Allreduce` / `MPI_Reduce_scatter`.
    MpiOriginal,
    /// Kernel 1: multi-thread mode of C-Coll.
    CCollMultiThread,
    /// Kernel 2: multi-thread mode of hZCCL.
    HzcclMultiThread,
    /// Kernel 3: single-thread mode of C-Coll.
    CCollSingleThread,
    /// Kernel 4: single-thread mode of hZCCL.
    HzcclSingleThread,
}

impl Kernel {
    /// All kernels in artifact order (0..=4).
    pub const ALL: [Kernel; 5] = [
        Kernel::MpiOriginal,
        Kernel::CCollMultiThread,
        Kernel::HzcclMultiThread,
        Kernel::CCollSingleThread,
        Kernel::HzcclSingleThread,
    ];

    /// Artifact kernel number.
    pub fn id(&self) -> usize {
        match self {
            Kernel::MpiOriginal => 0,
            Kernel::CCollMultiThread => 1,
            Kernel::HzcclMultiThread => 2,
            Kernel::CCollSingleThread => 3,
            Kernel::HzcclSingleThread => 4,
        }
    }

    /// Human-readable label matching Table II.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::MpiOriginal => "Original MPI",
            Kernel::CCollMultiThread => "C-Coll (multi-thread)",
            Kernel::HzcclMultiThread => "hZCCL (multi-thread)",
            Kernel::CCollSingleThread => "C-Coll (single-thread)",
            Kernel::HzcclSingleThread => "hZCCL (single-thread)",
        }
    }

    /// Which framework this kernel belongs to (for model selection).
    pub fn variant(&self) -> Variant {
        match self {
            Kernel::MpiOriginal => Variant::Mpi,
            Kernel::CCollMultiThread | Kernel::CCollSingleThread => Variant::CColl,
            Kernel::HzcclMultiThread | Kernel::HzcclSingleThread => Variant::Hzccl,
        }
    }

    /// The compression mode this kernel runs in (`None` for plain MPI).
    pub fn mode(&self, mt_threads: usize) -> Option<Mode> {
        match self {
            Kernel::MpiOriginal => None,
            Kernel::CCollMultiThread | Kernel::HzcclMultiThread => {
                Some(Mode::MultiThread(mt_threads))
            }
            Kernel::CCollSingleThread | Kernel::HzcclSingleThread => Some(Mode::SingleThread),
        }
    }

    /// The [`CollectiveOpts`] this kernel dispatches with (plain MPI runs
    /// single-threaded CPT, matching the artifact's `MPI_Allreduce`).
    pub fn opts(&self, eb: f64, mt_threads: usize) -> CollectiveOpts {
        match self.mode(mt_threads) {
            None => CollectiveOpts::mpi(),
            Some(mode) => CollectiveOpts::for_variant(self.variant(), eb).with_mode(mode),
        }
    }

    /// Run this kernel's `Allreduce` on one rank.
    pub fn allreduce(
        &self,
        comm: &mut Comm,
        data: &[f32],
        eb: f64,
        mt_threads: usize,
    ) -> Result<Vec<f32>> {
        collectives::allreduce(comm, data, &self.opts(eb, mt_threads))
    }

    /// Run this kernel's `Reduce_scatter` on one rank.
    pub fn reduce_scatter(
        &self,
        comm: &mut Comm,
        data: &[f32],
        eb: f64,
        mt_threads: usize,
    ) -> Result<Vec<f32>> {
        collectives::reduce_scatter(comm, data, &self.opts(eb, mt_threads))
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};

    #[test]
    fn kernel_ids_match_artifact_numbering() {
        for (i, k) in Kernel::ALL.iter().enumerate() {
            assert_eq!(k.id(), i);
        }
    }

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
        for kernel in Kernel::ALL {
            let cluster = SimBuilder::new(nranks).timing(timing);
            let outcomes = cluster
                .run(|comm| {
                    let data = field(comm.rank());
                    kernel.allreduce(comm, &data, eb, 2).expect("kernel allreduce")
                })
                .expect_clean()
                .outcomes;
            let tol = if kernel == Kernel::MpiOriginal { 1e-5 } else { 2.0 * nranks as f64 * eb };
            for o in outcomes {
                for (a, b) in o.value.iter().zip(&expect) {
                    assert!(((a - b).abs() as f64) <= tol + 1e-9, "{kernel}: {a} vs {b}");
                }
            }
        }
    }
}
