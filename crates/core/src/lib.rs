//! # hZCCL — homomorphic compression-accelerated collective communication
//!
//! The primary contribution of *"hZCCL: Accelerating Collective
//! Communication with Co-Designed Homomorphic Compression"* (SC 2024),
//! reproduced in Rust on top of:
//!
//! * [`fzlight`] — the ultra-fast error-bounded lossy compressor,
//! * [`hzdyn`] — the dynamic homomorphic compression pipeline,
//! * [`netsim`] — the virtual-time multi-node cluster substrate.
//!
//! One ring schedule (Sec. III-C: `N-1` reduce-scatter steps, `N-1`
//! allgather steps, gather-to-root, scatter-from-root) runs every
//! collective; the flavours of Table II are the per-step segment codec
//! swapped into it:
//!
//! | [`Variant`] | codec | per-round cost (Reduce_scatter) |
//! |---|---|---|
//! | `Mpi` | raw f32, no compression | `CPT` + full-size wire traffic |
//! | `CColl` | DOC over [`ompszp`] (C-Coll \[13\]) | `CPR + DPR + CPT` + compressed traffic |
//! | `Hzccl` | homomorphic over [`fzlight`] (hZCCL) | `HPR` only (+ `N·CPR` once, `1·DPR` at the end) |
//!
//! (CPR-P2P \[25\], the prior work C-Coll improves on — the DOC codec
//! re-encoding on every hop, `CPR + DPR + CPT` in *every* stage — exists as
//! a crate-private instantiation for the comparison tests.) The same
//! schedule also runs segmented and pipelined
//! ([`CollectiveOpts::with_segments`]), framed over the resilient transport
//! ([`Resilience`]), two-tier over a node ring and a leader ring
//! (`hierarchy.rs`), and — one attempt per epoch of a recovery loop — over a
//! shrinking membership (`membership.rs`). [`rd`] runs its hops and codecs as a
//! recursive-doubling Allreduce for the latency-bound small-message regime,
//! and [`error_bounds::bound`] states the analytic worst-case error of every
//! call.
//!
//! The supported entry point is the unified [`collectives`] API — one
//! options builder ([`CollectiveOpts`]), five verbs, every flavour:
//!
//! ```
//! use hzccl::collectives::{self, CollectiveOpts};
//! use netsim::SimBuilder;
//!
//! let opts = CollectiveOpts::hz(1e-4);
//! let report = SimBuilder::new(4)
//!     .run(move |comm| {
//!         let rank = comm.rank();
//!         let data: Vec<f32> = (0..256).map(|i| (i + rank) as f32 * 0.1).collect();
//!         collectives::allreduce(comm, &data, &opts).unwrap()
//!     })
//!     .expect_clean();
//! // every rank holds the same error-bounded sum
//! assert!(report.outcomes.iter().all(|o| o.value == report.outcomes[0].value));
//! ```

pub mod auto;
pub mod chunks;
pub(crate) mod codec;
pub mod collectives;
mod config;
pub mod error_bounds;
mod hierarchy;
mod labels;
mod membership;
mod pipeline;
pub mod rd;
mod resilient;
pub(crate) mod ring;
pub(crate) mod survivable;

pub use collectives::{CollectiveOpts, PartialResult, RecoveryPolicy};
pub use config::{calibrate_doc, calibrate_hz, paper_model, CollectiveConfig, Mode, Variant};
pub use pipeline::{decode_tag, TagInfo};
pub use resilient::Resilience;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{ComputeTiming, NetConfig, SimBuilder, ThroughputModel};

    fn modeled() -> ComputeTiming {
        // DOC-class compressor ~5-20 GB/s, homomorphic processing much faster
        ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 80.0, 20.0, 40.0))
    }

    fn smooth_field(rank: usize, n: usize) -> Vec<f32> {
        // compressible data, ratio ~ 5-10 at 1e-4: the regime where
        // compression-accelerated collectives win
        (0..n).map(|i| ((i as f32) * 0.004).sin() * (1.0 + rank as f32 * 0.01)).collect()
    }

    /// The paper's headline ordering: hZCCL < C-Coll < MPI in collective
    /// latency for large, compressible messages (Figs. 9-12).
    #[test]
    fn virtual_time_ordering_hzccl_ccoll_mpi() {
        let n = 1 << 18; // 1 MiB of f32 per rank
        let nranks = 8;
        let time_of = |opts: CollectiveOpts| {
            let cluster = SimBuilder::new(nranks).timing(modeled()).net(NetConfig::default());
            let stats = cluster
                .run(|comm| {
                    let data = smooth_field(comm.rank(), n);
                    collectives::allreduce(comm, &data, &opts).expect("allreduce");
                })
                .expect_clean()
                .stats;
            stats.makespan
        };
        let t_mpi = time_of(CollectiveOpts::mpi());
        let t_ccoll = time_of(CollectiveOpts::ccoll(1e-4));
        let t_hz = time_of(CollectiveOpts::hz(1e-4));
        assert!(
            t_hz < t_ccoll && t_ccoll < t_mpi,
            "expected hz < ccoll < mpi, got {t_hz:.6} {t_ccoll:.6} {t_mpi:.6}"
        );
    }

    /// hZCCL's breakdown shifts from DOC-dominated to MPI-dominated
    /// (Table VII's story).
    #[test]
    fn hzccl_reduces_doc_share_vs_ccoll() {
        let n = 1 << 16;
        let share = |opts: CollectiveOpts| {
            let cluster = SimBuilder::new(4).timing(modeled());
            let stats = cluster
                .run(|comm| {
                    let data = smooth_field(comm.rank(), n);
                    collectives::allreduce(comm, &data, &opts).expect("allreduce");
                })
                .expect_clean()
                .stats;
            let (doc, _, _) = stats.total.percentages();
            doc
        };
        let ccoll_doc = share(CollectiveOpts::ccoll(1e-4));
        let hz_doc = share(CollectiveOpts::hz(1e-4));
        assert!(
            hz_doc < ccoll_doc,
            "hZCCL DOC share {hz_doc:.1}% should undercut C-Coll {ccoll_doc:.1}%"
        );
    }

    /// Accuracy ordering: hZCCL's single quantization beats C-Coll's
    /// repeated DOC re-quantization.
    #[test]
    fn hzccl_accuracy_at_least_matches_ccoll() {
        let n = 4096;
        let nranks = 6;
        let eb = 1e-3;
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let exact: Vec<f32> = {
            let mut acc = vec![0f32; n];
            for r in 0..nranks {
                for (a, b) in acc.iter_mut().zip(smooth_field(r, n)) {
                    *a += b;
                }
            }
            acc
        };
        let max_err = |opts: CollectiveOpts| {
            let outcomes = cluster
                .run(|comm| {
                    let data = smooth_field(comm.rank(), n);
                    collectives::allreduce(comm, &data, &opts).expect("allreduce")
                })
                .expect_clean()
                .outcomes;
            outcomes[0]
                .value
                .iter()
                .zip(&exact)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0f64, f64::max)
        };
        let e_hz = max_err(CollectiveOpts::hz(eb));
        let e_ccoll = max_err(CollectiveOpts::ccoll(eb));
        assert!(e_hz <= e_ccoll, "hZCCL error {e_hz:.6} exceeds C-Coll's {e_ccoll:.6}");
        let fields: Vec<Vec<f32>> = (0..nranks).map(|r| smooth_field(r, n)).collect();
        let call = error_bounds::ring(tuner::Op::Allreduce, tuner::Flavor::Hzccl, nranks);
        assert!(e_hz <= error_bounds::tolerance(&call, eb, &fields));
    }
}
