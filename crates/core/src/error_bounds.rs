//! Worst-case error-propagation bounds for every collective workflow.
//!
//! The C-Coll paper \[13\] proves that error-bounded-lossy-accelerated
//! collectives keep point-wise error under analytic control; hZCCL inherits
//! and *tightens* those bounds because the homomorphic path never
//! re-quantizes (Sec. III-B.4: "our hZ-dynamic does not introduce additional
//! errors beyond those inherent to the original compression"). This module
//! states the bounds as code so tests (and users) can assert measured errors
//! against them.
//!
//! Derivations (absolute bound `eb`, `N` ranks, sum reduction):
//!
//! * **hZCCL Allreduce / Reduce_scatter** — each rank's contribution is
//!   quantized exactly once (`<= eb` each); homomorphic sums are exact on
//!   the quantization integers, and the final decompression adds no further
//!   quantization: total `<= N*eb`.
//! * **C-Coll Reduce_scatter** — the accumulated chunk is *recompressed*
//!   every round: after round `j` the error is `e_j <= e_{j-1} + 2*eb`
//!   (fresh quantization of the incoming term plus re-quantization of the
//!   accumulated value), giving `<= (2N-1)*eb` after `N-1` rounds.
//! * **C-Coll Allreduce** — one more compression/decompression pair in the
//!   Allgather stage: `<= 2N*eb`. Its recursive doubling stays inside it:
//!   `e_k <= 2*e_{k-1} + eb` per round, `<= 2P*eb` over a `P`-rank core.
//! * **CPR-P2P Allreduce** — additionally re-quantizes on every Allgather
//!   forwarding hop: `<= (3N-2)*eb` (the Reduce_scatter bound plus up to
//!   `N-1` further re-quantizations of the final value).
//!
//! All bounds are *worst case*; measured errors are typically far smaller
//! because quantization errors do not align.

/// Worst-case point-wise error of the hZCCL Allreduce/Reduce_scatter
/// (`N*eb`: one quantization per contributing rank, exact homomorphic sums).
pub fn hzccl_allreduce(nranks: usize, eb: f64) -> f64 {
    nranks as f64 * eb
}

/// Worst-case point-wise error of the hZCCL Reduce_scatter (same as the
/// Allreduce: the Allgather stage moves data without re-quantizing).
pub fn hzccl_reduce_scatter(nranks: usize, eb: f64) -> f64 {
    hzccl_allreduce(nranks, eb)
}

/// Worst-case point-wise error of the C-Coll (DOC) Reduce_scatter
/// (`(2N-1)*eb`: per-round recompression of the accumulated chunk).
pub fn ccoll_reduce_scatter(nranks: usize, eb: f64) -> f64 {
    (2 * nranks - 1) as f64 * eb
}

/// Worst-case point-wise error of the C-Coll Allreduce (`2N*eb`: the
/// Reduce_scatter bound plus the Allgather's compression round trip).
pub fn ccoll_allreduce(nranks: usize, eb: f64) -> f64 {
    2.0 * nranks as f64 * eb
}

/// Worst-case point-wise error of a Shrink-policy recoverable collective
/// that committed with `survivors` members, for the compressed flavours
/// (`(2m+2)*eb`). The survivable schedule's wire codec quantizes each of
/// the `m` survivor contributions once on encode and may re-quantize the
/// accumulated value once per fold under the ccoll flavour (`2m`), plus the
/// owner's own-group roundtrip through the codec and the final store
/// (`+2`). The hz flavour is tighter in practice (homomorphic sums are
/// exact), but shares this conservative envelope so both compressed
/// flavours gate identically in `tests/recovery.rs` and
/// `hzc chaos --crash-rate`.
pub fn shrink_allreduce(survivors: usize, eb: f64) -> f64 {
    (2 * survivors + 2) as f64 * eb
}

/// Worst-case point-wise error of the CPR-P2P Allreduce (`(3N-2)*eb`:
/// per-hop recompression in the Allgather as well).
#[cfg(test)]
pub(crate) fn p2p_allreduce(nranks: usize, eb: f64) -> f64 {
    (3 * nranks - 2) as f64 * eb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CollectiveConfig, Mode};
    use crate::ring::{self, Over, Verb};
    use datasets::App;
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};
    use tuner::Flavor;

    #[test]
    fn bound_ordering_matches_workflow_quality() {
        // hZCCL's bound is the tightest, CPR-P2P's the loosest
        for n in [2usize, 8, 64] {
            let eb = 1e-4;
            assert!(hzccl_allreduce(n, eb) < ccoll_allreduce(n, eb));
            // the bounds coincide at N=2 (a single forwarding hop)
            assert!(ccoll_allreduce(n, eb) <= p2p_allreduce(n, eb));
            if n > 2 {
                assert!(ccoll_allreduce(n, eb) < p2p_allreduce(n, eb));
            }
            assert!(ccoll_reduce_scatter(n, eb) < ccoll_allreduce(n, eb));
            // the survivable codec's extra roundtrip sits just above the
            // classic ccoll envelope at the same membership
            assert!(shrink_allreduce(n, eb) > ccoll_allreduce(n, eb));
        }
    }

    /// The empirical backbone: run every workflow on real data and assert the
    /// measured worst-case error respects the analytic bound (with the f32
    /// ULP slack of the final store).
    #[test]
    fn measured_errors_respect_the_bounds() {
        let n = 2048;
        let nranks = 6;
        let eb = 1e-3;
        let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let base = App::Hurricane.generate(n, 1);
        let fields: Vec<Vec<f32>> = (0..nranks)
            .map(|r| base.iter().map(|&v| v * (1.0 + 0.05 * r as f32)).collect())
            .collect();
        let exact: Vec<f64> = (0..n).map(|i| fields.iter().map(|f| f[i] as f64).sum()).collect();
        let ulp = exact.iter().fold(0f64, |m, v| m.max(v.abs())) * f32::EPSILON as f64;

        let cluster = SimBuilder::new(nranks).timing(timing);
        let max_err = |which: usize| -> f64 {
            let outcomes = cluster
                .run(|comm| {
                    let data = &fields[comm.rank()];
                    match which {
                        0 => ring::run(
                            comm,
                            Verb::Allreduce,
                            Flavor::Hzccl,
                            data,
                            &cfg,
                            1,
                            Over::Flat,
                        ),
                        1 => ring::run(
                            comm,
                            Verb::Allreduce,
                            Flavor::CColl,
                            data,
                            &cfg,
                            1,
                            Over::Flat,
                        ),
                        _ => ring::allreduce_p2p(comm, data, &cfg),
                    }
                    .expect("allreduce")
                })
                .expect_clean()
                .outcomes;
            outcomes[0]
                .value
                .iter()
                .zip(&exact)
                .map(|(a, b)| (*a as f64 - b).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_err(0) <= hzccl_allreduce(nranks, eb) + ulp);
        assert!(max_err(1) <= ccoll_allreduce(nranks, eb) + ulp);
        assert!(max_err(2) <= p2p_allreduce(nranks, eb) + ulp);
    }
}
