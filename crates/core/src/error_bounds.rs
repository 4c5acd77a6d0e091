//! The error bound of a collective call, stated once: [`bound`].
//!
//! The C-Coll paper \[13\] proves that error-bounded-lossy-accelerated
//! collectives keep point-wise error under analytic control; hZCCL tightens
//! that because the homomorphic path never re-quantizes (Sec. III-B.4: "our
//! hZ-dynamic does not introduce additional errors beyond those inherent to
//! the original compression" — sums of quantization integers are exact, the
//! composition rule HoSZp states). [`bound`] turns both into one number per
//! call. Given a [`Call`] (the op, the plan that ran, its recovery policy, the
//! segments its framed transport degraded, whose inputs the value
//! aggregates), the absolute bound `eb` and the inputs' peak partial-sum
//! magnitude `P = max_i Σ_r |x_r[i]|` over the contributors, every element
//! of the result obeys
//!
//! `|result[i] − oracle[i]| <= quantization + representation`,
//!
//! the oracle being the exact (`f64`) sum of the contributors' inputs —
//! times `n0/m` under [`RecoveryPolicy::ShrinkRescale`], and the root's
//! vector for a Bcast. Every check of a collective result in the workspace
//! reads it; none writes a multiple of `eb` by hand.
//!
//! ## The quantization term: `k·eb`
//!
//! One quantization moves a value by at most `eb` (`q = round(v / 2eb)`,
//! `v' = 2eb·q`); `k` counts the quantizations an element's value can pass
//! through. `N` is the contributor count (one for a Bcast), `D` the degraded
//! segments:
//!
//! | flavour | schedule | `k` | why |
//! |---|---|---|---|
//! | mpi | any | 0 | raw `f32`; a degraded hop resends the same bytes |
//! | hz | ring (any `S`), rd, two-tier, Shrink | `N + D` | each contribution is quantized once and the integer sums are exact (two-tier quantizes each node's `f32` sum once, `nodes <= N`); a degraded segment travels raw and is re-quantized once where it is summed again |
//! | ccoll | Bcast | 1 | the root compresses once; the ring forwards the bytes |
//! | ccoll | ring Reduce_scatter | `2N − 1` | C-Coll's count: the seed's first compression, then two quantizations per round (the incoming operand afresh, the re-quantized sum) |
//! | ccoll | ring Allreduce and Reduce, two-tier | `2N` | plus the Allgather's (or the gather's) compression; two-tier runs it over `nodes <= N` leaders |
//! | ccoll | rd | `2P₂` | `P₂ = 2^⌊log2 N⌋`: a round merges two running sums, one re-quantized, `e_k <= 2e_{k−1} + eb` from `e_0 <= eb` (the fold), plus the unfold's |
//! | ccoll | Shrink | `2m + 2` | the Allreduce term over the `m` survivors, plus the owner's round trip of its own group through the codec (every survivor decodes the same bytes) |
//!
//! A degraded C-Coll segment carries the raw accumulator or the decoded
//! stream, so it adds no quantization. The segment count, the thread mode
//! and the block length move no term. This DOC codec folds the own operand
//! raw and so re-quantizes once per ring round, not twice: its ring results
//! sit at about half of C-Coll's term, which is kept as the published bound
//! of that workflow (and the values `benchmark/` reads through the legacy
//! functions below); recursive doubling's term is this codec's own.
//!
//! ## The representation term: `R·(ε/2)·(P + k·eb)`
//!
//! Every `f32` operation on an element's path — a sum, a decoded value, the
//! rescale — rounds by at most half an ulp, `ε/2` of a value no larger than
//! `P + k·eb`; `R` counts them:
//!
//! | flavour | `R` | why |
//! |---|---|---|
//! | mpi | `N − 1` | the adds, in any association (ring, rd, two-tier) |
//! | hz | `2 + D`, two-tier `2 + D + N` | the final decode, one more for the quantizer's and the decoder's `f64` arithmetic (`2^-28` of one), one decode per degraded segment; two-tier adds each node's `ppn − 1` `f32` sums |
//! | ccoll | `2N` | a decode and an add per fold (`2(N − 1)` on the ring, at most `2·log2 N + 3` for rd, fewer on two-tier and Shrink), the final decode, one more for the quantizer; a degraded hop's decode replaces its receiver's |
//!
//! ShrinkRescale adds two: the scale `n0/m` and the product.
//!
//! ## Policies, Auto and composed calls
//!
//! * Framed below `max_retries` is the plain call (`D = 0`); beyond it, `D`
//!   is the run's `netsim::Tally::degraded_segments`. A survivable hop
//!   resends instead of degrading, so Shrink runs have `D = 0`.
//! * ShrinkRescale multiplies the Shrink value — and so both terms — by
//!   `n0/m`.
//! * Auto is the plan it agreed on (`auto::AutoOutcome::plan`).
//! * A pipeline of calls adds their bounds, each later call's peak being the
//!   earlier result's: Reduce, then Bcast of its result, is within
//!   `bound(reduce) + bound(bcast)` with the Bcast's peak `P + bound(reduce)`.
//!
//! The bound holds while every quantization integer fits the codecs' `i32`
//! range (ROADMAP item 1): past that frontier a call fails instead of
//! returning a value.

use crate::collectives::RecoveryPolicy;
use tuner::{Algo, Flavor, Mode, Op, Plan};

/// What a collective call ran and how its transport and membership fared:
/// the inputs of [`bound`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// The collective.
    pub op: Op,
    /// What ran: a static flavour's schedule as a plan (ring or rd, its
    /// segment count, `hierarchical` when a two-level topology was
    /// attached), or the plan `Variant::Auto` agreed on.
    pub plan: Plan,
    /// The recovery policy; `FailFast` for plain and framed calls.
    pub policy: RecoveryPolicy,
    /// Segments the framed transport sent raw after `max_retries`
    /// (`netsim::Tally::degraded_segments`; 0 for an unframed call).
    pub degraded: u64,
    /// Ranks the call was launched on.
    pub launched: usize,
    /// Ranks whose inputs the value aggregates
    /// (`PartialResult::contributors`): `launched` unless a shrinking policy
    /// repaired the ring.
    pub contributors: usize,
}

/// The worst-case point-wise error of `call`'s result against its oracle
/// (the module docs) at absolute error bound `eb`, when no partial sum of the
/// contributors' inputs exceeds `peak` in magnitude: `(quantization,
/// representation)` — check against their sum.
pub fn bound(call: &Call, eb: f64, peak: f64) -> (f64, f64) {
    let Call { op, plan, policy, degraded, launched, contributors } = *call;
    // a broadcast carries the root's vector alone
    let n = if op == Op::Bcast { 1 } else { contributors };
    let k = match plan.flavor {
        Flavor::Mpi => 0.0,
        Flavor::Hzccl => n as f64 + degraded as f64,
        Flavor::CColl if op == Op::Bcast => 1.0,
        Flavor::CColl if policy != RecoveryPolicy::FailFast => 2.0 * n as f64 + 2.0,
        Flavor::CColl if plan.algo == Algo::Rd => 2.0 * (1usize << n.max(1).ilog2()) as f64,
        Flavor::CColl if op == Op::ReduceScatter => 2.0 * n as f64 - 1.0,
        Flavor::CColl => 2.0 * n as f64,
    };
    let roundings = match plan.flavor {
        Flavor::Mpi => n as f64 - 1.0,
        Flavor::Hzccl if plan.hierarchical => 2.0 + degraded as f64 + n as f64,
        Flavor::Hzccl => 2.0 + degraded as f64,
        Flavor::CColl => 2.0 * n as f64,
    };
    let rescale = policy == RecoveryPolicy::ShrinkRescale;
    let (scale, roundings) = match rescale {
        true => (launched as f64 / n as f64, roundings + 2.0),
        false => (1.0, roundings),
    };
    let quantization = k * eb;
    let half_ulp = f64::from(f32::EPSILON) / 2.0;
    let representation = roundings * half_ulp * (peak + quantization);
    (scale * quantization, scale * representation)
}

/// A plain flat-ring call of `flavor` over `n` ranks.
pub(crate) fn ring(op: Op, flavor: Flavor, n: usize) -> Call {
    let plan = Plan::serial(flavor, Algo::Ring, Mode::SingleThread, fzlight::DEFAULT_BLOCK_LEN);
    let policy = RecoveryPolicy::FailFast;
    Call { op, plan, policy, degraded: 0, launched: n, contributors: n }
}

// The legacy entry points below are [`bound`]'s quantization term of one
// cell each, kept because `benchmark/src/sim.rs` links them.

/// [`bound`]'s quantization term of a plain hZCCL ring Allreduce (`N·eb`).
pub fn hzccl_allreduce(nranks: usize, eb: f64) -> f64 {
    bound(&ring(Op::Allreduce, Flavor::Hzccl, nranks), eb, 0.0).0
}

/// [`bound`]'s quantization term of a plain hZCCL ring Reduce_scatter
/// (`N·eb`).
pub fn hzccl_reduce_scatter(nranks: usize, eb: f64) -> f64 {
    bound(&ring(Op::ReduceScatter, Flavor::Hzccl, nranks), eb, 0.0).0
}

/// [`bound`]'s quantization term of a plain C-Coll ring Reduce_scatter
/// (`(2N−1)·eb`).
pub fn ccoll_reduce_scatter(nranks: usize, eb: f64) -> f64 {
    bound(&ring(Op::ReduceScatter, Flavor::CColl, nranks), eb, 0.0).0
}

/// [`bound`]'s quantization term of a plain C-Coll ring Allreduce
/// (`2N·eb`).
pub fn ccoll_allreduce(nranks: usize, eb: f64) -> f64 {
    bound(&ring(Op::Allreduce, Flavor::CColl, nranks), eb, 0.0).0
}

/// [`bound`]'s quantization term of a C-Coll Shrink Allreduce that committed
/// with `survivors` members (`(2m+2)·eb`).
pub fn shrink_allreduce(survivors: usize, eb: f64) -> f64 {
    let policy = RecoveryPolicy::Shrink;
    bound(&Call { policy, ..ring(Op::Allreduce, Flavor::CColl, survivors) }, eb, 0.0).0
}

/// The peak partial-sum magnitude of `fields`, the contributors' inputs.
#[cfg(test)]
pub(crate) fn peak(fields: &[Vec<f32>]) -> f64 {
    let at = |i: usize| fields.iter().map(|f| f64::from(f[i]).abs()).sum::<f64>();
    (0..fields[0].len()).map(at).fold(0.0, f64::max)
}

/// [`bound`] of `call` over `fields`, summed: what this crate's tests check
/// a result against.
#[cfg(test)]
pub(crate) fn tolerance(call: &Call, eb: f64, fields: &[Vec<f32>]) -> f64 {
    let (quantization, representation) = bound(call, eb, peak(fields));
    quantization + representation
}

/// Worst-case point-wise error of the CPR-P2P Allreduce (`(3N-2)*eb`:
/// per-hop recompression in the Allgather as well) — a workflow only the
/// tests run, so outside [`bound`].
#[cfg(test)]
pub(crate) fn p2p_allreduce(nranks: usize, eb: f64) -> f64 {
    (3 * nranks - 2) as f64 * eb
}

/// The CPR-P2P Allreduce over `fields`: [`p2p_allreduce`] plus its
/// representation term, C-Coll's `2N` roundings and a decode per
/// Allgather hop (`N − 1`).
#[cfg(test)]
pub(crate) fn p2p_tolerance(eb: f64, fields: &[Vec<f32>]) -> f64 {
    let n = fields.len();
    let quantization = p2p_allreduce(n, eb);
    quantization
        + (3 * n - 1) as f64 * f64::from(f32::EPSILON) / 2.0 * (peak(fields) + quantization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{self, CollectiveOpts};
    use crate::config::{CollectiveConfig, Variant};
    use crate::ring::{self, Over, Verb};
    use datasets::App;
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
    }

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

    /// The five legacy entry points return, bit for bit, the formulas they
    /// had before they became cells of [`bound`].
    #[test]
    fn legacy_functions_keep_their_values() {
        for eb in [1e-2, 1e-4, 3e-5, 1e-6] {
            for n in 1..=4096usize {
                let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
                assert!(same(hzccl_allreduce(n, eb), n as f64 * eb));
                assert!(same(hzccl_reduce_scatter(n, eb), n as f64 * eb));
                assert!(same(ccoll_reduce_scatter(n, eb), (2 * n - 1) as f64 * eb));
                assert!(same(ccoll_allreduce(n, eb), 2.0 * n as f64 * eb));
                assert!(same(shrink_allreduce(n, eb), (2 * n + 2) as f64 * eb));
            }
        }
    }

    /// The empirical backbone: every workflow on real data within its
    /// bound, CPR-P2P's stated beside [`bound`].
    #[test]
    fn measured_errors_respect_the_bounds() {
        let n = 2048;
        let nranks = 6;
        let eb = 1e-3;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let base = App::Hurricane.generate(n, 1);
        let fields: Vec<Vec<f32>> = (0..nranks)
            .map(|r| base.iter().map(|&v| v * (1.0 + 0.05 * r as f32)).collect())
            .collect();
        let exact: Vec<f64> = (0..n).map(|i| fields.iter().map(|f| f[i] as f64).sum()).collect();

        let cluster = SimBuilder::new(nranks).timing(modeled());
        let max_err = |flavor: Option<Flavor>| -> f64 {
            let outcomes = cluster
                .run(|comm| {
                    let data = &fields[comm.rank()];
                    match flavor {
                        Some(f) => ring::run(comm, Verb::Allreduce, f, data, &cfg, 1, Over::Flat),
                        None => ring::allreduce_p2p(comm, data, &cfg),
                    }
                    .expect("allreduce")
                })
                .expect_clean()
                .outcomes;
            let errs = outcomes[0].value.iter().zip(&exact).map(|(a, b)| (*a as f64 - b).abs());
            errs.fold(0.0f64, f64::max)
        };
        for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
            let tol = tolerance(&ring(Op::Allreduce, flavor, nranks), eb, &fields);
            assert!(max_err(Some(flavor)) <= tol, "{flavor:?}");
        }
        assert!(max_err(None) <= p2p_tolerance(eb, &fields));
    }

    /// Reduce, then Bcast of its result: within the sum of the two calls'
    /// bounds, the Bcast's peak being the Reduce result's.
    #[test]
    fn composed_calls_add_their_bounds() {
        let (n, nranks, eb) = (1500, 5, 1e-4);
        let field = |r: usize| -> Vec<f32> {
            (0..n).map(|i| ((i as f32) * 0.021).sin() * (1.0 + r as f32) * 3.0).collect()
        };
        let fields: Vec<Vec<f32>> = (0..nranks).map(field).collect();
        let exact: Vec<f64> = (0..n).map(|i| fields.iter().map(|f| f[i] as f64).sum()).collect();
        for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
            let opts = CollectiveOpts::for_variant(variant, eb);
            let outcomes = SimBuilder::new(nranks)
                .timing(modeled())
                .run(|comm| {
                    let sum =
                        collectives::reduce(comm, &field(comm.rank()), &opts).expect("reduce");
                    let sum = if comm.rank() == 0 { sum } else { vec![0.0; n] };
                    collectives::bcast(comm, &sum, &opts).expect("bcast")
                })
                .expect_clean()
                .outcomes;
            let reduce = tolerance(&ring(Op::Reduce, variant.flavor(), nranks), eb, &fields);
            // the Bcast's input is the Reduce's result
            let peak = exact.iter().fold(0f64, |m, v| m.max(v.abs())) + reduce;
            let (q, r) = bound(&ring(Op::Bcast, variant.flavor(), nranks), eb, peak);
            let tol = reduce + q + r;
            for o in &outcomes {
                for (a, b) in o.value.iter().zip(&exact) {
                    assert!((*a as f64 - b).abs() <= tol, "{variant:?}: {a} vs {b} (tol {tol:e})");
                }
            }
        }
    }
}
