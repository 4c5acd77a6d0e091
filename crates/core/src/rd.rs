//! Recursive-doubling `Allreduce` — the small-message algorithm MPICH pairs
//! with the ring \[8\]. Extension beyond the paper's evaluation: the
//! homomorphic variant shows the co-design also composes with
//! latency-optimal algorithms (log2(N) rounds of full-vector exchange, each
//! reduced directly on compressed data).
//!
//! Non-power-of-two rank counts use the standard fold/unfold: the first
//! `2*r` ranks (where `r = N - 2^floor(log2 N)`) pre-combine pairwise so a
//! power-of-two core runs the doubling, then results are forwarded back.
//!
//! The schedule has no wire of its own: its exchanges are the ring's
//! `Hop`s and its arithmetic is the flavour's `SegCodec` over the whole
//! vector as one segment, so it runs in every flavour, plain or framed,
//! reached through `ring::run` as `Over::Doubling`.

use crate::codec::SegCodec;
use crate::collectives::Result;
use crate::config::CollectiveConfig;
use crate::pipeline::{TAG_FOLD, TAG_RD};
use crate::resilient::{Hop, Resilience};
use crate::ring::{self, Over, Ran, Verb};
use netsim::Comm;
use tuner::Flavor;

/// Plan of the fold/unfold for non-power-of-two counts.
///
/// With `rem = n - pow2`, ranks `0..2*rem` pair up (`even` sends to `odd`),
/// the odd ranks plus `2*rem..n` form the power-of-two core, and after the
/// doubling each odd rank sends the result back to its even partner.
struct RdPlan {
    pow2: usize,
    rem: usize,
}

impl RdPlan {
    fn new(n: usize) -> RdPlan {
        let pow2 = 1 << n.ilog2();
        RdPlan { pow2, rem: n - pow2 }
    }

    /// This rank's id within the power-of-two core, or `None` if it folds
    /// out after the pre-combine.
    fn core_id(&self, rank: usize) -> Option<usize> {
        if rank < 2 * self.rem {
            (rank % 2 == 1).then_some(rank / 2)
        } else {
            Some(rank - self.rem)
        }
    }

    /// Inverse of [`RdPlan::core_id`].
    fn core_to_rank(&self, core: usize) -> usize {
        if core < self.rem {
            2 * core + 1
        } else {
            core + self.rem
        }
    }
}

/// Fold, double, unfold: `Allreduce(sum)` of the whole vector as one
/// segment of `codec`, every exchange a [`Hop`] (plain, or framed under
/// `res`). Each rank prepares its own operand once, every doubling round
/// exchanges running sums and merges them, and each rank settles the result
/// once — for hZCCL `1·CPR + log2(N)·HPR + 1·DPR` per rank.
pub(crate) fn allreduce<C: SegCodec>(
    comm: &mut Comm,
    codec: &C,
    data: &[f32],
    res: Option<&Resilience>,
) -> Ran<Vec<f32>> {
    let (r, all, bytes) = (comm.rank(), 0..data.len(), data.len() * 4);
    let plan = RdPlan::new(comm.size());
    let operand = codec.operand(comm, data, &all)?;
    let mut acc = codec.seed(data, &all, operand);
    let mut spare = Vec::new();
    // fold: even partners send their vector to the odd ones and wait for
    // the result
    let (folded, partner) = (r < 2 * plan.rem, r ^ 1);
    let fold = Hop::new(partner, partner, res);
    if folded && r.is_multiple_of(2) {
        let wire = (codec.encode(comm, &acc, spare)?, C::WIRE);
        fold.send_to(comm, partner, TAG_FOLD, wire, bytes, |c| codec.degrade(c, &acc))?;
        let (wire, kind) = fold.recv_from(comm, partner, TAG_FOLD + 1, C::WIRE)?;
        let mut out = vec![0f32; data.len()];
        codec.install(comm, wire, kind, &mut out)?;
        return Ok(out);
    }
    if folded {
        let got = fold.recv_from(comm, partner, TAG_FOLD, C::WIRE)?;
        (acc, spare) = codec.merge(comm, got, acc)?;
    }
    let core = plan.core_id(r).expect("folded ranks returned above");

    // doubling over the power-of-two core: one paired exchange per round
    let mut mask = 1usize;
    while mask < plan.pow2 {
        let peer = plan.core_to_rank(core ^ mask);
        let (mut hop, tag) = (Hop::new(peer, peer, res), TAG_RD + mask as u64);
        let wire = (codec.encode(comm, &acc, spare)?, C::WIRE);
        hop.send(comm, tag, wire, bytes, true)?;
        let got = hop.recv(comm, tag, C::WIRE, |c| codec.degrade(c, &acc))?;
        (acc, spare) = codec.merge(comm, got, acc)?;
        mask <<= 1;
    }

    // unfold: odd partners return the result to the even ones; the output
    // is allocated only once no message buffer is held
    if folded {
        let wire = (codec.encode(comm, &acc, spare)?, C::WIRE);
        fold.send_to(comm, partner, TAG_FOLD + 1, wire, bytes, |c| codec.degrade(c, &acc))?;
    } else {
        drop(spare);
    }
    let mut out = vec![0f32; data.len()];
    if let Some(wire) = codec.handoff(acc, &mut out) {
        codec.install(comm, wire, C::WIRE, &mut out)?;
    }
    Ok(out)
}

/// Recursive-doubling hZCCL `Allreduce(sum)`: the plan `hzccl::auto` runs
/// for an hZCCL rd pick, callable directly.
pub fn allreduce_rd_hz(comm: &mut Comm, data: &[f32], cfg: &CollectiveConfig) -> Result<Vec<f32>> {
    ring::run(comm, Verb::Allreduce, Flavor::Hzccl, data, cfg, 1, Over::Doubling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::error_bounds;
    use netsim::{ComputeTiming, FaultPlan, SimBuilder, ThroughputModel, TraceConfig};

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
    }

    fn field(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.02).sin() * (rank + 1) as f32).collect()
    }

    fn direct_sum(nranks: usize, n: usize) -> Vec<f32> {
        let mut acc = vec![0f32; n];
        for r in 0..nranks {
            for (a, b) in acc.iter_mut().zip(field(r, n)) {
                *a += b;
            }
        }
        acc
    }

    /// `Allreduce(sum)` over `over` in `flavor`'s workflow.
    fn allreduce_over(
        comm: &mut Comm,
        flavor: Flavor,
        cfg: &CollectiveConfig,
        n: usize,
        over: Over<'_>,
    ) -> Vec<f32> {
        let data = field(comm.rank(), n);
        ring::run(comm, Verb::Allreduce, flavor, &data, cfg, 1, over).expect("allreduce")
    }

    #[test]
    fn plan_covers_power_of_two_and_odd_counts() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 16, 31] {
            let plan = RdPlan::new(n);
            assert_eq!(plan.pow2 + plan.rem, n);
            // every core id maps back to a unique rank
            let mut seen = vec![false; n];
            for c in 0..plan.pow2 {
                let r = plan.core_to_rank(c);
                assert!(!seen[r], "n={n}: rank {r} mapped twice");
                seen[r] = true;
                assert_eq!(plan.core_id(r), Some(c), "n={n} core {c}");
            }
        }
    }

    /// Every flavour within its recursive-doubling bound (`error_bounds`:
    /// C-Coll re-quantizes its running sum once per round).
    #[test]
    fn rd_is_correct_in_every_flavour_for_all_counts() {
        let eb = 1e-4;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        for nranks in [1usize, 2, 3, 4, 5, 7, 8, 11, 13, 16] {
            let (n, expect) = (300, direct_sum(nranks, 300));
            let fields: Vec<Vec<f32>> = (0..nranks).map(|r| field(r, n)).collect();
            for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
                let mut call = error_bounds::ring(tuner::Op::Allreduce, flavor, nranks);
                call.plan.algo = tuner::Algo::Rd;
                let tol = error_bounds::tolerance(&call, eb, &fields);
                let cluster = SimBuilder::new(nranks).timing(modeled());
                let outcomes = cluster
                    .run(|comm| allreduce_over(comm, flavor, &cfg, n, Over::Doubling))
                    .expect_clean()
                    .outcomes;
                for (r, o) in outcomes.iter().enumerate() {
                    for (i, (a, b)) in o.value.iter().zip(&expect).enumerate() {
                        let what = format!("{flavor:?} nranks={nranks} rank={r} at {i}");
                        assert!(((a - b).abs() as f64) <= tol, "{what}: {a} vs {b}");
                    }
                }
            }
        }
    }

    /// Both schedules sum the same quantization integers (in different
    /// orders, but integer addition is associative), so hZCCL's recursive
    /// doubling reconstructs the flat S = 1 ring's result bit for bit, on
    /// every rank, in either thread mode — and framed too, while every hop
    /// delivers its stream within `max_retries` (no degraded segment).
    #[test]
    fn rd_hz_is_the_flat_ring_bit_for_bit() {
        let n = 600;
        let mut retransmits = 0;
        for nranks in [1usize, 2, 3, 5, 8] {
            for mode in [Mode::SingleThread, Mode::MultiThread(4)] {
                let cfg = CollectiveConfig::new(1e-4, mode);
                let cluster = SimBuilder::new(nranks).timing(modeled());
                let ring = cluster
                    .run(|comm| allreduce_over(comm, Flavor::Hzccl, &cfg, n, Over::Flat))
                    .values();
                for framed in [false, true] {
                    let what = format!("r{nranks} {mode:?} framed={framed}");
                    let res = Resilience::default();
                    let cfg = CollectiveConfig { res: framed.then_some(res), ..cfg };
                    let mut sim =
                        SimBuilder::new(nranks).timing(modeled()).trace(TraceConfig::default());
                    if framed {
                        sim = sim.faults(FaultPlan::new(11).with_drop(0.1).with_corrupt(0.05));
                    }
                    let report = sim
                        .run(|comm| allreduce_over(comm, Flavor::Hzccl, &cfg, n, Over::Doubling));
                    let tally = report.tally();
                    assert_eq!(tally.degraded_segments, 0, "{what}");
                    retransmits += tally.retransmits;
                    assert_eq!(report.values(), ring, "{what}");
                }
            }
        }
        assert!(retransmits > 0, "the framed cases never lost a frame");
    }

    #[test]
    fn rd_beats_ring_for_tiny_messages_in_virtual_time() {
        // latency-bound regime: log2(N) rounds beat 2(N-1) rounds
        let n = 64; // 256 B per rank
        let cfg = CollectiveConfig::new(1e-4, Mode::SingleThread);
        let makespan = |over: fn() -> Over<'static>| {
            let cluster = SimBuilder::new(16).timing(modeled());
            let run = cluster.run(|comm| allreduce_over(comm, Flavor::Hzccl, &cfg, n, over()));
            run.expect_clean().stats.makespan
        };
        let (t_ring, t_rd) = (makespan(|| Over::Flat), makespan(|| Over::Doubling));
        assert!(t_rd < t_ring, "rd {t_rd} vs ring {t_ring}");
    }
}
