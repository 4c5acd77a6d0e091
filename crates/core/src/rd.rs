//! Recursive-doubling `Allreduce` — the small-message algorithm MPICH pairs
//! with the ring \[8\]. Extension beyond the paper's evaluation: the
//! homomorphic variant shows the co-design also composes with
//! latency-optimal algorithms (log2(N) rounds of full-vector exchange, each
//! reduced directly on compressed data).
//!
//! Non-power-of-two rank counts use the standard fold/unfold: the first
//! `2*r` ranks (where `r = N - 2^floor(log2 N)`) pre-combine pairwise so a
//! power-of-two core runs the doubling, then results are forwarded back.

use crate::config::CollectiveConfig;
use crate::pipeline::{TAG_FOLD, TAG_RD};
use fzlight::{compress_resolved, decompress, CompressedStream, Result};
use hzdyn::{doc::reduce_in_place, homomorphic_sum, ReduceOp};
use netsim::{Comm, OpKind};

/// Largest power of two `<= n`.
fn pow2_floor(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

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
        let pow2 = pow2_floor(n);
        RdPlan { pow2, rem: n - pow2 }
    }

    /// This rank's id within the power-of-two core, or `None` if it folds
    /// out after the pre-combine.
    fn core_id(&self, rank: usize) -> Option<usize> {
        if rank < 2 * self.rem {
            if rank % 2 == 1 {
                Some(rank / 2)
            } else {
                None
            }
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

/// Fold, double, unfold, over an accumulator `A` and the three things a
/// flavour does with it: `pack` it into wire bytes, `merge` received wire
/// bytes into it (or, with no accumulator, adopt them as one), and `finish`
/// it into values. Every message is one whole accumulator standing for
/// `bytes` raw bytes.
fn schedule<A>(
    comm: &mut Comm,
    mut acc: A,
    bytes: usize,
    pack: impl Fn(&mut Comm, &A) -> Vec<u8>,
    merge: impl Fn(&mut Comm, Option<A>, Vec<u8>) -> Result<A>,
    finish: impl Fn(&mut Comm, A) -> Result<Vec<f32>>,
) -> Result<Vec<f32>> {
    let r = comm.rank();
    if comm.size() == 1 {
        return finish(comm, acc);
    }
    let plan = RdPlan::new(comm.size());

    // fold: even partners send their vector to the odd ones and wait for
    // the result
    if r < 2 * plan.rem {
        if r.is_multiple_of(2) {
            let payload = pack(comm, &acc);
            comm.send_compressed(r + 1, TAG_FOLD, payload, bytes);
            let got = comm.recv(r + 1, TAG_FOLD + 1);
            let result = merge(comm, None, got)?;
            return finish(comm, result);
        }
        let got = comm.recv(r - 1, TAG_FOLD);
        acc = merge(comm, Some(acc), got)?;
    }
    let core = plan.core_id(r).expect("folded ranks returned above");

    // doubling over the power-of-two core
    let mut mask = 1usize;
    while mask < plan.pow2 {
        let peer = plan.core_to_rank(core ^ mask);
        let payload = pack(comm, &acc);
        let got = comm.sendrecv_compressed(peer, TAG_RD + mask as u64, payload, bytes, peer);
        acc = merge(comm, Some(acc), got)?;
        mask <<= 1;
    }

    // unfold: odd partners return the result to the even ones
    if r < 2 * plan.rem {
        let payload = pack(comm, &acc);
        comm.send_compressed(r - 1, TAG_FOLD + 1, payload, bytes);
    }
    finish(comm, acc)
}

/// Recursive-doubling `Allreduce(sum)` on raw values (MPI baseline).
pub fn allreduce_rd(comm: &mut Comm, data: &[f32], cpt_threads: usize) -> Vec<f32> {
    let pack = |comm: &mut Comm, acc: &Vec<f32>| {
        comm.compute_labeled(OpKind::Other, acc.len() * 4, "rd:pack", || {
            crate::chunks::f32_to_bytes(acc)
        })
    };
    let merge = |comm: &mut Comm, acc: Option<Vec<f32>>, got: Vec<u8>| {
        let mut vals = vec![0f32; data.len()];
        comm.compute_labeled(OpKind::Other, got.len(), "rd:unpack", || {
            crate::chunks::read_f32s(&got, &mut vals)
        })?;
        let Some(mut acc) = acc else { return Ok(vals) };
        comm.compute_labeled(OpKind::Cpt, acc.len() * 4, "rd:reduce", || {
            reduce_in_place(&mut acc, &vals, ReduceOp::Sum, cpt_threads)
        });
        Ok(acc)
    };
    schedule(comm, data.to_vec(), data.len() * 4, pack, merge, |_, acc| Ok(acc))
        .expect("every rank reduces a vector of the same length")
}

/// Recursive-doubling `Allreduce(sum)` with homomorphic reduction: each rank
/// compresses once, every doubling round exchanges compressed vectors and
/// reduces them with `hZ-dynamic`, and each rank decompresses once at the
/// end — `1·CPR + log2(N)·HPR + 1·DPR` per rank.
pub fn allreduce_rd_hz(comm: &mut Comm, data: &[f32], cfg: &CollectiveConfig) -> Result<Vec<f32>> {
    let bytes = data.len() * 4;
    let acc = comm.compute_labeled(OpKind::Cpr, bytes, "rd:compress", || {
        compress_resolved(data, cfg.eb, cfg.block_len, cfg.mode.threads())
    })?;
    let pack = |_: &mut Comm, acc: &CompressedStream| acc.as_bytes().to_vec();
    let merge = |comm: &mut Comm, acc: Option<CompressedStream>, got: Vec<u8>| {
        let other = CompressedStream::from_bytes(got)?;
        let Some(acc) = acc else { return Ok(other) };
        comm.compute_labeled(OpKind::Hpr, bytes, "rd:homomorphic-sum", || {
            homomorphic_sum(&acc, &other)
        })
    };
    schedule(comm, acc, bytes, pack, merge, |comm, acc| {
        comm.compute_labeled(OpKind::Dpr, bytes, "rd:decompress", || decompress(&acc))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::ring::{Over, Verb};
    use netsim::{ComputeTiming, SimBuilder, ThroughputModel};
    use tuner::Flavor;

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

    #[test]
    fn rd_matches_direct_sum_for_all_counts() {
        for nranks in [1usize, 2, 3, 4, 5, 7, 8, 11, 16] {
            let n = 300;
            let cluster = SimBuilder::new(nranks).timing(modeled());
            let outcomes = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    allreduce_rd(comm, &data, 1)
                })
                .expect_clean()
                .outcomes;
            let expect = direct_sum(nranks, n);
            for (r, o) in outcomes.iter().enumerate() {
                for (i, (a, b)) in o.value.iter().zip(&expect).enumerate() {
                    assert!((a - b).abs() <= 1e-3, "nranks={nranks} rank={r} at {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rd_hz_is_error_bounded_for_all_counts() {
        let eb = 1e-4;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        for nranks in [1usize, 2, 3, 5, 8, 13] {
            let n = 400;
            let cluster = SimBuilder::new(nranks).timing(modeled());
            let outcomes = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    allreduce_rd_hz(comm, &data, &cfg).expect("rd hz")
                })
                .expect_clean()
                .outcomes;
            let expect = direct_sum(nranks, n);
            let tol = nranks as f64 * eb + 1e-6;
            for o in &outcomes {
                for (i, (a, b)) in o.value.iter().zip(&expect).enumerate() {
                    assert!(((a - b).abs() as f64) <= tol, "nranks={nranks} at {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn rd_hz_agrees_with_ring_hz_on_integers() {
        let eb = 1e-4;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let nranks = 6;
        let n = 600;
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let ring = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                crate::ring::run(comm, Verb::Allreduce, Flavor::Hzccl, &data, &cfg, 1, Over::Flat)
                    .expect("ring")
            })
            .expect_clean()
            .outcomes;
        let rd = cluster
            .run(|comm| {
                let data = field(comm.rank(), n);
                allreduce_rd_hz(comm, &data, &cfg).expect("rd")
            })
            .expect_clean()
            .outcomes;
        // both sum the same quantization integers (in different orders, but
        // integer addition is associative) => identical reconstructions
        assert_eq!(ring[0].value, rd[0].value);
    }

    #[test]
    fn rd_beats_ring_for_tiny_messages_in_virtual_time() {
        // latency-bound regime: log2(N) rounds beat 2(N-1) rounds
        let nranks = 16;
        let n = 64; // 256 B per rank
        let cfg = CollectiveConfig::new(1e-4, Mode::SingleThread);
        let cluster = SimBuilder::new(nranks).timing(modeled());
        let t_ring = {
            let s = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    crate::ring::run(
                        comm,
                        Verb::Allreduce,
                        Flavor::Hzccl,
                        &data,
                        &cfg,
                        1,
                        Over::Flat,
                    )
                    .expect("ring");
                })
                .expect_clean()
                .stats;
            s.makespan
        };
        let t_rd = {
            let s = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    allreduce_rd_hz(comm, &data, &cfg).expect("rd");
                })
                .expect_clean()
                .stats;
            s.makespan
        };
        assert!(t_rd < t_ring, "rd {t_rd} vs ring {t_ring}");
    }
}
