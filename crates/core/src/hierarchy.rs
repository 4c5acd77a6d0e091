//! Topology-aware hierarchical Allreduce (two-tier schedules).
//!
//! On a two-tier fabric ([`netsim::Topology`]) the flat ring wastes the
//! fast node-local links: all `N-1` ring steps are paced by the slowest
//! (inter-node, possibly oversubscribed) edge on the cycle. The
//! hierarchical schedule splits the collective along the tier boundary:
//!
//! 1. **Intra-node Reduce_scatter** (tag base `h-rs`): a raw ring over the
//!    node's `ppn` ranks. The node-local wire is fast enough that
//!    compression would only add CPR/DPR cost, so this tier moves raw f32
//!    bytes; after `ppn-1` steps local rank `li` owns node chunk `li`,
//!    reduced across the node. Node-local transport is shared-memory: the
//!    f32↔bytes views are pointer reinterpretations, so (unlike the
//!    inter-node MPI phase, which models NIC staging copies like the flat
//!    raw ring) they carry no modeled compute cost — the only
//!    node-local charges are the 120 Gb/s wire serialization and the raw
//!    summation itself.
//! 2. **Inter-node ring Allreduce** (tag base `h-ring`): the `nodes` ranks
//!    sharing a local index form a ring across nodes and allreduce their
//!    `E/ppn` slice. Only this tier compresses — hZCCL's homomorphic
//!    streams, C-Coll's DOC triple, or raw for the MPI baseline — because
//!    only this tier pays the slow, oversubscribed links the compression
//!    is meant to shrink.
//! 3. **Intra-node Allgather** (tag base `h-ag`): a raw ring redistributes
//!    the fully reduced slices inside each node.
//!
//! Each phase owns a disjoint tag base (`TAG_HRS`, `TAG_HRING`, `TAG_HAG` in
//! the table of [`crate::pipeline`], decoded by
//! [`crate::pipeline::decode_tag`]), so intra- and inter-node traffic can
//! never be confused on the wire — and the flight recorder's per-tier
//! critical-path attribution ([`netsim::CriticalPath::by_tier`]) can reconcile every
//! message against the tier its phase was scheduled on.
//!
//! The wire volume per rank drops from `2(N-1)/N · E` flat-ring bytes on
//! the slow tier to `2(nodes-1)/nodes · E/ppn` (compressed), at the cost
//! of `2(ppn-1)/ppn · E` raw bytes on the fast tier — the trade
//! `costmodel::predict` prices when given a topology and the tuner's
//! `hierarchical` plan dimension exploits. Only Allreduce has a
//! hierarchical schedule; the other verbs fall back to their flat rings
//! when a topology is attached.
//!
//! Results are error-bounded exactly like the flat flavours (one
//! quantization per compressed hop), but not bit-identical to the flat
//! schedule: the reduction tree associates sums differently.

use crate::codec::{DocCodec, SegCodec};
use crate::resilient::Resilience;
use crate::ring::{self, Layout, Ring, Stop};
use netsim::{Comm, Topology};

/// Hierarchical `Allreduce(sum)`: intra-node reduce-scatter, inter-node
/// ring allreduce (in `codec`'s workflow), intra-node allgather — the ring
/// schedule of [`crate::ring`] over two different rings, both framed under
/// `res`. `topo.nranks()` must equal the communicator size (the callers in
/// [`crate::collectives`] and [`crate::auto`] enforce it, and with it
/// `E/ppn >= nodes`).
pub(crate) fn allreduce<C: SegCodec>(
    comm: &mut Comm,
    data: &[f32],
    topo: &Topology,
    threads: usize,
    codec: &C,
    res: Option<&Resilience>,
) -> Result<Vec<f32>, Stop> {
    debug_assert_eq!(topo.nranks(), comm.size(), "topology and communicator disagree");
    let mut node_ring = Ring::node(topo, comm.rank(), res);
    let mut leader_ring = Ring::leaders(topo, comm.rank(), res);

    let shm = DocCodec::shared_memory(threads);
    let lay = Layout::new(data.len(), topo.ppn, 1, 1);
    let own = ring::reduce_scatter(comm, &mut node_ring, &shm, data, &lay, &mut Vec::new())?
        .pop()
        .expect("one segment per chunk");
    let reduced = ring::allreduce(comm, &mut leader_ring, codec, &own, 1)?;
    let mut out = vec![0f32; data.len()];
    out[lay.chunk(node_ring.pos)].copy_from_slice(&reduced);
    ring::allgather(comm, &mut node_ring, &shm, &lay, None, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CollectiveConfig, Mode};
    use crate::pipeline::decode_tag;
    use crate::ring::{Over, Verb};
    use tuner::Flavor;

    fn allreduce_hier(
        comm: &mut Comm,
        data: &[f32],
        flavor: Flavor,
        topo: &Topology,
        cfg: &CollectiveConfig,
    ) -> crate::collectives::Result<Vec<f32>> {
        ring::run(comm, Verb::Allreduce, flavor, data, cfg, 1, Over::Tiers(topo))
    }
    use netsim::{ComputeTiming, Event, LinkTier, SimBuilder, ThroughputModel, TraceConfig};

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
    }

    fn field(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.013).sin() * (rank + 1) as f32 * 1.7).collect()
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
    fn hierarchical_allreduce_matches_direct_sum_for_every_flavour() {
        let n = 1200;
        let eb = 1e-4;
        for (nodes, ppn) in [(2usize, 2usize), (2, 3), (3, 2), (1, 4), (4, 1)] {
            let nranks = nodes * ppn;
            let topo = Topology::two_tier(
                nodes,
                ppn,
                netsim::NetConfig { latency_s: 5e-7, bandwidth_gbps: 120.0, congestion: 0.0 },
                netsim::NetConfig::default(),
            );
            let expect = direct_sum(nranks, n);
            for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
                let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
                let cluster = SimBuilder::new(nranks).timing(modeled()).topology(topo);
                let outcomes = cluster
                    .run(|comm| {
                        let data = field(comm.rank(), n);
                        allreduce_hier(comm, &data, flavor, &topo, &cfg).expect("hier allreduce")
                    })
                    .expect_clean()
                    .outcomes;
                // one quantization per compressed hop on the inter tier;
                // f32 association differences add a small float slack
                let tol = match flavor {
                    Flavor::Mpi => 1e-3,
                    Flavor::Hzccl => nranks as f64 * eb + 1e-3,
                    Flavor::CColl => 2.0 * nranks as f64 * eb + 1e-3,
                };
                for o in &outcomes {
                    assert_eq!(o.value.len(), n);
                    for (i, (a, b)) in o.value.iter().zip(&expect).enumerate() {
                        assert!(
                            ((a - b).abs() as f64) <= tol,
                            "{nodes}x{ppn} {flavor:?} at {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn intra_and_inter_phases_never_share_a_tag_or_a_tier() {
        let topo = Topology::paper(2, 3);
        let cfg = CollectiveConfig::new(1e-4, Mode::SingleThread);
        let cluster =
            SimBuilder::new(6).timing(modeled()).topology(topo).trace(TraceConfig::default());
        let report = cluster
            .run(|comm| {
                let data = field(comm.rank(), 600);
                allreduce_hier(comm, &data, Flavor::Hzccl, &topo, &cfg).expect("hier allreduce")
            })
            .expect_clean();
        let mut intra_tags = std::collections::BTreeSet::new();
        let mut inter_tags = std::collections::BTreeSet::new();
        let mut sends = 0usize;
        for t in &report.traces {
            for ev in &t.events {
                let &Event::Send { tag, tier, .. } = ev else { continue };
                sends += 1;
                let info = decode_tag(tag).expect("hierarchical sends use collective tags");
                // the phase a tag encodes must match the tier the fabric
                // routed it through — reconciliation of schedule vs. wire
                match info.phase {
                    "h-rs" | "h-ag" => {
                        assert_eq!(tier, LinkTier::Intra, "intra phase crossed tier {tier:?}");
                        intra_tags.insert(tag);
                    }
                    "h-ring" => {
                        assert_eq!(tier, LinkTier::Inter, "inter phase crossed tier {tier:?}");
                        inter_tags.insert(tag);
                    }
                    other => panic!("unexpected phase {other} in a hierarchical run"),
                }
            }
        }
        assert!(sends > 0, "traced run must record sends");
        assert!(!intra_tags.is_empty() && !inter_tags.is_empty());
        assert!(intra_tags.is_disjoint(&inter_tags), "tiers must not share tags");
    }

    /// The ISSUE's golden acceptance criterion: at the paper calibration on
    /// 8 nodes x 8 ranks/node (10x slower inter-node links), the
    /// hierarchical hz Allreduce beats the flat hz ring by >= 30% of
    /// simulated time at 1 MiB per rank.
    #[test]
    fn hierarchical_hz_beats_flat_hz_by_30_percent_on_the_paper_topology() {
        let topo = Topology::paper(8, 8);
        let n = (1usize << 20) / 4; // 1 MiB of f32
        let eb = 1e-4;
        let cfg = CollectiveConfig::new(eb, Mode::SingleThread);
        let timing = ComputeTiming::Modeled(tuner::paper_prior(Flavor::Hzccl, false));
        let flat = {
            let cluster = SimBuilder::new(topo.nranks()).timing(timing).topology(topo);
            let stats = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    ring::run(comm, Verb::Allreduce, Flavor::Hzccl, &data, &cfg, 1, Over::Flat)
                        .expect("flat hz");
                })
                .expect_clean()
                .stats;
            stats.makespan
        };
        let hier = {
            let cluster = SimBuilder::new(topo.nranks()).timing(timing).topology(topo);
            let stats = cluster
                .run(|comm| {
                    let data = field(comm.rank(), n);
                    allreduce_hier(comm, &data, Flavor::Hzccl, &topo, &cfg).expect("hier hz");
                })
                .expect_clean()
                .stats;
            stats.makespan
        };
        assert!(
            hier <= 0.7 * flat,
            "hierarchical must win by >= 30%: hier {hier:.6}s vs flat {flat:.6}s"
        );
    }
}
