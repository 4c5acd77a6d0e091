//! Cluster topology models: which network tier a message crosses and what
//! that tier's link looks like.
//!
//! The flat α–β model in [`NetConfig`] treats every rank pair identically —
//! accurate for the paper's one-process-per-node runs, but real clusters are
//! two-tier: ranks sharing a node talk over shared memory / NVLink-class
//! links that are an order of magnitude faster than the inter-node fabric,
//! and the inter-node fabric itself is often *oversubscribed* (fewer uplinks
//! than downlinks, so effective per-flow bandwidth divides by the
//! oversubscription factor). [`Topology`] captures exactly that: a
//! `nodes × ppn` rank grid with a per-tier [`NetConfig`] each, resolved per
//! `(src, dst)` pair by [`Topology::tier`].
//!
//! A simulation configured with [`crate::SimBuilder::topology`]
//! routes every send through the pair's tier link and stamps the tier on the
//! [`crate::trace::Event::Send`], so [`crate::critpath`] can attribute path
//! time to intra- vs inter-node wire. Without a topology the simulator keeps
//! the flat model on the *identical* arithmetic path, so untopologized runs
//! stay bit-for-bit what they were.
//!
//! The rank → node mapping is **block** order: rank `r` lives on node
//! `r / ppn` (ranks `0..ppn` on node 0, and so on), matching the default
//! placement of `mpirun`-style launchers. Richer shapes (fat-tree levels,
//! dragonfly groups) can extend [`LinkTier`] later; the congestion law
//! already takes the tier's *population* (ranks per node for the intra tier,
//! node count for the inter tier) instead of the global rank count.

use crate::config::NetConfig;

/// Which tier of the fabric a message crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkTier {
    /// No topology configured: the single flat fabric.
    #[default]
    Flat,
    /// Both endpoints share a node (fast node-local link).
    Intra,
    /// Endpoints on different nodes (oversubscribed inter-node fabric).
    Inter,
}

impl LinkTier {
    /// Number of tiers (array sizing for per-tier tables).
    pub(crate) const COUNT: usize = 3;

    /// All tiers in index order.
    pub const ALL: [LinkTier; LinkTier::COUNT] = [LinkTier::Flat, LinkTier::Intra, LinkTier::Inter];

    /// Stable index of this tier.
    pub fn index(self) -> usize {
        match self {
            LinkTier::Flat => 0,
            LinkTier::Intra => 1,
            LinkTier::Inter => 2,
        }
    }

    /// Stable lowercase name (trace args, report rows).
    pub fn name(self) -> &'static str {
        match self {
            LinkTier::Flat => "flat",
            LinkTier::Intra => "intra",
            LinkTier::Inter => "inter",
        }
    }
}

/// A two-tier `nodes × ppn` cluster topology with per-tier link models and
/// an inter-node oversubscription factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of nodes.
    pub nodes: usize,
    /// Ranks (processes) per node.
    pub ppn: usize,
    /// Node-local link model (shared memory / intra-node interconnect).
    pub intra: NetConfig,
    /// Inter-node fabric model *before* oversubscription.
    pub inter: NetConfig,
    /// Oversubscription factor of the inter-node fabric: effective per-flow
    /// inter-node bandwidth is `inter.bandwidth_gbps / oversub`. 1.0 = fully
    /// provisioned.
    pub oversub: f64,
}

impl Topology {
    /// A two-tier topology with explicit per-tier links and no
    /// oversubscription.
    pub fn two_tier(nodes: usize, ppn: usize, intra: NetConfig, inter: NetConfig) -> Topology {
        assert!(nodes > 0 && ppn > 0, "topology needs at least one node and one rank per node");
        Topology { nodes, ppn, intra, inter, oversub: 1.0 }
    }

    /// Set the inter-node oversubscription factor (must be ≥ 1).
    pub fn with_oversub(mut self, oversub: f64) -> Topology {
        assert!(oversub >= 1.0, "oversubscription factor must be >= 1, got {oversub}");
        self.oversub = oversub;
        self
    }

    /// The paper-calibrated two-tier shape: the flat default ([`NetConfig`]'s
    /// effective Omni-Path per-flow goodput) becomes the *inter-node* tier,
    /// and the node-local tier models a shared-memory-class link — 10× the
    /// bandwidth, sub-microsecond latency, no congestion (node-local traffic
    /// never crosses the switch).
    pub fn paper(nodes: usize, ppn: usize) -> Topology {
        let intra = NetConfig { latency_s: 5e-7, bandwidth_gbps: 120.0, congestion: 0.0 };
        Topology::two_tier(nodes, ppn, intra, NetConfig::default())
    }

    /// Total rank count (`nodes * ppn`).
    pub fn nranks(&self) -> usize {
        self.nodes * self.ppn
    }

    /// Node hosting `rank` (block placement: ranks `0..ppn` on node 0, …).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ppn
    }

    /// `rank`'s index within its node (`0..ppn`).
    pub fn local_index(&self, rank: usize) -> usize {
        rank % self.ppn
    }

    /// Which tier a `src → dst` message crosses.
    pub(crate) fn tier(&self, src: usize, dst: usize) -> LinkTier {
        if self.node_of(src) == self.node_of(dst) {
            LinkTier::Intra
        } else {
            LinkTier::Inter
        }
    }

    /// The link model of `tier`, with oversubscription applied to the
    /// inter-node tier. [`LinkTier::Flat`] resolves to the inter-node link
    /// (a topology has no flat tier; this keeps lookups total).
    pub fn link(&self, tier: LinkTier) -> NetConfig {
        match tier {
            LinkTier::Intra => self.intra,
            LinkTier::Inter | LinkTier::Flat => {
                let mut net = self.inter;
                net.bandwidth_gbps /= self.oversub;
                net
            }
        }
    }

    /// The congestion-law population of `tier`: how many endpoints contend
    /// on that tier's links (ranks per node for the intra tier, node count
    /// for the inter tier).
    pub fn population(&self, tier: LinkTier) -> usize {
        match tier {
            LinkTier::Intra => self.ppn,
            LinkTier::Inter | LinkTier::Flat => self.nodes,
        }
    }

    /// Parse a `NODESxPPN[:OVERSUB]` spec (also accepts `×` for the
    /// separator), e.g. `8x8`, `16x4:2`. Links come from
    /// [`Topology::paper`].
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let (shape, oversub) = match spec.split_once(':') {
            Some((shape, o)) => {
                let oversub: f64 = o
                    .parse()
                    .map_err(|_| format!("bad oversubscription factor {o:?} in {spec:?}"))?;
                if oversub.is_nan() || oversub < 1.0 {
                    return Err(format!("oversubscription factor must be >= 1, got {o:?}"));
                }
                (shape, oversub)
            }
            None => (spec, 1.0),
        };
        let (n, p) = shape
            .split_once(['x', 'X'])
            .or_else(|| shape.split_once('\u{d7}'))
            .ok_or_else(|| format!("topology {spec:?} must look like NODESxPPN[:OVERSUB]"))?;
        let nodes: usize = n.parse().map_err(|_| format!("bad node count {n:?} in {spec:?}"))?;
        let ppn: usize = p.parse().map_err(|_| format!("bad ranks-per-node {p:?} in {spec:?}"))?;
        if nodes == 0 || ppn == 0 {
            return Err(format!("topology {spec:?} needs at least one node and one rank per node"));
        }
        Ok(Topology::paper(nodes, ppn).with_oversub(oversub))
    }

    /// One-line human description (`8 nodes x 8 ranks/node, oversub 2`).
    pub fn describe(&self) -> String {
        if self.oversub != 1.0 {
            format!("{} nodes x {} ranks/node, oversub {}", self.nodes, self.ppn, self.oversub)
        } else {
            format!("{} nodes x {} ranks/node", self.nodes, self.ppn)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_maps_ranks_to_nodes() {
        let t = Topology::paper(4, 8);
        assert_eq!(t.nranks(), 32);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.node_of(31), 3);
        assert_eq!(t.local_index(9), 1);
        assert_eq!(t.tier(0, 7), LinkTier::Intra);
        assert_eq!(t.tier(7, 8), LinkTier::Inter);
        assert_eq!(t.tier(0, 31), LinkTier::Inter);
    }

    #[test]
    fn paper_topology_has_a_10x_tier_gap() {
        let t = Topology::paper(8, 8);
        let intra = t.link(LinkTier::Intra);
        let inter = t.link(LinkTier::Inter);
        assert_eq!(intra.bandwidth_gbps / inter.bandwidth_gbps, 10.0);
        assert!(intra.latency_s < inter.latency_s);
        assert_eq!(inter, NetConfig::default(), "inter tier is the flat default");
        assert_eq!(t.population(LinkTier::Intra), 8);
        assert_eq!(t.population(LinkTier::Inter), 8);
    }

    #[test]
    fn oversubscription_divides_inter_bandwidth_only() {
        let t = Topology::paper(8, 4).with_oversub(2.0);
        assert_eq!(t.link(LinkTier::Inter).bandwidth_gbps, 6.0);
        assert_eq!(t.link(LinkTier::Intra).bandwidth_gbps, 120.0);
    }

    #[test]
    fn parse_accepts_shape_and_oversub() {
        let t = Topology::parse("8x8").unwrap();
        assert_eq!((t.nodes, t.ppn, t.oversub), (8, 8, 1.0));
        let t = Topology::parse("16x4:2").unwrap();
        assert_eq!((t.nodes, t.ppn, t.oversub), (16, 4, 2.0));
        let t = Topology::parse("2\u{d7}3").unwrap();
        assert_eq!((t.nodes, t.ppn), (2, 3));
        assert_eq!(t, Topology::paper(2, 3), "parse uses the paper links");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "8", "8x", "x8", "0x4", "4x0", "8x8:0.5", "8x8:none", "axb"] {
            assert!(Topology::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn tier_indices_and_names_are_stable() {
        for (i, tier) in LinkTier::ALL.iter().enumerate() {
            assert_eq!(tier.index(), i);
        }
        assert_eq!(LinkTier::Flat.name(), "flat");
        assert_eq!(LinkTier::Intra.name(), "intra");
        assert_eq!(LinkTier::Inter.name(), "inter");
        assert_eq!(LinkTier::default(), LinkTier::Flat);
    }
}
