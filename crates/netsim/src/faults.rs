//! Fault injection: a seeded, deterministic chaos plan for the simulated
//! cluster.
//!
//! A [`FaultPlan`] describes *which* messages misbehave — dropped, bit-flip
//! corrupted, or jittered — plus per-rank straggler slowdowns and one-shot
//! rank-crash events. Decisions are **stateless**: each one is a pure hash
//! of `(seed, from, to, per-destination send index)`, so they do not depend
//! on thread interleaving or wall-clock time and the same plan replayed on
//! the same schedule yields a bit-identical virtual-time trace (the property
//! `tests/chaos.rs` pins down).
//!
//! Faults act on the *data plane* only: [`crate::Comm::send_reliable`]
//! bypasses the plan, modelling link-level-protected control traffic
//! (ACK/NACK frames of the resilient transport in `hzccl`).

/// Per-link fault probabilities and jitter bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability that a message is lost in transit. The payload still
    /// crosses the channel (virtual time needs its arrival) but is marked
    /// dropped: a resilient receiver times out and NACKs, a plain `recv`
    /// panics loudly.
    pub drop_p: f64,
    /// Probability that one uniformly chosen payload bit is flipped.
    pub corrupt_p: f64,
    /// Upper bound of extra per-message delivery jitter, in seconds
    /// (uniform in `[0, jitter_s]`, added to the arrival time).
    pub jitter_s: f64,
}

impl LinkFault {
    /// A perfectly healthy link.
    const NONE: LinkFault = LinkFault { drop_p: 0.0, corrupt_p: 0.0, jitter_s: 0.0 };
}

/// What a [`FaultPlan`] decided for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultDecision {
    /// Deliver the message marked as lost.
    pub drop: bool,
    /// Flip this payload bit index before delivery.
    pub corrupt_bit: Option<usize>,
    /// Extra delivery delay in seconds.
    pub jitter_s: f64,
}

/// The kind of an injected fault, as recorded on the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Message marked lost in transit.
    Drop,
    /// One payload bit flipped in transit.
    Corrupt,
    /// Extra delivery delay added.
    Jitter,
    /// The sending rank crashed (one-shot, per plan).
    Crash,
}

impl FaultKind {
    /// Stable lowercase name (trace exports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Jitter => "jitter",
            FaultKind::Crash => "crash",
        }
    }
}

/// A deterministic, seeded chaos plan for one cluster run.
///
/// Built with `FaultPlan::new(seed)` plus the `with_*` builders; wired in
/// through [`crate::SimBuilder::faults`]. All decisions derive from the
/// seed — no wall clock, no shared RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Fault parameters applied to every link without an override.
    default: LinkFault,
    /// `(from, to)` overrides, taking precedence over `default`.
    links: Vec<((usize, usize), LinkFault)>,
    /// `(rank, slowdown)`: compute on `rank` takes `slowdown`× as long.
    stragglers: Vec<(usize, f64)>,
    /// `(rank, send_step)`: `rank` crashes when posting its `send_step`-th
    /// message (0-based, counted over all its sends).
    crashes: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default: LinkFault::NONE,
            links: Vec::new(),
            stragglers: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// The same faults drawn from another seed.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Message drop probability on every link.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.default.drop_p = p.clamp(0.0, 1.0);
        self
    }

    /// Single-bit corruption probability on every link.
    pub fn with_corrupt(mut self, p: f64) -> FaultPlan {
        self.default.corrupt_p = p.clamp(0.0, 1.0);
        self
    }

    /// Extra uniform delivery jitter bound (seconds) on every link.
    pub fn with_jitter(mut self, jitter_s: f64) -> FaultPlan {
        self.default.jitter_s = jitter_s.max(0.0);
        self
    }

    /// Override the fault parameters of one directed link `from -> to`.
    pub fn with_link(mut self, from: usize, to: usize, fault: LinkFault) -> FaultPlan {
        self.links.retain(|((f, t), _)| !(*f == from && *t == to));
        self.links.push(((from, to), fault));
        self
    }

    /// Mark `rank` as a straggler: its compute kernels take `slowdown`× as
    /// long (`1.0` is a no-op; values below 1 speed the rank up).
    pub fn with_straggler(mut self, rank: usize, slowdown: f64) -> FaultPlan {
        self.stragglers.retain(|(r, _)| *r != rank);
        self.stragglers.push((rank, slowdown.max(0.0)));
        self
    }

    /// Crash `rank` at its first *data-plane* send at or after `send_step`
    /// (0-based, counted over every send the rank performs; control traffic
    /// via [`crate::Comm::send_reliable`] advances the count but never
    /// triggers the crash — see DESIGN.md §5.5). One-shot: the rank
    /// broadcasts a crash notice to all peers and panics; peers blocked on
    /// it panic in turn — unless they run in survivable mode and repair —
    /// so the whole run terminates cleanly and
    /// [`crate::RunReport::panics`] reports who died and why. Call
    /// repeatedly to crash several ranks.
    pub fn with_crash(mut self, rank: usize, send_step: u64) -> FaultPlan {
        self.crashes.retain(|(r, _)| *r != rank);
        self.crashes.push((rank, send_step));
        self
    }

    /// The compute-slowdown factor of `rank` (1.0 unless configured).
    pub(crate) fn straggler_scale(&self, rank: usize) -> f64 {
        self.stragglers.iter().find(|(r, _)| *r == rank).map_or(1.0, |(_, s)| *s)
    }

    /// The send step at which `rank` crashes, if any.
    pub(crate) fn crash_step(&self, rank: usize) -> Option<u64> {
        self.crashes.iter().find(|(r, _)| *r == rank).map(|(_, s)| *s)
    }

    fn link(&self, from: usize, to: usize) -> LinkFault {
        self.links
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map_or(self.default, |(_, l)| *l)
    }

    /// The fault decision of the `k`-th fault-eligible message on the
    /// directed link `from -> to` with `payload_bits` payload bits.
    pub(crate) fn decide(
        &self,
        from: usize,
        to: usize,
        k: u64,
        payload_bits: usize,
    ) -> FaultDecision {
        let l = self.link(from, to);
        if l == LinkFault::NONE {
            return FaultDecision { drop: false, corrupt_bit: None, jitter_s: 0.0 };
        }
        let key = |salt: u64| hash(&[self.seed, from as u64, to as u64, k, salt]);
        let drop = l.drop_p > 0.0 && unit(key(1)) < l.drop_p;
        // a dropped message never reaches the receiver, so corrupting or
        // jittering it would only perturb nothing
        let corrupt_bit =
            (!drop && payload_bits > 0 && l.corrupt_p > 0.0 && unit(key(2)) < l.corrupt_p)
                .then(|| (key(3) % payload_bits as u64) as usize);
        let jitter_s = if !drop && l.jitter_s > 0.0 { unit(key(4)) * l.jitter_s } else { 0.0 };
        FaultDecision { drop, corrupt_bit, jitter_s }
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixing function, and the one
/// mixer every seeded decision in the workspace hashes through (fault
/// draws here, the resilient transport's backoff jitter, `hzc chaos`'s
/// victim picker).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold a word sequence through the mixer (order-sensitive).
fn hash(parts: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // pi, nothing up the sleeve
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

/// Map a hash to a uniform float in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(7).with_drop(0.3).with_corrupt(0.2).with_jitter(1e-5);
        let a: Vec<_> = (0..100).map(|k| plan.decide(0, 1, k, 800)).collect();
        let b: Vec<_> = (0..100).map(|k| plan.decide(0, 1, k, 800)).collect();
        assert_eq!(a, b, "same plan, same decisions");
        let other = FaultPlan::new(8).with_drop(0.3).with_corrupt(0.2).with_jitter(1e-5);
        let c: Vec<_> = (0..100).map(|k| other.decide(0, 1, k, 800)).collect();
        assert_ne!(a, c, "a different seed must reshuffle the fault pattern");
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let plan = FaultPlan::new(42).with_drop(0.25);
        let drops = (0..4000).filter(|&k| plan.decide(2, 3, k, 64).drop).count();
        assert!((800..1200).contains(&drops), "{drops} drops out of 4000 at p=0.25");
    }

    #[test]
    fn link_overrides_beat_the_default() {
        let plan = FaultPlan::new(1).with_drop(1.0).with_link(0, 1, LinkFault::NONE).with_link(
            0,
            1,
            LinkFault { drop_p: 0.0, corrupt_p: 1.0, jitter_s: 0.0 },
        );
        let healthy = plan.decide(0, 1, 0, 64);
        assert!(!healthy.drop, "override replaces the lossy default");
        assert!(healthy.corrupt_bit.is_some());
        assert!(plan.decide(1, 0, 0, 64).drop, "other links keep the default");
    }

    #[test]
    fn dropped_messages_are_not_also_corrupted_or_jittered() {
        let plan = FaultPlan::new(3).with_drop(0.5).with_corrupt(1.0).with_jitter(1e-3);
        for k in 0..200 {
            let d = plan.decide(0, 1, k, 128);
            if d.drop {
                assert_eq!(d.corrupt_bit, None);
                assert_eq!(d.jitter_s, 0.0);
            } else {
                assert!(d.corrupt_bit.is_some(), "corrupt_p=1 must flip surviving messages");
            }
        }
    }

    #[test]
    fn corrupt_bit_stays_in_bounds_and_varies() {
        let plan = FaultPlan::new(11).with_corrupt(1.0);
        let bits: Vec<usize> =
            (0..64).map(|k| plan.decide(0, 1, k, 96).corrupt_bit.unwrap()).collect();
        assert!(bits.iter().all(|&b| b < 96));
        assert!(bits.iter().collect::<std::collections::BTreeSet<_>>().len() > 10);
    }

    #[test]
    fn straggler_and_crash_lookups() {
        let plan = FaultPlan::new(0).with_straggler(2, 3.5).with_crash(1, 40);
        assert_eq!(plan.straggler_scale(2), 3.5);
        assert_eq!(plan.straggler_scale(0), 1.0);
        assert_eq!(plan.crash_step(1), Some(40));
        assert_eq!(plan.crash_step(2), None);
        // re-registering replaces
        let plan = plan.with_straggler(2, 2.0).with_crash(1, 7);
        assert_eq!(plan.straggler_scale(2), 2.0);
        assert_eq!(plan.crash_step(1), Some(7));
    }

    #[test]
    fn empty_payload_is_never_corrupted() {
        let plan = FaultPlan::new(5).with_corrupt(1.0);
        assert_eq!(plan.decide(0, 1, 0, 0).corrupt_bit, None);
    }
}
