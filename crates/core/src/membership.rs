//! Membership views and survivor agreement for the self-healing
//! collectives (`crate::survivable`).
//!
//! ULFM-style recovery needs two facts every survivor derives identically:
//! *who is still alive* and *which attempt are we on*. Both live in a
//! [`View`] — an epoch-numbered survivor set. Epoch 0 is the launch
//! membership; every repair shrinks the member list and bumps the epoch,
//! and all wire tags of an attempt are salted with its epoch
//! ([`crate::pipeline::decode_tag`] exposes the field), so traffic from a
//! torn-down attempt can never match a repaired one.
//!
//! ## The agreement round
//!
//! After every attempt — completed or aborted — all believed-live ranks
//! meet at `agree`, a full-exchange gossip over the reliable channel
//! (tag base `TAG_AGREE`, one step per round, epoch-salted). Each round
//! a rank broadcasts its suspect set plus a *changed* flag saying whether
//! that set grew last round; it stops as soon as a round is fully quiet
//! (its own flag false, every received flag false, and nothing learned
//! this round). Quietness is a sound uniform-stop rule:
//!
//! * all flags false ⟹ no set changed last round ⟹ every pair of ranks
//!   has already absorbed each other's set ⟹ all sets are equal;
//! * crashes only fire on data-plane sends ([`netsim::FaultPlan`] exempts
//!   reliable traffic), so no rank dies *during* agreement — a death is
//!   observable to every rank in round 0 at the latest, when its
//!   `recv_checked` from the dead member yields the crash notice instead
//!   of a payload. Equal sets therefore stay equal, and every rank leaves
//!   on the same round with the same verdict.
//!
//! Fault-free recoverable runs commit in a single quiet round; a crash
//! costs at most two more rounds (spread, then confirm-quiet).

use std::collections::BTreeSet;

use netsim::Comm;

use crate::pipeline::{epoch_tag, MAX_EPOCH, TAG_AGREE};

/// An epoch-numbered survivor set: the membership a recovery attempt runs
/// under. Every rank derives its view deterministically from the same
/// agreed suspect sets, so all survivors of an epoch hold identical views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct View {
    /// Attempt number: 0 at launch, +1 per repair. Salted into every wire
    /// tag of the attempt (8-bit field, see [`crate::pipeline::MAX_EPOCH`]).
    pub epoch: u32,
    /// Sorted launch ranks believed alive in this epoch.
    pub members: Vec<usize>,
    /// The launch size. The element partition is anchored to `n0` forever:
    /// an epoch with `m` survivors regroups the *original* `n0` segments
    /// (`node_chunks(n0, m)` over segment ids) instead of re-splitting
    /// elements, so a repair only moves whole segments between owners.
    pub n0: usize,
}

impl View {
    /// The launch membership: epoch 0, every rank alive.
    pub(crate) fn initial(nranks: usize) -> View {
        View { epoch: 0, members: (0..nranks).collect(), n0: nranks }
    }

    /// Number of live members (never zero for a view a live rank holds: it
    /// is a member itself).
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// This rank's virtual position in the survivor ring, if it is a
    /// member.
    pub(crate) fn vrank(&self, rank: usize) -> Option<usize> {
        self.members.binary_search(&rank).ok()
    }

    /// The next view after `suspects` were agreed dead: same `n0`, epoch
    /// +1, suspects spliced out of the ring. Returns `None` past the
    /// 8-bit epoch cap of the tag encoding (255 repairs).
    pub(crate) fn advance(&self, suspects: &BTreeSet<usize>) -> Option<View> {
        if self.epoch >= MAX_EPOCH {
            return None;
        }
        let members: Vec<usize> =
            self.members.iter().copied().filter(|r| !suspects.contains(r)).collect();
        Some(View { epoch: self.epoch + 1, members, n0: self.n0 })
    }
}

/// What [`agree`] decided: the uniform suspect set (empty ⟺ the attempt
/// stands) and how many gossip rounds it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Agreement {
    /// Ranks every survivor agrees are dead. Empty means the attempt
    /// completed on all members and its result commits.
    pub suspects: BTreeSet<usize>,
    /// Gossip rounds until uniform quiet (1 on the fault-free path).
    pub rounds: u32,
}

fn encode_round(suspects: &BTreeSet<usize>, changed: bool) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + 4 * suspects.len());
    buf.push(u8::from(changed));
    buf.extend_from_slice(&(suspects.len() as u32).to_le_bytes());
    for &r in suspects {
        buf.extend_from_slice(&(r as u32).to_le_bytes());
    }
    buf
}

fn decode_round(bytes: &[u8]) -> (BTreeSet<usize>, bool) {
    let changed = bytes[0] != 0;
    let count = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
    let mut suspects = BTreeSet::new();
    for i in 0..count {
        let off = 5 + 4 * i;
        suspects.insert(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize);
    }
    (suspects, changed)
}

/// The commit barrier: full-exchange gossip among `view.members` until the
/// suspect set is uniformly quiet (see the module docs for the protocol
/// and its uniform-stop proof). Every rank starts from the empty set and
/// learns each death in round 0, from its own receive on the dead member —
/// not from the crash notices its data phase happened to drain, whose
/// arrival order is wall-clock under the thread engine: what a rank sends
/// depends on program order alone, so both engines tell the same story.
pub(crate) fn agree(comm: &mut Comm, view: &View) -> Agreement {
    let me = comm.rank();
    let mut suspects = BTreeSet::new();
    let peers: Vec<usize> = view.members.iter().copied().filter(|&q| q != me).collect();
    let mut changed = false;
    let mut round: usize = 0;
    loop {
        let tag = epoch_tag(TAG_AGREE, round, 0, view.epoch);
        let msg = encode_round(&suspects, changed);
        for &q in &peers {
            // sends to already-dead members vanish harmlessly: the
            // survivable endpoint delivers leniently
            comm.send_reliable(q, tag, msg.clone(), 0);
        }
        let mut all_quiet = !changed;
        let before = suspects.len();
        for &q in &peers {
            match comm.recv_checked(q, tag) {
                Err(crash) => {
                    debug_assert_eq!(crash.rank, q);
                    suspects.insert(q);
                }
                Ok(got) => {
                    assert!(!got.dropped, "agreement travels the reliable channel");
                    let (theirs, their_changed) = decode_round(&got.payload);
                    suspects.extend(theirs);
                    if their_changed {
                        all_quiet = false;
                    }
                }
            }
        }
        changed = suspects.len() != before;
        round += 1;
        if all_quiet && !changed {
            return Agreement { suspects, rounds: round as u32 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FaultPlan, SimBuilder};

    #[test]
    fn initial_view_is_identity_layout() {
        let v = View::initial(6);
        assert_eq!(v.epoch, 0);
        assert_eq!(v.len(), 6);
        assert_eq!(v.vrank(3), Some(3));
        assert_eq!(v.members, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn advance_splices_suspects_and_stays_anchored_to_n0() {
        let v = View::initial(8);
        let dead: BTreeSet<usize> = [2, 5].into_iter().collect();
        let next = v.advance(&dead).expect("below the epoch cap");
        assert_eq!(next.epoch, 1);
        assert_eq!(next.members, vec![0, 1, 3, 4, 6, 7]);
        assert_eq!(next.n0, 8, "the segment partition never re-anchors");
        assert_eq!(next.vrank(2), None);
        assert_eq!(next.vrank(3), Some(2));
    }

    #[test]
    fn advance_refuses_past_the_epoch_cap() {
        let mut v = View::initial(4);
        v.epoch = MAX_EPOCH;
        assert_eq!(v.advance(&BTreeSet::new()), None);
    }

    #[test]
    fn round_codec_roundtrips() {
        for (set, changed) in [
            (BTreeSet::new(), false),
            ([7usize].into_iter().collect(), true),
            ([0usize, 3, 63, 1000].into_iter().collect(), false),
        ] {
            let buf = encode_round(&set, changed);
            assert_eq!(decode_round(&buf), (set, changed));
        }
    }

    #[test]
    fn fault_free_agreement_is_quiet_in_one_round() {
        let report = SimBuilder::new(5)
            .run(|comm| {
                comm.set_survivable(true);
                let view = View::initial(5);
                let a = agree(comm, &view);
                assert!(a.suspects.is_empty());
                assert_eq!(a.rounds, 1, "nothing to spread: one quiet round");
            })
            .expect_clean();
        assert!(report.is_clean());
    }

    #[test]
    fn agreement_converges_on_the_dead_rank_uniformly() {
        // rank 2 crashes on its first data-plane send; the others meet at
        // the barrier and must all leave with {2}
        let report = SimBuilder::new(4).faults(FaultPlan::new(9).with_crash(2, 0)).run(|comm| {
            comm.set_survivable(true);
            if comm.rank() == 2 {
                comm.send(0, 999, vec![1, 2, 3]); // fires the crash
                unreachable!("rank 2 dies on the send above");
            }
            let view = View::initial(4);
            let a = agree(comm, &view);
            assert_eq!(a.suspects.iter().copied().collect::<Vec<_>>(), vec![2]);
            a.rounds as usize
        });
        let survivors = [0usize, 1, 3];
        let rounds: Vec<usize> = survivors.iter().map(|&r| *report.value(r)).collect();
        assert!(rounds.iter().all(|&x| x == rounds[0]), "uniform stop round: {rounds:?}");
    }
}
