//! The self-healing ring: the one ring schedule ([`crate::ring`]) over an
//! epoch-numbered membership [`View`], re-run until an attempt commits.
//!
//! ## Segment-grouped repair
//!
//! The element partition is anchored to the *launch* size forever: the
//! vector is split into `n0` launch segments and never re-split. An epoch
//! with `m` survivors groups those segments contiguously
//! ([`Layout::regrouped`]: chunk `g` of the survivor ring is group `g`, its
//! ring segments are the group's launch segments) and runs the classic ring
//! over [`Ring::survivors`]. At epoch 0 every group is a singleton — the
//! flat ring's one-chunk-per-rank layout; a lone survivor is the `n = 1`
//! ring. A repair therefore only moves whole launch segments between owners,
//! and this loop keeps every own operand it prepared (on the hZCCL path, the
//! compressed launch segment) across epochs: a re-attempt recompresses
//! nothing, only ownership changes hands (`rec:stream-cache-hit`).
//!
//! ## Tear-down: the in-band abort ripple
//!
//! A rank that observes an interrupt — a neighbour's crash notice, or an
//! abort where data or an ACK was due — first *completes its live
//! obligations* (the hop finishes its surviving half), then leaves the ring
//! loop with a [`Stop`] naming the tags it was next due to send and to
//! receive on. The recovery loop answers with [`Ring::abort`] on exactly
//! those tags — each is consumed at a deterministic point of a neighbour's
//! schedule, so no survivor ever hangs on a rank that tore down and traces
//! stay engine-independent — and walks to the agreement barrier. Every
//! attempt — completed or torn down — ends in [`agree`]; an empty agreed
//! suspect set commits it, anything else advances the view (new epoch, dead
//! ranks spliced out, epoch-salted tags) and re-runs it.

use netsim::Comm;

use crate::codec::SegCodec;
use crate::collectives::{Error, Result};
use crate::labels;
use crate::membership::{agree, View};
use crate::pipeline::MAX_EPOCH;
use crate::resilient::Resilience;
use crate::ring::{allgather, install_chunk, reduce_scatter, Layout, Ring, Stop};

/// Reduce `data` over the survivors, starting from `view` and leaving the
/// view that committed: the full survivor sum with `ag` (Allreduce), else
/// this rank's owned contiguous region under the committed view
/// (Reduce_scatter). Every owner's chunk — its own included — is decoded
/// from the same wire bytes, so survivors agree bitwise in every flavour.
///
/// The recovery loop: run an attempt, meet at the agreement barrier, commit
/// on an empty suspect set or splice the dead out and retry under the next
/// epoch.
pub(crate) fn recover<C: SegCodec>(
    comm: &mut Comm,
    codec: &C,
    data: &[f32],
    res: Option<&Resilience>,
    ag: bool,
    view: &mut View,
) -> Result<Vec<f32>> {
    let was = comm.survivable();
    comm.set_survivable(true);
    // one own operand per launch segment, kept across epochs
    let mut kept = vec![None; view.n0];
    let mut out = vec![0f32; data.len()];
    let result = loop {
        let ring = &mut Ring::survivors(view, comm.rank(), res);
        let lay = Layout::regrouped(data.len(), view.n0, view.len());
        let attempt = reduce_scatter(comm, ring, codec, data, &lay, &mut kept)
            .map_err(|stop| stop.before(ag.then(|| ring.first_ag_tag())))
            .and_then(|accs| {
                let mut own = Vec::with_capacity(accs.len());
                for acc in &accs {
                    own.push((codec.encode(comm, acc, Vec::new())?, C::WIRE));
                }
                if ag {
                    return allgather(comm, ring, codec, &lay, Some(own), &mut out);
                }
                Ok(install_chunk(comm, codec, &mut own, &lay, ring.pos, &mut out, 0)?)
            });
        let torn_down = match attempt {
            Ok(()) => false,
            Err(Stop::Codec(e)) => break Err(e.into()),
            Err(Stop::Interrupted { send, recv }) => {
                ring.hop.abort(comm, send, recv);
                true
            }
        };
        let suspects = agree(comm, view).suspects;
        if suspects.is_empty() {
            // uniform quiet with nothing suspected: every member completed
            // its attempt, which commits
            debug_assert!(!torn_down, "only a death tears an attempt down");
            comm.mark(labels::REC_EPOCH, u64::from(view.epoch));
            comm.mark(labels::REC_SURVIVORS, view.len() as u64);
            break Ok(if ag { out } else { out[lay.chunk(ring.pos)].to_vec() });
        }
        match view.advance(&suspects) {
            Some(next) => *view = next,
            None => break Err(Error::TooManyEpochs { epochs: MAX_EPOCH }),
        }
        debug_assert!(view.vrank(comm.rank()).is_some(), "a live rank never leaves the view");
        comm.mark(labels::REC_RECOVERY, 0);
    };
    comm.set_survivable(was);
    result
}
