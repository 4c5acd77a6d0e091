//! The self-healing ring schedules: survivable Reduce_scatter + Allreduce
//! over an epoch-numbered membership [`View`].
//!
//! ## Segment-grouped repair
//!
//! The element partition is anchored to the *launch* size forever: the
//! vector is split into `n0 = ` launch-rank-count segments
//! ([`crate::chunks::node_chunks`]) and never re-split. An epoch with `m`
//! survivors groups those segments contiguously ([`View::segment_groups`])
//! and runs the classic ring algebra over *groups*: `m-1` reduce-scatter
//! steps (virtual rank `v` sends group `(v-s-1) mod m`, folds its own
//! contribution into group `(v-s-2) mod m`, ending as owner of group `v`)
//! followed by `m-1` store-and-forward allgather steps (send `(v-s) mod m`,
//! receive `(v-s-1) mod m`). At epoch 0 every group is a singleton and the
//! schedule degenerates to the exact one-chunk-per-rank layout of
//! the flat ring ([`crate::ring`]). A repair therefore only moves whole segments between
//! owners — and on the hZCCL path the per-segment compressed input streams
//! are cached across epochs, so a re-attempt decompresses/recompresses
//! nothing: only ownership changes hands.
//!
//! ## Tear-down: the in-band abort ripple
//!
//! A rank that observes an interrupt — its peer's crash notice, or an
//! [`SV_ABORT`] byte where data was due — first *completes its live
//! obligations* ([`crate::resilient::sv_exchange`] finishes the surviving
//! half of the step), then forwards one abort to its ring successor on the
//! tag of its own next scheduled send, and walks to the agreement barrier.
//! Because the abort travels on exactly the tag the successor will next
//! await from this rank, it is consumed at a deterministic point of the
//! successor's schedule: no survivor ever hangs on a rank that tore down,
//! and traces stay engine-independent. Every attempt — completed or torn
//! down — ends in [`crate::membership::agree`]; an empty agreed suspect
//! set commits the attempt, anything else advances the view (new epoch,
//! dead ranks spliced out, epoch-salted tags) and re-runs it.
//!
//! Wire payloads are per-group section containers
//! (`[u32 LE len][bytes]` per segment, ascending segment id), so group
//! sizes may differ across epochs without ambiguity.

use std::collections::BTreeSet;
use std::ops::Range;

use netsim::Comm;
use tuner::Flavor;

use crate::chunks::node_chunks;
use crate::codec::{DocCodec, HzCodec, RawCodec, SegCodec};
use crate::collectives::{Error, Result};
use crate::config::CollectiveConfig;
use crate::membership::{agree, View};
use crate::pipeline::epoch_tag;
use crate::resilient::{
    pack_sections, split_sections, sv_abort, sv_exchange, PayloadKind, Resilience,
};
use crate::ring::{TAG_AG, TAG_RS};

/// A committed survivable collective: the value plus the membership it was
/// computed over.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SvOutcome {
    /// The reduced values (full vector for allreduce, the owned contiguous
    /// region for reduce-scatter).
    pub value: Vec<f32>,
    /// Launch ranks whose contributions are in `value`.
    pub members: Vec<usize>,
    /// The epoch that committed (0 on the fault-free path).
    pub epoch: u32,
}

/// What every attempt of one recoverable call shares: the codec, the
/// input, the `n0` launch segments of the element space (immutable across
/// epochs by construction), the transport policy, and this rank's prepared
/// own operands — kept across epochs, so a repair recompresses nothing:
/// only ownership changes hands.
struct Job<'a, C: SegCodec> {
    codec: C,
    data: &'a [f32],
    ranges: Vec<Range<usize>>,
    res: Option<Resilience>,
    operands: Vec<Option<C::Operand>>,
}

impl<C: SegCodec> Job<'_, C> {
    /// Uncompressed-equivalent bytes of a segment group.
    fn logical(&self, group: &Range<usize>) -> usize {
        group.clone().map(|seg| self.ranges[seg].len() * 4).sum()
    }

    /// Make sure the own operand of launch segment `seg` is prepared.
    fn prepare(&mut self, comm: &mut Comm, seg: usize) -> Result<()> {
        if self.operands[seg].is_some() {
            comm.mark("rec:stream-cache-hit");
        } else {
            self.operands[seg] = self.codec.operand(comm, self.data, &self.ranges[seg])?;
        }
        Ok(())
    }

    /// This rank's own contribution to `seg`, in accumulator form.
    fn own(&mut self, comm: &mut Comm, seg: usize) -> Result<C::Acc> {
        self.prepare(comm, seg)?;
        Ok(self.codec.seed(self.data, &self.ranges[seg], self.operands[seg].clone()))
    }

    /// Fold received wire bytes with this rank's own contribution to `seg`.
    fn merge(&mut self, comm: &mut Comm, seg: usize, wire: &[u8]) -> Result<C::Acc> {
        self.prepare(comm, seg)?;
        let (rng, own) = (&self.ranges[seg], self.operands[seg].as_ref());
        Ok(self.codec.fold(comm, wire.to_vec(), PayloadKind::Opaque, self.data, rng, own)?)
    }

    /// Decode final wire bytes of `seg` into the output; they come back
    /// for forwarding.
    fn install(
        &self,
        comm: &mut Comm,
        seg: usize,
        wire: Vec<u8>,
        out: &mut [f32],
    ) -> Result<Vec<u8>> {
        let dst = &mut out[self.ranges[seg].clone()];
        Ok(self.codec.install(comm, wire, PayloadKind::Opaque, dst)?)
    }
}

/// How one attempt over a view ended.
enum AttemptEnd {
    /// All steps ran; the output holds this attempt's values.
    Done,
    /// An interrupt tore the attempt down; the abort ripple went out.
    TornDown,
}

/// One attempt of the survivable ring over `view`. `ag` selects the fused
/// allreduce (reduce-scatter + allgather) or reduce-scatter alone.
fn attempt<C: SegCodec>(
    comm: &mut Comm,
    view: &View,
    job: &mut Job<'_, C>,
    ag: bool,
    out: &mut [f32],
) -> Result<AttemptEnd> {
    let me = comm.rank();
    let m = view.len();
    let v = view.vrank(me).expect("only members run attempts");
    let groups = view.segment_groups();
    let res = job.res;
    if m == 1 {
        // sole survivor: the survivor sum is the own vector (roundtripped
        // through the flavour's wire format, like any other owner)
        for seg in groups[0].clone() {
            let acc = job.own(comm, seg)?;
            let bytes = job.codec.encode(comm, &acc)?;
            job.install(comm, seg, bytes, out)?;
        }
        return Ok(AttemptEnd::Done);
    }
    let right = view.right_of(v);
    let left = view.left_of(v);
    let rs_steps = m - 1;
    let total = if ag { 2 * (m - 1) } else { m - 1 };
    let tag_of = |k: usize| {
        if k < rs_steps {
            epoch_tag(TAG_RS, k, 0, view.epoch)
        } else {
            epoch_tag(TAG_AG, k - rs_steps, 0, view.epoch)
        }
    };

    // Reduce-scatter over segment groups: the accumulator travels the ring
    // exactly as in the classic schedule, one group per step.
    let first = (v + m - 1) % m;
    let mut acc = Vec::with_capacity(groups[first].len());
    for seg in groups[first].clone() {
        acc.push(job.own(comm, seg)?);
    }
    for s in 0..rs_steps {
        let send_g = (v + 2 * m - s - 1) % m;
        let recv_g = (v + 2 * m - s - 2) % m;
        let mut parts = Vec::with_capacity(acc.len());
        for a in &acc {
            parts.push(job.codec.encode(comm, a)?);
        }
        let payload = pack_sections(&parts);
        let logical = job.logical(&groups[send_g]);
        match sv_exchange(comm, res.as_ref(), right, left, tag_of(s), &payload, logical) {
            Ok(bytes) => {
                let sections = split_sections(&bytes, groups[recv_g].len())?;
                let mut next = Vec::with_capacity(sections.len());
                for (seg, sec) in groups[recv_g].clone().zip(sections) {
                    next.push(job.merge(comm, seg, sec)?);
                }
                acc = next;
            }
            Err(_) => {
                if s + 1 < total {
                    sv_abort(comm, right, tag_of(s + 1));
                }
                return Ok(AttemptEnd::TornDown);
            }
        }
    }

    // The own group is finished: install it locally from its own wire bytes
    // (so all flavours agree bitwise across ranks)...
    let mut own_parts = Vec::with_capacity(acc.len());
    for (a, seg) in acc.iter().zip(groups[v].clone()) {
        let bytes = job.codec.encode(comm, a)?;
        own_parts.push(job.install(comm, seg, bytes, out)?);
    }
    if !ag {
        return Ok(AttemptEnd::Done);
    }

    // ...and the allgather forwards finished groups verbatim around the
    // survivor ring, installing each on arrival.
    let mut carry = pack_sections(&own_parts);
    let mut carry_g = v;
    for s in 0..m - 1 {
        let k = rs_steps + s;
        let recv_g = (v + 2 * m - s - 1) % m;
        let logical = job.logical(&groups[carry_g]);
        match sv_exchange(comm, res.as_ref(), right, left, tag_of(k), &carry, logical) {
            Ok(bytes) => {
                let sections = split_sections(&bytes, groups[recv_g].len())?;
                for (seg, sec) in groups[recv_g].clone().zip(sections) {
                    job.install(comm, seg, sec.to_vec(), out)?;
                }
                carry = bytes;
                carry_g = recv_g;
            }
            Err(_) => {
                if k + 1 < total {
                    sv_abort(comm, right, tag_of(k + 1));
                }
                return Ok(AttemptEnd::TornDown);
            }
        }
    }
    Ok(AttemptEnd::Done)
}

/// The recovery loop: run an attempt, meet at the agreement barrier, commit
/// on an empty suspect set or splice the dead out and retry under the next
/// epoch. Returns the committed value (full vector when `ag`, the owned
/// contiguous region otherwise) plus the membership that produced it.
pub(crate) fn run_survivable(
    comm: &mut Comm,
    data: &[f32],
    flavor: Flavor,
    cfg: &CollectiveConfig,
    ag: bool,
) -> Result<SvOutcome> {
    let was = comm.survivable();
    comm.set_survivable(true);
    let result = match flavor {
        Flavor::Mpi => recovery_loop(comm, data, RawCodec::mpi(cfg.mode.threads()), cfg, ag),
        Flavor::CColl => recovery_loop(comm, data, DocCodec::ccoll(cfg), cfg, ag),
        Flavor::Hzccl => recovery_loop(comm, data, HzCodec::reducing(cfg), cfg, ag),
    };
    comm.set_survivable(was);
    result
}

fn recovery_loop<C: SegCodec>(
    comm: &mut Comm,
    data: &[f32],
    codec: C,
    cfg: &CollectiveConfig,
    ag: bool,
) -> Result<SvOutcome> {
    let (me, n0) = (comm.rank(), comm.size());
    let ranges = node_chunks(data.len(), n0);
    let operands = (0..n0).map(|_| None).collect();
    let mut job = Job { codec, data, ranges, res: cfg.res, operands };
    let mut view = View::initial(n0);
    let mut out = vec![0f32; data.len()];
    loop {
        let end = attempt(comm, &view, &mut job, ag, &mut out)?;
        let agreement = agree(comm, &view, BTreeSet::new());
        if agreement.suspects.is_empty() {
            // uniform quiet with nothing suspected: every member completed,
            // the attempt commits
            debug_assert!(matches!(end, AttemptEnd::Done));
            comm.mark_value("rec:epoch", u64::from(view.epoch));
            comm.mark_value("rec:survivors", view.len() as u64);
            let value = if ag {
                out
            } else {
                let segs = view.segment_groups()[view.vrank(me).expect("member")].clone();
                out[job.ranges[segs.start].start..job.ranges[segs.end - 1].end].to_vec()
            };
            return Ok(SvOutcome { value, members: view.members.clone(), epoch: view.epoch });
        }
        view = view
            .advance(&agreement.suspects)
            .ok_or(Error::TooManyEpochs { epochs: crate::pipeline::MAX_EPOCH })?;
        debug_assert!(view.vrank(me).is_some(), "a live rank never leaves the view");
        comm.mark("rec:recovery");
    }
}
