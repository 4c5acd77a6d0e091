//! The ring schedule, written once (Sec. III-C): `N-1` reduce-scatter
//! steps, `N-1` allgather steps, a gather to a root and a scatter from one —
//! each a single loop over a [`Ring`] (who my neighbours are, which tags a
//! step uses, which [`Hop`] carries it) and a [`SegCodec`] (what a step does
//! to the bytes). Every collective in this crate is an instantiation:
//!
//! * the flat verbs of [`crate::collectives`] and the plans of
//!   [`crate::auto`] go through [`run`] — the one verb × flavour dispatch —
//!   over [`Ring::flat`];
//! * the hierarchical Allreduce ([`crate::hierarchy`]) is the same loops
//!   over [`Ring::node`] and [`Ring::leaders`];
//! * the self-healing ring (`crate::survivable`) is the same loops over
//!   [`Ring::survivors`], one attempt per membership epoch: an interrupted
//!   hop ends a loop with a typed [`Stop`], which its recovery loop answers.
//!
//! Recursive doubling ([`crate::rd`]) is the one other loop, over the same
//! [`Hop`] and [`SegCodec`], reached through [`run`] as [`Over::Doubling`].
//!
//! ## Segments and the two schedules
//!
//! Every chunk is cut into block-aligned segments
//! ([`crate::pipeline::seg_ranges`]); within a step, segment `k`'s send is
//! posted, then the compute that consumes segment `k-1` runs (hidden behind
//! segment `k`'s wire time), then segment `k` is received. One segment per
//! chunk is the paper's phase-serial ring. Asking for more than one segment
//! ([`Layout::pipelined`], decided from the *requested* count, before
//! clamping to the chunk's block count) additionally changes three things,
//! each at one site below — see DESIGN.md §4.3 for the table.

use crate::chunks::f32_to_bytes;
use crate::codec::{DocCodec, HzCodec, SegCodec, Steps};
use crate::collectives;
use crate::config::CollectiveConfig;
use crate::hierarchy;
use crate::labels;
use crate::membership::View;
use crate::pipeline::{
    epoch_tag, seg_count, seg_range, seg_tag, TAG_AG, TAG_GATHER, TAG_HAG, TAG_HRING, TAG_HRS,
    TAG_RS, TAG_SCATTER,
};
use crate::rd;
use crate::resilient::{Hop, Interrupt, Resilience, Wire};
use crate::survivable;
use fzlight::Result;
use netsim::{Comm, Topology};
use std::ops::Range;
use tuner::{Flavor, Op};

/// Which collective to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verb {
    /// Every rank receives the full sum.
    Allreduce,
    /// Every rank receives its own reduced chunk.
    ReduceScatter,
    /// `root` receives the full sum, everyone else an empty vector.
    Reduce { root: usize },
    /// Everyone receives `root`'s `total_len`-element vector (the input is
    /// ignored off the root).
    Bcast { root: usize, total_len: usize },
    /// The input is this rank's chunk of a `total_len`-element vector;
    /// everyone receives the concatenation.
    Allgather { total_len: usize },
}

impl Verb {
    /// The verb the tuner's `op` names, rooted at `root` over `len`-element
    /// vectors (the tuner does not plan Allgather).
    pub(crate) fn of(op: Op, root: usize, len: usize) -> Verb {
        match op {
            Op::Allreduce => Verb::Allreduce,
            Op::ReduceScatter => Verb::ReduceScatter,
            Op::Reduce => Verb::Reduce { root },
            Op::Bcast => Verb::Bcast { root, total_len: len },
        }
    }
}

/// Which ring(s) a verb runs over.
pub(crate) enum Over<'a> {
    /// The flat ring over the whole communicator.
    Flat,
    /// Node rings around the leader ring (Allreduce only).
    Tiers(&'a Topology),
    /// The survivor rings of successive membership views, from the given
    /// one until an attempt commits (`crate::survivable`; Allreduce and
    /// Reduce_scatter only) — the committed view is left behind.
    Survivors(&'a mut View),
    /// No ring: recursive doubling over the whole communicator (Allreduce
    /// only).
    Doubling,
}

/// What a ring loop returns.
pub(crate) type Ran<T> = std::result::Result<T, Stop>;

/// Why a ring loop ended early.
#[derive(Debug)]
pub(crate) enum Stop {
    /// The codec refused a payload.
    Codec(fzlight::Error),
    /// A survivable hop was interrupted: a neighbour died or aborted in
    /// band. `send` / `recv` are the tags this rank was next due on (`None`:
    /// the loop had no further hop) — where its neighbours now wait for it
    /// ([`Hop::abort`]). Plain and framed hops fail fast instead.
    Interrupted { send: Option<u64>, recv: Option<u64> },
}

impl From<fzlight::Error> for Stop {
    fn from(e: fzlight::Error) -> Stop {
        Stop::Codec(e)
    }
}

/// An interrupted gather or scatter hop: no neighbour waits on a later tag.
impl From<Interrupt> for Stop {
    fn from(_: Interrupt) -> Stop {
        Stop::Interrupted { send: None, recv: None }
    }
}

impl Stop {
    /// A hop interrupted at segment `k` of step `step` (the phase's `last`?)
    /// under tag `base`, where this rank sends `nsend` segments, receives
    /// `nrecv`.
    fn at(base: u64, step: usize, last: bool, k: usize, nsend: usize, nrecv: usize) -> Stop {
        let next = |n: usize| match (k + 1 < n, last) {
            (true, _) => Some(seg_tag(base, step, k + 1)),
            (false, false) => Some(seg_tag(base, step + 1, 0)),
            (false, true) => None,
        };
        Stop::Interrupted { send: next(nsend), recv: next(nrecv) }
    }

    /// The same stop when another phase follows the interrupted one: past
    /// the last hop, `first` — that phase's first tag — was due next.
    pub(crate) fn before(self, first: Option<u64>) -> Stop {
        match self {
            Stop::Interrupted { send, recv } => {
                Stop::Interrupted { send: send.or(first), recv: recv.or(first) }
            }
            stop => stop,
        }
    }
}

/// The error of a loop over fail-fast hops.
impl From<Stop> for collectives::Error {
    fn from(stop: Stop) -> collectives::Error {
        match stop {
            Stop::Codec(e) => e.into(),
            Stop::Interrupted { .. } => unreachable!("plain and framed hops fail fast"),
        }
    }
}

/// One rank's view of a ring: its size and my position in it, the tag
/// sub-spaces of its two phases, and the [`Hop`] to and from my neighbours.
pub(crate) struct Ring<'a> {
    pub(crate) size: usize,
    pub(crate) pos: usize,
    rs_tag: u64,
    ag_tag: u64,
    /// First step id of the allgather phase (non-zero when both phases
    /// share one tag base).
    ag_step0: usize,
    pub(crate) hop: Hop<'a>,
}

impl<'a> Ring<'a> {
    /// Position `pos` of the `size`-cycle whose position `p` is global rank
    /// `at(p)`, on the flat ring's tags.
    fn cycle(
        size: usize,
        pos: usize,
        at: impl Fn(usize) -> usize,
        res: Option<&'a Resilience>,
    ) -> Ring<'a> {
        let hop = Hop::new(at((pos + 1) % size), at((pos + size - 1) % size), res);
        Ring { size, pos, rs_tag: TAG_RS, ag_tag: TAG_AG, ag_step0: 0, hop }
    }

    /// The flat ring over the whole communicator (position = rank).
    pub(crate) fn flat(comm: &Comm, res: Option<&'a Resilience>) -> Ring<'a> {
        Ring::cycle(comm.size(), comm.rank(), |p| p, res)
    }

    /// `rank`'s node ring: the `ppn` ranks of its node, by local index.
    pub(crate) fn node(topo: &Topology, rank: usize, res: Option<&'a Resilience>) -> Ring<'a> {
        let base = topo.node_of(rank) * topo.ppn;
        let ring = Ring::cycle(topo.ppn, topo.local_index(rank), |p| base + p, res);
        Ring { rs_tag: TAG_HRS, ag_tag: TAG_HAG, ..ring }
    }

    /// `rank`'s leader ring: the ranks sharing its local index, one per
    /// node; one tag base, allgather steps at ids `nodes-1..2(nodes-1)`.
    pub(crate) fn leaders(topo: &Topology, rank: usize, res: Option<&'a Resilience>) -> Ring<'a> {
        let (nodes, li) = (topo.nodes, topo.local_index(rank));
        let ring = Ring::cycle(nodes, topo.node_of(rank), |p| p * topo.ppn + li, res);
        Ring { rs_tag: TAG_HRING, ag_tag: TAG_HRING, ag_step0: nodes - 1, ..ring }
    }

    /// `rank`'s ring over the members of `view` (position = virtual rank),
    /// on tags salted with the view's epoch — traffic of a torn-down attempt
    /// can never match a repaired one. Its hops are survivable because the
    /// recovery loop runs it in survivable mode.
    pub(crate) fn survivors(view: &View, rank: usize, res: Option<&'a Resilience>) -> Ring<'a> {
        let pos = view.vrank(rank).expect("only members run attempts");
        let ring = Ring::cycle(view.len(), pos, |p| view.members[p], res);
        let salted = |base| epoch_tag(base, 0, 0, view.epoch);
        Ring { rs_tag: salted(TAG_RS), ag_tag: salted(TAG_AG), ..ring }
    }

    /// The tag of the allgather's first hop.
    pub(crate) fn first_ag_tag(&self) -> u64 {
        seg_tag(self.ag_tag, self.ag_step0, 0)
    }
}

/// Where the chunks and segments of a ring's vector fall, computed on
/// demand — a 128-rank ring allocates no per-call segment table. `total`
/// elements are cut into `cells` and the cells grouped into one chunk per
/// ring position, both by [`crate::chunks::node_chunks`]'s rule:
/// [`Layout::new`] has one cell per chunk, cut into block-aligned segments
/// ([`crate::pipeline::seg_ranges`]); in the view-shaped
/// [`Layout::regrouped`] the cells are the launch segments, chunk `g` is
/// survivor group `g`, and its segments are its cells.
#[derive(Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) total: usize,
    parts: usize,
    cells: usize,
    /// Elements per cell and cells per chunk; the last of each absorbs the
    /// remainder.
    base: usize,
    per: usize,
    segments: usize,
    block_len: usize,
    /// More than one segment per step was *requested* (even if a short
    /// chunk clamps to one): the overlap-friendly schedule runs instead of
    /// the paper's phase-serial one.
    pipelined: bool,
}

impl Layout {
    pub(crate) fn new(total: usize, parts: usize, segments: usize, block_len: usize) -> Layout {
        let segments = segments.max(1);
        let (cells, base, per) = (parts, total / parts, 1);
        Layout { total, parts, cells, base, per, segments, block_len, pipelined: segments > 1 }
    }

    /// `n0` launch segments regrouped over `m` survivors. Always the
    /// overlap-friendly schedule: a group's launch segments are prepared,
    /// decoded and forwarded one by one, behind each other's wire time.
    pub(crate) fn regrouped(total: usize, n0: usize, m: usize) -> Layout {
        let (base, per) = (total / n0, n0 / m);
        Layout { total, parts: m, cells: n0, base, per, segments: 1, block_len: 1, pipelined: true }
    }

    /// The cells of chunk `idx`.
    fn group(&self, idx: usize) -> Range<usize> {
        let start = idx * self.per;
        start..if idx == self.parts - 1 { self.cells } else { start + self.per }
    }

    fn cell(&self, id: usize) -> Range<usize> {
        let start = id * self.base;
        start..if id == self.cells - 1 { self.total } else { start + self.base }
    }

    pub(crate) fn chunk(&self, idx: usize) -> Range<usize> {
        let cells = self.group(idx);
        self.cell(cells.start).start..self.cell(cells.end - 1).end
    }

    fn nsegs(&self, idx: usize) -> usize {
        if self.segments == 1 {
            return self.group(idx).len();
        }
        seg_count(self.chunk(idx).len(), self.segments, self.block_len)
    }

    /// The most segments any chunk has (the last chunk is the longest).
    fn max_nsegs(&self) -> usize {
        self.nsegs(self.parts - 1)
    }

    fn seg(&self, idx: usize, k: usize) -> Range<usize> {
        if self.segments == 1 {
            return self.cell(self.slot(idx, k));
        }
        seg_range(&self.chunk(idx), self.segments, self.block_len, k)
    }

    /// Where a caller that keeps own operands keeps segment `k` of chunk
    /// `idx`'s: its cell id (unsegmented layouts only).
    fn slot(&self, idx: usize, k: usize) -> usize {
        self.group(idx).start + k
    }
}

/// The ring Reduce_scatter: after `N-1` steps the returned accumulators
/// hold chunk `ring.pos` (one per segment), summed over the ring.
///
/// Step `s` forwards the partial sum of chunk `pos-s-1` and folds the own
/// contribution into the arriving chunk `pos-s-2`.
pub(crate) fn reduce_scatter<C: SegCodec>(
    comm: &mut Comm,
    ring: &mut Ring<'_>,
    codec: &C,
    data: &[f32],
    lay: &Layout,
    kept: &mut Vec<Option<C::Operand>>,
) -> Ran<Vec<C::Acc>> {
    let (n, pos) = (ring.size, ring.pos);
    // pipelined site 1: the paper prepares all N own chunks up front (one
    // CPR sweep) and holds them until the reduction is over — freeing them
    // one by one would fragment the heap the allgather is about to fill;
    // the pipelined schedule prepares each segment just in time, behind
    // the wire: for one use (`kept` stays empty), or into the slot of a
    // caller that keeps one per cell — the recovery loop, across epochs, so
    // a repair recompresses nothing
    if !lay.pipelined {
        *kept = codec.prime(comm, data, (0..n).map(|idx| lay.chunk(idx)))?;
    }
    let prepare = |comm: &mut Comm, kept: &mut [Option<C::Operand>], idx: usize, k: usize| {
        let slot = kept.get_mut(lay.slot(idx, k)).filter(|_| lay.pipelined);
        match slot {
            Some(Some(_)) => comm.mark(labels::REC_STREAM_CACHE_HIT, 0),
            Some(slot) => *slot = codec.operand(comm, data, &lay.seg(idx, k))?,
            None if lay.pipelined => return codec.operand(comm, data, &lay.seg(idx, k)),
            None => {}
        }
        Ok(None)
    };
    let first = (pos + n - 1) % n;
    let mut acc = Vec::with_capacity(lay.max_nsegs());
    for k in 0..lay.nsegs(first) {
        let staged = prepare(comm, kept, first, k)?;
        let operand = staged.or_else(|| kept.get(lay.slot(first, k))?.clone());
        acc.push(codec.seed(data, &lay.seg(first, k), operand));
    }
    let mut next = Vec::with_capacity(lay.max_nsegs());
    // message buffers circulate: a folded arrival's bytes carry the next send
    let mut spare: Vec<Vec<u8>> = Vec::new();
    for s in 0..n - 1 {
        let send_idx = (pos + 2 * n - s - 1) % n;
        let recv_idx = (pos + 2 * n - s - 2) % n;
        let (base, s_send, s_recv) = (ring.rs_tag, acc.len(), lay.nsegs(recv_idx));
        // fold segment k of the arriving chunk into the own contribution
        // (over `spent`, the accumulator forwarded on the hop that brought it)
        let mut fold = |comm: &mut Comm,
                        kept: &[Option<C::Operand>],
                        (wire, staged, spent): (Wire, Option<C::Operand>, Option<C::Acc>),
                        k: usize| {
            let held = kept.get(lay.slot(recv_idx, k)).and_then(Option::as_ref);
            let rng = lay.seg(recv_idx, k);
            let (acc, buf) = codec.fold(comm, wire, data, &rng, staged.as_ref().or(held), spent)?;
            next.push(acc);
            Ok::<Vec<u8>, Stop>(buf)
        };
        let mut forwarded = acc.drain(..);
        let mut arrived = None;
        for k in 0..s_send.max(s_recv) {
            let tag = seg_tag(base, s, k);
            let stop = move |_| Stop::at(base, s, s + 2 == n, k, s_send, s_recv);
            let own = forwarded.next();
            if let Some(own) = &own {
                let wire = (codec.encode(comm, own, spare.pop().unwrap_or_default())?, C::WIRE);
                let logical = lay.seg(send_idx, k).len() * 4;
                ring.hop.send(comm, tag, wire, logical, k < s_recv).map_err(stop)?;
            }
            if k < s_recv {
                // the own operand and the previous segment's fold both hide
                // behind segment k's wire time
                let staged = prepare(comm, kept, recv_idx, k)?;
                if let Some(prev) = arrived.take() {
                    spare.push(fold(comm, kept, prev, k - 1)?);
                }
                // (only a framed hop — one segment, just sent — degrades)
                let degraded =
                    |c: &mut Comm| codec.degrade(c, own.as_ref().expect("a framed hop is paired"));
                let wire = ring.hop.recv(comm, tag, C::WIRE, degraded).map_err(stop)?;
                arrived = Some((wire, staged, own));
            }
        }
        let last = arrived.expect("every chunk has a segment");
        spare.push(fold(comm, kept, last, s_recv - 1)?);
        drop(forwarded);
        std::mem::swap(&mut acc, &mut next);
    }
    Ok(acc)
}

/// Hand the reduced own chunk over: value accumulators land in `out`
/// (indexed from element `base`), wire-form ones come back as segments.
fn settle<C: SegCodec>(
    codec: &C,
    accs: Vec<C::Acc>,
    lay: &Layout,
    pos: usize,
    out: &mut [f32],
    base: usize,
) -> Option<Vec<Wire>> {
    let mut held = Vec::new();
    for (k, acc) in accs.into_iter().enumerate() {
        let rng = lay.seg(pos, k);
        if let Some(wire) = codec.handoff(acc, &mut out[rng.start - base..rng.end - base]) {
            held.push((wire, C::WIRE));
        }
    }
    (!held.is_empty()).then_some(held)
}

/// Decode chunk `idx`'s segments into `out` (indexed from element `base`).
pub(crate) fn install_chunk<C: SegCodec>(
    comm: &mut Comm,
    codec: &C,
    segs: &mut [Wire],
    lay: &Layout,
    idx: usize,
    out: &mut [f32],
    base: usize,
) -> Result<()> {
    for (k, (wire, kind)) in segs.iter_mut().enumerate() {
        let rng = lay.seg(idx, k);
        let dst = &mut out[rng.start - base..rng.end - base];
        *wire = codec.install(comm, std::mem::take(wire), *kind, dst)?;
    }
    Ok(())
}

/// The ring Allgather into `out`. The own chunk is either already raw in
/// `out` (`own == None`) or still in wire form.
///
/// Step `s` forwards chunk `pos-s` and receives chunk `pos-s-1`.
pub(crate) fn allgather<C: SegCodec>(
    comm: &mut Comm,
    ring: &mut Ring<'_>,
    codec: &C,
    lay: &Layout,
    own: Option<Vec<Wire>>,
    out: &mut [f32],
) -> Ran<()> {
    let (n, pos) = (ring.size, ring.pos);
    // pipelined site 2: under the paper schedule a hop-by-hop codec
    // re-encodes what it forwards from the output buffer every step;
    // pipelined, every codec forwards the bytes it received
    let recode = !lay.pipelined && !codec.forwards_verbatim();
    // pipelined site 3: the paper decodes after the last step, in chunk
    // order; otherwise segments decode on arrival, one slot late (hidden
    // behind the next segment's wire), and the own chunk before the first
    // step
    let decode_last = !lay.pipelined && !recode;

    // held[idx * smax + k]: segment k of chunk idx in wire form, kept for its
    // next hop and (paper schedule) the final decode
    let smax = lay.max_nsegs();
    let mut held: Vec<Option<Wire>> = vec![None; if recode { 0 } else { n * smax }];
    let own_is_wire = own.is_some();
    match own {
        Some(mut segs) => {
            if !decode_last {
                install_chunk(comm, codec, &mut segs, lay, pos, out, 0)?;
            }
            for (k, seg) in segs.into_iter().enumerate() {
                held[pos * smax + k] = Some(seg);
            }
        }
        None if n > 1 && !recode => {
            for k in 0..lay.nsegs(pos) {
                let wire = codec.pack(comm, &out[lay.seg(pos, k)], Vec::new())?;
                held[pos * smax + k] = Some((wire, C::WIRE));
            }
        }
        None => {}
    }
    // an arrived segment is decoded now (unless everything decodes last) and
    // kept for its next hop (or, if that hop re-encodes, as a spare buffer)
    let mut spare: Vec<Vec<u8>> = Vec::new();
    let keep = |comm: &mut Comm,
                out: &mut [f32],
                held: &mut [Option<Wire>],
                spare: &mut Vec<Vec<u8>>,
                (mut wire, kind): Wire,
                idx: usize,
                k: usize| {
        if !decode_last {
            wire = codec.install(comm, wire, kind, &mut out[lay.seg(idx, k)])?;
        }
        if recode {
            spare.push(wire);
        } else {
            held[idx * smax + k] = Some((wire, kind));
        }
        Ok::<(), Stop>(())
    };
    for s in 0..n - 1 {
        let send_idx = (pos + n - s) % n;
        let recv_idx = (pos + 2 * n - s - 1) % n;
        let (s_send, s_recv) = (lay.nsegs(send_idx), lay.nsegs(recv_idx));
        let (base, step) = (ring.ag_tag, ring.ag_step0 + s);
        let mut arrived: Option<Wire> = None;
        for k in 0..s_send.max(s_recv) {
            let tag = seg_tag(base, step, k);
            let stop = move |_| Stop::at(base, step, s + 2 == n, k, s_send, s_recv);
            if k < s_send {
                let rng = lay.seg(send_idx, k);
                let wire = if recode {
                    let buf = spare.pop().unwrap_or_default();
                    (codec.pack(comm, &out[rng.clone()], buf)?, C::WIRE)
                } else {
                    // a chunk is forwarded exactly once, so only a later
                    // decode needs the bytes kept
                    let slot = &mut held[send_idx * smax + k];
                    let wire = if decode_last { slot.clone() } else { slot.take() };
                    wire.expect("the chunk to forward has arrived")
                };
                ring.hop.send(comm, tag, wire, rng.len() * 4, k < s_recv).map_err(stop)?;
            }
            if k < s_recv {
                if let Some(wire) = arrived.take() {
                    keep(comm, out, &mut held, &mut spare, wire, recv_idx, k - 1)?;
                }
                // (only a framed hop — one segment, just sent — degrades)
                let degraded = |c: &mut Comm| match held.get(send_idx * smax + k) {
                    Some(Some((bytes, _))) => codec.degrade_wire(c, bytes),
                    _ => f32_to_bytes(&out[lay.seg(send_idx, k)]),
                };
                arrived = Some(ring.hop.recv(comm, tag, C::WIRE, degraded).map_err(stop)?);
            }
        }
        let wire = arrived.expect("every chunk has a segment");
        keep(comm, out, &mut held, &mut spare, wire, recv_idx, s_recv - 1)?;
    }
    if decode_last {
        for idx in (0..n).filter(|&idx| idx != pos || own_is_wire) {
            // (a raw own chunk — C-Coll's allgather — never round-trips)
            for k in 0..lay.nsegs(idx) {
                let (wire, kind) = held[idx * smax + k].take().expect("the ring left no hole");
                codec.install(comm, wire, kind, &mut out[lay.seg(idx, k)])?;
            }
        }
    }
    Ok(())
}

/// `Allreduce` = Reduce_scatter, then Allgather of the reduced chunks.
pub(crate) fn allreduce<C: SegCodec>(
    comm: &mut Comm,
    ring: &mut Ring<'_>,
    codec: &C,
    data: &[f32],
    segments: usize,
) -> Ran<Vec<f32>> {
    let lay = Layout::new(data.len(), ring.size, segments, codec.block_len());
    let accs = reduce_scatter(comm, ring, codec, data, &lay, &mut Vec::new())?;
    let mut out = vec![0f32; data.len()];
    let own = settle(codec, accs, &lay, ring.pos, &mut out, 0);
    allgather(comm, ring, codec, &lay, own, &mut out)?;
    Ok(out)
}

/// Gather the reduced chunks to `root` (MPICH's large-message Reduce
/// tail): everyone else encodes and sends, the root installs.
fn gather<C: SegCodec>(
    comm: &mut Comm,
    ring: &Ring<'_>,
    codec: &C,
    lay: &Layout,
    accs: Vec<C::Acc>,
    root: usize,
) -> Ran<Vec<f32>> {
    let (n, pos) = (ring.size, ring.pos);
    if pos != root {
        for (k, acc) in accs.iter().enumerate() {
            let wire = (codec.encode(comm, acc, Vec::new())?, C::WIRE);
            let (tag, logical) = (seg_tag(TAG_GATHER, pos, k), lay.seg(pos, k).len() * 4);
            ring.hop.send_to(comm, root, tag, wire, logical, |c| codec.degrade(c, acc))?;
        }
        return Ok(Vec::new());
    }
    let mut out = vec![0f32; lay.total];
    if let Some(mut segs) = settle(codec, accs, lay, pos, &mut out, 0) {
        install_chunk(comm, codec, &mut segs, lay, pos, &mut out, 0)?;
    }
    for src in (0..n).filter(|&src| src != root) {
        for k in 0..lay.nsegs(src) {
            let (wire, kind) =
                ring.hop.recv_from(comm, src, seg_tag(TAG_GATHER, src, k), C::WIRE)?;
            codec.install(comm, wire, kind, &mut out[lay.seg(src, k)])?;
        }
    }
    Ok(out)
}

/// Scatter `root`'s chunks (long-message Bcast head). Returns the own chunk
/// in wire form when the codec forwards verbatim — the root then encodes its
/// own chunk too, so every rank decodes the same bytes — and otherwise
/// leaves it raw in `out`.
fn scatter<C: SegCodec>(
    comm: &mut Comm,
    ring: &Ring<'_>,
    codec: &C,
    lay: &Layout,
    data: &[f32],
    root: usize,
    out: &mut [f32],
) -> Ran<Option<Vec<Wire>>> {
    let (n, pos) = (ring.size, ring.pos);
    let keep = codec.forwards_verbatim();
    let mut own = Vec::new();
    if pos == root {
        assert_eq!(data.len(), lay.total, "bcast root must hold the full vector");
        for dst in (0..n).filter(|&dst| keep || dst != root) {
            for k in 0..lay.nsegs(dst) {
                let rng = lay.seg(dst, k);
                let wire = (codec.pack(comm, &data[rng.clone()], Vec::new())?, C::WIRE);
                if dst == root {
                    own.push(wire);
                    continue;
                }
                let (tag, logical) = (seg_tag(TAG_SCATTER, dst, k), rng.len() * 4);
                // the root still holds the raw chunk — no DPR needed
                let raw = |_: &mut Comm| f32_to_bytes(&data[rng.clone()]);
                ring.hop.send_to(comm, dst, tag, wire, logical, raw)?;
            }
        }
        if !keep {
            out[lay.chunk(pos)].copy_from_slice(&data[lay.chunk(pos)]);
        }
    } else {
        for k in 0..lay.nsegs(pos) {
            let (wire, kind) =
                ring.hop.recv_from(comm, root, seg_tag(TAG_SCATTER, pos, k), C::WIRE)?;
            if keep {
                own.push((wire, kind));
            } else {
                codec.install(comm, wire, kind, &mut out[lay.seg(pos, k)])?;
            }
        }
    }
    Ok(keep.then_some(own))
}

/// Run `verb` with `codec` over the ring(s) `over` names.
fn run_with<C: SegCodec>(
    comm: &mut Comm,
    codec: C,
    verb: Verb,
    data: &[f32],
    cfg: &CollectiveConfig,
    segments: usize,
    over: Over<'_>,
) -> collectives::Result<Vec<f32>> {
    let (codec, res) = (&codec, cfg.res.as_ref());
    match over {
        Over::Flat => {}
        Over::Tiers(topo) => {
            debug_assert_eq!(verb, Verb::Allreduce, "only Allreduce has a two-tier schedule");
            return Ok(hierarchy::allreduce(comm, data, topo, cfg.mode.threads(), codec, res)?);
        }
        Over::Survivors(view) => {
            debug_assert!(matches!(verb, Verb::Allreduce | Verb::ReduceScatter));
            return survivable::recover(comm, codec, data, res, verb == Verb::Allreduce, view);
        }
        Over::Doubling => {
            debug_assert_eq!(verb, Verb::Allreduce, "only Allreduce has a doubling schedule");
            return Ok(rd::allreduce(comm, codec, data, res)?);
        }
    }
    // A framed hop is one stop-and-wait exchange, posted when its receive
    // runs and over when both directions are ACKed: segments could overlap
    // nothing with the wire (and the unpaired ones of a ragged step would
    // have nothing to degrade with). Resilience ⇒ S = 1, until the exchange
    // is a sliding window.
    let segments = if res.is_some() { 1 } else { segments };
    let ring = &mut Ring::flat(comm, res);
    let (n, pos, block_len) = (ring.size, ring.pos, codec.block_len());
    let layout = |total| Layout::new(total, n, segments, block_len);
    let ran: Ran<Vec<f32>> = match verb {
        Verb::Allreduce => allreduce(comm, ring, codec, data, segments),
        Verb::ReduceScatter => {
            let lay = layout(data.len());
            let accs = reduce_scatter(comm, ring, codec, data, &lay, &mut Vec::new())?;
            let chunk = lay.chunk(pos);
            let mut out = vec![0f32; chunk.len()];
            if let Some(mut segs) = settle(codec, accs, &lay, pos, &mut out, chunk.start) {
                // the single final decompression of the hZCCL workflow
                install_chunk(comm, codec, &mut segs, &lay, pos, &mut out, chunk.start)?;
            }
            Ok(out)
        }
        Verb::Reduce { root } => {
            let lay = layout(data.len());
            let accs = reduce_scatter(comm, ring, codec, data, &lay, &mut Vec::new())?;
            gather(comm, ring, codec, &lay, accs, root)
        }
        Verb::Bcast { root, total_len } => {
            if n == 1 {
                assert_eq!(data.len(), total_len);
                return Ok(data.to_vec());
            }
            let lay = layout(total_len);
            let mut out = vec![0f32; total_len];
            let own = scatter(comm, ring, codec, &lay, data, root, &mut out)?;
            allgather(comm, ring, codec, &lay, own, &mut out)?;
            Ok(out)
        }
        Verb::Allgather { total_len } => {
            let lay = layout(total_len);
            assert_eq!(data.len(), lay.chunk(pos).len(), "own chunk has the wrong length");
            let mut out = vec![0f32; total_len];
            out[lay.chunk(pos)].copy_from_slice(data);
            allgather(comm, ring, codec, &lay, None, &mut out)?;
            Ok(out)
        }
    };
    Ok(ran?)
}

/// The step labels `flavor`'s codec charges for `verb` on the ring, or on
/// recursive doubling (`rd`): `[encode, decode, combine]`.
fn steps(flavor: Flavor, verb: Verb, rd: bool) -> Steps {
    use labels::*;
    let hz = |encode, decode| [encode, decode, HZ_HOMOMORPHIC_SUM];
    match (flavor, rd, verb) {
        (Flavor::Mpi, false, _) => [MPI_PACK, MPI_UNPACK, MPI_REDUCE],
        (Flavor::Mpi, true, _) => [RD_PACK, RD_UNPACK, RD_REDUCE],
        (Flavor::CColl, false, _) => [CCOLL_COMPRESS, CCOLL_DECOMPRESS, CCOLL_REDUCE],
        (Flavor::CColl, true, _) => [RD_COMPRESS, RD_DECOMPRESS, RD_REDUCE],
        (Flavor::Hzccl, true, _) => [RD_COMPRESS, RD_DECOMPRESS, RD_HOMOMORPHIC_SUM],
        (Flavor::Hzccl, false, Verb::Reduce { .. }) => hz(HZ_COMPRESS_SEGMENT, HZ_ROOT_DECOMPRESS),
        (Flavor::Hzccl, false, Verb::Bcast { .. }) => hz(HZ_BCAST_COMPRESS, HZ_BCAST_DECOMPRESS),
        (Flavor::Hzccl, false, _) => hz(HZ_COMPRESS_SEGMENT, HZ_FINAL_DECOMPRESS),
    }
}

/// The one verb × flavour dispatch: run `verb` in `flavor`'s workflow at
/// the requested `segments` count over the ring(s) — or the doubling —
/// `over` names.
pub(crate) fn run(
    comm: &mut Comm,
    verb: Verb,
    flavor: Flavor,
    data: &[f32],
    cfg: &CollectiveConfig,
    segments: usize,
    over: Over<'_>,
) -> collectives::Result<Vec<f32>> {
    let steps = steps(flavor, verb, matches!(over, Over::Doubling));
    match flavor {
        Flavor::Mpi => run_with(comm, DocCodec::mpi(cfg, steps), verb, data, cfg, segments, over),
        Flavor::CColl => {
            run_with(comm, DocCodec::ccoll(cfg, steps), verb, data, cfg, segments, over)
        }
        Flavor::Hzccl => run_with(comm, HzCodec::new(cfg, steps), verb, data, cfg, segments, over),
    }
}

/// CPR-P2P ring Allreduce — the comparison chain's oldest link, reachable
/// only from tests.
#[cfg(test)]
pub(crate) fn allreduce_p2p(
    comm: &mut Comm,
    data: &[f32],
    cfg: &CollectiveConfig,
) -> collectives::Result<Vec<f32>> {
    let ring = &mut Ring::flat(comm, cfg.res.as_ref());
    Ok(allreduce(comm, ring, &DocCodec::p2p(cfg), data, 1)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::node_chunks;
    use crate::config::Mode;
    use crate::pipeline::seg_ranges;
    use netsim::{Breakdown, ComputeTiming, RankOutcome, SimBuilder, ThroughputModel};

    const EB: f64 = 1e-4;
    const FLAVOURS: [Flavor; 3] = [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl];

    fn sim<T: Send>(
        nranks: usize,
        f: impl Fn(&mut Comm) -> T + Send + Sync,
    ) -> Vec<RankOutcome<T>> {
        let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
        SimBuilder::new(nranks).timing(timing).run(f).expect_clean().outcomes
    }

    /// Exactly representable values for the raw ring (its sums must be
    /// bit-exact in any association), a smooth compressible field otherwise.
    fn field(flavor: Flavor, rank: usize, n: usize) -> Vec<f32> {
        match flavor {
            Flavor::Mpi => (0..n).map(|i| ((i + 1) * (rank + 1)) as f32 * 0.25).collect(),
            _ => (0..n).map(|i| ((i as f32) * 0.013).sin() * (rank + 1) as f32 * 1.7).collect(),
        }
    }

    fn direct_sum(flavor: Flavor, nranks: usize, n: usize) -> Vec<f32> {
        let mut acc = vec![0f32; n];
        for r in 0..nranks {
            for (a, b) in acc.iter_mut().zip(field(flavor, r, n)) {
                *a += b;
            }
        }
        acc
    }

    /// Worst-case error of a reduction over `nranks` (error_bounds.rs), with
    /// the f32 slack of the final store.
    fn reduce_tol(flavor: Flavor, nranks: usize) -> f64 {
        match flavor {
            Flavor::Mpi => 0.0,
            Flavor::CColl => crate::error_bounds::ccoll_allreduce(nranks, EB) + 1e-6,
            Flavor::Hzccl => crate::error_bounds::hzccl_allreduce(nranks, EB) + 1e-6,
        }
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f64, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(((a - b).abs() as f64) <= tol, "{what} at {i}: {a} vs {b}");
        }
    }

    fn run_flavor(
        comm: &mut Comm,
        verb: Verb,
        flavor: Flavor,
        data: &[f32],
        mode: Mode,
        segments: usize,
    ) -> Vec<f32> {
        let cfg = CollectiveConfig::new(EB, mode);
        run(comm, verb, flavor, data, &cfg, segments, Over::Flat).expect("ring verb")
    }

    #[test]
    fn layout_is_node_chunks_cut_by_seg_ranges() {
        for (total, parts, segments, bl) in
            [(4001usize, 8usize, 4usize, 32usize), (97, 3, 4, 32), (1000, 5, 64, 1), (8, 8, 1, 32)]
        {
            let lay = Layout::new(total, parts, segments, bl);
            for (idx, chunk) in node_chunks(total, parts).into_iter().enumerate() {
                assert_eq!(lay.chunk(idx), chunk);
                let want = seg_ranges(chunk, segments, bl);
                assert_eq!(lay.nsegs(idx), want.len());
                for (k, rng) in want.into_iter().enumerate() {
                    assert_eq!(lay.seg(idx, k), rng);
                }
            }
        }
        // the view-shaped form: n0 launch segments regrouped over m
        // survivors — chunk g is the union of group g's launch segments,
        // which are its ring segments
        for (n0, m) in [(8usize, 8usize), (8, 7), (8, 3), (5, 1)] {
            let (lay, launch) = (Layout::regrouped(4001, n0, m), node_chunks(4001, n0));
            let groups = node_chunks(n0, m);
            assert_eq!(lay.max_nsegs(), groups.iter().map(|g| g.len()).max().unwrap());
            for (g, group) in groups.into_iter().enumerate() {
                assert_eq!(lay.chunk(g), launch[group.start].start..launch[group.end - 1].end);
                assert_eq!(lay.nsegs(g), group.len(), "the last survivor absorbs the extras");
                for (k, id) in group.enumerate() {
                    assert_eq!(lay.seg(g, k), launch[id]);
                    assert_eq!(lay.slot(g, k), id);
                }
            }
        }
    }

    /// Every verb x flavour x ring size x schedule delivers what it says:
    /// bit-exact for the raw ring, within the analytic bound otherwise.
    #[test]
    fn every_verb_flavour_and_schedule_is_correct() {
        let n = 1000;
        for flavor in FLAVOURS {
            for (nranks, mode) in [
                (2usize, Mode::SingleThread),
                (3, Mode::MultiThread(2)),
                (5, Mode::SingleThread),
                (8, Mode::SingleThread),
            ] {
                let sum = direct_sum(flavor, nranks, n);
                let chunks = node_chunks(n, nranks);
                let root = 2 % nranks;
                let tol = reduce_tol(flavor, nranks);
                // moving data quantizes it at most once (plus the f32 store)
                let move_tol = if flavor == Flavor::Mpi { 0.0 } else { EB + 2e-6 };
                for segments in [1usize, 4] {
                    let what = format!("{flavor:?} r{nranks} s{segments}");
                    let go = |verb: Verb| {
                        sim(nranks, |comm| {
                            let data = field(flavor, comm.rank(), n);
                            match verb {
                                Verb::Allgather { .. } => {
                                    let own = &sum[chunks[comm.rank()].clone()];
                                    run_flavor(comm, verb, flavor, own, mode, segments)
                                }
                                Verb::Bcast { .. } if comm.rank() != root => {
                                    run_flavor(comm, verb, flavor, &[], mode, segments)
                                }
                                _ => run_flavor(comm, verb, flavor, &data, mode, segments),
                            }
                        })
                    };
                    for o in go(Verb::Allreduce) {
                        assert_close(&o.value, &sum, tol, &format!("allreduce {what}"));
                    }
                    for (r, o) in go(Verb::ReduceScatter).iter().enumerate() {
                        let want = &sum[chunks[r].clone()];
                        assert_close(&o.value, want, tol, &format!("reduce_scatter {what}"));
                    }
                    for (r, o) in go(Verb::Reduce { root }).iter().enumerate() {
                        if r == root {
                            assert_close(&o.value, &sum, tol, &format!("reduce {what}"));
                        } else {
                            assert!(o.value.is_empty(), "reduce {what}: rank {r} holds a result");
                        }
                    }
                    let base = field(flavor, root, n);
                    for o in go(Verb::Bcast { root, total_len: n }) {
                        assert_close(&o.value, &base, move_tol, &format!("bcast {what}"));
                    }
                    for o in go(Verb::Allgather { total_len: n }) {
                        assert_close(&o.value, &sum, move_tol, &format!("allgather {what}"));
                    }
                }
            }
        }
    }

    /// Quantization is per element and compressor blocks are independent,
    /// so segment boundaries cannot change an output bit — and the
    /// homomorphic ring does the same CPR/HPR/DPR volumes either way.
    #[test]
    fn pipelined_results_are_bit_identical_to_serial() {
        let (n, nranks) = (4096, 5);
        for flavor in FLAVOURS {
            let go = |verb: Verb, segments: usize| {
                sim(nranks, |comm| {
                    let data = field(flavor, comm.rank(), n);
                    let v = run_flavor(comm, verb, flavor, &data, Mode::SingleThread, segments);
                    (v, comm.breakdown())
                })
            };
            let serial = go(Verb::Allreduce, 1);
            for segments in [2usize, 8, 64] {
                for (a, b) in serial.iter().zip(&go(Verb::Allreduce, segments)) {
                    assert_eq!(a.value.0, b.value.0, "{flavor:?} segments={segments}");
                }
            }
            let (serial, piped) = (go(Verb::ReduceScatter, 1), go(Verb::ReduceScatter, 4));
            for (a, b) in serial.iter().zip(&piped) {
                let (x, y): (Breakdown, Breakdown) = (a.value.1, b.value.1);
                assert_eq!(a.value.0, b.value.0, "{flavor:?}");
                assert!((x.cpr - y.cpr).abs() < 1e-12, "{flavor:?} CPR totals differ");
                assert!((x.hpr - y.hpr).abs() < 1e-12, "{flavor:?} HPR totals differ");
                assert!((x.dpr - y.dpr).abs() < 1e-12, "{flavor:?} DPR totals differ");
            }
        }
    }

    /// Table II's cost signatures, per Reduce_scatter, under both schedules.
    #[test]
    fn each_flavour_charges_its_own_cost_signature() {
        for flavor in FLAVOURS {
            for segments in [1usize, 4] {
                let outcomes = sim(4, |comm| {
                    let data = field(flavor, comm.rank(), 4096);
                    let verb = Verb::ReduceScatter;
                    run_flavor(comm, verb, flavor, &data, Mode::SingleThread, segments);
                    comm.breakdown()
                });
                for o in outcomes {
                    let b = o.value;
                    match flavor {
                        Flavor::Mpi => {
                            assert!(b.cpt > 0.0 && b.cpr + b.dpr + b.hpr == 0.0, "{b:?}");
                        }
                        Flavor::CColl => {
                            // DOC every round, never homomorphic
                            assert!(b.cpr > 0.0 && b.dpr > 0.0 && b.cpt > 0.0, "{b:?}");
                            assert_eq!(b.hpr, 0.0, "{b:?}");
                        }
                        Flavor::Hzccl => {
                            // HPR every round, never on raw values, and
                            // exactly one chunk's decompression
                            assert!(b.hpr > 0.0 && b.cpt == 0.0, "{b:?}");
                            assert!(b.dpr > 0.0 && b.dpr < b.cpr, "{b:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn homomorphic_reduce_decompresses_on_the_root_only() {
        for segments in [1usize, 4] {
            let outcomes = sim(4, |comm| {
                let data = field(Flavor::Hzccl, comm.rank(), 2048);
                let verb = Verb::Reduce { root: 0 };
                run_flavor(comm, verb, Flavor::Hzccl, &data, Mode::SingleThread, segments);
                comm.breakdown()
            });
            assert!(outcomes[0].value.dpr > 0.0, "root decompresses");
            for o in &outcomes[1..] {
                assert_eq!(o.value.dpr, 0.0, "non-roots never decompress: {:?}", o.value);
            }
        }
    }

    /// Everyone decodes the same bytes, so ranks agree bitwise — except
    /// under C-Coll, whose allgather keeps the own chunk raw.
    #[test]
    fn ranks_agree_bitwise_where_the_workflow_promises_it() {
        for flavor in [Flavor::Mpi, Flavor::Hzccl] {
            for segments in [1usize, 4] {
                for verb in [Verb::Allreduce, Verb::Bcast { root: 1, total_len: 1000 }] {
                    let outcomes = sim(5, |comm| {
                        let data = field(flavor, comm.rank(), 1000);
                        run_flavor(comm, verb, flavor, &data, Mode::MultiThread(2), segments)
                    });
                    for o in &outcomes[1..] {
                        assert_eq!(o.value, outcomes[0].value, "{flavor:?} {verb:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_single_rank_is_the_identity_up_to_quantization() {
        for flavor in FLAVOURS {
            for segments in [1usize, 4] {
                let want = field(flavor, 0, 256);
                let verbs = [
                    Verb::Allreduce,
                    Verb::ReduceScatter,
                    Verb::Reduce { root: 0 },
                    Verb::Bcast { root: 0, total_len: 256 },
                ];
                for verb in verbs {
                    let outcomes = sim(1, |comm| {
                        run_flavor(comm, verb, flavor, &want, Mode::SingleThread, segments)
                    });
                    let tol = if flavor == Flavor::Hzccl { EB + 1e-9 } else { 0.0 };
                    assert_close(&outcomes[0].value, &want, tol, &format!("{flavor:?} {verb:?}"));
                }
            }
        }
    }

    #[test]
    fn raw_ring_is_communication_bound_for_large_messages() {
        let outcomes = sim(4, |comm| {
            let data = field(Flavor::Mpi, comm.rank(), 1 << 20);
            run_flavor(comm, Verb::Allreduce, Flavor::Mpi, &data, Mode::SingleThread, 1);
            comm.breakdown()
        });
        for o in &outcomes[1..] {
            assert!(o.value.mpi > o.value.cpt, "{:?}", o.value);
        }
    }

    #[test]
    fn p2p_allreduce_is_error_bounded() {
        let (n, nranks) = (1200, 4);
        let cfg = CollectiveConfig::new(EB, Mode::SingleThread);
        let outcomes = sim(nranks, |comm| {
            let data = field(Flavor::CColl, comm.rank(), n);
            allreduce_p2p(comm, &data, &cfg).expect("p2p allreduce")
        });
        // per-hop recompression: every one of the 2(N-1) hops can re-quantize
        let tol = crate::error_bounds::p2p_allreduce(nranks, EB) + 1e-6;
        for o in outcomes {
            assert_close(&o.value, &direct_sum(Flavor::CColl, nranks, n), tol, "p2p");
        }
    }

    /// CPR-P2P is crate-private, so its bit-identity golden lives here
    /// rather than in `tests/ring_goldens.rs` (same inputs, same digests:
    /// chrome-trace FNV-1a, makespan bits, value FNV-1a; generated before
    /// the per-flavour ring loops were folded into this module).
    #[test]
    fn p2p_allreduce_matches_its_pre_refactor_golden_under_both_engines() {
        use netsim::{SimEngine, TraceConfig};
        fn fnv1a(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let goldens = [
            (3usize, 0x0974_9e55_582a_fe25u64, 0x3efa_7a6d_6f9f_7417u64, 0x4831_c506_73d4_6286u64),
            (8, 0xc63d_f5aa_0e95_ce0f, 0x3f10_c7e2_6b58_a79f, 0x2582_366e_448b_c1cc),
        ];
        let cfg = CollectiveConfig::new(EB, Mode::SingleThread);
        for (nranks, trace, makespan, values) in goldens {
            for engine in [SimEngine::Events, SimEngine::Threads] {
                let timing =
                    ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
                let report = SimBuilder::new(nranks)
                    .timing(timing)
                    .trace(TraceConfig::default())
                    .engine(engine)
                    .run(|comm| {
                        let scale = 1.0 + 0.01 * comm.rank() as f32;
                        let data: Vec<f32> =
                            (0..4001).map(|i| ((i as f32) * 0.013).sin() * scale).collect();
                        allreduce_p2p(comm, &data, &cfg).expect("p2p allreduce")
                    })
                    .expect_clean();
                let (mut t, mut v) = (0xCBF2_9CE4_8422_2325u64, 0xCBF2_9CE4_8422_2325u64);
                fnv1a(&mut t, netsim::trace::chrome_trace(&report.traces, None).as_bytes());
                for o in &report.outcomes {
                    fnv1a(&mut v, &(o.rank as u64).to_le_bytes());
                    fnv1a(&mut v, &(o.value.len() as u64).to_le_bytes());
                    for x in &o.value {
                        fnv1a(&mut v, &x.to_bits().to_le_bytes());
                    }
                }
                let got = (t, report.stats.makespan.to_bits(), v);
                assert_eq!(got, (trace, makespan, values), "r{nranks} under {}", engine.name());
            }
        }
    }

    /// The paper's lineage: hZCCL < C-Coll < CPR-P2P in virtual time, the
    /// last because its allgather pays a fresh CPR on every hop where
    /// C-Coll compresses once.
    #[test]
    fn comparison_chain_p2p_ccoll_hzccl() {
        let (n, nranks) = (1 << 16, 8);
        let cfg = CollectiveConfig::new(EB, Mode::SingleThread);
        let go = |which: usize| {
            let outcomes = sim(nranks, |comm| {
                let data: Vec<f32> = (0..n)
                    .map(|i| ((i as f32) * 0.004).sin() * (1.0 + 0.001 * comm.rank() as f32))
                    .collect();
                match which {
                    0 => allreduce_p2p(comm, &data, &cfg),
                    1 => run(comm, Verb::Allreduce, Flavor::CColl, &data, &cfg, 1, Over::Flat),
                    _ => run(comm, Verb::Allreduce, Flavor::Hzccl, &data, &cfg, 1, Over::Flat),
                }
                .expect("allreduce");
                comm.breakdown().cpr
            });
            let makespan = outcomes.iter().map(|o| o.elapsed).fold(0.0, f64::max);
            (makespan, outcomes.iter().map(|o| o.value).sum::<f64>())
        };
        let ((t_p2p, cpr_p2p), (t_ccoll, cpr_ccoll), (t_hz, _)) = (go(0), go(1), go(2));
        assert!(t_hz < t_ccoll, "hz {t_hz} vs ccoll {t_ccoll}");
        assert!(t_ccoll < t_p2p, "ccoll {t_ccoll} vs p2p {t_p2p}");
        // reduce-scatter CPRs are equal; the allgather adds N-2 more per rank
        assert!(cpr_p2p > 1.5 * cpr_ccoll, "p2p CPR {cpr_p2p} vs C-Coll's {cpr_ccoll}");
    }
}
