//! The wire tag namespace and the segmentation plumbing of the pipelined
//! ring collectives. Every phase's tag base, the phase name [`decode_tag`]
//! reports for it, and the resilient transport's control bit are declared
//! once, below; every schedule and the decoder read them.
//!
//! A phase-serial ring step moves one whole node-chunk and only then runs
//! the compute that consumes it (HPR / DOC / CPT). The pipelined schedule
//! splits every chunk into `S` *segments* and interleaves, so segment `s`'s
//! compute overlaps segment `s+1`'s wire time — the closed form is
//! `costmodel::pipelined_step`. This module owns the pieces every flavour
//! shares:
//!
//! * [`seg_ranges`] — the deterministic, block-aligned segment split that
//!   all ranks must agree on (a rank segmenting differently from its
//!   neighbour deadlocks on mismatched tags);
//! * `seg_tag` — the tag sub-space `base + step·4096 + seg`, keeping each
//!   `(step, segment)` pair's messages disjoint.

use std::ops::Range;

/// Declares each collective tag base once: its constant, `k << 32` for its
/// number `k`, and its [`decode_tag`] phase name, as one row of [`PHASES`].
macro_rules! tag_bases {
    ($($tag:ident = $k:literal => $phase:literal,)*) => {
        $(pub(crate) const $tag: u64 = $k << 32;)*
        /// Every collective tag base and its phase name, in base order.
        const PHASES: &[(u64, &str)] = &[$(($tag, $phase)),*];
    };
}

tag_bases! {
    TAG_RS = 1 => "rs",           // reduce-scatter steps of the flat and survivor rings
    TAG_AG = 2 => "ag",           // their allgather steps
    TAG_GATHER = 3 => "gather",   // segments sent to the root of a Reduce
    TAG_SCATTER = 4 => "scatter", // segments sent from the root of a Bcast
    TAG_RD = 5 => "rd",           // recursive-doubling rounds (+ mask)
    TAG_FOLD = 6 => "fold",       // its fold (+ 0) and unfold (+ 1) of the extra ranks
    TAG_PLAN = 7 => "plan",       // auto's plan broadcast
    TAG_HRS = 8 => "h-rs",        // hierarchical: intra-node reduce-scatter
    TAG_HRING = 9 => "h-ring",    // inter-node ring, its allgather at disjoint step ids
    TAG_HAG = 10 => "h-ag",       // intra-node allgather
    TAG_AGREE = 11 => "agree",    // the survivors' agreement plane, one step per round
}

/// The resilient transport's ACK/NACK frames travel on their data tag with
/// this bit set; the tag bases (bits 32–35) and the epoch field never reach
/// it.
pub(crate) const CTRL_BIT: u64 = 1 << 63;

/// Per-step tag stride: segments live in `base + step*SEG_TAG_STRIDE + seg`,
/// so a ring supports up to 4096 segments per step (far above
/// [`MAX_SEGMENTS`]) and `2^32 / 4096 = 2^20` steps per tag base.
pub(crate) const SEG_TAG_STRIDE: u64 = 4096;

/// Hard cap on the segment count — the cost model's, so the schedule never
/// runs a count the tuner cannot price: past this, per-segment latency `S·α`
/// swamps any overlap gain.
pub(crate) use tuner::MAX_SEGMENTS;

/// The wire tag of segment `seg` of ring step `step` under `base`
/// (`TAG_RS`, `TAG_AG`, …).
pub(crate) fn seg_tag(base: u64, step: usize, seg: usize) -> u64 {
    debug_assert!((seg as u64) < SEG_TAG_STRIDE, "segment id overflows its tag sub-space");
    base + (step as u64) * SEG_TAG_STRIDE + seg as u64
}

/// Bit position of the 8-bit membership-epoch field inside a wire tag:
/// bits 40–47, above every phase base (bits 32–35) and below
/// [`CTRL_BIT`]. Epoch 0 leaves the tag bit-identical to the historical
/// layout, so fault-free and fail-fast runs are untouched.
pub(crate) const EPOCH_SHIFT: u32 = 40;

/// Maximum membership epoch a tag can carry (and thus the recovery layer
/// can reach): the epoch advances only when ranks die, so 255 repairs is
/// far beyond any simulated crash plan.
pub(crate) const MAX_EPOCH: u32 = 0xFF;

/// [`seg_tag`] salted with the membership epoch of the survivable
/// collective layer, so messages of a revoked attempt can never match a
/// repaired epoch's receives.
pub(crate) fn epoch_tag(base: u64, step: usize, seg: usize, epoch: u32) -> u64 {
    debug_assert!(epoch <= MAX_EPOCH, "epoch overflows its 8-bit tag field");
    seg_tag(base, step, seg) | (u64::from(epoch) << EPOCH_SHIFT)
}

/// Decoded coordinates of a collective wire tag (the inverse of
/// `seg_tag` plus the phase base and the resilient transport's
/// control-channel bit). Powers the per-phase/step/segment views of
/// `netsim::CriticalPath::by_tag` in `hzc sim --critical-path`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagInfo {
    /// Phase name of the tag base, from this module's tag-base table
    /// (`rs`, `ag`, `h-ring`, `agree`, …).
    pub phase: &'static str,
    /// Ring step (or recursive-doubling round) within the phase.
    pub step: usize,
    /// Pipeline segment within the step (0 for serial schedules).
    pub seg: usize,
    /// True for the resilient transport's ACK/NACK control channel
    /// (`CTRL_BIT` set on the data tag).
    pub ctrl: bool,
    /// Membership epoch salted into bits 40–47 by the survivable
    /// collective layer (0 for fault-free / fail-fast traffic).
    pub epoch: u32,
}

/// Decode a wire tag into its `(phase, step, segment)` coordinates, the
/// phase named by the tag-base table of this module. Returns `None` for tags
/// outside the collective tag bases (e.g. ad-hoc tags used by tests or
/// examples).
pub fn decode_tag(tag: u64) -> Option<TagInfo> {
    let ctrl = tag & CTRL_BIT != 0;
    let tag = tag & !CTRL_BIT;
    let epoch = ((tag >> EPOCH_SHIFT) & u64::from(MAX_EPOCH)) as u32;
    let tag = tag & !(u64::from(MAX_EPOCH) << EPOCH_SHIFT);
    let &(_, phase) = PHASES.iter().find(|&&(base, _)| base == tag & !0xFFFF_FFFF)?;
    let rem = tag & 0xFFFF_FFFF;
    Some(TagInfo {
        phase,
        step: (rem / SEG_TAG_STRIDE) as usize,
        seg: (rem % SEG_TAG_STRIDE) as usize,
        ctrl,
        epoch,
    })
}

/// How many segments a chunk of `len` elements splits into: the requested
/// count clamped to `min(segments, ceil(len / block_len), MAX_SEGMENTS)` and
/// floored at 1 — a segment shorter than one compressor block would only add
/// per-message latency, never overlap.
pub(crate) fn seg_count(len: usize, segments: usize, block_len: usize) -> usize {
    assert!(len > 0, "cannot segment an empty chunk");
    segments.clamp(1, MAX_SEGMENTS).min(len.div_ceil(block_len.max(1)))
}

/// Segment `i` of [`seg_ranges`]`(range, segments, block_len)`, computed
/// arithmetically so the ring never materialises a per-call segment table.
pub(crate) fn seg_range(
    range: &Range<usize>,
    segments: usize,
    block_len: usize,
    i: usize,
) -> Range<usize> {
    let bl = block_len.max(1);
    let nblocks = range.len().div_ceil(bl);
    let k = seg_count(range.len(), segments, block_len);
    // the first `nblocks % k` segments carry one more block
    let first_block = |i: usize| i * (nblocks / k) + i.min(nblocks % k);
    let start = range.start + first_block(i) * bl;
    start..(range.start + first_block(i + 1) * bl).min(range.end)
}

/// Split an absolute element `range` into at most `segments` contiguous
/// sub-ranges whose boundaries fall on `block_len` multiples (relative to
/// the range start), distributing blocks as evenly as possible (count per
/// `seg_count`). Pass `block_len = 1` for uncompressed traffic.
/// Deterministic in its inputs, so every rank derives the identical split.
#[cfg(test)]
pub(crate) fn seg_ranges(
    range: Range<usize>,
    segments: usize,
    block_len: usize,
) -> Vec<Range<usize>> {
    (0..seg_count(range.len(), segments, block_len))
        .map(|i| seg_range(&range, segments, block_len, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_tile_the_range_and_align_to_blocks() {
        for (lo, hi, s, bl) in
            [(0usize, 1000, 4, 32), (100, 1123, 7, 32), (5, 6, 3, 32), (0, 64, 2, 32)]
        {
            let ranges = seg_ranges(lo..hi, s, bl);
            assert_eq!(ranges.first().unwrap().start, lo);
            assert_eq!(ranges.last().unwrap().end, hi);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert_eq!((w[0].end - lo) % bl, 0, "interior boundaries block-aligned");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn clamp_caps_at_block_count_and_max() {
        // 40 elements = 2 blocks of 32 -> at most 2 segments however many asked
        assert_eq!(seg_ranges(0..40, 16, 32).len(), 2);
        // one block -> degenerate single segment
        assert_eq!(seg_ranges(0..10, 8, 32), vec![0..10]);
        // zero requested behaves as serial
        assert_eq!(seg_ranges(0..100, 0, 32).len(), 1);
        // uncompressed traffic segments at element granularity, capped at MAX
        assert_eq!(seg_ranges(0..1_000_000, 1000, 1).len(), MAX_SEGMENTS);
    }

    #[test]
    fn even_distribution_of_blocks() {
        // 10 blocks over 4 segments -> 3,3,2,2 blocks
        let r = seg_ranges(0..320, 4, 32);
        let lens: Vec<usize> = r.iter().map(|x| x.len()).collect();
        assert_eq!(lens, vec![96, 96, 64, 64]);
    }

    #[test]
    fn tags_are_disjoint_across_steps_and_segments() {
        let base = 1u64 << 32;
        let mut seen = std::collections::BTreeSet::new();
        for step in 0..8 {
            for seg in 0..MAX_SEGMENTS {
                assert!(seen.insert(seg_tag(base, step, seg)));
            }
        }
    }

    #[test]
    fn decode_round_trips_every_phase_base_including_hierarchical() {
        // the phase names as `hzc sim --critical-path` prints them, in base
        // order: a golden for the table, not a second copy of it
        let golden = [
            "rs", "ag", "gather", "scatter", "rd", "fold", "plan", "h-rs", "h-ring", "h-ag",
            "agree",
        ];
        let names: Vec<&str> = PHASES.iter().map(|&(_, phase)| phase).collect();
        assert_eq!(names, golden);
        let mut seen = std::collections::BTreeSet::new();
        for (k, &(base, phase)) in PHASES.iter().enumerate() {
            assert_eq!(base, (k as u64 + 1) << 32, "bases are consecutive from 1 << 32");
            for step in [0usize, 1, 7, 63] {
                for seg in [0usize, 1, MAX_SEGMENTS - 1] {
                    let tag = seg_tag(base, step, seg);
                    assert!(seen.insert(tag), "tag collision across phase bases");
                    let info = decode_tag(tag).expect("collective tags decode");
                    assert_eq!(info, TagInfo { phase, step, seg, ctrl: false, epoch: 0 });
                    // the resilient ctrl bit round-trips orthogonally
                    let ctrl = decode_tag(tag | CTRL_BIT).unwrap();
                    assert_eq!(ctrl, TagInfo { phase, step, seg, ctrl: true, epoch: 0 });
                }
            }
        }
        assert_eq!(decode_tag(0), None, "base 0 is unassigned");
        assert_eq!(decode_tag(12 << 32), None, "bases above the agreement plane are unassigned");
    }

    #[test]
    fn epoch_salt_round_trips_and_keeps_epoch_zero_identical() {
        // epoch 0 leaves the historical tag layout untouched
        assert_eq!(epoch_tag(1 << 32, 3, 5, 0), seg_tag(1 << 32, 3, 5));
        let mut seen = std::collections::BTreeSet::new();
        for epoch in [0u32, 1, 7, MAX_EPOCH] {
            for step in [0usize, 2, 63] {
                let tag = epoch_tag(TAG_AGREE, step, 0, epoch);
                assert!(seen.insert(tag), "epochs must not collide");
                let info = decode_tag(tag).expect("epoch-salted tags decode");
                assert_eq!(info, TagInfo { phase: "agree", step, seg: 0, ctrl: false, epoch });
                // the resilient ctrl bit composes with the epoch field
                let ctrl = decode_tag(tag | CTRL_BIT).unwrap();
                assert_eq!(ctrl.epoch, epoch);
                assert!(ctrl.ctrl);
            }
        }
    }
}
