//! # costmodel — the paper's Sec. III-C cost analysis: one formula, one table
//!
//! Sec. III-C prices one ring skeleton — `N-1` reduce-scatter rounds, `N-1`
//! allgather rounds — whose per-round operator changes with the framework:
//!
//! ```text
//! T_CColl^RS = (N-1)·CPR + (N-1)·DPR + (N-1)·CPT
//! T_hZCCL^RS =     N·CPR +     1·DPR + (N-1)·HPR
//! T_CColl^AR = T_CColl^RS + CPR + (N-1)·DPR
//! T_hZCCL^AR =     N·CPR + (N-1)·DPR + (N-1)·HPR
//! ```
//!
//! (CPR/DPR/HPR/CPT per chunk). [`predict`] says it the same way: a ring
//! phase costs `head + (N-1)·pipelined_step(S, W, C) + tail` over a three-row
//! table — the model-side twin of `hzccl`'s segment codec — plus the wire
//! terms the paper treats as common. So the paper-scale configuration (646 MB,
//! 512 nodes, Omni-Path) can be *projected* on any host and compared against
//! the discrete simulation in `netsim`/`hzccl`.

use netsim::OpKind::{self, Cpr, Cpt, Dpr, Hpr};
use netsim::{LinkTier, NetConfig, ThroughputModel, Topology};

/// Which collective operation is being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `Allreduce(sum)`: ring, recursive doubling or two-tier, per plan.
    Allreduce,
    /// Ring `Reduce_scatter(sum)`.
    ReduceScatter,
    /// `Reduce(sum)` to a root.
    Reduce,
    /// Long-message `Bcast` from a root.
    Bcast,
}

impl Op {
    /// All ops, in declaration order.
    pub const ALL: [Op; 4] = [Op::Allreduce, Op::ReduceScatter, Op::Reduce, Op::Bcast];

    /// Stable lowercase name (cache keys, CLI).
    pub fn name(self) -> &'static str {
        ["allreduce", "reduce_scatter", "reduce", "bcast"][self as usize]
    }

    /// Parse the stable name back.
    pub fn parse(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == name)
    }
}

/// Collective framework flavour (paper Table II; `hzccl::Variant` minus the
/// auto-selector itself): a row of the cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Flavor {
    /// Plain MPI, no compression.
    Mpi,
    /// C-Coll: compress-operate-decompress on every hop.
    CColl,
    /// hZCCL: homomorphic reduction on compressed data.
    Hzccl,
}

impl Flavor {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        ["mpi", "ccoll", "hz"][self as usize]
    }
}

/// Ring vs recursive-doubling schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algo {
    /// Bandwidth-optimal ring (2(N-1) chunk rounds).
    Ring,
    /// Latency-optimal recursive doubling (ceil(log2 N) full-vector rounds);
    /// only `Allreduce` has one, in every flavour.
    Rd,
}

impl Algo {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        ["ring", "rd"][self as usize]
    }
}

/// Scenario parameters for the analytical model.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Ranks (nodes) in the ring.
    pub nranks: usize,
    /// Per-rank message size in bytes (the Allreduce vector).
    pub message_bytes: usize,
    /// Compression ratio achieved on this data at the chosen error bound.
    pub ratio: f64,
    /// Network model (the same α–β+congestion law `netsim` charges).
    pub net: NetConfig,
    /// Per-kind compute throughputs.
    pub thr: ThroughputModel,
}

impl Scenario {
    /// Bytes of one ring chunk.
    fn chunk(&self) -> f64 {
        self.message_bytes as f64 / self.nranks as f64
    }

    /// Serialization-only (β) time of `bytes` (of `bytes / ratio` when they
    /// travel compressed); α is charged per segment by [`pipelined_step`].
    fn ser(&self, bytes: f64, compressed: bool) -> f64 {
        let on_wire = if compressed { bytes / self.ratio } else { bytes };
        self.net.serialization_time(on_wire.round() as usize, self.nranks)
    }

    /// Seconds the `kernels` take over `bytes`, one after the other.
    fn cost(&self, kernels: &[OpKind], bytes: f64) -> f64 {
        kernels.iter().map(|k| bytes / (self.thr.gbps[k.index()] * 1e9)).sum()
    }
}

/// Kernels run back to back, each over one chunk.
type Kernels = &'static [OpKind];

/// One flavour's row of the cost table: what its `hzccl::codec::SegCodec`
/// charges. [`ring`] lays the other phases out from it; DESIGN.md §4.5
/// prints every phase's `[head, per round, tail]` beside the codec table.
struct Row {
    /// Values travel compressed: a chunk is `chunk / ratio` bytes on the
    /// wire, one CPR encodes it, one DPR decodes it (raw: all free).
    compressed: bool,
    /// The reduce-scatter's `[head, per round, tail]`. hZCCL's partial sum
    /// is a stream, opened by the first own operand's CPR and closed by the
    /// DPR that lands the result; every round compresses the next own
    /// operand just in time, beside the HPR.
    rs: [Kernels; 3],
    /// What a later phase pays to put the reduced chunk on the wire: a raw
    /// partial sum is encoded, a stream ships as it is.
    ship: Kernels,
    /// One recursive-doubling round over the *full* vector.
    rd: Kernels,
}

/// Indexed by `Flavor as usize`.
const TABLE: [Row; 3] = [
    Row { compressed: false, rs: [&[], &[Cpt], &[]], ship: &[], rd: &[Cpt] },
    Row { compressed: true, rs: [&[], &[Cpr, Dpr, Cpt], &[]], ship: &[Cpr], rd: &[Cpr, Dpr, Cpt] },
    Row { compressed: true, rs: [&[Cpr], &[Cpr, Hpr], &[Dpr]], ship: &[], rd: &[Hpr] },
];

/// Predicted completion time of `op` in `flavor`'s workflow on `s`:
///
/// * `Algo::Ring` at `segments` segments per ring step (1 = the paper's
///   phase-serial schedule): the one ring formula over the cost table;
/// * `Algo::Rd`: recursive doubling, the Allreduce's other schedule;
/// * `topology` given: the two-tier Allreduce — `flavor`'s phase-serial ring
///   among the node leaders between two raw intra-node phases; `op`, `algo`
///   and `segments` do not apply, as in `hzccl::hierarchy`.
pub fn predict(
    s: &Scenario,
    op: Op,
    flavor: Flavor,
    algo: Algo,
    segments: usize,
    topology: Option<&Topology>,
) -> f64 {
    let row = &TABLE[flavor as usize];
    let Some(topo) = topology else {
        return match (algo, op) {
            (Algo::Rd, Op::Allreduce) => recursive_doubling(s, row),
            _ => ring(s, op, row, segments),
        };
    };
    let (inner, intra_time) = hier_split(s, topo);
    intra_time + ring(&inner, Op::Allreduce, row, 1)
}

/// `head + (N-1)·pipelined_step(S, W, C) + tail` per phase, summed in order;
/// only the last phase's tail is charged — a tail hands the result to the
/// caller, between phases the chunk moves on as it is (the fused hand-over).
/// `hzccl::ring`'s three `pipelined` sites only move a charge between a head
/// or tail and the rounds (`N·CPR` up front ↔ one CPR ahead of every round;
/// `(N-1)·DPR` after the last step ↔ one DPR per round). A step at `S = 1`
/// is `α + W + C`, linear in `C`: both placements price the same there, so
/// only the per-round one is stated and the paper's schedule is `S = 1` of it.
fn ring(s: &Scenario, op: Op, row: &Row, segments: usize) -> f64 {
    let [encode, decode]: [Kernels; 2] = if row.compressed { [&[Cpr], &[Dpr]] } else { [&[]; 2] };
    let (rs, ship) = (row.rs, row.ship);
    let phases: &[[Kernels; 3]] = match op {
        Op::ReduceScatter => &[rs],
        // allgather: chunks are decoded where they land — the own one only
        // if it is a stream (a raw own chunk never round-trips)
        Op::Allreduce => &[rs, [ship, decode, rs[2]]],
        // gather: the root is charged all N decodes
        Op::Reduce => &[rs, [ship, decode, decode]],
        // scatter — the root encodes chunk after chunk — then an allgather
        // whose own chunk arrived in wire form like the others
        Op::Bcast => &[[encode, encode, &[]], [&[], decode, decode]],
    };
    // with the reduction over, a raw ring has nothing left to hide behind
    // the wire: its remaining hops stay one message each
    let later = if row.compressed || op == Op::Bcast { segments } else { 1 };
    let (c, rounds) = (s.chunk(), (s.nranks - 1) as f64);
    let wire = s.ser(c, row.compressed);
    let mut t = 0.0;
    for (i, [head, round, _]) in phases.iter().enumerate() {
        let k = if i == 0 { segments } else { later };
        t += s.cost(head, c);
        t += rounds * pipelined_step(s, k, wire, s.cost(round, c));
    }
    t + s.cost(phases[phases.len() - 1][2], c)
}

/// `ceil(log2 N)` rounds, each exchanging the *full* vector and folding it,
/// plus one exchange + fold and one exchange (unfold) more when `N` is not
/// a power of two (mirrors `hzccl::rd::RdPlan`). A raw partial sum is
/// encoded to unfold and decoded where it lands (C-Coll: CPR + DPR); a
/// stream's decode there is the close every rank pays.
fn recursive_doubling(s: &Scenario, row: &Row) -> f64 {
    let full = s.message_bytes as f64;
    let [open, _, close] = row.rs;
    let wire = s.net.latency_s + s.ser(full, row.compressed);
    let step = wire + s.cost(row.rd, full);
    let pow2 = 1usize << s.nranks.ilog2(); // the core the other ranks fold into
    let mut t = s.cost(open, full) + pow2.trailing_zeros() as f64 * step + s.cost(close, full);
    if pow2 != s.nranks {
        let land: Kernels = if row.ship.is_empty() { &[] } else { &[Dpr] };
        t += step;
        t += wire + s.cost(row.ship, full) + s.cost(land, full);
    }
    t
}

/// The leaders' ring of the two-tier Allreduce (`nodes` ranks, an `E/ppn`
/// slice each, the oversubscribed inter-node link) and the time of the two
/// phases around it: a ring reduce-scatter, then allgather, of raw slices
/// over each node's `ppn` ranks — that link is too fast for a compressor.
fn hier_split(s: &Scenario, topo: &Topology) -> (Scenario, f64) {
    let ppn = topo.ppn.max(1);
    let slice = (s.message_bytes as f64 / ppn as f64).round().max(1.0) as usize;
    let wire = topo.link(LinkTier::Intra).transfer_time(slice, topo.population(LinkTier::Intra));
    let rounds = (ppn - 1) as f64;
    // RS rounds sum a raw E/P slice each; AG rounds just move one
    let intra_time = rounds * (wire + s.cost(&[Cpt], slice as f64)) + rounds * wire;
    let net = topo.link(LinkTier::Inter);
    (Scenario { nranks: topo.nodes.max(1), message_bytes: slice, net, ..*s }, intra_time)
}

/// Most segments per ring step the model, the tuner and `hzccl`'s ring use.
pub const MAX_SEGMENTS: usize = 64;

/// One pipelined ring step. Splitting a step's block into `S` segments lets
/// the compute on one segment overlap the wire time of the next:
///
/// ```text
/// T_step(S) = S·α + (W + C)/S + ((S-1)/S)·max(W, C)
/// ```
///
/// with `wire_ser` = `W` the β-only wire time of the whole block, `compute`
/// = `C` its overlappable compute, α the per-message latency: the first
/// segment pays its wire + compute in full, every later one hides the
/// smaller behind the larger. `segments = 1` is the serial `α + W + C`.
fn pipelined_step(s: &Scenario, segments: usize, wire_ser: f64, compute: f64) -> f64 {
    let k = segments.clamp(1, MAX_SEGMENTS) as f64;
    k * s.net.latency_s + (wire_ser + compute) / k + (k - 1.0) / k * wire_ser.max(compute)
}

/// The integer `S` minimizing [`pipelined_step`]: analytically
/// `sqrt(min(W, C)/α)` — more segments amortize overlap until the extra
/// α-injections outweigh the hidden time — rounded to whichever neighbour
/// prices cheaper and clamped to `[1, MAX_SEGMENTS]`.
fn optimal_segments(s: &Scenario, wire_ser: f64, compute: f64) -> usize {
    let star = (wire_ser.min(compute) / s.net.latency_s.max(1e-12)).sqrt();
    let [lo, hi] = [star.floor(), star.ceil()].map(|x| (x as usize).clamp(1, MAX_SEGMENTS));
    let step = |k: &usize| pipelined_step(s, *k, wire_ser, compute);
    [lo, hi].into_iter().min_by(|a, b| step(a).total_cmp(&step(b))).expect("two candidates")
}

/// Predicted optimal segment count for the hZCCL ring (its reduce-scatter
/// rounds: compressed wire vs just-in-time CPR + HPR).
pub fn optimal_segments_hzccl(s: &Scenario) -> usize {
    let c = s.chunk();
    optimal_segments(s, s.ser(c, true), s.cost(&[Cpr, Hpr], c))
}

// The frozen `benchmark/` crate links the next six names (`T^AR` of the
// phase-serial rings, `T^RS` of the segmented ones); that is the only reason
// they exist. Everything else calls `predict`.
pub fn allreduce_mpi(s: &Scenario) -> f64 {
    predict(s, Op::Allreduce, Flavor::Mpi, Algo::Ring, 1, None)
}
pub fn allreduce_ccoll(s: &Scenario) -> f64 {
    predict(s, Op::Allreduce, Flavor::CColl, Algo::Ring, 1, None)
}
pub fn allreduce_hzccl(s: &Scenario) -> f64 {
    predict(s, Op::Allreduce, Flavor::Hzccl, Algo::Ring, 1, None)
}
pub fn reduce_scatter_mpi_pipelined(s: &Scenario, segments: usize) -> f64 {
    predict(s, Op::ReduceScatter, Flavor::Mpi, Algo::Ring, segments, None)
}
pub fn reduce_scatter_ccoll_pipelined(s: &Scenario, segments: usize) -> f64 {
    predict(s, Op::ReduceScatter, Flavor::CColl, Algo::Ring, segments, None)
}
pub fn reduce_scatter_hzccl_pipelined(s: &Scenario, segments: usize) -> f64 {
    predict(s, Op::ReduceScatter, Flavor::Hzccl, Algo::Ring, segments, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Flavor::{CColl, Hzccl, Mpi};

    const FLAVOURS: [Flavor; 3] = [Mpi, CColl, Hzccl];
    const SEGMENTS: [usize; 5] = [1, 2, 4, 8, 64];

    /// The paper's ST throughput tables (the constants of
    /// `tuner::paper_prior`, literal here so this crate's golden values do
    /// not depend on the tuner).
    fn thr(flavor: Flavor) -> ThroughputModel {
        match flavor {
            Mpi => ThroughputModel::new(1.0, 1.0, 1.0, 50.0, 108.0),
            CColl => ThroughputModel::new(1.7, 3.0, 3.0, 2.8, 6.0),
            Hzccl => ThroughputModel::new(1.7, 3.3, 9.7, 2.8, 6.0),
        }
    }

    /// `s` at `flavor`'s own throughputs.
    fn own(flavor: Flavor, s: &Scenario) -> Scenario {
        Scenario { thr: thr(flavor), ..*s }
    }

    /// The paper's headline configuration at hZCCL's throughputs.
    fn scenario() -> Scenario {
        Scenario {
            nranks: 64,
            message_bytes: 646 << 20,
            ratio: 7.0,
            net: NetConfig::default(),
            thr: thr(Hzccl),
        }
    }

    fn ring(s: &Scenario, op: Op, flavor: Flavor, segments: usize) -> f64 {
        predict(s, op, flavor, Algo::Ring, segments, None)
    }

    fn rd(s: &Scenario, flavor: Flavor) -> f64 {
        predict(s, Op::Allreduce, flavor, Algo::Rd, 1, None)
    }

    fn hier(s: &Scenario, flavor: Flavor, topo: &Topology) -> f64 {
        predict(s, Op::Allreduce, flavor, Algo::Ring, 1, Some(topo))
    }

    /// Bisect for the message size (bytes) where `a` stops being cheaper than
    /// `b`: the smallest size in `[lo, hi]` with `a(s) <= b(s)`, given that `a`
    /// is slower at `lo` and faster at `hi` (a latency-vs-bandwidth crossover).
    /// Returns `None` when the ordering never flips inside the bracket.
    fn crossover_bytes(
        template: &Scenario,
        lo: usize,
        hi: usize,
        a: impl Fn(&Scenario) -> f64,
        b: impl Fn(&Scenario) -> f64,
    ) -> Option<usize> {
        let gap = |bytes: usize| {
            let s = Scenario { message_bytes: bytes, ..*template };
            a(&s) - b(&s)
        };
        if !(gap(lo) > 0.0 && gap(hi) <= 0.0) {
            return None;
        }
        let (mut lo, mut hi) = (lo, hi);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            (lo, hi) = if gap(mid) > 0.0 { (mid, hi) } else { (lo, mid) };
        }
        Some(hi)
    }

    /// The paper's Reduce_scatter cost difference,
    /// `T_CColl - T_hZCCL = (N-1)(DPR + CPT - HPR) - CPR - DPR` (compute only:
    /// both send compressed chunks, so the wire terms cancel) — the reference
    /// [`predict`]'s two Reduce_scatter rows are checked against.
    fn rs_compute_gap(s: &Scenario) -> f64 {
        let [cpr, dpr, hpr, cpt] = [Cpr, Dpr, Hpr, Cpt].map(|k| s.cost(&[k], s.chunk()));
        (s.nranks - 1) as f64 * (dpr + cpt - hpr) - cpr - dpr
    }

    /// Every `(what, smaller, larger)` row must hold strictly.
    fn assert_ordered(rows: &[(&str, f64, f64)]) {
        for (what, smaller, larger) in rows {
            assert!(smaller < larger, "{what}: {smaller} must be under {larger}");
        }
    }

    #[test]
    fn names_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.name()), Some(op));
        }
        assert_eq!(Op::parse("gathermax"), None);
        assert_eq!(Op::ALL.map(Op::name), ["allreduce", "reduce_scatter", "reduce", "bcast"]);
        assert_eq!(FLAVOURS.map(Flavor::name), ["mpi", "ccoll", "hz"]);
        assert_eq!([Algo::Ring, Algo::Rd].map(Algo::name), ["ring", "rd"]);
    }

    /// One segment is the paper's phase-serial schedule: the formula over
    /// the cost table reproduces Sec. III-C's closed forms, written out here
    /// as `[CPR, DPR, HPR, CPT]` chunk multiplicities and ring sweeps.
    #[test]
    fn one_segment_is_the_papers_closed_form() {
        let (n, r) = (64.0, 63.0);
        #[rustfmt::skip]
        let table: [(Op, Flavor, [f64; 4], f64); 12] = [
            (Op::ReduceScatter, Mpi,   [0.0, 0.0,   0.0, r],   1.0),
            (Op::ReduceScatter, CColl, [r,   r,     0.0, r],   1.0),
            (Op::ReduceScatter, Hzccl, [n,   1.0,   r,   0.0], 1.0),
            (Op::Allreduce,     Mpi,   [0.0, 0.0,   0.0, r],   2.0),
            (Op::Allreduce,     CColl, [n,   2.0*r, 0.0, r],   2.0),
            (Op::Allreduce,     Hzccl, [n,   n,     r,   0.0], 2.0),
            (Op::Reduce,        Mpi,   [0.0, 0.0,   0.0, r],   2.0),
            (Op::Reduce,        CColl, [n,   r + n, 0.0, r],   2.0),
            (Op::Reduce,        Hzccl, [n,   n,     r,   0.0], 2.0),
            (Op::Bcast,         Mpi,   [0.0, 0.0,   0.0, 0.0], 2.0),
            (Op::Bcast,         CColl, [n,   n,     0.0, 0.0], 2.0),
            (Op::Bcast,         Hzccl, [n,   n,     0.0, 0.0], 2.0),
        ];
        for (op, flavor, kernels, sweeps) in table {
            let s = own(flavor, &scenario());
            let c = s.chunk();
            let hop = s.net.latency_s + s.ser(c, flavor != Mpi);
            let compute: f64 =
                [Cpr, Dpr, Hpr, Cpt].iter().zip(kernels).map(|(&k, m)| m * s.cost(&[k], c)).sum();
            let want = compute + sweeps * r * hop;
            let got = ring(&s, op, flavor, 1);
            assert!((got - want).abs() <= 1e-12 * want, "{op:?} {flavor:?}: {got} vs {want}");
        }
    }

    #[test]
    fn orderings_match_the_paper() {
        let s = scenario(); // every flavour at hZCCL's throughputs
        let [m, c] = [Mpi, CColl].map(|f| own(f, &s)); // …and at its own
        let ar = |s: &Scenario, flavor| ring(s, Op::Allreduce, flavor, 1);
        let modest = Scenario { ratio: 2.0, ..s };
        let hopeless =
            Scenario { ratio: 1.05, thr: ThroughputModel::new(0.05, 0.1, 0.3, 2.8, 6.0), ..s };
        let [p63, p64] = [63, 64].map(|nranks| Scenario { nranks, ..s });
        // C-Coll's lead of hZCCL at a fixed 1 MiB chunk, by ring size
        let gap_at = |nranks: usize| {
            let s = Scenario { nranks, message_bytes: nranks << 20, ..s };
            ar(&s, CColl) - ar(&s, Hzccl)
        };
        assert_ordered(&[
            ("headline: hz under ccoll", ar(&s, Hzccl), ar(&s, CColl)),
            ("headline: ccoll under mpi", ar(&s, CColl), ar(&s, Mpi)),
            ("hz wins even at ratio 2", ar(&modest, Hzccl), ar(&modest, Mpi)),
            ("a slow compressor at ratio 1.05 loses", ar(&hopeless, Mpi), ar(&hopeless, Hzccl)),
            ("hz's lead grows with the ring, 8 → 64", gap_at(8), gap_at(64)),
            ("hz's lead grows with the ring, 64 → 512", gap_at(64), gap_at(512)),
            // hZCCL's compressed gather (no re-compression) undercuts C-Coll
            ("reduce: hz < ccoll", ring(&s, Op::Reduce, Hzccl, 1), ring(&c, Op::Reduce, CColl, 1)),
            ("reduce: hz < mpi", ring(&s, Op::Reduce, Hzccl, 1), ring(&m, Op::Reduce, Mpi, 1)),
            ("bcast: compressed < raw", ring(&s, Op::Bcast, Hzccl, 1), ring(&m, Op::Bcast, Mpi, 1)),
            // same α count, smaller slope; and 64x smaller per-round chunks
            // dwarf the ring's extra latency at 646 MB
            ("rd: hz < mpi", rd(&s, Hzccl), rd(&m, Mpi)),
            ("rd: hz < ccoll", rd(&s, Hzccl), rd(&c, CColl)),
            ("hz: ring < rd", ar(&s, Hzccl), rd(&s, Hzccl)),
            // off a power of two, rd pays the fold/unfold surcharge
            ("rd mpi: 64 < 63 ranks", rd(&own(Mpi, &p64), Mpi), rd(&own(Mpi, &p63), Mpi)),
            ("rd hz: 64 < 63 ranks", rd(&p64, Hzccl), rd(&p63, Hzccl)),
            ("rd ccoll: 64 < 63 ranks", rd(&own(CColl, &p64), CColl), rd(&own(CColl, &p63), CColl)),
        ]);
        // speedups in the paper's ballpark (1.4x-2.7x for ST)
        let speedup = ar(&s, Mpi) / ar(&s, Hzccl);
        assert!((1.2..4.0).contains(&speedup), "speedup {speedup}");
        // no reduction, no homomorphic operator: the compressed Bcasts coincide
        assert_eq!(ring(&s, Op::Bcast, Hzccl, 1), ring(&s, Op::Bcast, CColl, 1));
        for flavor in FLAVOURS {
            let s = own(flavor, &s);
            let embedded = ring(&s, Op::ReduceScatter, flavor, 1);
            for op in [Op::Allreduce, Op::Reduce] {
                assert!(ring(&s, op, flavor, 1) > embedded, "{op:?} {flavor:?} ⊃ reduce-scatter");
            }
        }
    }

    #[test]
    fn times_grow_with_the_message_and_shrink_with_the_ratio() {
        let s = scenario();
        for (op, flavor, segments) in Op::ALL
            .into_iter()
            .flat_map(|op| FLAVOURS.map(|f| (op, f)))
            .flat_map(|(op, f)| SEGMENTS.map(|k| (op, f, k)))
        {
            let what = format!("{op:?} {flavor:?} S={segments}");
            let base = ring(&s, op, flavor, segments);
            let doubled = Scenario { message_bytes: 2 * s.message_bytes, ..s };
            assert!(ring(&doubled, op, flavor, segments) > base, "{what}: twice the bytes");
            let squeezed = ring(&Scenario { ratio: 2.0 * s.ratio, ..s }, op, flavor, segments);
            if flavor == Mpi {
                assert_eq!(squeezed, base, "{what}: the raw ring ignores the ratio");
            } else {
                assert!(squeezed < base, "{what}: twice the ratio");
            }
        }
    }

    #[test]
    fn rs_difference_identity_holds() {
        // T_CColl^RS - T_hZCCL^RS must equal the paper's closed form
        let mut s = scenario();
        let gap = ring(&s, Op::ReduceScatter, CColl, 1) - ring(&s, Op::ReduceScatter, Hzccl, 1);
        assert!((gap - rs_compute_gap(&s)).abs() < 1e-9 * gap.abs().max(1.0), "{gap}");
        // …and grows linearly with the ring at a fixed chunk size
        s.nranks = 8;
        let g8 = rs_compute_gap(&s);
        (s.nranks, s.message_bytes) = (16, 2 * s.message_bytes);
        let g16 = rs_compute_gap(&s);
        assert!(g16 > 1.8 * g8, "{g8} -> {g16}");
    }

    /// Golden regression: the analytical crossover points at N=64, paper ST
    /// calibration, ratio 7. Below ~37 KB the latency-optimal MPI recursive
    /// doubling wins; above it hZCCL's compressed ring takes over — and it
    /// overtakes MPI *earlier* than C-Coll does. Among equal-round ring
    /// variants there is no size crossover at all (identical alpha terms,
    /// strictly smaller per-byte coefficient), which the last block pins.
    #[test]
    fn golden_crossovers_at_paper_calibration() {
        type Cost<'a> = &'a dyn Fn(&Scenario) -> f64;
        let t = scenario();
        let ar = |flavor| move |s: &Scenario| ring(&own(flavor, s), Op::Allreduce, flavor, 1);
        let (mpi_rd, hz_rd) = (|s: &Scenario| rd(&own(Mpi, s), Mpi), |s: &Scenario| rd(s, Hzccl));
        let cross = |a: Cost, b: Cost| crossover_bytes(&t, 64, 64 << 20, a, b);
        // (what, ring, against, where it must cross)
        let goldens: [(&str, Flavor, Cost, std::ops::Range<usize>); 3] = [
            ("hz ring / mpi rd", Hzccl, &mpi_rd, 36_000..37_500),
            // hZCCL's homomorphic pipeline lowers C-Coll's bar by ~2.4 KB
            ("ccoll ring / mpi rd", CColl, &mpi_rd, 38_500..40_000),
            // 126 vs 6 latency rounds, but 1/64th the per-round bytes
            ("hz ring / hz rd", Hzccl, &hz_rd, 220_000..232_000),
        ];
        let at = goldens.map(|(what, flavor, against, window)| {
            let bytes = cross(&ar(flavor), against).unwrap_or_else(|| panic!("{what} must cross"));
            assert!(window.contains(&bytes), "{what} crossover moved: {bytes} bytes");
            bytes
        });
        assert!(at[0] < at[1], "hz must overtake MPI before ccoll does");

        // Ring-vs-ring orderings are size-independent: same transfer count,
        // so the alpha terms cancel and the per-byte slope decides alone.
        for bytes in [1 << 10, 1 << 16, 1 << 22, 1 << 28] {
            let s = Scenario { message_bytes: bytes, ..t };
            assert!(ar(Hzccl)(&s) < ar(CColl)(&s), "hz ring beats ccoll ring at {bytes} B");
        }
        // And the bracket guard: hz already wins at the small end, so there
        // is nothing to bisect.
        assert_eq!(cross(&ar(Hzccl), &ar(CColl)), None);
    }

    #[test]
    fn pipelining_helps_compute_bound_hz_ring_and_never_below_overlap_floor() {
        let s = scenario(); // paper-calibrated: CPR+HPR dominate the wire
        let serial = ring(&s, Op::Allreduce, Hzccl, 1);
        let s_star = optimal_segments_hzccl(&s);
        assert!(s_star > 1, "compute-bound hz ring must want segmentation: S*={s_star}");
        let best = ring(&s, Op::Allreduce, Hzccl, s_star);
        assert!(
            best < serial * 0.85,
            "pipelined at S*={s_star} should shave >=15%: {best} vs {serial}"
        );
        // lower bound: pipelining can hide min(W,C), never more
        let c = s.chunk();
        let hidden = s.ser(c, true).min(s.cost(&[Cpr, Hpr], c));
        let floor = serial - 2.0 * (s.nranks - 1) as f64 * hidden;
        assert!(best >= floor, "{best} under the overlap floor {floor}");
    }

    #[test]
    fn optimal_segments_sits_at_the_step_minimum() {
        let s = scenario();
        let c = s.chunk();
        let (w, cpt) = (s.ser(c, true), s.cost(&[Cpr, Hpr], c));
        let star = optimal_segments(&s, w, cpt);
        let t_star = pipelined_step(&s, star, w, cpt);
        for k in 1..=MAX_SEGMENTS {
            assert!(
                t_star <= pipelined_step(&s, k, w, cpt) + 1e-15,
                "S={k} undercuts the predicted optimum S*={star}"
            );
        }
        // analytical sanity: S* tracks sqrt(min(W,C)/alpha) within a step
        let analytic = (w.min(cpt) / s.net.latency_s).sqrt();
        assert!(
            (star as f64 - analytic).abs() <= 1.0 + analytic * 0.5,
            "S*={star} far from sqrt form {analytic}"
        );
    }

    #[test]
    fn excess_segments_pay_alpha_without_gain() {
        // tiny message: wire and compute are dwarfed by alpha, so more
        // segments only add injections and S*=1
        let tiny = Scenario { message_bytes: 1 << 10, ..scenario() };
        assert_eq!(optimal_segments_hzccl(&tiny), 1);
        // and an mpi bcast never benefits: zero overlappable compute
        let m = own(Mpi, &scenario());
        assert_ordered(&[
            (
                "tiny hz",
                ring(&tiny, Op::Allreduce, Hzccl, 1),
                ring(&tiny, Op::Allreduce, Hzccl, 16),
            ),
            ("mpi bcast", ring(&m, Op::Bcast, Mpi, 1), ring(&m, Op::Bcast, Mpi, 8)),
        ]);
    }

    /// `s` on the inter-node link of `topo`, one rank per slot.
    fn on(topo: &Topology, s: &Scenario) -> Scenario {
        Scenario {
            nranks: topo.nranks(),
            message_bytes: 1 << 20,
            net: topo.link(LinkTier::Inter),
            ..*s
        }
    }

    #[test]
    fn hierarchy_beats_flat_on_the_paper_two_tier_fabric() {
        // 8 nodes x 8 ranks/node, 1 MiB, inter-node links 10x slower than
        // node-local: pushing 63 ring hops over the slow tier loses to
        // (7 fast raw rounds) + (7-round inter ring on a 1/8th slice) +
        // (7 fast raw rounds). The paper-regime win must clear 30%.
        let topo = Topology::paper(8, 8);
        let s = on(&topo, &scenario());
        let flat = ring(&s, Op::Allreduce, Hzccl, 1);
        let hz = hier(&s, Hzccl, &topo);
        assert!(hz <= 0.7 * flat, "hier {hz} vs flat {flat}: win under 30%");
        // every flavour's hierarchy beats its own flat ring on this fabric,
        // and hz leads ccoll (same codec-class summation throughput). No
        // cross-flavour claim against mpi: its 50 GB/s raw-sum table makes
        // the intra phases nearly free, so mpi-vs-compressed ordering on the
        // short 7-hop inner ring is a simulation question, not a closed-form
        // invariant.
        for flavor in [Mpi, CColl] {
            let s = own(flavor, &s);
            let (h, f) = (hier(&s, flavor, &topo), ring(&s, Op::Allreduce, flavor, 1));
            assert!(h < f, "{flavor:?}: hierarchy {h} must beat its flat ring {f}");
        }
        let ccoll = hier(&own(CColl, &s), CColl, &topo);
        assert!(hz < ccoll, "hz leads ccoll in the hierarchy: {hz} vs {ccoll}");
        // oversubscription slows the inter phase; a fully provisioned
        // fabric is the un-oversubscribed one
        assert!(hier(&s, Hzccl, &topo.with_oversub(4.0)) > hz);
        assert_eq!(hier(&s, Hzccl, &topo.with_oversub(1.0)), hz);
    }

    #[test]
    fn hierarchy_degenerates_to_flat_at_one_rank_per_node() {
        // ppn = 1: no intra phases, the inter ring IS the flat ring
        let topo = Topology::paper(8, 1);
        let s = on(&topo, &scenario());
        for flavor in FLAVOURS {
            assert_eq!(hier(&s, flavor, &topo), ring(&s, Op::Allreduce, flavor, 1), "{flavor:?}");
        }
    }
}
