//! The error-bound table: collective cells over verb × flavour (Auto
//! included) × segments × schedule (flat, two-tier, recursive doubling) ×
//! transport and recovery policy × ranks × app, each run through
//! `suite::run_case` and every element of every rank's value checked
//! against `hzccl::error_bounds::bound` around `suite::survivor_sum`. The
//! full product is over budget, so the table is a greedy pairwise cover of
//! it: every pair of dimension values that some supported cell holds is
//! held by a cell that runs. Also: Auto's plan agreement on a lossy fabric.

use datasets::App;
use hzccl::chunks::node_chunks;
use hzccl::collectives::RecoveryPolicy;
use hzccl::error_bounds::bound;
use hzccl::{Resilience, Variant};
use hzccl_bench::suite::{self, CaseSpec, Runner, SuiteConfig};
use netsim::{FaultPlan, Topology};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use tuner::Op;

const OPS: [Op; 4] = [Op::Allreduce, Op::ReduceScatter, Op::Reduce, Op::Bcast];
const VARIANTS: [Variant; 4] = [Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto];
const SEGMENTS: [usize; 3] = [1, 2, 8];
const SCHEDULES: [Schedule; 3] = [Schedule::Flat, Schedule::TwoTier, Schedule::Rd];
const POLICIES: [Policy; 9] = [
    Policy::Plain,
    Policy::Framed,
    Policy::Degraded,
    Policy::Shrink(0),
    Policy::Shrink(1),
    Policy::Shrink(2),
    Policy::Rescale(0),
    Policy::Rescale(1),
    Policy::Rescale(2),
];
const RANKS: [usize; 6] = [1, 2, 3, 5, 8, 64];
/// Per-rank field size of a table cell.
const KB: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Schedule {
    Flat,
    TwoTier,
    Rd,
}

/// Transport and recovery: unframed; framed below `max_retries`; framed
/// beyond it (segments degrade); or a shrinking policy with that many
/// seeded crashes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    Plain,
    Framed,
    Degraded,
    Shrink(usize),
    Rescale(usize),
}

impl Policy {
    fn name(self) -> &'static str {
        match self {
            Policy::Plain => "plain",
            Policy::Framed => "framed",
            Policy::Degraded => "degraded",
            Policy::Shrink(_) => "shrink",
            Policy::Rescale(_) => "rescale",
        }
    }

    fn crashes(self) -> Option<usize> {
        match self {
            Policy::Shrink(c) | Policy::Rescale(c) => Some(c),
            _ => None,
        }
    }
}

/// One cell: an index into each dimension above, in declaration order, then
/// into `App::ALL`.
type Cell = [usize; 7];
const DIMS: [usize; 7] = [
    OPS.len(),
    VARIANTS.len(),
    SEGMENTS.len(),
    SCHEDULES.len(),
    POLICIES.len(),
    RANKS.len(),
    App::ALL.len(),
];

/// Whether the verb runs the schedule and the policy in this flavour at this
/// size: the two-tier schedule is an Allreduce over a two-level topology
/// (8 = 4×2 and 64 = 8×8 ranks), recursive doubling an Allreduce plan of a
/// static flavour (one segment: it has no other), and the shrinking policies
/// static flat Allreduce and Reduce_scatter with at least one survivor.
fn supported(&[op, v, s, sched, pol, n, _]: &Cell) -> bool {
    let (op, v, pol, n) = (OPS[op], VARIANTS[v], POLICIES[pol], RANKS[n]);
    let allreduce = op == Op::Allreduce;
    let schedule_ok = match SCHEDULES[sched] {
        Schedule::Flat => true,
        Schedule::TwoTier => allreduce && matches!(n, 8 | 64),
        Schedule::Rd => allreduce && v != Variant::Auto && SEGMENTS[s] == 1,
    };
    let policy_ok = match pol.crashes() {
        None => true,
        Some(c) => {
            matches!(op, Op::Allreduce | Op::ReduceScatter)
                && v != Variant::Auto
                && SCHEDULES[sched] == Schedule::Flat
                && c < n
        }
    };
    schedule_ok && policy_ok
}

fn spec_of(&[op, v, s, sched, pol, n, _]: &Cell) -> CaseSpec {
    let (op, variant, nranks, pol) = (OPS[op], VARIANTS[v], RANKS[n], POLICIES[pol]);
    let runner = match SCHEDULES[sched] {
        Schedule::Rd => Runner::rd(variant.flavor(), hzccl::Mode::SingleThread),
        _ => Runner::Variant(variant),
    };
    let mut spec = CaseSpec { segments: SEGMENTS[s], ..CaseSpec::new(op, runner, nranks, KB) };
    if SCHEDULES[sched] == Schedule::TwoTier {
        spec.topology =
            Some(if nranks == 8 { Topology::paper(4, 2) } else { Topology::paper(8, 8) });
    }
    match pol {
        Policy::Plain => {}
        Policy::Framed => {
            spec.faults = Some(FaultPlan::new(0).with_drop(0.02).with_corrupt(0.01));
            spec.resilience = Some(Resilience::default());
        }
        Policy::Degraded => {
            spec.faults = Some(FaultPlan::new(0).with_drop(0.3).with_corrupt(0.05));
            spec.resilience = Some(Resilience::default().with_max_retries(0));
        }
        Policy::Shrink(c) | Policy::Rescale(c) => {
            spec.recovery = match pol {
                Policy::Shrink(_) => RecoveryPolicy::Shrink,
                _ => RecoveryPolicy::ShrinkRescale,
            };
            // the last rank and rank 1 die at their first data send
            let plan =
                [nranks - 1, 1].iter().take(c).fold(FaultPlan::new(0), |p, &r| p.with_crash(r, 0));
            spec.faults = Some(plan);
        }
    }
    spec
}

fn cfg_of(cell: &Cell) -> SuiteConfig {
    SuiteConfig { app: App::ALL[cell[6]], ..SuiteConfig::default() }
}

/// `max_i Σ_{r ∈ rs} |x_r[i]|`: the largest partial-sum magnitude the
/// contributors' inputs allow.
fn peak(fields: &[Vec<f32>], rs: &[usize]) -> f64 {
    let at = |i: usize| rs.iter().map(|&r| f64::from(fields[r][i]).abs()).sum::<f64>();
    (0..fields[0].len()).map(at).fold(0.0, f64::max)
}

/// Whether a compressed flavour's quantization integers leave `i32` range
/// on these inputs — ROADMAP item 1's frontier, past which the codecs fail
/// the call (a typed error, surfacing as a panic in `run_case`) instead of
/// returning a value: `|partial sum| / 2eb >= 2^31` for any flavour that
/// may quantize one (Auto may run C-Coll).
fn beyond_integer_range(variant: Variant, peak: f64, eb: f64) -> bool {
    variant != Variant::Mpi && peak / (2.0 * eb) >= 2f64.powi(31)
}

/// Run `spec` and check every element every rank returned against the
/// bound of what ran; returns the largest err / bound ratio seen.
fn check(spec: &CaseSpec, cfg: &SuiteConfig) -> f64 {
    let run = suite::run_case(spec, cfg);
    let fields = suite::rank_fields(spec, cfg);
    let call = run.call.expect("a bounded runner");
    let (n0, m) = (call.launched, call.contributors);
    let contributors = &run.report.outcomes[0].value.result.contributors;
    let (oracle, peak) = if spec.op == Op::Bcast {
        (fields[0].iter().map(|&x| f64::from(x)).collect(), peak(&fields, &[0]))
    } else {
        let rescale = spec.recovery == RecoveryPolicy::ShrinkRescale;
        let scale = if rescale { n0 as f64 / m as f64 } else { 1.0 };
        let sum = suite::survivor_sum(&fields, contributors);
        (sum.into_iter().map(|x| x * scale).collect::<Vec<f64>>(), peak(&fields, contributors))
    };
    let (q, r) = bound(&call, cfg.eb, peak);
    let tol = q + r;
    let n = oracle.len();
    let (launch, groups) = (node_chunks(n, n0), node_chunks(n0, m));
    let mut worst = 0f64;
    for o in &run.report.outcomes {
        let got = &o.value.result;
        assert_eq!(&got.contributors, contributors, "{}: ranks agree on whose data", spec.id());
        let region = match spec.op {
            Op::ReduceScatter => {
                let g = groups[contributors.binary_search(&o.rank).expect("a member")].clone();
                launch[g.start].start..launch[g.end - 1].end
            }
            Op::Reduce if o.rank != 0 => 0..0,
            _ => 0..n,
        };
        assert_eq!(got.value.len(), region.len(), "{}: rank {} region", spec.id(), o.rank);
        for (a, b) in got.value.iter().zip(&oracle[region]) {
            let err = (f64::from(*a) - b).abs();
            assert!(
                err <= tol,
                "{} app={:?} rank {}: {a} vs {b} (err {err:e}, bound {q:e} + {r:e}, {call:?})",
                spec.id(),
                cfg.app,
                o.rank
            );
            worst = worst.max(err / tol);
        }
    }
    worst
}

/// The greedy cover: repeatedly take the candidate cell holding the most
/// not-yet-held tuples — every pair of dimension values, and every
/// flavour × schedule × policy triple on a ring of at least three ranks —
/// until every tuple some candidate holds is held.
fn cover(candidates: &[Cell]) -> Vec<Cell> {
    let tuples = |c: &Cell| -> Vec<Vec<(usize, usize)>> {
        let mut out = Vec::new();
        if RANKS[c[5]] >= 3 {
            out.push(vec![(1, c[1]), (3, c[3]), (4, c[4])]);
        }
        for a in 0..7 {
            for b in a + 1..7 {
                out.push(vec![(a, c[a]), (b, c[b])]);
            }
        }
        out
    };
    let mut open: BTreeSet<_> = candidates.iter().flat_map(tuples).collect();
    let mut picked = Vec::new();
    while !open.is_empty() {
        let gain = |c: &Cell| tuples(c).iter().filter(|t| open.contains(*t)).count();
        // (the smallest communicator first among equals: the cheapest run)
        let key = |c: &&Cell| (gain(c), Reverse(RANKS[c[5]]), Reverse(**c));
        let best = *candidates.iter().max_by_key(key).expect("an open tuple has a cell");
        for t in tuples(&best) {
            open.remove(&t);
        }
        picked.push(best);
    }
    picked
}

/// Every cell of the cover within its bound. The cover's size is pinned, and
/// so is the list of cells the integer-range frontier excludes, so a change
/// that shrinks the covered space is seen.
#[test]
fn every_cell_is_within_its_bound() {
    // the seeded deaths of the shrinking cells are expected: keep their
    // panic reports (and their peers') off stderr, report anything else
    let stock = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map_or("", String::as_str);
        if !(msg.contains("crashed by fault plan") || msg.contains("observed crash of rank")) {
            stock(info);
        }
    }));
    let mut all: Vec<Cell> = Vec::new();
    let mut cell = [0usize; 7];
    'product: loop {
        all.push(cell);
        for d in (0..7).rev() {
            cell[d] += 1;
            if cell[d] < DIMS[d] {
                continue 'product;
            }
            cell[d] = 0;
        }
        break;
    }
    // the inputs' peak per app and rank count
    let mut peaks = BTreeMap::new();
    for (a, app) in App::ALL.into_iter().enumerate() {
        for (n, &nranks) in RANKS.iter().enumerate() {
            let spec = CaseSpec::new(Op::Allreduce, Runner::Variant(Variant::Mpi), nranks, KB);
            let fields = suite::rank_fields(&spec, &SuiteConfig { app, ..SuiteConfig::default() });
            peaks.insert((a, n), peak(&fields, &(0..nranks).collect::<Vec<_>>()));
        }
    }
    let eb = SuiteConfig::default().eb;
    let (mut candidates, mut excluded) = (Vec::new(), Vec::new());
    for cell in all.into_iter().filter(supported) {
        if beyond_integer_range(VARIANTS[cell[1]], peaks[&(cell[6], cell[5])], eb) {
            excluded.push(cell);
        } else {
            candidates.push(cell);
        }
    }
    let cells = cover(&candidates);
    let mut ratios: BTreeMap<String, f64> = BTreeMap::new();
    for cell in &cells {
        let (spec, cfg) = (spec_of(cell), cfg_of(cell));
        let ratio = check(&spec, &cfg);
        let key = format!(
            "{:<5} {:<8?} {}",
            VARIANTS[cell[1]].name(),
            SCHEDULES[cell[3]],
            POLICIES[cell[4]].name()
        );
        let worst = ratios.entry(key).or_insert(0.0);
        *worst = worst.max(ratio);
    }
    let beyond: BTreeSet<String> = excluded
        .iter()
        .map(|c| format!("{:?} {} r{}", App::ALL[c[6]], VARIANTS[c[1]].name(), RANKS[c[5]]))
        .collect();
    println!(
        "{} supported cells, {} beyond the integer range ({}), {} run",
        candidates.len() + excluded.len(),
        excluded.len(),
        beyond.into_iter().collect::<Vec<_>>().join(", "),
        cells.len()
    );
    for (key, worst) in &ratios {
        println!("{key:<26} max err/bound {worst:.3}");
    }
    assert_eq!((cells.len(), excluded.len()), (74, 213), "cells run, cells excluded");
}

/// Auto's plan broadcast travels the collective's own hops: under a
/// resilience policy on a lossy fabric every seed agrees on a plan and
/// returns a value within that plan's bound. (It used to bypass the framed
/// transport, so a dropped plan message panicked its receiver: 6 of these 40
/// seeds at 2 % drops, 19 at 5 %.)
#[test]
fn auto_agrees_on_its_plan_over_a_lossy_fabric() {
    for drop in [0.02, 0.05] {
        for seed in 0..40 {
            let spec = CaseSpec {
                faults: Some(FaultPlan::new(seed).with_drop(drop)),
                resilience: Some(Resilience::default()),
                ..CaseSpec::new(Op::Allreduce, Runner::Variant(Variant::Auto), 16, 64)
            };
            check(&spec, &SuiteConfig { seed, ..SuiteConfig::default() });
        }
    }
}
