//! Cost-model predictions pinned bit for bit. `cost_predictions.tsv` holds
//! `tuner::Engine::predict` as `f64` bits for every `(op, flavour,
//! algorithm)` the tuner can emit, and C-Coll's recursive doubling, ×
//! `S ∈ {1,2,4,8,64}` × flat and two-tier fabrics × three calibrations × two
//! message sizes. It was generated before `costmodel`'s per-`(op, flavour)`
//! closed forms were folded into one `predict` and is committed unchanged
//! (the C-Coll rd rows came later; the header says when), so a change to the
//! cost table or to the one ring formula that moves a prediction fails here.
//!
//! Where the parent evaluated a *serial* closed form — a flat ring plan at
//! `S = 1`, and the inner ring of every hierarchical plan — the fold
//! evaluates the pipelined step at one segment instead: `α + (W + C)` where
//! the serial forms summed `(α + W) + C`. Those rows hold to 1e-12 relative;
//! every other row (`S > 1`, recursive doubling) holds bit for bit.
//!
//! Regenerate (only when a model change is intended) with
//! `cargo test --test cost_predictions -- --ignored --nocapture print_table`.

use netsim::Topology;
use tuner::{Algo, Calibration, Engine, Flavor, Mode, Op, Plan, ScenarioSpec};

const TABLE: &str = include_str!("cost_predictions.tsv");
const FLAVOURS: [Flavor; 3] = [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl];
const SEGMENTS: [usize; 5] = [1, 2, 4, 8, 64];

/// `(name, engine, thread mode, compression ratio)`.
fn calibrations() -> Vec<(&'static str, Engine, Mode, f64)> {
    // a compressor too slow to pay for a ratio of 1.2: mpi must win
    let mut slow = Engine::paper();
    for flavor in [Flavor::CColl, Flavor::Hzccl] {
        slow.calib.thr.insert(Calibration::key(flavor, false), [0.05, 0.1, 0.3, 2.8, 6.0]);
    }
    vec![
        ("paper-st", Engine::paper(), Mode::SingleThread, 7.0),
        ("paper-mt", Engine::paper(), Mode::MultiThread(18), 7.0),
        ("slow-r1.2", slow, Mode::SingleThread, 1.2),
    ]
}

/// `(name, ranks, topology)`: a power-of-two and a folded recursive
/// doubling on the flat fabric, the paper's two-tier shape and an
/// oversubscribed one.
fn fabrics() -> Vec<(&'static str, usize, Option<Topology>)> {
    vec![
        ("flat-r64", 64, None),
        ("flat-r12", 12, None),
        ("8x8", 64, Some(Topology::paper(8, 8))),
        ("4x4:2", 16, Some(Topology::paper(4, 4).with_oversub(2.0))),
    ]
}

/// The schedules `Engine::candidates` can offer for `op`, and C-Coll's
/// recursive doubling, which runs by plan only: `(algorithm, hierarchical)`.
fn shapes(op: Op, two_tier: bool) -> Vec<(Algo, bool)> {
    let mut shapes = vec![(Algo::Ring, false)];
    if op == Op::Allreduce {
        shapes.push((Algo::Rd, false));
    }
    if op == Op::Allreduce && two_tier {
        shapes.push((Algo::Ring, true));
    }
    shapes
}

/// Every row of the table: its id and the prediction.
fn rows() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (cal, engine, mode, ratio) in calibrations() {
        for (fabric, nranks, topology) in fabrics() {
            for (kb, op, flavor) in [64usize, 16 << 10]
                .into_iter()
                .flat_map(|kb| Op::ALL.map(|op| (kb, op)))
                .flat_map(|(kb, op)| FLAVOURS.map(|flavor| (kb, op, flavor)))
            {
                let mut spec = ScenarioSpec::new(op, kb << 8, nranks, 1e-4, 32, ratio);
                spec.topology = topology;
                for (algo, hierarchical) in shapes(op, topology.is_some()) {
                    let plan =
                        Plan { flavor, algo, mode, block_len: 32, segments: 1, hierarchical };
                    let id = format!("{cal}/{fabric}/kb{kb}/{}/{}", op.name(), plan.label());
                    for segments in SEGMENTS {
                        let secs = engine.predict(&spec, &Plan { segments, ..plan });
                        out.push((format!("{id}/s{segments}"), secs));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn predictions_match_the_pre_refactor_table() {
    let pinned: Vec<(&str, f64)> = TABLE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (id, bits) = l.split_once('\t').expect("id<TAB>bits");
            (id, f64::from_bits(u64::from_str_radix(bits, 16).expect("hex f64 bits")))
        })
        .collect();
    let rows = rows();
    assert_eq!(rows.len(), pinned.len(), "the table and the enumeration differ in length");
    let mut drifted = 0;
    for ((id, got), (pinned_id, want)) in rows.iter().zip(&pinned) {
        assert_eq!(id, pinned_id, "row order changed");
        // serial ≡ S = 1 is the one permitted re-association (module docs)
        let serial_ring = id.contains("/ring/") && (id.ends_with("/s1") || id.contains("/hier/"));
        if serial_ring {
            assert!((got - want).abs() <= 1e-12 * want, "{id}: {got:e} vs pinned {want:e}");
            drifted += usize::from(got.to_bits() != want.to_bits());
        } else {
            assert_eq!(got.to_bits(), want.to_bits(), "{id}: {got:e} vs pinned {want:e}");
        }
    }
    println!("{} rows, {drifted} serial rows re-associated within 1e-12", rows.len());
}

#[test]
#[ignore = "prints the table; run by hand to regenerate it"]
fn print_table() {
    for (id, secs) in rows() {
        println!("{id}\t{:016x}", secs.to_bits());
    }
}
