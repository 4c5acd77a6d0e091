//! Model ↔ machine reconciliation: the kernels `costmodel`'s cost table
//! charges a verb are the kernels `hzccl`'s ring runs for it.
//!
//! For every verb × flavour at one segment, four ranks and chunks that are
//! whole compressor blocks, rank 0 (the root of the rooted verbs) runs under
//! `ComputeTiming::Modeled` and its `Breakdown` seconds per kernel kind are
//! compared with what the model charges that kind. Where the two disagree
//! today the difference is pinned here, in chunk-sized kernel runs, and
//! listed in DESIGN.md §5.4 "cost-model gaps" — neither side is bent to fit.

use costmodel::{predict, Algo, Flavor, Op, Scenario};
use hzccl::collectives::{self, CollectiveOpts};
use hzccl::{Mode, Variant};
use netsim::{ComputeTiming, NetConfig, OpKind, SimBuilder, ThroughputModel};

const RANKS: usize = 4;
/// 1024-element chunks: 32 compressor blocks of 32.
const ELEMS: usize = 4096;
const GBPS: [f64; OpKind::COUNT] = [2.0, 4.0, 20.0, 10.0, 40.0];
const KINDS: [OpKind; 4] = [OpKind::Cpr, OpKind::Dpr, OpKind::Hpr, OpKind::Cpt];

/// Seconds of each of `KINDS` rank 0 was charged running `op`.
fn machine(op: Op, variant: Variant) -> [f64; 4] {
    let opts = CollectiveOpts::for_variant(variant, 1e-4)
        .with_mode(Mode::SingleThread)
        .with_segments(1)
        .with_root(0);
    let report = SimBuilder::new(RANKS)
        .timing(ComputeTiming::Modeled(ThroughputModel { gbps: GBPS }))
        .run(|comm| {
            let scale = 1.0 + 0.01 * comm.rank() as f32;
            let data: Vec<f32> = (0..ELEMS).map(|i| (i as f32 * 0.013).sin() * scale).collect();
            match op {
                Op::Allreduce => collectives::allreduce(comm, &data, &opts),
                Op::ReduceScatter => collectives::reduce_scatter(comm, &data, &opts),
                Op::Reduce => collectives::reduce(comm, &data, &opts),
                Op::Bcast => collectives::bcast(comm, &data, &opts),
            }
            .expect("collective");
            comm.breakdown()
        })
        .expect_clean();
    let b = report.outcomes[0].value;
    [b.cpr, b.dpr, b.hpr, b.cpt]
}

/// Seconds the model charges `kind` for `op`: with a free wire and every
/// other kernel free, that is all a one-segment prediction has left.
fn model(op: Op, flavor: Flavor, kind: OpKind) -> f64 {
    let mut gbps = [f64::INFINITY; OpKind::COUNT];
    gbps[kind.index()] = GBPS[kind.index()];
    let s = Scenario {
        nranks: RANKS,
        message_bytes: ELEMS * 4,
        ratio: 1.0,
        net: NetConfig { latency_s: 0.0, bandwidth_gbps: f64::INFINITY, congestion: 0.0 },
        thr: ThroughputModel { gbps },
    };
    predict(&s, op, flavor, Algo::Ring, 1, None)
}

#[test]
fn the_cost_table_charges_what_the_ring_runs() {
    for op in Op::ALL {
        for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
            let flavor = variant.flavor();
            // machine − model, in chunk-sized kernel runs of `KINDS`
            let gap = match (op, flavor) {
                // The model prices the slowest chain — a sender's CPR, then
                // the root's decodes, its own chunk's included "for
                // symmetry" — while the root itself neither compresses nor
                // decodes its own raw chunk.
                (Op::Reduce, Flavor::CColl) => [-1.0, -1.0, 0.0, 0.0],
                _ => [0.0; 4],
            };
            let ran = machine(op, variant);
            for ((kind, ran), gap) in KINDS.into_iter().zip(ran).zip(gap) {
                let chunk = (ELEMS / RANKS * 4) as f64 / (GBPS[kind.index()] * 1e9);
                let (ran, charged) = (ran / chunk, model(op, flavor, kind) / chunk);
                assert!(
                    (ran - charged - gap).abs() < 1e-9,
                    "{op:?} {flavor:?} {kind:?}: the ring ran {ran} chunk kernels, \
                     the model charges {charged} (pinned gap {gap})"
                );
            }
        }
    }
}
