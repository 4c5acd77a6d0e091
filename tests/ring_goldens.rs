//! Bit-identity goldens, checked under both engines.
//!
//! Each row of `ring_goldens.tsv` pins one run of a ring schedule: the
//! FNV-1a of every surviving rank's trace as the Chrome-trace exporter
//! renders it (labels, byte counts, tags, timestamps), the makespan's bit
//! pattern, and a digest of every rank's returned values. The table was
//! generated before the per-flavour ring loops were folded into `hzccl`'s one
//! ring schedule and is committed unchanged (its header lines name the rows a
//! later fold had to regenerate, and why), so a refactor of that schedule
//! that moves a single charge, label, tag or output bit fails here — crashed
//! runs included: a survivor's trace depends on program order alone.
//!
//! `BENCH_results.json` at the repo root pins 33 paper-timed
//! `suite::run_case` cases ([`bench_cases`]) one JSON line each: virtual
//! seconds, wire and logical bytes, cost buckets, critical-path composition
//! and latency quantiles. The whole file, header included, must come out
//! byte for byte.
//!
//! Regenerate (only when a change to either is intended) with
//! `cargo test --test ring_goldens -- --ignored --nocapture print_goldens`,
//! and `… print_bench_results`, keeping the lines from `{` to `]}`.

use hzccl::chunks::node_chunks;
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::{CollectiveConfig, Mode, Resilience, Variant};
use hzccl_bench::suite::{run_case, CaseSpec, Runner, SuiteConfig};
use netsim::{
    ComputeTiming, FaultPlan, Json, RunReport, SimBuilder, SimEngine, ThroughputModel, Topology,
    TraceConfig,
};
use tuner::{Algo, Op, Plan};

const GOLDENS: &str = include_str!("ring_goldens.tsv");
const EB: f64 = 1e-4;
const ELEMS: usize = 4001;
const ROOT: usize = 1;

#[derive(Clone, Copy, PartialEq)]
enum Verb {
    Allreduce,
    ReduceScatter,
    Reduce,
    Bcast,
    Allgather,
    /// Recursive-doubling allreduce: a plan only `hzccl::auto` runs,
    /// framed under the given policy.
    Rd(Variant, Option<Resilience>),
}

impl Verb {
    const ALL: [Verb; 5] =
        [Verb::Allreduce, Verb::ReduceScatter, Verb::Reduce, Verb::Bcast, Verb::Allgather];

    fn name(self) -> &'static str {
        match self {
            Verb::Allreduce => "allreduce",
            Verb::ReduceScatter => "reduce_scatter",
            Verb::Reduce => "reduce",
            Verb::Bcast => "bcast",
            Verb::Allgather => "allgather",
            Verb::Rd(..) => "rd",
        }
    }
}

/// One pinned run: what to call, on which virtual cluster.
struct Case {
    id: String,
    verb: Verb,
    opts: CollectiveOpts,
    ranks: usize,
    elems: usize,
    faults: Option<FaultPlan>,
    topology: Option<Topology>,
    /// Run the recoverable verb instead of the plain one.
    recoverable: bool,
}

const FLAVOURS: [Variant; 3] = [Variant::Mpi, Variant::CColl, Variant::Hzccl];

fn opts_for(variant: Variant) -> CollectiveOpts {
    CollectiveOpts::for_variant(variant, EB).with_mode(Mode::SingleThread).with_root(ROOT)
}

fn cases() -> Vec<Case> {
    let plain = |id: String, verb, opts, ranks, elems| Case {
        id,
        verb,
        opts,
        ranks,
        elems,
        faults: None,
        topology: None,
        recoverable: false,
    };
    let mut out = Vec::new();
    // every verb x flavour x schedule on the flat ring
    for verb in Verb::ALL {
        for variant in FLAVOURS {
            for segments in [1usize, 4] {
                for ranks in [3usize, 8] {
                    let id = format!("{}/{}/r{ranks}/s{segments}", verb.name(), variant.name());
                    let opts = opts_for(variant).with_segments(segments);
                    out.push(plain(id, verb, opts, ranks, ELEMS));
                }
            }
        }
    }
    for variant in FLAVOURS {
        // chunks of 1, 1 and 2 compressor blocks: send and receive segment
        // counts differ within a step
        let id = format!("allreduce/{}/r3/s4/ragged", variant.name());
        out.push(plain(id, Verb::Allreduce, opts_for(variant).with_segments(4), 3, 97));
        // a lone rank: no ring steps, only the codec's own-chunk handling
        for verb in [Verb::Allreduce, Verb::ReduceScatter] {
            for segments in [1usize, 4] {
                let id = format!("{}/{}/r1/s{segments}", verb.name(), variant.name());
                let opts = opts_for(variant).with_segments(segments);
                out.push(plain(id, verb, opts, 1, 256));
            }
        }
    }
    // the two-tier schedule: intra-node rings around the leader ring
    for (nodes, ppn) in [(2usize, 2usize), (4, 2)] {
        for variant in FLAVOURS {
            let topo = Topology::paper(nodes, ppn);
            let id = format!("allreduce/{}/{nodes}x{ppn}", variant.name());
            let opts = opts_for(variant).with_topology(topo);
            out.push(Case {
                topology: Some(topo),
                ..plain(id, Verb::Allreduce, opts, nodes * ppn, ELEMS)
            });
        }
    }
    // both tiers framed under loss
    for variant in FLAVOURS {
        let topo = Topology::paper(2, 3);
        let id = format!("allreduce/{}/2x3/framed", variant.name());
        let opts = opts_for(variant).with_topology(topo).with_resilience(Resilience::default());
        out.push(Case {
            topology: Some(topo),
            faults: Some(FaultPlan::new(7).with_drop(0.2).with_corrupt(0.05)),
            ..plain(id, Verb::Allreduce, opts, 6, ELEMS)
        });
    }
    // the framed transport under loss: retransmits, and (with a one-retry
    // budget on a very lossy fabric) the raw-f32 degradation paths
    for variant in FLAVOURS {
        for verb in [Verb::Allreduce, Verb::ReduceScatter] {
            let id = format!("{}/{}/r8/framed", verb.name(), variant.name());
            let opts = opts_for(variant).with_resilience(Resilience::default());
            out.push(Case {
                faults: Some(FaultPlan::new(23).with_drop(0.05).with_corrupt(0.02)),
                ..plain(id, verb, opts, 8, ELEMS)
            });
        }
        for verb in [Verb::Allreduce, Verb::Reduce, Verb::Bcast] {
            let id = format!("{}/{}/r8/degrading", verb.name(), variant.name());
            let res = Resilience::default().with_max_retries(1);
            let opts = opts_for(variant).with_resilience(res);
            out.push(Case {
                faults: Some(FaultPlan::new(5).with_drop(0.3).with_corrupt(0.1)),
                ..plain(id, verb, opts, 8, ELEMS)
            });
        }
    }
    // the self-healing ring, fault-free and across one repair
    for variant in FLAVOURS {
        for verb in [Verb::Allreduce, Verb::ReduceScatter] {
            for crash in [false, true] {
                let tail = if crash { "crash" } else { "clean" };
                let id = format!("{}/{}/r8/shrink-{tail}", verb.name(), variant.name());
                let opts = opts_for(variant).with_recovery(RecoveryPolicy::Shrink);
                out.push(Case {
                    faults: crash.then(|| FaultPlan::new(17).with_crash(4, 1)),
                    recoverable: true,
                    ..plain(id, verb, opts, 8, ELEMS)
                });
            }
        }
    }
    // recovery under a lossy fabric (Shrink over the framed transport: one
    // crash, 5 % drop) and across two repairs at 16 ranks (ragged survivor
    // groups: 14 survivors over 16 launch segments)
    for variant in FLAVOURS {
        for verb in [Verb::Allreduce, Verb::ReduceScatter] {
            let opts = opts_for(variant).with_recovery(RecoveryPolicy::Shrink);
            let id = format!("{}/{}/r8/shrink-framed-crash", verb.name(), variant.name());
            out.push(Case {
                faults: Some(FaultPlan::new(29).with_drop(0.05).with_crash(3, 2)),
                recoverable: true,
                ..plain(id, verb, opts.clone().with_resilience(Resilience::default()), 8, ELEMS)
            });
            let id = format!("{}/{}/r16/shrink-2crash", verb.name(), variant.name());
            out.push(Case {
                faults: Some(FaultPlan::new(31).with_crash(5, 1).with_crash(11, 6)),
                recoverable: true,
                ..plain(id, verb, opts, 16, ELEMS)
            });
        }
    }
    // recursive doubling: a count that folds and a power of two, and the
    // folding count framed under loss
    for variant in FLAVOURS {
        for ranks in [5usize, 8] {
            let id = format!("rd/{}/r{ranks}", variant.name());
            out.push(plain(id, Verb::Rd(variant, None), opts_for(variant), ranks, ELEMS));
        }
    }
    for variant in [Variant::Hzccl, Variant::Mpi] {
        let id = format!("rd/{}/r5/framed", variant.name());
        let verb = Verb::Rd(variant, Some(Resilience::default()));
        out.push(Case {
            faults: Some(FaultPlan::new(0).with_drop(0.02).with_corrupt(0.01)),
            ..plain(id, verb, opts_for(variant), 5, ELEMS)
        });
    }
    out
}

fn field(rank: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.013).sin() * (1.0 + 0.01 * rank as f32)).collect()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// `(trace digest, makespan bits, value digest)` of one run.
fn digest(case: &Case, engine: SimEngine) -> (u64, u64, u64) {
    let mut sim = SimBuilder::new(case.ranks)
        .timing(ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0)))
        .trace(TraceConfig::default())
        .engine(engine);
    if let Some(plan) = &case.faults {
        sim = sim.faults(plan.clone());
    }
    if let Some(topo) = case.topology {
        sim = sim.topology(topo);
    }
    let report: RunReport<Vec<f32>> = sim.run(|comm| {
        let data = field(comm.rank(), case.elems);
        let opts = &case.opts;
        match (case.verb, case.recoverable) {
            (Verb::Allreduce, false) => collectives::allreduce(comm, &data, opts),
            (Verb::ReduceScatter, false) => collectives::reduce_scatter(comm, &data, opts),
            (Verb::Reduce, false) => collectives::reduce(comm, &data, opts),
            (Verb::Bcast, false) => collectives::bcast(comm, &data, opts),
            (Verb::Allgather, false) => {
                let own = &data[node_chunks(case.elems, comm.size())[comm.rank()].clone()];
                collectives::allgather(comm, own, case.elems, opts)
            }
            (Verb::Allreduce, true) => {
                collectives::allreduce_recoverable(comm, &data, opts).map(|p| p.value)
            }
            (Verb::ReduceScatter, true) => {
                collectives::reduce_scatter_recoverable(comm, &data, opts).map(|p| p.value)
            }
            (Verb::Rd(variant, res), false) => {
                let cfg = CollectiveConfig { res, ..CollectiveConfig::new(EB, Mode::SingleThread) };
                let plan = Plan::serial(variant.flavor(), Algo::Rd, cfg.mode, cfg.block_len);
                hzccl::auto::run_planned(comm, Op::Allreduce, 0, &data, &cfg, &plan, None)
            }
            _ => unreachable!("only allreduce and reduce_scatter are recoverable"),
        }
        .expect("golden case runs")
    });
    let mut trace = FNV_OFFSET;
    fnv1a(&mut trace, netsim::trace::chrome_trace(&report.traces, None).as_bytes());
    let mut values = FNV_OFFSET;
    for o in &report.outcomes {
        fnv1a(&mut values, &(o.rank as u64).to_le_bytes());
        fnv1a(&mut values, &(o.value.len() as u64).to_le_bytes());
        for v in &o.value {
            fnv1a(&mut values, &v.to_bits().to_le_bytes());
        }
    }
    (trace, report.stats.makespan.to_bits(), values)
}

fn render(id: &str, (trace, makespan, values): (u64, u64, u64)) -> String {
    format!("{id}\t{trace:016x}\t{makespan:016x}\t{values:016x}")
}

/// Threads, and events where this target has fibers.
fn engines() -> Vec<SimEngine> {
    let mut engines = vec![SimEngine::Threads];
    if SimEngine::events_supported() {
        engines.push(SimEngine::Events);
    }
    engines
}

#[test]
fn every_ring_schedule_matches_its_golden_under_both_engines() {
    let cases = cases();
    let rows: Vec<&str> = GOLDENS.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(rows.len(), cases.len(), "one golden row per case");
    for (case, want) in cases.iter().zip(rows) {
        for engine in engines() {
            let got = render(&case.id, digest(case, engine));
            assert_eq!(got, want, "{} drifted under the {} engine", case.id, engine.name());
        }
    }
}

#[test]
#[ignore = "prints the table this file checks; see the module docs"]
fn print_goldens() {
    for case in cases() {
        println!("{}", render(&case.id, digest(&case, SimEngine::default())));
    }
}

/// The cases of `BENCH_results.json`, in file order, all at 8 ranks:
/// {allreduce, reduce_scatter} × {mpi, ccoll, hz} × {16, 256} KiB ×
/// {serial, S=8} plus auto serial (its plan owns the segment knob); hz and
/// auto on the paper 4×2 fabric; hz under 2 % drop + 1 % corruption over the
/// framed transport.
fn bench_cases() -> Vec<CaseSpec> {
    let flat = |op, variant, kb| CaseSpec::new(op, Runner::Variant(variant), 8, kb);
    let mut out = Vec::new();
    for op in [Op::Allreduce, Op::ReduceScatter] {
        for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto] {
            for kb in [16, 256] {
                let segments: &[usize] = if variant == Variant::Auto { &[1] } else { &[1, 8] };
                for &segments in segments {
                    out.push(CaseSpec { segments, ..flat(op, variant, kb) });
                }
            }
        }
    }
    for kb in [16, 256] {
        for variant in [Variant::Hzccl, Variant::Auto] {
            let topology = Some(Topology::paper(4, 2));
            out.push(CaseSpec { topology, ..flat(Op::Allreduce, variant, kb) });
        }
    }
    out.push(CaseSpec {
        faults: Some(FaultPlan::new(0).with_drop(0.02).with_corrupt(0.01)),
        resilience: Some(Resilience::default()),
        ..flat(Op::Allreduce, Variant::Hzccl, 64)
    });
    out
}

/// `BENCH_results.json` as `engine` renders it: a header line of the
/// config, then one line per case.
fn bench_results(engine: SimEngine) -> String {
    let cfg = SuiteConfig { engine, ..SuiteConfig::default() };
    let nums = |kv: &[(&str, f64)]| Json::obj(kv.iter().map(|&(k, v)| (k, Json::Num(v))).collect());
    let net = nums(&[
        ("latency_s", cfg.net.latency_s),
        ("bandwidth_gbps", cfg.net.bandwidth_gbps),
        ("congestion", cfg.net.congestion),
    ]);
    // `schema_version` and `suite` never vary; they stay so the committed
    // header keeps its bytes
    let head = Json::obj(vec![
        ("schema_version", Json::Num(1.0)),
        ("suite", Json::Str("quick".into())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("eb", Json::Num(cfg.eb)),
        ("app", Json::Str(cfg.app.name().into())),
        ("net", net),
    ])
    .render();
    let lines: Vec<String> = bench_cases()
        .iter()
        .map(|spec| {
            let r = run_case(spec, &cfg).result;
            let b = &r.breakdown;
            let mut path = vec![("length", r.critpath.length)];
            path.extend(r.critpath.buckets.entries());
            Json::obj(vec![
                ("id", Json::Str(spec.id())),
                ("virtual_secs", Json::Num(r.virtual_secs)),
                ("wire_bytes", Json::Num(r.wire_bytes as f64)),
                ("logical_bytes", Json::Num(r.logical_bytes as f64)),
                (
                    "breakdown",
                    nums(&[
                        ("cpr", b.cpr),
                        ("dpr", b.dpr),
                        ("hpr", b.hpr),
                        ("cpt", b.cpt),
                        ("mpi", b.mpi),
                        ("other", b.other),
                    ]),
                ),
                ("critical_path", nums(&path)),
                ("latency_p50", Json::Num(r.latency_p50)),
                ("latency_p99", Json::Num(r.latency_p99)),
            ])
            .render()
        })
        .collect();
    format!("{{\n{},\n\"cases\": [\n{}\n]}}\n", &head[1..head.len() - 1], lines.join(",\n"))
}

/// The whole committed file, header included and no field masked, under
/// each engine.
#[test]
fn quick_suite_reproduces_the_committed_baseline_byte_for_byte() {
    let want = include_str!("../BENCH_results.json");
    for engine in engines() {
        let got = bench_results(engine);
        if got != want {
            let drifted = got.lines().zip(want.lines()).find(|(g, w)| g != w);
            panic!("BENCH_results.json drifted under the {} engine: {drifted:?}", engine.name());
        }
    }
}

#[test]
#[ignore = "prints the file the test above checks; see the module docs"]
fn print_bench_results() {
    print!("{}", bench_results(SimEngine::default()));
}
