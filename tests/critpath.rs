//! Golden tests for the causal critical-path analyzer: the reconstructed
//! path must tile the end-to-end virtual time on **every** collective
//! flavour and schedule, and on the serial MPI ring its communication
//! composition must reproduce the α–β closed form the cost model uses
//! (`2(N-1)` hops of `α` + chunk serialization for an Allreduce).

use hzccl::collectives::{self, CollectiveOpts};
use hzccl::{Mode, Resilience, Variant};
use netsim::{
    ComputeTiming, CriticalPath, FaultPlan, NetConfig, RankTrace, SimBuilder, TraceConfig,
};

fn fields(nranks: usize, elems: usize) -> Vec<Vec<f32>> {
    let base = datasets::App::SimSet2.generate(elems, 0);
    (0..nranks)
        .map(|r| {
            let k = 1.0 + 0.001 * r as f32;
            base.iter().map(|&v| v * k).collect()
        })
        .collect()
}

fn paper_timing(variant: Variant) -> ComputeTiming {
    ComputeTiming::Modeled(hzccl::paper_model(variant, Mode::SingleThread))
}

/// Run one collective with the flight recorder on; return `(makespan,
/// traces)`.
fn run_traced(
    op: &str,
    opts: &CollectiveOpts,
    nranks: usize,
    elems: usize,
    faults: Option<FaultPlan>,
) -> (f64, Vec<RankTrace>) {
    let data = fields(nranks, elems);
    let mut cluster = SimBuilder::new(nranks)
        .net(NetConfig::default())
        .timing(paper_timing(opts.variant()))
        .trace(TraceConfig::default());
    if let Some(plan) = faults {
        cluster = cluster.faults(plan);
    }
    let report = cluster
        .run(|comm| {
            let mine = &data[comm.rank()];
            match op {
                "allreduce" => {
                    collectives::allreduce(comm, mine, opts).expect("allreduce");
                }
                "reduce_scatter" => {
                    collectives::reduce_scatter(comm, mine, opts).expect("reduce_scatter");
                }
                other => panic!("unknown op {other}"),
            }
        })
        .expect_clean();
    (report.stats.makespan, report.traces)
}

fn assert_tiles(cp: &CriticalPath, makespan: f64, what: &str) {
    let rel = (cp.length - makespan).abs() / makespan.max(f64::MIN_POSITIVE);
    assert!(rel <= 1e-9, "{what}: path {} vs makespan {makespan} (rel {rel:e})", cp.length);
    let sum = cp.buckets.total();
    assert!(
        (sum - cp.length).abs() <= 1e-9 * cp.length.max(1e-12),
        "{what}: buckets {sum} vs length {}",
        cp.length
    );
    let per_rank: f64 = cp.per_rank.iter().sum();
    assert!(
        (per_rank - cp.length).abs() <= 1e-9 * cp.length.max(1e-12),
        "{what}: per-rank sum {per_rank} vs length {}",
        cp.length
    );
    // the path is chronological and gapless
    for w in cp.elements.windows(2) {
        assert!((w[0].end - w[1].start).abs() <= 1e-12, "{what}: path has a gap");
    }
}

/// The headline invariant: on every flavour × op × schedule the analyzer's
/// path length equals the end-to-end virtual time, the bucket attribution
/// sums to the path, and healthy runs never report blocked waits.
#[test]
fn path_tiles_the_makespan_on_every_flavour() {
    let nranks = 4;
    let elems = 4096;
    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto] {
        for op in ["allreduce", "reduce_scatter"] {
            for segments in [1usize, 4] {
                if variant == Variant::Auto && segments > 1 {
                    continue; // the tuner's plan owns the segment knob
                }
                let opts = CollectiveOpts::for_variant(variant, 1e-4).with_segments(segments);
                let what = format!("{op}/{}/s{segments}", variant.name());
                let (makespan, traces) = run_traced(op, &opts, nranks, elems, None);
                let cp = CriticalPath::analyze_with_topology(&traces, &NetConfig::default(), None);
                assert_tiles(&cp, makespan, &what);
                assert_eq!(cp.buckets.blocked_wait, 0.0, "{what}: healthy run blocked");
                assert!(cp.buckets.alpha > 0.0, "{what}: a ring always pays α");
            }
        }
    }
}

/// Recursive doubling goes through its dedicated entry point; same
/// invariant.
#[test]
fn path_tiles_the_makespan_on_recursive_doubling() {
    let nranks = 8;
    let data = fields(nranks, 4096);
    let cfg = hzccl::CollectiveConfig::new(1e-4, Mode::SingleThread);
    let report = SimBuilder::new(nranks)
        .net(NetConfig::default())
        .timing(paper_timing(Variant::Hzccl))
        .trace(TraceConfig::default())
        .run(|comm| {
            hzccl::rd::allreduce_rd_hz(comm, &data[comm.rank()], &cfg).expect("rd");
        })
        .expect_clean();
    let makespan = report.stats.makespan;
    let cp = CriticalPath::analyze_with_topology(&report.traces, &NetConfig::default(), None);
    assert_tiles(&cp, makespan, "rd/hz");
    // every on-path hop decodes to the rd/fold tag spaces
    for tag in cp.by_tag.keys() {
        let info = hzccl::decode_tag(*tag).expect("rd tags decode");
        assert!(matches!(info.phase, "rd" | "fold"), "unexpected phase {}", info.phase);
    }
}

/// Serial MPI ring, uniform chunks: the path's communication composition is
/// the textbook α–β form — an Allreduce crosses the wire `2(N-1)` times,
/// each hop paying one injection α and one chunk serialization. This is the
/// closed form `costmodel::predict` integrates for the raw ring, so the
/// analyzer and the cost model must agree on the α/β split exactly.
#[test]
fn serial_mpi_ring_reproduces_the_alpha_beta_closed_form() {
    let nranks = 4;
    let elems = 4096; // divisible by nranks -> uniform 1024-element chunks
    let net = NetConfig::default();
    let opts = CollectiveOpts::mpi();
    let (makespan, traces) = run_traced("allreduce", &opts, nranks, elems, None);
    let cp = CriticalPath::analyze_with_topology(&traces, &net, None);
    assert_tiles(&cp, makespan, "mpi serial closed form");

    let hops = 2 * (nranks - 1) as u64;
    let total_hops: u64 = cp.by_tag.values().map(|t| t.hops).sum();
    assert_eq!(total_hops, hops, "one binding hop per ring step");

    let alpha = hops as f64 * net.latency_s;
    assert!(
        (cp.buckets.alpha - alpha).abs() <= 1e-12,
        "alpha {} vs 2(N-1)α {alpha}",
        cp.buckets.alpha
    );
    let chunk_bytes = (elems / nranks) * 4;
    let wire = hops as f64 * net.serialization_time(chunk_bytes, nranks);
    assert!(
        (cp.buckets.wire - wire).abs() <= 1e-9 * wire,
        "wire {} vs closed form {wire}",
        cp.buckets.wire
    );
    assert_eq!(cp.buckets.jitter, 0.0);
    assert_eq!(cp.buckets.resilience, 0.0);

    // the closed-form model integrates the same α–β terms; the repo-wide
    // contract (tests/end_to_end.rs) is agreement within 2x
    let scen = costmodel::Scenario {
        nranks,
        message_bytes: elems * 4,
        ratio: 1.0,
        net,
        thr: hzccl::paper_model(Variant::Mpi, Mode::SingleThread),
    };
    let (op, flavor) = (costmodel::Op::Allreduce, costmodel::Flavor::Mpi);
    let model = costmodel::predict(&scen, op, flavor, costmodel::Algo::Ring, 1, None);
    assert!(
        (model / cp.length) < 2.0 && (cp.length / model) < 2.0,
        "model {model} vs path {}",
        cp.length
    );

    // the path's RS/AG phases split evenly: N-1 hops each
    let (mut rs_hops, mut ag_hops) = (0u64, 0u64);
    for (tag, t) in &cp.by_tag {
        match hzccl::decode_tag(*tag).expect("ring tags decode").phase {
            "rs" => rs_hops += t.hops,
            "ag" => ag_hops += t.hops,
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(rs_hops, (nranks - 1) as u64);
    assert_eq!(ag_hops, (nranks - 1) as u64);
}

/// The pipelined schedule (DESIGN §4.3): splitting each chunk into S
/// segments overlaps wire and compute, so for a compute-heavy compressed
/// ring the pipelined makespan must beat the serial one, the analyzer must
/// see the segmented tag space, and the per-step path composition must drop
/// below the serial step's `W + C` sum (the overlap the closed form
/// `costmodel::pipelined_step` models).
#[test]
fn pipelined_schedule_overlaps_wire_and_compute_on_the_path() {
    let nranks = 4;
    let elems = 512 * 1024; // 2 MiB/rank: enough for overlap to pay
    let segments = 2;
    let serial = CollectiveOpts::hz(1e-4);
    let pipelined = CollectiveOpts::hz(1e-4).with_segments(segments);
    let (t_serial, tr_serial) = run_traced("reduce_scatter", &serial, nranks, elems, None);
    let (t_pipe, tr_pipe) = run_traced("reduce_scatter", &pipelined, nranks, elems, None);
    let net = NetConfig::default();
    let cp_serial = CriticalPath::analyze_with_topology(&tr_serial, &net, None);
    let cp_pipe = CriticalPath::analyze_with_topology(&tr_pipe, &net, None);
    assert_tiles(&cp_serial, t_serial, "hz serial rs");
    assert_tiles(&cp_pipe, t_pipe, "hz pipelined rs");
    assert!(t_pipe < t_serial, "pipelining must win here: {t_pipe} vs {t_serial}");

    // serial uses only seg 0; the pipelined path crosses higher segments
    let max_seg = |cp: &CriticalPath| {
        cp.by_tag.keys().filter_map(|&t| hzccl::decode_tag(t)).map(|i| i.seg).max().unwrap_or(0)
    };
    assert_eq!(max_seg(&cp_serial), 0);
    assert!(max_seg(&cp_pipe) > 0, "pipelined path never crossed a segment tag");

    // §4.3: the overlapped wire share on the path shrinks — the serial path
    // pays every step's full serialization, the pipelined path hides part
    // of it behind compute.
    assert!(
        cp_pipe.buckets.wire < cp_serial.buckets.wire,
        "pipelined wire {} vs serial {}",
        cp_pipe.buckets.wire,
        cp_serial.buckets.wire
    );
}

/// Fault injection: jitter and resilient-transport recovery time must land
/// in their own path buckets (never silently inflate `wire`/`other`), and
/// the tiling invariant must survive retransmissions.
#[test]
fn faulted_resilient_run_attributes_recovery_time() {
    let nranks = 8;
    let elems = 16 * 1024;
    let opts = CollectiveOpts::hz(1e-4).with_resilience(Resilience::default());
    let plan = FaultPlan::new(7).with_drop(0.05).with_corrupt(0.01).with_jitter(2e-6);
    let (makespan, traces) = run_traced("allreduce", &opts, nranks, elems, Some(plan));
    let cp = CriticalPath::analyze_with_topology(&traces, &NetConfig::default(), None);
    assert_tiles(&cp, makespan, "faulted hz allreduce");
    assert!(
        cp.buckets.resilience > 0.0,
        "drops at 5% must put retransmit time on the path: {:?}",
        cp.buckets
    );
    // the slack pass still terminates and the straggling recovery chain is
    // critical somewhere
    assert!(cp.critical_fraction(1e-9) > 0.0);
}

/// A deliberately slowed rank owns the path; everyone else gains slack.
#[test]
fn straggler_owns_the_critical_path() {
    let nranks = 4;
    let elems = 16 * 1024;
    let straggler = 2usize;
    let opts = CollectiveOpts::hz(1e-4);
    let plan = FaultPlan::new(1).with_straggler(straggler, 4.0);
    let (makespan, traces) = run_traced("allreduce", &opts, nranks, elems, Some(plan));
    let cp = CriticalPath::analyze_with_topology(&traces, &NetConfig::default(), None);
    assert_tiles(&cp, makespan, "straggler run");
    let top =
        cp.per_rank.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(r, _)| r).unwrap();
    assert_eq!(top, straggler, "path ownership {:?}", cp.per_rank);
}
