//! Flight-recorder invariants across every collective pipeline: the traced
//! event stream must reconcile exactly with the live breakdown accounting,
//! event times must be monotone, and the exporters must round-trip.

use hzccl::collectives::{self, allreduce_recoverable, CollectiveOpts, RecoveryPolicy};
use hzccl::{CollectiveConfig, Mode, Resilience};
use netsim::{
    trace, ComputeTiming, Event, FaultKind, FaultPlan, Json, LinkFault, RunReport, SimBuilder,
    Tally, ThroughputModel, TraceConfig,
};

fn modeled() -> ComputeTiming {
    ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0))
}

fn field(rank: usize, n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.017).sin() * (rank + 1) as f32 * 1.3).collect()
}

/// Run `f` on a traced cluster and assert, for every rank, that
/// (a) the trace-reconstructed breakdown matches the live breakdown in every
///     bucket to 1e-9,
/// (b) event start times are non-decreasing,
/// (c) the sum of recv waits equals the `mpi` bucket, and
/// (d) no event extends past the rank's final clock.
fn assert_trace_reconciles<F>(nranks: usize, what: &str, f: F) -> Vec<trace::RankTrace>
where
    F: Fn(&mut netsim::Comm) + Sync,
{
    let cluster = SimBuilder::new(nranks).timing(modeled()).trace(TraceConfig::default());
    let report = cluster.run(|comm| f(comm)).expect_clean();
    assert_eq!(report.traces.len(), nranks, "{what}: tracing was enabled for every rank");
    for (o, t) in report.outcomes.iter().zip(&report.traces) {
        let rank = t.rank;
        let live = o.breakdown;
        let rec = t.reconstructed_breakdown();
        for (bucket, a, b) in [
            ("cpr", live.cpr, rec.cpr),
            ("dpr", live.dpr, rec.dpr),
            ("hpr", live.hpr, rec.hpr),
            ("cpt", live.cpt, rec.cpt),
            ("other", live.other, rec.other),
            ("mpi", live.mpi, rec.mpi),
        ] {
            assert!(
                (a - b).abs() <= 1e-9,
                "{what} rank {rank}: {bucket} live {a} vs reconstructed {b}"
            );
        }
        let mut prev = 0.0f64;
        for ev in &t.events {
            assert!(
                ev.start() >= prev - 1e-12,
                "{what} rank {rank}: event starts went backwards ({} < {prev})",
                ev.start()
            );
            prev = prev.max(ev.start());
        }
        assert!(
            (t.wait_seconds() - live.mpi).abs() <= 1e-9,
            "{what} rank {rank}: wait sum {} vs mpi {}",
            t.wait_seconds(),
            live.mpi
        );
        assert!(
            t.end_time() <= o.elapsed + 1e-12,
            "{what} rank {rank}: event past the final clock"
        );
    }
    report.traces
}

#[test]
fn mpi_allreduce_trace_reconciles() {
    let opts = CollectiveOpts::mpi();
    assert_trace_reconciles(5, "mpi", |comm| {
        let data = field(comm.rank(), 1200);
        collectives::allreduce(comm, &data, &opts).expect("mpi");
    });
}

#[test]
fn ccoll_allreduce_trace_reconciles() {
    let opts = CollectiveOpts::ccoll(1e-4);
    assert_trace_reconciles(4, "ccoll", |comm| {
        let data = field(comm.rank(), 1500);
        collectives::allreduce(comm, &data, &opts).expect("ccoll");
    });
}

#[test]
fn hz_allreduce_trace_reconciles_st_and_mt() {
    for mode in [Mode::SingleThread, Mode::MultiThread(2)] {
        let opts = CollectiveOpts::hz(1e-4).with_mode(mode);
        assert_trace_reconciles(4, "hz", |comm| {
            let data = field(comm.rank(), 2000);
            collectives::allreduce(comm, &data, &opts).expect("hz");
        });
    }
}

#[test]
fn pipelined_rings_trace_reconciles_every_flavour() {
    for (what, opts) in [
        ("mpi-pipe", CollectiveOpts::mpi().with_segments(3)),
        ("ccoll-pipe", CollectiveOpts::ccoll(1e-4).with_segments(3)),
        ("hz-pipe", CollectiveOpts::hz(1e-4).with_segments(3)),
    ] {
        assert_trace_reconciles(4, what, |comm| {
            let data = field(comm.rank(), 2400);
            collectives::allreduce(comm, &data, &opts).expect(what);
        });
    }
}

#[test]
fn rd_hz_trace_reconciles_non_power_of_two() {
    let cfg = CollectiveConfig::new(1e-4, Mode::SingleThread);
    assert_trace_reconciles(6, "rd-hz", |comm| {
        let data = field(comm.rank(), 800);
        hzccl::rd::allreduce_rd_hz(comm, &data, &cfg).expect("rd hz");
    });
}

#[test]
fn hz_reduce_and_bcast_traces_reconcile() {
    let opts = CollectiveOpts::hz(1e-3);
    assert_trace_reconciles(5, "hz-reduce", |comm| {
        let data = field(comm.rank(), 900);
        collectives::reduce(comm, &data, &opts).expect("reduce");
    });
    let base = field(7, 900);
    let bopts = opts.clone().with_root(1);
    assert_trace_reconciles(5, "hz-bcast", |comm| {
        // every rank passes a full-length buffer; non-root contents ignored
        let data = if comm.rank() == 1 { base.clone() } else { vec![0.0; 900] };
        collectives::bcast(comm, &data, &bopts).expect("bcast");
    });
}

#[test]
fn compressed_sends_carry_logical_bytes() {
    let opts = CollectiveOpts::hz(1e-4);
    let traces = assert_trace_reconciles(4, "hz-ratio", |comm| {
        let data = field(comm.rank(), 4096);
        collectives::allreduce(comm, &data, &opts).expect("hz");
    });
    let mut compressed_sends = 0usize;
    for t in &traces {
        for ev in &t.events {
            if let Event::Send { wire_bytes, logical_bytes, .. } = *ev {
                assert!(logical_bytes >= wire_bytes, "hz wire must not exceed logical");
                if logical_bytes > wire_bytes {
                    compressed_sends += 1;
                }
            }
        }
    }
    assert!(compressed_sends > 0, "hz traffic should be compressed on the wire");
}

#[test]
fn chrome_export_round_trips_every_event() {
    let opts = CollectiveOpts::hz(1e-4);
    let traces = assert_trace_reconciles(3, "chrome", |comm| {
        let data = field(comm.rank(), 600);
        collectives::allreduce(comm, &data, &opts).expect("hz");
    });
    let text = trace::chrome_trace(&traces, None);
    let doc = Json::parse(&text).expect("chrome trace is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let total_events: usize = traces.iter().map(|t| t.events.len()).sum();
    let complete: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    assert_eq!(complete.len(), total_events, "one X entry per recorded event");
    let meta = events.len() - complete.len();
    assert_eq!(meta, traces.len(), "one process_name metadata entry per rank");
    // every complete event belongs to a valid rank and has sane timing
    for e in complete {
        let pid = e.get("pid").unwrap().as_f64().unwrap() as usize;
        assert!(pid < traces.len());
        assert!(e.get("ts").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("dur").unwrap().as_f64().unwrap() >= 0.0);
        assert!(e.get("args").is_some());
    }
}

#[test]
fn ascii_timeline_renders_all_ranks() {
    let opts = CollectiveOpts::hz(1e-4);
    let traces = assert_trace_reconciles(4, "ascii", |comm| {
        let data = field(comm.rank(), 3000);
        collectives::allreduce(comm, &data, &opts).expect("hz");
    });
    let art = trace::ascii_timeline(&traces, 80);
    for r in 0..4 {
        assert!(art.contains(&format!("rank {r:>3} |")), "{art}");
    }
    assert!(art.contains("legend:"), "{art}");
    assert!(art.contains('C'), "compression must be visible: {art}");
}

#[test]
fn untraced_runs_carry_no_trace() {
    let cluster = SimBuilder::new(2).timing(modeled());
    let report = cluster
        .run(|comm| {
            let data = field(comm.rank(), 256);
            collectives::allreduce(comm, &data, &CollectiveOpts::mpi()).expect("mpi");
        })
        .expect_clean();
    assert!(report.traces.is_empty(), "tracing must be off by default");
    assert!(report.trace_of(0).is_none(), "no per-rank trace without TraceConfig");
    assert_eq!(report.tally(), Tally::default(), "an untraced run counts nothing");
}

/// Every [`Tally`] field counted by hand from the events: each `Send`, each
/// marker label, the largest value a marker carried, each injected fault —
/// a crash from the trace its dying rank left on its panic.
fn hand_count<R>(report: &RunReport<R>) -> Tally {
    let events = || report.traces.iter().flat_map(|t| &t.events);
    let sends = || {
        events().filter_map(|e| match *e {
            Event::Send { wire_bytes, logical_bytes, .. } => Some((wire_bytes, logical_bytes)),
            _ => None,
        })
    };
    let marked = |name: &str| {
        events()
            .filter_map(|e| match *e {
                Event::Compute { label, bytes, .. } if label == name => Some(bytes as u64),
                _ => None,
            })
            .collect::<Vec<u64>>()
    };
    let injected = |kind: FaultKind| {
        events().filter(|e| matches!(e, Event::Fault { kind: k, .. } if *k == kind)).count() as u64
    };
    Tally {
        messages: sends().count() as u64,
        wire_bytes: sends().map(|(w, _)| w as u64).sum(),
        logical_bytes: sends().map(|(_, l)| l as u64).sum(),
        retransmits: marked("res:retransmit").len() as u64,
        timeouts: marked("res:timeout").len() as u64,
        degraded_segments: marked("res:degraded-segment").len() as u64,
        recoveries: marked("rec:recovery").len() as u64,
        epoch: marked("rec:epoch").into_iter().max().unwrap_or(0),
        survivors: marked("rec:survivors").into_iter().max().unwrap_or(0),
        drops: injected(FaultKind::Drop),
        corruptions: injected(FaultKind::Corrupt),
        jitters: injected(FaultKind::Jitter),
        crashes: report
            .panics
            .iter()
            .filter_map(|p| p.trace.as_ref())
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e, Event::Fault { kind: FaultKind::Crash, .. }))
            .count() as u64,
    }
}

/// `RunReport::tally` against the hand count on a framed run under every
/// message fault (one link dead, so segments degrade) and on a
/// crash-recovery run — and every count each run can move is nonzero.
#[test]
fn tally_matches_a_hand_count_of_events() {
    let dead = LinkFault { drop_p: 1.0, corrupt_p: 0.0, jitter_s: 0.0 };
    let plan = FaultPlan::new(9)
        .with_drop(0.08)
        .with_corrupt(0.25)
        .with_jitter(1e-6)
        .with_link(0, 1, dead);
    let framed = CollectiveOpts::hz(1e-4).with_resilience(Resilience::default());
    let lossy = SimBuilder::new(4)
        .timing(modeled())
        .trace(TraceConfig::default())
        .faults(plan)
        .run(|comm| collectives::allreduce(comm, &field(comm.rank(), 2000), &framed).expect("hz"))
        .expect_clean();
    let t = lossy.tally();
    assert_eq!(t, hand_count(&lossy));
    let moved = [
        t.messages,
        t.wire_bytes,
        t.logical_bytes,
        t.retransmits,
        t.timeouts,
        t.degraded_segments,
        t.drops,
        t.corruptions,
        t.jitters,
    ];
    assert!(moved.iter().all(|&n| n > 0), "{t:?}");
    assert_eq!((t.recoveries, t.epoch, t.survivors, t.crashes), (0, 0, 0, 0), "nothing crashed");

    let shrink = CollectiveOpts::hz(1e-4).with_recovery(RecoveryPolicy::Shrink);
    let crash_run = |cluster: SimBuilder| {
        cluster.timing(modeled()).faults(FaultPlan::new(3).with_crash(2, 1)).run(|comm| {
            allreduce_recoverable(comm, &field(comm.rank(), 2000), &shrink).expect("recoverable")
        })
    };
    let crashed = crash_run(SimBuilder::new(8).trace(TraceConfig::default()));
    assert_eq!(crashed.panics.len(), 1, "rank 2 dies, the rest repair the ring");
    assert_eq!(crashed.traces.len(), 7, "the dying rank's trace stays on its panic");
    let t = crashed.tally();
    assert_eq!(t, hand_count(&crashed));
    assert!(t.messages > 0 && t.recoveries > 0, "{t:?}");
    assert_eq!((t.epoch, t.survivors), (1, 7), "one repair, seven survivors");
    assert_eq!(t.crashes, 1, "the injected crash reaches the tally");

    let untraced = crash_run(SimBuilder::new(8));
    assert_eq!(untraced.panics.len(), 1);
    assert_eq!(untraced.tally().crashes, 0, "an untraced run counts nothing");
}
