//! # netsim — a virtual-time multi-node cluster simulator
//!
//! The MPI substrate of the hZCCL reproduction (DESIGN.md §1). Ranks
//! exchange **real byte buffers**, so every collective's data path
//! (compression, homomorphic reduction, decompression) runs for real and
//! its results can be verified. Time, however, is *virtual*:
//!
//! * wire time comes from an α–β(+congestion) model of the paper's 100 Gbps
//!   Omni-Path fabric ([`NetConfig`]);
//! * compute time is either the kernel's measured wall clock
//!   ([`ComputeTiming::Measured`]) or `bytes / calibrated-throughput`
//!   ([`ComputeTiming::Modeled`]) for rank counts that oversubscribe the
//!   host.
//!
//! Execution is driven by a [`SimEngine`]: by default ranks are
//! cooperatively-scheduled fibers under a discrete-event scheduler on one
//! OS thread ([`SimEngine::Events`], scales past 10k ranks); the original
//! one-OS-thread-per-rank model survives as [`SimEngine::Threads`] for
//! cross-engine equivalence testing. Both engines produce bit-identical
//! results (see `crate::engine::events` for the argument).
//!
//! Every rank carries a [`Breakdown`] so collectives report the paper's
//! CPR/DPR/HPR/CPT vs MPI vs OTHER splits (Fig. 2, Table VII) directly.
//! A flight recorder ([`trace`], enabled via [`SimBuilder::trace`])
//! additionally captures per-event streams on the virtual timeline, with
//! Chrome-trace/Perfetto and ASCII Gantt exporters, and [`RunReport::tally`]
//! counts a traced run's messages, bytes, retransmits, recoveries and
//! injected faults into one [`Tally`] ([`Json`] is the hand-rolled JSON
//! layer of the Chrome exporter and the tuner's state file).
//! [`CriticalPath`] reconstructs the causal DAG of a traced run and extracts
//! the end-to-end critical path with per-event slack, so breakdowns can be
//! read as "what actually gated the makespan" rather than mere totals.
//!
//! ```
//! use netsim::{Class, Label, OpKind, SimBuilder};
//!
//! const ADD: Label = Label { name: "add", kind: OpKind::Cpt, class: Class::Step };
//! let report = SimBuilder::new(4).run(|comm| {
//!     // ring: everyone passes its rank to the right, sums what it gets
//!     let to = (comm.rank() + 1) % comm.size();
//!     let from = (comm.rank() + comm.size() - 1) % comm.size();
//!     let rank = comm.rank();
//!     let got = comm.sendrecv(to, 0, vec![rank as u8], from);
//!     comm.compute(ADD, 1, || got[0] as usize + rank)
//! });
//! assert_eq!(report.outcomes.len(), 4);
//! assert!(report.stats.makespan > 0.0);
//! ```

mod breakdown;
mod comm;
mod config;
mod critpath;
mod engine;
mod faults;
mod json;
mod sim;
mod topology;
pub mod trace;

pub use breakdown::Breakdown;
pub use comm::{Comm, PeerCrashed, RecvMsg};
pub use config::{ComputeTiming, NetConfig, OpKind, ThroughputModel};
pub use critpath::{CriticalPath, HopTime, PathBuckets, PathElement, SpanKind};
pub use faults::{splitmix64, FaultKind, FaultPlan, LinkFault};
pub use json::Json;
pub use sim::{RankOutcome, RankPanic, RunReport, RunStats, SimBuilder, SimEngine, Tally};
pub use topology::{LinkTier, Topology};
pub use trace::{Class, Event, Label, RankTrace, TraceConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::step;

    fn modeled() -> ComputeTiming {
        ComputeTiming::Modeled(ThroughputModel::new(10.0, 20.0, 100.0, 30.0, 50.0))
    }

    #[test]
    fn ring_exchange_delivers_correct_payloads() {
        let outcomes = SimBuilder::new(8)
            .run(|comm| {
                let n = comm.size();
                let to = (comm.rank() + 1) % n;
                let from = (comm.rank() + n - 1) % n;
                let got = comm.sendrecv(to, 7, vec![comm.rank() as u8; 3], from);
                got[0] as usize
            })
            .expect_clean()
            .outcomes;
        for (rank, o) in outcomes.iter().enumerate() {
            assert_eq!(o.rank, rank);
            assert_eq!(o.value, (rank + 8 - 1) % 8);
        }
    }

    #[test]
    fn tags_disambiguate_messages() {
        let report = SimBuilder::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![1]);
                comm.send(1, 2, vec![2]);
                0
            } else {
                // receive in reverse tag order: matching must hold
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                (a[0] as usize) * 10 + b[0] as usize
            }
        });
        assert_eq!(*report.value(1), 12);
    }

    #[test]
    fn virtual_time_reflects_message_size() {
        let net = NetConfig { latency_s: 1e-6, bandwidth_gbps: 100.0, congestion: 0.0 };
        let run_with = |bytes: usize| {
            let report = SimBuilder::new(2).net(net).timing(modeled()).run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0u8; bytes]);
                } else {
                    comm.recv(0, 0);
                }
                comm.elapsed()
            });
            *report.value(1)
        };
        let t_small = run_with(1_000);
        let t_big = run_with(10_000_000);
        // 10 MB at 100 Gbps = 0.8 ms
        assert!(t_big > t_small);
        assert!((t_big - (1e-6 + 10_000_000.0 * 8.0 / 100e9)).abs() < 1e-9);
    }

    #[test]
    fn mpi_wait_time_is_charged() {
        let net = NetConfig { latency_s: 1e-3, bandwidth_gbps: 100.0, congestion: 0.0 };
        let report = SimBuilder::new(2).net(net).timing(modeled()).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 8]);
            } else {
                comm.recv(0, 0);
            }
            comm.breakdown()
        });
        assert!(report.value(1).mpi >= 1e-3);
        assert_eq!(report.value(0).mpi, 0.0);
    }

    #[test]
    fn modeled_compute_charges_expected_time() {
        let report = SimBuilder::new(1).timing(modeled()).run(|comm| {
            comm.compute(step(OpKind::Cpr), 10_000_000_000, || ());
            comm.breakdown()
        });
        assert!((report.value(0).cpr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_compute_charges_wall_time() {
        let report = SimBuilder::new(1).run(|comm| {
            comm.compute(step(OpKind::Cpt), 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
            comm.breakdown()
        });
        assert!(report.value(0).cpt >= 0.004);
    }

    #[test]
    fn stats_aggregate_across_ranks() {
        let report = SimBuilder::new(4).timing(modeled()).run(|comm| {
            comm.compute(step(OpKind::Cpt), 30_000_000_000, || ());
        });
        let stats = report.expect_clean().stats;
        assert!((stats.makespan - 1.0).abs() < 1e-9);
        assert!((stats.total.cpt - 4.0).abs() < 1e-9);
    }

    #[test]
    fn modeled_runs_are_deterministic() {
        let run_once = || {
            SimBuilder::new(8)
                .timing(modeled())
                .run(|comm| {
                    let n = comm.size();
                    let to = (comm.rank() + 1) % n;
                    let from = (comm.rank() + n - 1) % n;
                    for round in 0..5u64 {
                        let payload = vec![comm.rank() as u8; 1000 * (round as usize + 1)];
                        let got = comm.sendrecv(to, round, payload, from);
                        comm.compute(step(OpKind::Cpt), got.len(), || ());
                    }
                })
                .expect_clean()
                .stats
                .makespan
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn engines_agree_on_a_traced_multi_round_ring() {
        let run_under = |engine: SimEngine| {
            SimBuilder::new(6).timing(modeled()).trace(TraceConfig::default()).engine(engine).run(
                |comm| {
                    let n = comm.size();
                    let to = (comm.rank() + 1) % n;
                    let from = (comm.rank() + n - 1) % n;
                    let mut sum = 0usize;
                    for round in 0..4u64 {
                        let got = comm.sendrecv(to, round, vec![comm.rank() as u8; 4096], from);
                        sum += comm.compute(step(OpKind::Cpt), got.len(), || got[0] as usize);
                    }
                    sum
                },
            )
        };
        let ev = run_under(SimEngine::Events);
        let th = run_under(SimEngine::Threads);
        assert_eq!(ev.stats.makespan, th.stats.makespan);
        for rank in 0..6 {
            assert_eq!(ev.value(rank), th.value(rank));
            assert_eq!(ev.outcome(rank).unwrap().elapsed, th.outcome(rank).unwrap().elapsed);
            assert_eq!(ev.trace_of(rank).unwrap().events, th.trace_of(rank).unwrap().events);
        }
    }

    #[test]
    fn reset_clock_clears_accounting() {
        let report = SimBuilder::new(1).timing(modeled()).run(|comm| {
            comm.compute(step(OpKind::Cpr), 1_000_000, || ());
            comm.reset_clock();
            (comm.elapsed(), comm.breakdown().total())
        });
        assert_eq!(*report.value(0), (0.0, 0.0));
    }

    #[test]
    fn large_rank_counts_work() {
        let outcomes = SimBuilder::new(128)
            .timing(modeled())
            .run(|comm| {
                let n = comm.size();
                let got =
                    comm.sendrecv((comm.rank() + 1) % n, 0, vec![1u8], (comm.rank() + n - 1) % n);
                got[0]
            })
            .expect_clean()
            .outcomes;
        assert_eq!(outcomes.len(), 128);
        assert!(outcomes.iter().all(|o| o.value == 1));
    }

    #[test]
    fn all_to_all_random_order_is_deadlock_free() {
        // every rank sends to every other rank, then receives in an
        // arbitrary (rank-dependent) order: the pending-message buffer must
        // hold whatever arrives early
        let nranks = 12;
        let report = SimBuilder::new(nranks).timing(modeled()).run(|comm| {
            let me = comm.rank();
            let n = comm.size();
            for dst in 0..n {
                if dst != me {
                    comm.send(dst, 99, vec![me as u8]);
                }
            }
            let mut sum = 0usize;
            // receive in reverse order to exercise out-of-order buffering
            for src in (0..n).rev() {
                if src != me {
                    let got = comm.recv(src, 99);
                    sum += got[0] as usize;
                }
            }
            sum
        });
        let expect: usize = (0..nranks).sum();
        for (r, o) in report.expect_clean().outcomes.iter().enumerate() {
            assert_eq!(o.value, expect - r);
        }
    }

    #[test]
    fn large_payload_integrity() {
        let payload: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let report = SimBuilder::new(2).timing(modeled()).run(move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, payload.clone());
                true
            } else {
                comm.recv(0, 0) == expected
            }
        });
        assert!(*report.value(1));
    }

    #[test]
    fn opa_line_rate_is_faster_than_default() {
        let bytes = 10 << 20;
        let fast = NetConfig::opa_line_rate().transfer_time(bytes, 64);
        let slow = NetConfig::default().transfer_time(bytes, 64);
        assert!(fast < slow / 5.0, "line rate {fast} vs effective {slow}");
    }

    #[test]
    fn elapsed_equals_breakdown_total() {
        let report = SimBuilder::new(3).timing(modeled()).run(|comm| {
            let n = comm.size();
            let to = (comm.rank() + 1) % n;
            let from = (comm.rank() + n - 1) % n;
            for round in 0..4u64 {
                let got = comm.sendrecv(to, round, vec![0u8; 10_000], from);
                comm.compute(step(OpKind::Cpt), got.len(), || ());
            }
            (comm.elapsed(), comm.breakdown().total())
        });
        for o in report.expect_clean().outcomes {
            let (elapsed, total) = o.value;
            assert!((elapsed - total).abs() < 1e-12, "{elapsed} vs {total}");
        }
    }

    #[test]
    fn send_injection_is_charged_to_sender_other_bucket() {
        let net = NetConfig { latency_s: 5e-4, bandwidth_gbps: 100.0, congestion: 0.0 };
        let report = SimBuilder::new(2).net(net).timing(modeled()).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 1000]);
            } else {
                comm.recv(0, 0);
            }
            comm.breakdown()
        });
        // sender paid exactly alpha, into OTHER (never MPI)
        assert!((report.value(0).other - 5e-4).abs() < 1e-12, "{:?}", report.value(0));
        assert_eq!(report.value(0).mpi, 0.0);
        // end-to-end unloaded latency is still alpha + beta*s
        let expect = 5e-4 + 1000.0 * 8.0 / 100e9;
        assert!((report.value(1).mpi - expect).abs() < 1e-12, "{:?}", report.value(1));
    }

    #[test]
    fn topology_routes_pairs_through_their_tier_link() {
        let topo = Topology::paper(2, 2); // ranks {0,1} on node 0, {2,3} on node 1
        let run_pair = |src: usize, dst: usize| {
            let report = SimBuilder::new(4).timing(modeled()).topology(topo).run(move |comm| {
                if comm.rank() == src {
                    comm.send(dst, 0, vec![0u8; 1_000_000]);
                }
                if comm.rank() == dst {
                    comm.recv(src, 0);
                }
                comm.elapsed()
            });
            *report.value(dst)
        };
        let intra = run_pair(0, 1);
        let inter = run_pair(1, 2);
        assert!(inter > 5.0 * intra, "inter-node must be much slower: {inter} vs {intra}");
        for (measured, tier) in [(intra, LinkTier::Intra), (inter, LinkTier::Inter)] {
            let link = topo.link(tier);
            let expect = link.latency_s + link.serialization_time(1_000_000, topo.population(tier));
            assert!((measured - expect).abs() < 1e-12, "{tier:?}: {measured} vs {expect}");
        }
    }

    #[test]
    fn topology_stamps_tiers_on_sends() {
        let topo = Topology::paper(2, 2);
        let report =
            SimBuilder::new(4).timing(modeled()).topology(topo).trace(TraceConfig::default()).run(
                |comm| match comm.rank() {
                    0 => comm.send(1, 1, vec![1u8; 64]),
                    1 => {
                        comm.recv(0, 1);
                        comm.send(2, 2, vec![2u8; 64]);
                    }
                    2 => drop(comm.recv(1, 2)),
                    _ => {}
                },
            );
        let tier_of_send = |rank: usize| {
            report.trace_of(rank).unwrap().events.iter().find_map(|e| match *e {
                Event::Send { tier, .. } => Some(tier),
                _ => None,
            })
        };
        assert_eq!(tier_of_send(0), Some(LinkTier::Intra));
        assert_eq!(tier_of_send(1), Some(LinkTier::Inter));
    }

    #[test]
    #[should_panic(expected = "topology is 4 ranks")]
    fn topology_rank_count_must_match_the_simulation() {
        let _ = SimBuilder::new(8).topology(Topology::paper(2, 2));
    }

    #[test]
    fn tracing_is_disabled_by_default() {
        let report = SimBuilder::new(2).timing(modeled()).run(|comm| {
            let n = comm.size();
            comm.sendrecv((comm.rank() + 1) % n, 0, vec![1u8; 64], (comm.rank() + n - 1) % n);
        });
        assert!(report.expect_clean().traces.is_empty());
    }

    #[test]
    fn traced_run_reconciles_with_breakdown() {
        let report =
            SimBuilder::new(4).timing(modeled()).trace(TraceConfig::default()).run(|comm| {
                let n = comm.size();
                let to = (comm.rank() + 1) % n;
                let from = (comm.rank() + n - 1) % n;
                for round in 0..3u64 {
                    comm.send_compressed(to, round, vec![0u8; 500], 2000);
                    let got = comm.recv(from, round);
                    comm.compute(step(OpKind::Hpr), got.len() * 4, || ());
                }
                comm.advance(step(OpKind::Cpt), 1e-4);
            });
        for o in &report.outcomes {
            let trace = report.trace_of(o.rank).expect("traced run returns events");
            let rebuilt = trace.reconstructed_breakdown();
            for (a, b) in [
                (rebuilt.cpr, o.breakdown.cpr),
                (rebuilt.dpr, o.breakdown.dpr),
                (rebuilt.hpr, o.breakdown.hpr),
                (rebuilt.cpt, o.breakdown.cpt),
                (rebuilt.other, o.breakdown.other),
                (rebuilt.mpi, o.breakdown.mpi),
            ] {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
            // event stream is non-decreasing in virtual time
            for w in trace.events.windows(2) {
                assert!(w[1].start() >= w[0].start() - 1e-12);
            }
            // compressed sends recorded wire and logical sizes
            assert!(trace
                .events
                .iter()
                .any(|e| matches!(e, Event::Send { wire_bytes: 500, logical_bytes: 2000, .. })));
        }
    }

    #[test]
    fn reset_clock_clears_trace() {
        let report =
            SimBuilder::new(1).timing(modeled()).trace(TraceConfig::default()).run(|comm| {
                comm.compute(step(OpKind::Cpr), 1_000_000, || ());
                comm.reset_clock();
                comm.compute(step(OpKind::Dpr), 1_000_000, || ());
            });
        let trace = report.trace_of(0).unwrap();
        assert_eq!(trace.events.len(), 1);
        assert!(matches!(trace.events[0], Event::Compute { kind: OpKind::Dpr, .. }));
    }

    #[test]
    #[should_panic(expected = "self-send in a collective is a bug")]
    fn self_send_panics_the_rank() {
        // the self-send assert fires inside the rank; expect_clean surfaces
        // it by re-panicking with the original message
        let _ = SimBuilder::new(1).run(|comm| comm.send(0, 0, vec![])).expect_clean();
    }

    #[test]
    fn report_tells_which_rank_died_and_why() {
        let report = SimBuilder::new(2).timing(modeled()).run(|comm| {
            if comm.rank() == 1 {
                panic!("injected failure on rank 1");
            }
            comm.recv(1, 0); // blocks; must unwind, not deadlock
        });
        assert!(!report.is_clean());
        assert!(report.panic_of(0).is_some(), "rank 0 dies on the crash cascade");
        let p = report.panic_of(1).expect("rank 1 died");
        assert_eq!(p.rank, 1);
        assert_eq!(p.message, "injected failure on rank 1");
        // the fates view interleaves survivors and casualties by rank
        let fates = report.fates();
        assert_eq!(fates.len(), 2);
        assert!(fates.iter().all(|f| f.is_err()));
    }

    #[test]
    fn fault_plan_crash_cascades_and_is_attributed() {
        let report = SimBuilder::new(3)
            .timing(modeled())
            .faults(FaultPlan::new(1).with_crash(1, 0))
            .run(|comm| {
                let n = comm.size();
                let to = (comm.rank() + 1) % n;
                let from = (comm.rank() + n - 1) % n;
                for round in 0..3u64 {
                    comm.sendrecv(to, round, vec![comm.rank() as u8; 64], from);
                }
            });
        let p1 = report.panic_of(1).expect("rank 1 crashed");
        assert!(p1.message.contains("crashed by fault plan at send step 0"), "{}", p1.message);
        // The survivors die observing the cascade. Which dead neighbour each
        // one trips over first (the crashed rank or a fellow casualty) is an
        // engine-scheduling detail, so only the fact of a crash observation
        // is asserted here.
        for r in [0, 2] {
            let p = report.panic_of(r).expect("cascade kills the ring");
            assert!(p.message.contains("observed crash of rank"), "rank {r}: {}", p.message);
        }
    }

    #[test]
    fn dropped_message_panics_plain_recv() {
        let report = SimBuilder::new(2)
            .timing(modeled())
            .faults(FaultPlan::new(0).with_drop(1.0))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 5, vec![1, 2, 3]);
                } else {
                    comm.recv(0, 5);
                }
            });
        let p = report.panic_of(1).expect("the receiver starves");
        assert!(p.message.contains("dropped by the fault plan"), "{}", p.message);
    }

    #[test]
    fn recv_msg_surfaces_drops_and_send_reliable_bypasses_them() {
        let report = SimBuilder::new(2)
            .timing(modeled())
            .faults(FaultPlan::new(0).with_drop(1.0))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, vec![9; 16]);
                    comm.send_reliable(1, 2, vec![8; 16], 16);
                    (true, true)
                } else {
                    let lossy = comm.recv_msg(0, 1);
                    let safe = comm.recv_msg(0, 2);
                    (lossy.dropped, !safe.dropped && safe.payload == vec![8; 16])
                }
            });
        assert_eq!(*report.value(1), (true, true));
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let sent: Vec<u8> = (0..64).collect();
        let expect = sent.clone();
        let report = SimBuilder::new(2)
            .timing(modeled())
            .faults(FaultPlan::new(3).with_corrupt(1.0))
            .run(move |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, sent.clone());
                    0
                } else {
                    let got = comm.recv(0, 0);
                    got.iter().zip(&expect).map(|(a, b)| (a ^ b).count_ones()).sum::<u32>()
                }
            });
        assert_eq!(*report.value(1), 1);
    }

    #[test]
    fn straggler_scales_modeled_compute() {
        let run_with = |plan: Option<FaultPlan>| {
            let mut sim = SimBuilder::new(2).timing(modeled());
            if let Some(p) = plan {
                sim = sim.faults(p);
            }
            let report = sim.run(|comm| {
                comm.compute(step(OpKind::Cpt), 30_000_000_000, || ());
                comm.elapsed()
            });
            (*report.value(0), *report.value(1))
        };
        let (h0, h1) = run_with(None);
        let (s0, s1) = run_with(Some(FaultPlan::new(0).with_straggler(1, 4.0)));
        assert_eq!(h0, s0, "healthy rank untouched");
        assert!((s1 - h1 * 4.0).abs() < 1e-12, "straggler runs 4x slower: {s1} vs {h1}");
    }

    #[test]
    fn jitter_delays_arrivals_deterministically() {
        let run_once = |plan: FaultPlan| {
            let report = SimBuilder::new(2).timing(modeled()).faults(plan).run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0u8; 100]);
                } else {
                    comm.recv(0, 0);
                }
                comm.elapsed()
            });
            *report.value(1)
        };
        let healthy = run_once(FaultPlan::new(7));
        let jittered = run_once(FaultPlan::new(7).with_jitter(1e-3));
        assert!(jittered > healthy, "jitter must delay the receiver");
        assert_eq!(jittered, run_once(FaultPlan::new(7).with_jitter(1e-3)), "and replay exactly");
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let run = |faulted: bool| {
            let mut sim = SimBuilder::new(4).timing(modeled());
            if faulted {
                sim = sim.faults(FaultPlan::new(99));
            }
            let stats = sim
                .run(|comm| {
                    let n = comm.size();
                    let to = (comm.rank() + 1) % n;
                    let from = (comm.rank() + n - 1) % n;
                    for round in 0..4u64 {
                        let got = comm.sendrecv(to, round, vec![comm.rank() as u8; 2048], from);
                        comm.compute(step(OpKind::Cpt), got.len(), || ());
                    }
                })
                .expect_clean()
                .stats;
            (stats.makespan, stats.total.total())
        };
        assert_eq!(run(false), run(true));
    }
}
