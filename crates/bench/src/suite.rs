//! The deterministic `hzc bench` suite.
//!
//! Every case runs entirely on the virtual clock with paper-calibrated
//! compute models ([`hzccl::paper_model`]), seeded synthetic fields, and the
//! default network model — so two runs of the same suite on any host produce
//! bit-identical numbers. That determinism is what makes the snapshot diff
//! ([`crate::snapshot`]) a regression gate instead of a noise detector.
//!
//! A case is a point in `(op, variant, ranks, KiB/rank, segments, faulted)`
//! space; [`canonical_cases`] is the checked-in baseline sweep (the
//! `BENCH_results.json` at the repo root), [`quick_cases`] a strict subset
//! for CI smoke, and [`build_cases`] the CLI's constructive override.

use crate::{scaled_rank_fields, CollOp};
use hzccl::{Mode, Resilience, Variant};
use netsim::{
    ComputeTiming, CriticalPath, FaultPlan, NetConfig, SimBuilder, SimEngine, Topology, TraceConfig,
};

/// Shared inputs of every case in a suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed for the synthetic field generator and the fault plan.
    pub seed: u64,
    /// Absolute error bound of the compressed flavours.
    pub eb: f64,
    /// Synthetic application generating the per-rank fields.
    pub app: datasets::App,
    /// Network model (defaults to the paper calibration).
    pub net: NetConfig,
    /// Execution engine driving the virtual cluster. Both engines produce
    /// byte-identical suite results; the knob exists so CI can pin exactly
    /// that (`hzc bench --engine`).
    pub engine: SimEngine,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            seed: 0,
            eb: 1e-4,
            app: datasets::App::SimSet2,
            net: NetConfig::default(),
            engine: SimEngine::default(),
        }
    }
}

/// One point of the bench sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseSpec {
    /// Which collective the case runs.
    pub op: CollOp,
    /// Which flavour runs it.
    pub variant: Variant,
    /// Rank count of the virtual cluster.
    pub ranks: usize,
    /// Per-rank field size in KiB.
    pub kb: usize,
    /// Pipeline segment count (1 = phase-serial).
    pub segments: usize,
    /// Runs under a seeded fault plan with the resilient transport on.
    pub faulted: bool,
    /// `(nodes, ranks-per-node)` of a paper two-tier fabric
    /// ([`Topology::paper`]): the cluster and the collective both see it, so
    /// hierarchical schedules engage. `None` = the flat single-tier network
    /// (every pre-existing case, whose numbers must stay bit-identical).
    pub topology: Option<(usize, usize)>,
}

impl CaseSpec {
    /// Stable case identity — the diff key of the snapshot format.
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}/{}/r{}/kb{}/s{}",
            self.op_name(),
            self.variant.name(),
            self.ranks,
            self.kb,
            self.segments
        );
        if let Some((nodes, ppn)) = self.topology {
            id.push_str(&format!("/t{nodes}x{ppn}"));
        }
        if self.faulted {
            id.push_str("-faulted");
        }
        id
    }

    /// Stable op name used in ids and snapshots.
    pub fn op_name(&self) -> &'static str {
        match self.op {
            CollOp::Allreduce => "allreduce",
            CollOp::ReduceScatter => "reduce_scatter",
        }
    }

    /// Which variant's paper throughput table times the case (auto borrows
    /// the hz table — its headline dispatch target).
    fn timing_variant(&self) -> Variant {
        match self.variant {
            Variant::Auto => Variant::Hzccl,
            v => v,
        }
    }
}

/// The measured outcome of one case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case that ran.
    pub spec: CaseSpec,
    /// End-to-end virtual seconds (slowest rank).
    pub virtual_secs: f64,
    /// Total bytes that crossed the virtual wire.
    pub wire_bytes: u64,
    /// Total uncompressed bytes those messages represented.
    pub logical_bytes: u64,
    /// Aggregated per-rank cost buckets.
    pub breakdown: netsim::Breakdown,
    /// Causal critical-path analysis of the run.
    pub critpath: CriticalPath,
    /// Median per-rank end-to-end latency (log2-bucket interpolation).
    pub latency_p50: f64,
    /// 99th-percentile per-rank end-to-end latency.
    pub latency_p99: f64,
}

/// The canonical paper-calibrated sweep backing `BENCH_results.json`:
/// {allreduce, reduce_scatter} × {8, 64} ranks × {16, 256, 1024} KiB ×
/// ({mpi, ccoll, hz} × {serial, S=8} + auto), then the two-tier topology
/// cases (`hierarchical_cases`), plus one faulted resilient case.
/// 97 cases. New case families are appended *before* the faulted closer so
/// pre-existing snapshot lines stay byte-identical across suite growth.
pub fn canonical_cases() -> Vec<CaseSpec> {
    let mut cases = build_cases(
        &[CollOp::Allreduce, CollOp::ReduceScatter],
        &[Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto],
        &[8, 64],
        &[16, 256, 1024],
        &[1, 8],
        false,
    );
    cases.extend(hierarchical_cases(false));
    cases.push(fault_case());
    cases
}

/// The CI smoke subset: 8 ranks, {16, 256} KiB, every variant, the small
/// two-tier fabric, plus the faulted case. A strict subset of
/// [`canonical_cases`] by id, so `--against` the canonical baseline
/// compares every quick case.
pub fn quick_cases() -> Vec<CaseSpec> {
    let mut cases = build_cases(
        &[CollOp::Allreduce, CollOp::ReduceScatter],
        &[Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto],
        &[8],
        &[16, 256],
        &[1, 8],
        false,
    );
    cases.extend(hierarchical_cases(true));
    cases.push(fault_case());
    cases
}

/// The `--scale` family: the regime the event-driven engine exists for.
/// Ring allreduce at {512, 2048, 4096} ranks — far past what a
/// thread-per-rank scheduler could sensibly host — at a small per-rank
/// field so the sweep stays wall-clock-friendly. Kept out of
/// [`canonical_cases`] so the committed `BENCH_results.json` is unchanged;
/// CI covers the regime with an untraced 4096-rank smoke
/// (`tests/engine_equivalence.rs`) because fully-traced r4096 cases cost
/// minutes apiece — `hzc bench --scale` is the manual/nightly sweep.
pub fn scale_cases() -> Vec<CaseSpec> {
    let mut out = Vec::new();
    for ranks in [512usize, 2048, 4096] {
        for variant in [Variant::Mpi, Variant::Hzccl] {
            out.push(CaseSpec {
                op: CollOp::Allreduce,
                variant,
                ranks,
                kb: 4,
                segments: 1,
                faulted: false,
                topology: None,
            });
        }
    }
    out
}

/// The two-tier topology sweep: hierarchical allreduce on paper fabrics
/// ([`Topology::paper`]: intra-node links 10× faster than inter-node).
/// The quick subset covers a small 4×2 fabric; the canonical sweep adds the
/// paper-scale 8×8 fabric across every flavour (there the hierarchical hz
/// schedule beats the flat hz ring — the headline win this suite pins).
fn hierarchical_cases(quick: bool) -> Vec<CaseSpec> {
    let mk = |variant, nodes: usize, ppn: usize, kb| CaseSpec {
        op: CollOp::Allreduce,
        variant,
        ranks: nodes * ppn,
        kb,
        segments: 1,
        faulted: false,
        topology: Some((nodes, ppn)),
    };
    let mut out = Vec::new();
    for kb in [16, 256] {
        for v in [Variant::Hzccl, Variant::Auto] {
            out.push(mk(v, 4, 2, kb));
        }
    }
    if !quick {
        for kb in [256, 1024] {
            for v in [Variant::Mpi, Variant::CColl, Variant::Hzccl, Variant::Auto] {
                out.push(mk(v, 8, 8, kb));
            }
        }
    }
    out
}

/// The fixed faulted closer of every suite: hz allreduce, 8 ranks, 64 KiB,
/// serial, drop 2% + corrupt 1%, resilient transport on.
fn fault_case() -> CaseSpec {
    CaseSpec {
        op: CollOp::Allreduce,
        variant: Variant::Hzccl,
        ranks: 8,
        kb: 64,
        segments: 1,
        faulted: true,
        topology: None,
    }
}

/// Constructive case enumeration (the CLI's `--ops/--variants/--ranks-list/
/// --sizes-kb/--segments-list` overrides). [`Variant::Auto`] always runs
/// serially (the tuner's plan owns the segment knob), so it contributes one
/// case per `(op, ranks, kb)` regardless of `segments_list`. When
/// `include_fault` is set, one fixed faulted case (hz allreduce, 8 ranks,
/// 64 KiB, serial, drop 2% + corrupt 1%, resilient transport) is appended
/// if `hz` and `allreduce` are in the sweep.
pub fn build_cases(
    ops: &[CollOp],
    variants: &[Variant],
    ranks_list: &[usize],
    sizes_kb: &[usize],
    segments_list: &[usize],
    include_fault: bool,
) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    for &op in ops {
        for &variant in variants {
            for &ranks in ranks_list {
                for &kb in sizes_kb {
                    if variant == Variant::Auto {
                        out.push(CaseSpec {
                            op,
                            variant,
                            ranks,
                            kb,
                            segments: 1,
                            faulted: false,
                            topology: None,
                        });
                        continue;
                    }
                    for &segments in segments_list {
                        out.push(CaseSpec {
                            op,
                            variant,
                            ranks,
                            kb,
                            segments,
                            faulted: false,
                            topology: None,
                        });
                    }
                }
            }
        }
    }
    if include_fault && ops.contains(&CollOp::Allreduce) && variants.contains(&Variant::Hzccl) {
        out.push(fault_case());
    }
    out
}

/// Run one case on the virtual cluster and analyze it.
pub fn run_case(spec: &CaseSpec, cfg: &SuiteConfig) -> CaseResult {
    let elems = ((spec.kb << 10) / 4).max(spec.ranks);
    let base = cfg.app.generate(elems, cfg.seed);
    let fields = scaled_rank_fields(&base, spec.ranks);

    let timing =
        ComputeTiming::Modeled(hzccl::paper_model(spec.timing_variant(), Mode::SingleThread));
    let topo = spec.topology.map(|(nodes, ppn)| Topology::paper(nodes, ppn));
    let mut cluster = SimBuilder::new(spec.ranks)
        .net(cfg.net)
        .timing(timing)
        .trace(TraceConfig::default())
        .engine(cfg.engine);
    if spec.faulted {
        cluster = cluster.faults(FaultPlan::new(cfg.seed).with_drop(0.02).with_corrupt(0.01));
    }
    if let Some(t) = topo {
        cluster = cluster.topology(t);
    }

    let mut opts = hzccl::collectives::CollectiveOpts::for_variant(spec.variant, cfg.eb)
        .with_mode(Mode::SingleThread)
        .with_segments(spec.segments);
    if spec.faulted {
        opts = opts.with_resilience(Resilience::default());
    }
    if let Some(t) = topo {
        opts = opts.with_topology(t);
    }
    let op = spec.op;
    let report = cluster
        .run(|comm| {
            let data = &fields[comm.rank()];
            match op {
                CollOp::Allreduce => {
                    hzccl::collectives::allreduce(comm, data, &opts).expect("bench allreduce");
                }
                CollOp::ReduceScatter => {
                    hzccl::collectives::reduce_scatter(comm, data, &opts).expect("bench rs");
                }
            }
        })
        .expect_clean();

    let virtual_secs = report.stats.makespan;
    let breakdown = report.stats.total;
    let mut registry = netsim::Registry::new();
    registry.record_report(&report);
    let (latency_p50, latency_p99) = registry
        .histogram("hz_collective_latency_seconds")
        .map(|h| (h.quantile(0.5), h.quantile(0.99)))
        .unwrap_or((0.0, 0.0));

    let mut wire_bytes = 0u64;
    let mut logical_bytes = 0u64;
    for t in &report.traces {
        for ev in &t.events {
            if let netsim::Event::Send { wire_bytes: w, logical_bytes: l, .. } = *ev {
                wire_bytes += w as u64;
                logical_bytes += l as u64;
            }
        }
    }
    let critpath = CriticalPath::analyze_with_topology(&report.traces, &cfg.net, topo.as_ref());

    CaseResult {
        spec: spec.clone(),
        virtual_secs,
        wire_bytes,
        logical_bytes,
        breakdown,
        critpath,
        latency_p50,
        latency_p99,
    }
}

/// Run every case, invoking `progress` after each one (the CLI's live
/// table row).
pub fn run_suite(
    cases: &[CaseSpec],
    cfg: &SuiteConfig,
    mut progress: impl FnMut(&CaseResult),
) -> Vec<CaseResult> {
    let mut out = Vec::with_capacity(cases.len());
    for spec in cases {
        let result = run_case(spec, cfg);
        progress(&result);
        out.push(result);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ids_are_a_subset_of_canonical_ids() {
        let canon: std::collections::BTreeSet<String> =
            canonical_cases().iter().map(|c| c.id()).collect();
        assert_eq!(canon.len(), canonical_cases().len(), "canonical ids unique");
        for c in quick_cases() {
            assert!(canon.contains(&c.id()), "{} missing from canonical", c.id());
        }
    }

    #[test]
    fn case_counts_match_the_documented_sweep() {
        // 2 ops x (3 static variants x 2 segment counts + auto) x 2 ranks x
        // 3 sizes + 12 two-tier topology cases + 1 faulted
        assert_eq!(canonical_cases().len(), 2 * 7 * 2 * 3 + 12 + 1);
        assert_eq!(quick_cases().len(), 2 * 7 * 2 + 4 + 1);
        // the faulted closer stays last, so pre-topology snapshot lines
        // (including the final-line comma) never move
        assert!(canonical_cases().last().unwrap().faulted);
        assert!(quick_cases().last().unwrap().faulted);
    }

    #[test]
    fn scale_family_is_disjoint_from_the_committed_baseline() {
        let cases = scale_cases();
        assert_eq!(cases.len(), 3 * 2, "{{512,2048,4096}} x {{mpi,hz}}");
        assert!(cases.iter().any(|c| c.id() == "allreduce/hz/r4096/kb4/s1"));
        // No id overlap with canonical: a --scale run can never be diffed
        // against (or mistaken for) the committed baseline's cases.
        let canon: std::collections::BTreeSet<String> =
            canonical_cases().iter().map(|c| c.id()).collect();
        for c in &cases {
            assert!(!canon.contains(&c.id()), "{} collides with canonical", c.id());
        }
    }

    #[test]
    fn topology_cases_carry_the_tier_suffix_in_their_id() {
        let cases = canonical_cases();
        assert!(cases.iter().any(|c| c.id() == "allreduce/hz/r64/kb1024/s1/t8x8"));
        assert!(cases.iter().any(|c| c.id() == "allreduce/auto/r8/kb16/s1/t4x2"));
    }

    #[test]
    fn run_case_is_deterministic_and_self_consistent() {
        let cfg = SuiteConfig::default();
        let spec = CaseSpec {
            op: CollOp::Allreduce,
            variant: Variant::Hzccl,
            ranks: 4,
            kb: 8,
            segments: 2,
            faulted: false,
            topology: None,
        };
        let a = run_case(&spec, &cfg);
        let b = run_case(&spec, &cfg);
        assert_eq!(a.virtual_secs.to_bits(), b.virtual_secs.to_bits(), "bit-stable time");
        assert_eq!(a.wire_bytes, b.wire_bytes);
        assert!(a.wire_bytes > 0 && a.logical_bytes >= a.wire_bytes);
        // the analyzer's tiling invariant holds on a real collective
        let rel = (a.critpath.length - a.virtual_secs).abs() / a.virtual_secs;
        assert!(rel <= 1e-9, "path {} vs makespan {}", a.critpath.length, a.virtual_secs);
        assert!(a.latency_p99 >= a.latency_p50 && a.latency_p50 > 0.0);
    }

    #[test]
    fn hierarchical_case_attributes_both_tiers_and_tiles_the_run() {
        use netsim::LinkTier;
        let cfg = SuiteConfig::default();
        let spec = CaseSpec {
            op: CollOp::Allreduce,
            variant: Variant::Hzccl,
            ranks: 8,
            kb: 16,
            segments: 1,
            faulted: false,
            topology: Some((4, 2)),
        };
        let r = run_case(&spec, &cfg);
        let intra = r.critpath.by_tier[LinkTier::Intra.index()];
        let inter = r.critpath.by_tier[LinkTier::Inter.index()];
        assert!(intra.hops > 0 && inter.hops > 0, "path crosses both tiers");
        assert_eq!(r.critpath.by_tier[LinkTier::Flat.index()].hops, 0);
        let rel = (r.critpath.length - r.virtual_secs).abs() / r.virtual_secs;
        assert!(rel <= 1e-9, "path {} vs makespan {}", r.critpath.length, r.virtual_secs);
    }
}
