//! Online calibration of the cost model's constants.
//!
//! The analytical model (Sec. III-C, `costmodel`) is only as good as its
//! constants: per-kind compute throughputs (CPR/DPR/HPR/CPT/OTHER, GB/s of
//! uncompressed bytes) and the alpha-beta(+congestion) network law. This
//! module seeds them from the paper's calibration ([`paper_prior`]) and then
//! *refines* them from observed `netsim` flight-recorder outcomes with
//! exponentially-weighted updates, so repeated runs converge on the
//! behaviour of the actual host/simulator rather than trusting the paper's
//! Broadwell/Omni-Path numbers forever.
//!
//! What each constant learns from:
//!
//! * **throughputs** — every traced `Compute` event carries the
//!   uncompressed-equivalent bytes it touched and the charged seconds, so
//!   `bytes/secs` is an exact per-event throughput observation. Events are
//!   aggregated per kind (bytes-weighted) and applied as one EW step per run.
//! * **alpha** — every `Send` event records the sender-side injection
//!   overhead, which *is* the network alpha.
//! * **beta** — only observable through receive-side waits, which confound
//!   serialization with sender compute imbalance; the estimator therefore
//!   only updates when the run was communication-dominated (MPI share of
//!   virtual time above 30 %) and uses the median implied per-byte time, at
//!   half the usual gain.

use crate::plan::{Flavor, Mode};
use netsim::{Event, Json, NetConfig, OpKind, RunReport, ThroughputModel};
use std::collections::BTreeMap;

/// Exponentially-weighted gain of every calibration update (beta uses half).
const ETA: f64 = 0.3;

/// Beta updates require at least this MPI share of total virtual time.
const BETA_GUARD_SHARE: f64 = 0.3;

/// Throughputs calibrated to the paper's 36-thread Broadwell socket, per
/// framework and mode. The hZCCL values come from the paper's Fig. 6 /
/// Tables V-VI (fZ-light ~30/60 GB/s compress/decompress MT, hZ-dynamic
/// ~175 GB/s on mixed data); the C-Coll values reflect its SZx-class
/// compressor, which matches fZ-light single-threaded but scales far worse
/// (Fig. 2's 52% MT DOC share). This is the cold-start prior of every
/// [`Calibration`]; `hzccl::paper_model` delegates here so the constants
/// live in exactly one place.
pub fn paper_prior(flavor: Flavor, mt: bool) -> ThroughputModel {
    match (flavor, mt) {
        (Flavor::Mpi, _) => ThroughputModel::new(1.0, 1.0, 1.0, 50.0, 108.0),
        (Flavor::CColl, false) => ThroughputModel::new(1.7, 3.0, 3.0, 2.8, 6.0),
        (Flavor::CColl, true) => ThroughputModel::new(4.0, 7.0, 7.0, 50.0, 108.0),
        (Flavor::Hzccl, false) => ThroughputModel::new(1.7, 3.3, 9.7, 2.8, 6.0),
        (Flavor::Hzccl, true) => ThroughputModel::new(30.0, 60.0, 175.0, 50.0, 108.0),
    }
}

/// All calibrated constants: six throughput tables (three flavours x ST/MT)
/// plus the network law. Serializable through [`netsim::Json`] so a tuning
/// cache file carries its calibration along.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Per-kind GB/s, keyed `"<flavor>:<st|mt>"` (e.g. `"hz:st"`).
    pub thr: BTreeMap<String, [f64; OpKind::COUNT]>,
    /// Per-message latency alpha in seconds.
    pub latency_s: f64,
    /// Effective per-flow bandwidth in Gbit/s (the beta term).
    pub bandwidth_gbps: f64,
    /// Congestion coefficient gamma (`1 + gamma * log2(nprocs)` scaling).
    pub congestion: f64,
    /// Number of runs absorbed so far.
    pub samples: u64,
}

impl Calibration {
    /// Table key for a flavour/mode pair.
    pub fn key(flavor: Flavor, mt: bool) -> String {
        format!("{}:{}", flavor.name(), if mt { "mt" } else { "st" })
    }

    /// The paper-calibrated prior (all six tables + the default effective
    /// Omni-Path network law).
    pub(crate) fn paper() -> Calibration {
        let mut thr = BTreeMap::new();
        for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
            for mt in [false, true] {
                thr.insert(Self::key(flavor, mt), paper_prior(flavor, mt).gbps);
            }
        }
        let net = NetConfig::default();
        Calibration {
            thr,
            latency_s: net.latency_s,
            bandwidth_gbps: net.bandwidth_gbps,
            congestion: net.congestion,
            samples: 0,
        }
    }

    /// Current throughput model for one flavour/mode.
    pub fn model(&self, flavor: Flavor, mode: Mode) -> ThroughputModel {
        let gbps = self
            .thr
            .get(&Self::key(flavor, mode.is_mt()))
            .copied()
            .unwrap_or(paper_prior(flavor, mode.is_mt()).gbps);
        ThroughputModel { gbps }
    }

    /// Current network law.
    pub(crate) fn net(&self) -> NetConfig {
        NetConfig {
            latency_s: self.latency_s,
            bandwidth_gbps: self.bandwidth_gbps,
            congestion: self.congestion,
        }
    }

    /// One EW step on a single throughput constant.
    pub(crate) fn nudge(&mut self, flavor: Flavor, mt: bool, kind: OpKind, observed_gbps: f64) {
        if !(observed_gbps.is_finite() && observed_gbps > 0.0) {
            return;
        }
        let slot = &mut self
            .thr
            .entry(Self::key(flavor, mt))
            .or_insert_with(|| paper_prior(flavor, mt).gbps)[kind.index()];
        *slot += ETA * (observed_gbps - *slot);
    }

    /// Absorb one traced run: refine the `(flavor, mode)` throughput table
    /// from its `Compute` events, alpha from `Send` injection overheads, and
    /// (guarded) beta from receive waits. Untraced reports are a no-op —
    /// the flight recorder is the calibration signal.
    pub(crate) fn absorb_run<R>(&mut self, flavor: Flavor, mode: Mode, report: &RunReport<R>) {
        let mut bytes_by_kind = [0f64; OpKind::COUNT];
        let mut secs_by_kind = [0f64; OpKind::COUNT];
        let mut inject_total = 0f64;
        let mut inject_count = 0u64;
        let mut implied_byte_times: Vec<f64> = Vec::new();
        let mut wait_total = 0f64;
        let mut elapsed_total = 0f64;
        let traced = !report.traces.is_empty();
        let nranks = report.outcomes.len().max(1);
        for o in &report.outcomes {
            elapsed_total += o.elapsed;
        }
        for trace in &report.traces {
            for ev in &trace.events {
                match *ev {
                    Event::Compute { kind, bytes, secs, .. } => {
                        if bytes > 0 && secs > 0.0 {
                            bytes_by_kind[kind.index()] += bytes as f64;
                            secs_by_kind[kind.index()] += secs;
                        }
                    }
                    Event::Send { inject_secs, .. } => {
                        if inject_secs > 0.0 {
                            inject_total += inject_secs;
                            inject_count += 1;
                        }
                    }
                    Event::Recv { wire_bytes, wait_secs, .. } => {
                        wait_total += wait_secs;
                        // only waits clearly above alpha carry a beta signal
                        if wire_bytes >= 4096 && wait_secs > self.latency_s {
                            implied_byte_times
                                .push((wait_secs - self.latency_s) / wire_bytes as f64);
                        }
                    }
                    // fault annotations carry no timing signal
                    Event::Fault { .. } => {}
                }
            }
        }
        if !traced {
            return;
        }
        self.samples += 1;
        // --- throughputs: one bytes-weighted EW step per kind -------------
        for kind in OpKind::ALL {
            let (b, s) = (bytes_by_kind[kind.index()], secs_by_kind[kind.index()]);
            if b > 0.0 && s > 0.0 {
                self.nudge(flavor, mode.is_mt(), kind, b / s / 1e9);
            }
        }
        // --- alpha: the injection overhead is alpha by construction -------
        if inject_count > 0 {
            let observed = inject_total / inject_count as f64;
            self.latency_s += ETA * (observed - self.latency_s);
        }
        // --- beta: guarded, half-gain, median estimator -------------------
        let mpi_share = if elapsed_total > 0.0 { wait_total / elapsed_total } else { 0.0 };
        if mpi_share > BETA_GUARD_SHARE && !implied_byte_times.is_empty() {
            implied_byte_times.sort_by(|a, b| a.partial_cmp(b).expect("finite byte times"));
            let median = implied_byte_times[implied_byte_times.len() / 2];
            let factor = 1.0 + self.congestion * (nranks as f64).log2();
            let observed_gbps = 8.0 / (median / factor) / 1e9;
            if observed_gbps.is_finite() && observed_gbps > 0.0 {
                self.bandwidth_gbps += 0.5 * ETA * (observed_gbps - self.bandwidth_gbps);
            }
        }
    }

    /// Serialize to a [`Json`] tree (deterministic field order).
    pub(crate) fn to_json(&self) -> Json {
        let tables = Json::Obj(
            self.thr
                .iter()
                .map(|(k, gbps)| {
                    (k.clone(), Json::Arr(gbps.iter().map(|&g| Json::Num(g)).collect()))
                })
                .collect(),
        );
        Json::obj(vec![
            ("latency_s", Json::Num(self.latency_s)),
            ("bandwidth_gbps", Json::Num(self.bandwidth_gbps)),
            ("congestion", Json::Num(self.congestion)),
            ("samples", Json::Num(self.samples as f64)),
            ("throughputs", tables),
        ])
    }

    /// Parse [`Calibration::to_json`]'s output back.
    pub(crate) fn from_json(doc: &Json) -> Result<Calibration, String> {
        let num = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("calibration: missing number '{key}'"))
        };
        let mut thr = BTreeMap::new();
        let tables =
            doc.get("throughputs").and_then(Json::as_obj).ok_or("calibration: missing tables")?;
        for (key, arr) in tables {
            let arr = arr.as_arr().ok_or("calibration: table is not an array")?;
            if arr.len() != OpKind::COUNT {
                return Err(format!("calibration: table '{key}' has {} entries", arr.len()));
            }
            let mut gbps = [0f64; OpKind::COUNT];
            for (slot, v) in gbps.iter_mut().zip(arr) {
                *slot = v.as_f64().ok_or("calibration: non-numeric throughput")?;
                if !(slot.is_finite() && *slot > 0.0) {
                    return Err(format!("calibration: non-positive throughput in '{key}'"));
                }
            }
            thr.insert(key.clone(), gbps);
        }
        Ok(Calibration {
            thr,
            latency_s: num("latency_s")?,
            bandwidth_gbps: num("bandwidth_gbps")?,
            congestion: num("congestion")?,
            samples: num("samples")? as u64,
        })
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Class, ComputeTiming, Label, SimBuilder};

    const CPR: Label = Label { name: "cpr", kind: OpKind::Cpr, class: Class::Step };

    #[test]
    fn paper_prior_matches_paper_ordering() {
        for mt in [false, true] {
            let hz = paper_prior(Flavor::Hzccl, mt);
            let cc = paper_prior(Flavor::CColl, mt);
            assert!(hz.gbps[2] > cc.gbps[0], "homomorphic beats DOC compress");
            assert!(hz.gbps[2] > cc.gbps[1], "homomorphic beats DOC decompress");
            assert!(hz.gbps[0] >= cc.gbps[0]);
        }
    }

    #[test]
    fn nudge_moves_toward_observation() {
        let mut c = Calibration::paper();
        let before = c.model(Flavor::Hzccl, Mode::SingleThread).gbps[0];
        c.nudge(Flavor::Hzccl, false, OpKind::Cpr, 10.0);
        let after = c.model(Flavor::Hzccl, Mode::SingleThread).gbps[0];
        assert!(after > before && after < 10.0, "{before} -> {after}");
        // non-finite and non-positive observations are ignored
        c.nudge(Flavor::Hzccl, false, OpKind::Cpr, f64::NAN);
        c.nudge(Flavor::Hzccl, false, OpKind::Cpr, -1.0);
        assert_eq!(c.model(Flavor::Hzccl, Mode::SingleThread).gbps[0], after);
    }

    #[test]
    fn absorb_run_learns_modeled_throughput_and_alpha() {
        let mut c = Calibration::paper();
        // deliberately mis-seed CPR far below the simulator's true 5 GB/s
        c.thr.get_mut(&Calibration::key(Flavor::Hzccl, false)).unwrap()[0] = 0.05;
        let true_gbps = 5.0;
        let report = SimBuilder::new(2)
            .timing(ComputeTiming::Modeled(ThroughputModel::new(true_gbps, 10.0, 50.0, 20.0, 40.0)))
            .trace(netsim::TraceConfig::default())
            .run(|comm| {
                comm.compute(CPR, 1 << 20, || ());
                let n = comm.size();
                comm.sendrecv(
                    (comm.rank() + 1) % n,
                    0,
                    vec![0u8; 1 << 16],
                    (comm.rank() + n - 1) % n,
                );
            });
        let before = c.model(Flavor::Hzccl, Mode::SingleThread).gbps[0];
        c.absorb_run(Flavor::Hzccl, Mode::SingleThread, &report);
        let after = c.model(Flavor::Hzccl, Mode::SingleThread).gbps[0];
        assert!(
            (after - true_gbps).abs() < (before - true_gbps).abs(),
            "CPR must move toward the measured value: {before} -> {after}"
        );
        assert!(after > before);
        // repeated absorption converges
        for _ in 0..40 {
            c.absorb_run(Flavor::Hzccl, Mode::SingleThread, &report);
        }
        let settled = c.model(Flavor::Hzccl, Mode::SingleThread).gbps[0];
        assert!((settled - true_gbps).abs() < 0.05, "settled at {settled}");
        assert!(c.samples >= 41);
    }

    #[test]
    fn untraced_outcomes_are_ignored() {
        let mut c = Calibration::paper();
        let snapshot = c.clone();
        let report = SimBuilder::new(2)
            .timing(ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0)))
            .run(|comm| {
                comm.compute(CPR, 1 << 20, || ());
            });
        c.absorb_run(Flavor::Hzccl, Mode::SingleThread, &report);
        assert_eq!(c, snapshot, "no trace, no update");
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut c = Calibration::paper();
        c.nudge(Flavor::CColl, true, OpKind::Dpr, 11.7);
        c.samples = 3;
        let doc = c.to_json().render();
        let back = Calibration::from_json(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, c);
        // bit-for-bit stable rendering
        assert_eq!(back.to_json().render(), doc);
    }

    #[test]
    fn from_json_rejects_malformed_tables() {
        let mut c = Calibration::paper();
        c.thr.get_mut("hz:st").unwrap()[0] = 1.0;
        let good = c.to_json().render();
        let bad = good.replace("\"hz:st\":[1", "\"hz:st\":[-1");
        assert!(Calibration::from_json(&Json::parse(&bad).unwrap()).is_err());
    }
}
