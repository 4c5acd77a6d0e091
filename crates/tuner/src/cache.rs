//! The persistent tuning cache: scenario bucket -> best measured plan.
//!
//! Keys come from [`crate::ScenarioSpec::bucket_key`]; values remember the
//! best plan seen so far for that bucket, its (exponentially smoothed)
//! measured time, the model's prediction at record time, and how many
//! measurements contributed. Serialization goes through [`netsim::Json`]
//! (the workspace's no-dependency JSON layer) and is bit-for-bit stable
//! under a render -> parse -> render cycle, which `tests/` pin down.

use crate::plan::{Algo, Flavor, Mode, Plan};
use netsim::Json;
use std::collections::BTreeMap;

/// Best-known configuration for one scenario bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEntry {
    /// The winning plan.
    pub plan: Plan,
    /// Measured completion time (EW-smoothed over repeats of the same plan).
    pub measured_secs: f64,
    /// What the analytical model predicted for this plan when it was
    /// recorded (kept for drift diagnostics: a growing model/measured gap
    /// means the calibration needs more observations).
    pub model_secs: f64,
    /// Measurements that contributed to this entry.
    pub samples: u64,
}

/// Scenario-bucket keyed store of [`CacheEntry`]s (BTreeMap so rendering is
/// deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningCache {
    /// `bucket_key -> entry`.
    pub entries: BTreeMap<String, CacheEntry>,
}

impl TuningCache {
    /// An empty cache.
    pub fn new() -> TuningCache {
        TuningCache::default()
    }

    /// Entry lookup by bucket key.
    pub(crate) fn get(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// Number of buckets with a recorded winner.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record one measurement. Rules:
    ///
    /// * empty bucket -> insert;
    /// * same plan re-measured -> EW-smooth `measured_secs` (gain 0.5) and
    ///   bump `samples`, so repeated runs converge instead of jittering;
    /// * different plan measured faster -> replace the winner;
    /// * different plan measured slower -> keep the incumbent (but still
    ///   count the sample, so `samples` reflects total evidence).
    pub fn record(&mut self, key: &str, plan: Plan, measured_secs: f64, model_secs: f64) {
        if !(measured_secs.is_finite() && measured_secs > 0.0) {
            return;
        }
        match self.entries.get_mut(key) {
            None => {
                self.entries.insert(
                    key.to_string(),
                    CacheEntry { plan, measured_secs, model_secs, samples: 1 },
                );
            }
            Some(entry) if entry.plan == plan => {
                entry.measured_secs += 0.5 * (measured_secs - entry.measured_secs);
                entry.model_secs = model_secs;
                entry.samples += 1;
            }
            Some(entry) if measured_secs < entry.measured_secs => {
                *entry = CacheEntry { plan, measured_secs, model_secs, samples: entry.samples + 1 };
            }
            Some(entry) => entry.samples += 1,
        }
    }

    /// Serialize to a [`Json`] tree (deterministic: BTreeMap order).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(key, e)| {
                    (
                        key.clone(),
                        Json::obj(vec![
                            ("flavor", Json::Str(e.plan.flavor.name().into())),
                            ("algo", Json::Str(e.plan.algo.name().into())),
                            ("mode", Json::Str(e.plan.mode.name().into())),
                            ("threads", Json::Num(e.plan.mode.threads() as f64)),
                            ("block_len", Json::Num(e.plan.block_len as f64)),
                            ("segments", Json::Num(e.plan.segments.max(1) as f64)),
                            ("hierarchical", Json::Bool(e.plan.hierarchical)),
                            ("measured_secs", Json::Num(e.measured_secs)),
                            ("model_secs", Json::Num(e.model_secs)),
                            ("samples", Json::Num(e.samples as f64)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Parse [`TuningCache::to_json`]'s output back.
    pub fn from_json(doc: &Json) -> Result<TuningCache, String> {
        let pairs = doc.as_obj().ok_or("tuning cache: expected an object")?;
        let mut entries = BTreeMap::new();
        for (key, v) in pairs {
            let str_field = |name: &str| -> Result<&str, String> {
                v.get(name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("cache entry '{key}': missing '{name}'"))
            };
            let num_field = |name: &str| -> Result<f64, String> {
                v.get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("cache entry '{key}': missing '{name}'"))
            };
            let name = str_field("flavor")?;
            let flavor = [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl]
                .into_iter()
                .find(|f| f.name() == name)
                .ok_or_else(|| format!("cache entry '{key}': bad flavor"))?;
            let name = str_field("algo")?;
            let algo = [Algo::Ring, Algo::Rd]
                .into_iter()
                .find(|a| a.name() == name)
                .ok_or_else(|| format!("cache entry '{key}': bad algo"))?;
            let mode = match str_field("mode")? {
                "st" => Mode::SingleThread,
                "mt" => Mode::MultiThread(num_field("threads")? as usize),
                other => return Err(format!("cache entry '{key}': bad mode '{other}'")),
            };
            let block_len = num_field("block_len")? as usize;
            if block_len == 0 {
                return Err(format!("cache entry '{key}': zero block_len"));
            }
            let segments = num_field("segments")? as usize;
            if segments == 0 {
                return Err(format!("cache entry '{key}': zero segments"));
            }
            let hierarchical = match v.get("hierarchical") {
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err(format!("cache entry '{key}': bad 'hierarchical'")),
                None => return Err(format!("cache entry '{key}': missing 'hierarchical'")),
            };
            entries.insert(
                key.clone(),
                CacheEntry {
                    plan: Plan { flavor, algo, mode, block_len, segments, hierarchical },
                    measured_secs: num_field("measured_secs")?,
                    model_secs: num_field("model_secs")?,
                    samples: num_field("samples")? as u64,
                },
            );
        }
        Ok(TuningCache { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(flavor: Flavor, algo: Algo) -> Plan {
        Plan::serial(flavor, algo, Mode::SingleThread, 32)
    }

    #[test]
    fn record_keeps_the_fastest_plan() {
        let mut cache = TuningCache::new();
        cache.record("k", plan(Flavor::Mpi, Algo::Ring), 2.0, 2.1);
        cache.record("k", plan(Flavor::Hzccl, Algo::Ring), 1.0, 0.9);
        assert_eq!(cache.get("k").unwrap().plan.flavor, Flavor::Hzccl);
        // slower challenger does not displace the winner
        cache.record("k", plan(Flavor::CColl, Algo::Ring), 1.5, 1.4);
        assert_eq!(cache.get("k").unwrap().plan.flavor, Flavor::Hzccl);
        assert_eq!(cache.get("k").unwrap().samples, 3);
    }

    #[test]
    fn repeats_of_the_same_plan_smooth_the_measurement() {
        let mut cache = TuningCache::new();
        let p = plan(Flavor::Hzccl, Algo::Rd);
        cache.record("k", p, 1.0, 1.0);
        cache.record("k", p, 2.0, 1.0);
        let e = cache.get("k").unwrap();
        assert!((e.measured_secs - 1.5).abs() < 1e-12);
        assert_eq!(e.samples, 2);
    }

    #[test]
    fn bogus_measurements_are_dropped() {
        let mut cache = TuningCache::new();
        cache.record("k", plan(Flavor::Mpi, Algo::Ring), f64::NAN, 1.0);
        cache.record("k", plan(Flavor::Mpi, Algo::Ring), -1.0, 1.0);
        cache.record("k", plan(Flavor::Mpi, Algo::Ring), 0.0, 1.0);
        assert!(cache.is_empty());
    }

    #[test]
    fn json_roundtrip_bit_for_bit() {
        let mut cache = TuningCache::new();
        cache.record(
            "allreduce:b20:r64:e-4",
            Plan {
                flavor: Flavor::Hzccl,
                algo: Algo::Ring,
                mode: Mode::MultiThread(18),
                block_len: 32,
                segments: 4,
                hierarchical: true,
            },
            0.001234,
            0.0011,
        );
        cache.record("bcast:b10:r8:e-3", plan(Flavor::CColl, Algo::Ring), 5e-5, 6e-5);
        let text = cache.to_json().render();
        let back = TuningCache::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cache);
        assert_eq!(back.to_json().render(), text, "render -> parse -> render is stable");
    }

    #[test]
    fn from_json_rejects_malformed_entries() {
        let doc = Json::parse("{\"k\":{\"flavor\":\"warp\",\"algo\":\"ring\",\"mode\":\"st\",\"threads\":1,\"block_len\":32,\"measured_secs\":1,\"model_secs\":1,\"samples\":1}}").unwrap();
        assert!(TuningCache::from_json(&doc).is_err());
        assert!(TuningCache::from_json(&Json::parse("[1,2]").unwrap()).is_err());
        // entries written before the segment and hierarchy dimensions existed
        let entry = "\"flavor\":\"hz\",\"algo\":\"ring\",\"mode\":\"st\",\"threads\":1,\
                     \"block_len\":32,\"measured_secs\":1,\"model_secs\":1,\"samples\":1";
        for (fields, missing) in [("", "'segments'"), (",\"segments\":1", "'hierarchical'")] {
            let doc = Json::parse(&format!("{{\"k\":{{{entry}{fields}}}}}")).unwrap();
            let err = TuningCache::from_json(&doc).unwrap_err();
            assert!(err.contains("missing") && err.contains(missing), "{err}");
        }
    }
}
