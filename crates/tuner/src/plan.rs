//! The tuner's vocabulary: which collective is being run ([`Op`]), what a
//! candidate configuration looks like ([`Plan`]), and the scenario the
//! decision engine is asked about ([`ScenarioSpec`]).
//!
//! Plans are tiny and wire-encodable ([`Plan::encode`]) so the `hzccl::auto`
//! front-end can have one rank decide and broadcast the result — every rank
//! of a collective must execute the *same* plan or the exchange deadlocks.

pub use costmodel::{Algo, Flavor, Op};

/// Compression mode of a collective: the paper's frameworks each run
/// single-thread and multi-thread (Table II). Re-exported as `hzccl::Mode`;
/// `SingleThread` comes first, so plans order, label and encode ST first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// One compression thread per rank.
    SingleThread,
    /// `k` compression threads per rank (the paper uses one 18-core socket).
    MultiThread(usize),
}

impl Mode {
    /// True for the multi-thread mode.
    pub fn is_mt(self) -> bool {
        matches!(self, Mode::MultiThread(_))
    }

    /// Compression thread count: 1 for ST, at least 2 for MT.
    pub fn threads(self) -> usize {
        match self {
            Mode::SingleThread => 1,
            Mode::MultiThread(k) => k.max(2),
        }
    }

    /// Stable short name (`st` / `mt`).
    pub(crate) fn name(self) -> &'static str {
        if self.is_mt() {
            "mt"
        } else {
            "st"
        }
    }
}

/// One executable collective configuration: flavour x algorithm x thread
/// mode x compression chunking (the small-block length the compressors
/// quantize over, which trades ratio against error-control granularity) x
/// ring-step segmentation (1 = phase-serial, >1 = pipelined segments whose
/// compute overlaps the next segment's wire time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Plan {
    /// Collective framework.
    pub flavor: Flavor,
    /// Ring or recursive doubling.
    pub algo: Algo,
    /// Compression thread mode.
    pub mode: Mode,
    /// Compressor small-block length (ignored by [`Flavor::Mpi`]).
    pub block_len: usize,
    /// Ring-step segment count: 1 runs the phase-serial ring, `S > 1`
    /// splits each ring-step block into `S` pipelined segments (ignored by
    /// [`Algo::Rd`], clamped to the block count at execution time).
    pub segments: usize,
    /// Run the two-tier hierarchical schedule (intra-node reduce-scatter →
    /// inter-node ring of the chosen flavour → intra-node allgather) instead
    /// of the flat one. Only meaningful for `Allreduce` on a scenario that
    /// carries a genuinely two-level [`ScenarioSpec::topology`]; executors
    /// fall back to the flat schedule when no topology is available at run
    /// time.
    pub hierarchical: bool,
}

impl Plan {
    /// A phase-serial (one-segment, flat) plan — the pre-segmentation shape.
    pub fn serial(flavor: Flavor, algo: Algo, mode: Mode, block_len: usize) -> Plan {
        Plan { flavor, algo, mode, block_len, segments: 1, hierarchical: false }
    }

    /// Compact human label, e.g. `hz/ring/st/b32` (serial),
    /// `hz/ring/st/b32/s4` (pipelined with 4 segments), or
    /// `hz/ring/st/b32/hier` (two-tier hierarchical schedule).
    pub fn label(&self) -> String {
        let mut base = format!(
            "{}/{}/{}/b{}",
            self.flavor.name(),
            self.algo.name(),
            self.mode.name(),
            self.block_len
        );
        if self.segments > 1 {
            base = format!("{base}/s{}", self.segments);
        }
        if self.hierarchical {
            base = format!("{base}/hier");
        }
        base
    }

    /// Wire encoding (for the one-rank-decides broadcast):
    /// `[flavor, algo, mt, threads, block_len·LE4, segments·LE4]` plus a
    /// trailing `1` byte **only for hierarchical plans** — flat plans stay
    /// 12 bytes, so every pre-topology trace and bench number stays
    /// bit-identical.
    pub fn encode(&self) -> Vec<u8> {
        let flavor = match self.flavor {
            Flavor::Mpi => 0u8,
            Flavor::CColl => 1,
            Flavor::Hzccl => 2,
        };
        let algo = match self.algo {
            Algo::Ring => 0u8,
            Algo::Rd => 1,
        };
        let (mt, threads) = match self.mode {
            Mode::SingleThread => (0u8, 1u8),
            Mode::MultiThread(k) => (1, k.clamp(2, 255) as u8),
        };
        let bl = (self.block_len as u32).to_le_bytes();
        let sg = (self.segments.max(1) as u32).to_le_bytes();
        let mut out =
            vec![flavor, algo, mt, threads, bl[0], bl[1], bl[2], bl[3], sg[0], sg[1], sg[2], sg[3]];
        if self.hierarchical {
            out.push(1);
        }
        out
    }

    /// Decode [`Plan::encode`]'s output — 12 bytes for a flat plan, 13 for a
    /// hierarchical one; `None` on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Option<Plan> {
        if bytes.len() != 13 && bytes.len() != 12 {
            return None;
        }
        let flavor = match bytes[0] {
            0 => Flavor::Mpi,
            1 => Flavor::CColl,
            2 => Flavor::Hzccl,
            _ => return None,
        };
        let algo = match bytes[1] {
            0 => Algo::Ring,
            1 => Algo::Rd,
            _ => return None,
        };
        let mode = match bytes[2] {
            0 => Mode::SingleThread,
            1 => Mode::MultiThread(bytes[3] as usize),
            _ => return None,
        };
        let block_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        if block_len == 0 {
            return None;
        }
        let segments = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        if segments == 0 {
            return None;
        }
        let hierarchical = match bytes.get(12) {
            None => false,
            Some(0) => false,
            Some(1) => true,
            Some(_) => return None,
        };
        Some(Plan { flavor, algo, mode, block_len, segments, hierarchical })
    }
}

/// What the decision engine is asked about: the collective, its size and
/// shape, the error bound, and the compressibility of the data at that bound
/// (estimated at one block length, usually by probe-compressing a small
/// sample).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Collective operation.
    pub op: Op,
    /// Per-rank vector length in `f32` elements (full vector for rooted ops).
    pub elems: usize,
    /// Ranks participating.
    pub nranks: usize,
    /// Absolute error bound.
    pub eb: f64,
    /// Compressor block length the ratio was probed at, which every
    /// candidate plan also runs at.
    pub block_len: usize,
    /// Estimated compression ratio at `block_len`; 1.0 (or less) means
    /// incompressible.
    pub ratio: f64,
    /// Two-tier fabric shape the collective runs on, when known. `None`
    /// (the default) is the flat single-tier fabric; `Some` lets the engine
    /// offer hierarchical candidates and price them with the two-tier cost
    /// forms.
    pub topology: Option<netsim::Topology>,
}

impl ScenarioSpec {
    /// A scenario on the flat fabric.
    pub fn new(op: Op, elems: usize, nranks: usize, eb: f64, block_len: usize, ratio: f64) -> Self {
        ScenarioSpec { op, elems, nranks, eb, block_len, ratio, topology: None }
    }

    /// The topology, when it is genuinely two-level (`nodes > 1 && ppn > 1`
    /// — degenerate shapes collapse to the flat fabric and never justify
    /// hierarchical plans).
    pub(crate) fn two_tier_topology(&self) -> Option<&netsim::Topology> {
        self.topology.as_ref().filter(|t| t.nodes > 1 && t.ppn > 1)
    }

    /// Per-rank message size in bytes.
    pub(crate) fn message_bytes(&self) -> usize {
        self.elems * 4
    }

    /// The scenario bucket this spec falls into: cache entries are shared by
    /// all scenarios with the same op, rank count, power-of-two size bucket
    /// and error-bound decade. Deterministic and human-readable, e.g.
    /// `allreduce:b20:r64:e-4`. Topologized scenarios get their own buckets
    /// (`…:t8x8`, plus `:o2` under oversubscription) — a winner measured on
    /// a flat fabric says nothing about a two-tier one — while flat
    /// scenarios keep the historical key shape, so existing caches stay
    /// valid.
    pub fn bucket_key(&self) -> String {
        let bytes = self.message_bytes().max(1);
        // ceil(log2(bytes)): 1 byte -> 0, 2 -> 1, 3..4 -> 2, ...
        let exp = usize::BITS - (bytes - 1).leading_zeros();
        let decade = self.eb.max(f64::MIN_POSITIVE).log10().round() as i64;
        let mut key = format!("{}:b{}:r{}:e{}", self.op.name(), exp, self.nranks, decade);
        if let Some(t) = &self.topology {
            key.push_str(&format!(":t{}x{}", t.nodes, t.ppn));
            if t.oversub != 1.0 {
                key.push_str(&format!(":o{}", t.oversub));
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_threads_names_and_order() {
        assert_eq!(Mode::SingleThread.threads(), 1);
        assert_eq!(Mode::MultiThread(8).threads(), 8);
        assert_eq!(Mode::MultiThread(1).threads(), 2, "MT means at least 2");
        assert_eq!((Mode::SingleThread.name(), Mode::MultiThread(8).name()), ("st", "mt"));
        // plans sort (and so break ranking ties) single-thread first
        assert!(Mode::SingleThread < Mode::MultiThread(1));
    }

    #[test]
    fn plan_encoding_roundtrips() {
        for flavor in [Flavor::Mpi, Flavor::CColl, Flavor::Hzccl] {
            for algo in [Algo::Ring, Algo::Rd] {
                for mode in [Mode::SingleThread, Mode::MultiThread(18)] {
                    for block_len in [32usize, 64, 256] {
                        for segments in [1usize, 4, 16] {
                            for hierarchical in [false, true] {
                                let plan =
                                    Plan { flavor, algo, mode, block_len, segments, hierarchical };
                                assert_eq!(
                                    Plan::decode(&plan.encode()),
                                    Some(plan),
                                    "{}",
                                    plan.label()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan_decode_rejects_garbage() {
        assert_eq!(Plan::decode(&[]), None);
        assert_eq!(Plan::decode(&[2, 0, 0, 1, 32, 0, 0, 0]), None, "the 8-byte pre-segment form");
        assert_eq!(Plan::decode(&[9, 0, 0, 1, 32, 0, 0, 0, 1, 0, 0, 0]), None, "bad flavor");
        assert_eq!(Plan::decode(&[0, 7, 0, 1, 32, 0, 0, 0, 1, 0, 0, 0]), None, "bad algo");
        assert_eq!(Plan::decode(&[0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0]), None, "zero block");
        assert_eq!(Plan::decode(&[0, 0, 0, 1, 32, 0, 0, 0, 0, 0, 0, 0]), None, "zero segments");
        assert_eq!(Plan::decode(&[0, 0, 0, 1, 32, 0, 0, 0, 4, 0]), None, "odd length");
        assert_eq!(
            Plan::decode(&[0, 0, 0, 1, 32, 0, 0, 0, 4, 0, 0, 0, 9]),
            None,
            "bad hierarchy byte"
        );
    }

    #[test]
    fn plan_label_marks_segmented_and_hierarchical_plans() {
        let serial = Plan::serial(Flavor::Hzccl, Algo::Ring, Mode::SingleThread, 32);
        assert_eq!(serial.label(), "hz/ring/st/b32");
        let piped = Plan { segments: 4, ..serial };
        assert_eq!(piped.label(), "hz/ring/st/b32/s4");
        let hier = Plan { hierarchical: true, ..serial };
        assert_eq!(hier.label(), "hz/ring/st/b32/hier");
    }

    #[test]
    fn bucket_key_buckets_by_size_and_decade() {
        let spec = |elems: usize, eb: f64| ScenarioSpec::new(Op::Allreduce, elems, 64, eb, 32, 5.0);
        // same power-of-two byte bucket -> same key
        assert_eq!(spec(1 << 18, 1e-4).bucket_key(), spec((1 << 18) - 7, 1e-4).bucket_key());
        // different size bucket or eb decade -> different key
        assert_ne!(spec(1 << 18, 1e-4).bucket_key(), spec(1 << 19, 1e-4).bucket_key());
        assert_ne!(spec(1 << 18, 1e-4).bucket_key(), spec(1 << 18, 1e-3).bucket_key());
        assert_eq!(spec(1 << 18, 1e-4).bucket_key(), "allreduce:b20:r64:e-4");
        // topologized scenarios bucket separately (and keep oversub apart)
        let topo = netsim::Topology::paper(8, 8);
        let t = ScenarioSpec { topology: Some(topo), ..spec(1 << 18, 1e-4) };
        assert_eq!(t.bucket_key(), "allreduce:b20:r64:e-4:t8x8");
        let o = ScenarioSpec { topology: Some(topo.with_oversub(2.0)), ..spec(1 << 18, 1e-4) };
        assert_eq!(o.bucket_key(), "allreduce:b20:r64:e-4:t8x8:o2");
        // degenerate shapes are still two-tier-ineligible but keyed apart
        let flat =
            ScenarioSpec { topology: Some(netsim::Topology::paper(64, 1)), ..spec(1 << 18, 1e-4) };
        assert!(flat.two_tier_topology().is_none());
        assert!(t.two_tier_topology().is_some());
    }
}
