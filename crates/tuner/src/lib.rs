//! # tuner — the hZCCL auto-selection subsystem
//!
//! The paper's headline result (hZCCL beating both plain MPI and
//! compress-operate-decompress C-Coll) only holds in the right regime: large,
//! compressible messages. Elsewhere — tiny latency-bound vectors,
//! incompressible data, slow compressors — a different flavour wins. This
//! crate turns the cost analysis of `costmodel` into an online decision
//! system so callers never have to pick by hand:
//!
//! * `plan` — the vocabulary: [`Op`], [`Mode`], [`Plan`] (flavour x
//!   algorithm x thread mode x block length, wire-encodable so one rank can
//!   decide and broadcast), and [`ScenarioSpec`] (what a decision is about).
//! * `engine` — the [`Engine`]: ranks every candidate plan by predicted
//!   cost, short-circuits small allreduces to recursive doubling, and
//!   prefers a cached measured winner over the model when one exists.
//! * `calibration` — [`Calibration`]: per-flavour throughput tables
//!   (CPR/DPR/HPR/CPT) plus the network alpha/beta, refined from `netsim`
//!   flight-recorder outcomes by exponentially-weighted updates. Also home
//!   of [`paper_prior`], the single source of truth for the paper's Table
//!   II calibration (the `hzccl` crate delegates here).
//! * `cache` — [`TuningCache`]: persistent scenario-bucket -> best
//!   measured plan store, JSON round-trippable bit-for-bit through
//!   [`netsim::Json`].
//!
//! Layering: `tuner` sits *below* the collective crate (`hzccl` depends on
//! it, not vice versa). The thread [`Mode`] is defined here and re-exported
//! as `hzccl::Mode`; `hzccl::Variant` maps onto [`Flavor`]. [`Op`],
//! [`Flavor`] and [`Algo`] — what `costmodel::predict` prices — and its
//! segment cap [`MAX_SEGMENTS`] are `costmodel`'s, re-exported here.

mod cache;
mod calibration;
mod engine;
mod plan;

pub use cache::{CacheEntry, TuningCache};
pub use calibration::{paper_prior, Calibration};
pub use costmodel::MAX_SEGMENTS;
pub use engine::{Decision, DecisionSource, Engine, Prediction};
pub use plan::{Algo, Flavor, Mode, Op, Plan, ScenarioSpec};
