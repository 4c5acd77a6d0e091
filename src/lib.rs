//! # hzccl-suite — workspace umbrella crate
//!
//! Re-exports the whole hZCCL reproduction stack so the examples and
//! integration tests under the repository root can reach every subsystem
//! through one dependency. See the individual crates for the real APIs:
//!
//! * [`fzlight`] — the fZ-light error-bounded lossy compressor
//! * [`ompszp`] — the cuSZp-strategy CPU baseline compressor
//! * [`hzdyn`] — the hZ-dynamic homomorphic compression pipeline
//! * [`netsim`] — the virtual-time cluster simulator (MPI substrate)
//! * [`hzccl`] — the co-designed collective framework (primary contribution)
//! * [`datasets`] — synthetic application datasets + quality metrics
//! * [`streambench`] — the STREAM memory-bandwidth benchmark
//! * [`costmodel`] — the closed-form Sec. III-C cost model

pub use costmodel;
pub use datasets;
pub use fzlight;
pub use hzccl;
pub use hzdyn;
pub use netsim;
pub use ompszp;
pub use streambench;
