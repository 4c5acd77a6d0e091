//! # datasets — synthetic scientific fields + quality metrics
//!
//! Substrate crate of the hZCCL reproduction: seeded generators for the five
//! application datasets of Table I (two RTM seismic settings, NYX cosmology,
//! CESM-ATM climate, Hurricane Isabel), raw `.f32` I/O compatible with
//! SDRBench files, a PGM writer for the Fig. 13 visual comparison, and the
//! NRMSE/PSNR/max-error metrics the paper reports.
//!
//! A field is a pure function of `(app, n, seed)`, whatever the number of
//! workers that fill it: each worker sweeps its range row by row (x fastest)
//! and reuses every noise octave's per-row and per-cell lattice work, with
//! each value computed by the same `f32` operations, in the same order, as a
//! point evaluated on its own.
//!
//! ```
//! use datasets::{App, Quality};
//!
//! let field = App::Nyx.generate(10_000, 1);
//! let q = Quality::compare(&field, &field);
//! assert_eq!(q.max_abs_err, 0.0);
//! ```

mod apps;
mod io;
mod metrics;
mod noise;

pub use apps::App;
pub use io::{load_f32, save_f32, save_pgm};
pub use metrics::{mean_std, Quality};
