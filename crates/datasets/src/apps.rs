//! Synthetic generators for the five application datasets of Table I.
//!
//! The generators reproduce the *compression-relevant* structure of each
//! application (see DESIGN.md §1 for the substitution argument): the
//! fraction of constant/zero blocks, the smoothness at the 32-element block
//! scale, and the dynamic range — the three properties that drive every
//! compression-ratio, pipeline-selection and throughput result in the paper.
//!
//! All generators are deterministic in `(app, n, seed)` and size-invariant in
//! their block statistics (coordinates are normalized to the grid), so
//! benches can scale fields up or down without changing the shapes.

use crate::noise::{Noise, Rows};

/// The five applications of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// RTM Simulation Setting 1: early-time seismic snapshot — thin
    /// wavefront shells over a large exact-zero background.
    SimSet1,
    /// RTM Simulation Setting 2: late-time seismic snapshot — smooth
    /// wavefield filling the domain.
    SimSet2,
    /// NYX cosmology (baryon density): huge dynamic range, rare halo spikes
    /// over a near-uniform background.
    Nyx,
    /// CESM-ATM climate: rough multi-scale 2-D turbulence.
    CesmAtm,
    /// Hurricane Isabel: 3-D vortex flow plus turbulence.
    Hurricane,
}

impl App {
    /// All five applications, in Table I order.
    pub const ALL: [App; 5] = [App::SimSet1, App::SimSet2, App::Nyx, App::CesmAtm, App::Hurricane];

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            App::SimSet1 => "Sim. Set. 1",
            App::SimSet2 => "Sim. Set. 2",
            App::Nyx => "NYX",
            App::CesmAtm => "CESM-ATM",
            App::Hurricane => "Hurricane",
        }
    }

    /// Parse a command-line app token: `sim1`, `sim2`, `nyx`, `cesm` or
    /// `hurricane`.
    pub fn parse(token: &str) -> Result<App, String> {
        const TOKENS: [&str; 5] = ["sim1", "sim2", "nyx", "cesm", "hurricane"];
        match TOKENS.iter().position(|t| *t == token) {
            Some(i) => Ok(App::ALL[i]),
            None => Err(format!("unknown app '{token}' ({})", TOKENS.join("|"))),
        }
    }

    /// Generate a field of `n` values; `seed` selects the field/snapshot
    /// (Table I datasets have many fields — pass different seeds to emulate
    /// different fields of the same application). The field is a pure
    /// function of `(app, n, seed)`: it does not depend on how many workers
    /// fill it.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<f32> {
        let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
        Field::new(*self, n, seed).fill_parallel(threads)
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One field's grid and the constants that depend on the seed alone,
/// computed once per [`App::generate`].
struct Field {
    app: App,
    n: usize,
    dims: (usize, usize, usize),
    seed: u64,
    /// RTM Setting 1's point sources: position and shell radius.
    sources: [[f32; 4]; 4],
    /// The hurricane's eye.
    eye: (f32, f32),
}

impl Field {
    fn new(app: App, n: usize, seed: u64) -> Field {
        let dims = cube_dims(n);
        let side = dims.0 as f32;
        let sources = std::array::from_fn(|k| {
            let k = k as u64;
            let radius = side * (0.12 + 0.14 * unit(seed, 100 + k));
            [
                unit(seed, k * 3) * side,
                unit(seed, k * 3 + 1) * side,
                unit(seed, k * 3 + 2) * side,
                radius,
            ]
        });
        let eye = (side * (0.45 + 0.1 * unit(seed, 0)), side * (0.45 + 0.1 * unit(seed, 1)));
        Field { app, n, dims, seed, sources, eye }
    }

    /// The value at grid point `(x, y, z)`.
    fn at(&self, noise: &mut impl Noise, x: usize, y: usize, z: usize) -> f32 {
        let p = (x as f32, y as f32, z as f32);
        let (dims, seed) = (self.dims, self.seed);
        match self.app {
            App::SimSet1 => rtm_early(noise, p, dims, &self.sources, seed),
            App::SimSet2 => rtm_late(noise, p, dims, seed),
            App::Nyx => nyx(noise, p, dims, seed),
            // a CESM row is the 2-D width `dx·dy`: column `x + dx·y`, row `z`
            App::CesmAtm => cesm(noise, ((x + dims.0 * y) as f32, p.2), seed),
            App::Hurricane => hurricane(noise, p, dims, self.eye, seed),
        }
    }

    /// Fill `out` with elements `base..base + out.len()`, x fastest, carrying
    /// one row state from point to point.
    fn fill_range(&self, base: usize, out: &mut [f32]) {
        let (dx, dy, _) = self.dims;
        let (mut x, mut y, mut z) = (base % dx, base / dx % dy, base / (dx * dy));
        let mut rows = Rows::default();
        for o in out {
            *o = self.at(&mut rows, x, y, z);
            x += 1;
            if x == dx {
                x = 0;
                y += 1;
                if y == dy {
                    y = 0;
                    z += 1;
                }
            }
        }
    }

    /// The whole field, one contiguous range per worker (serial below
    /// 16 Ki elements); each worker holds its own row state.
    fn fill_parallel(&self, threads: usize) -> Vec<f32> {
        let mut out = vec![0f32; self.n];
        if threads <= 1 || self.n < 1 << 14 {
            self.fill_range(0, &mut out);
            return out;
        }
        let chunk = self.n.div_ceil(threads);
        std::thread::scope(|s| {
            for (t, part) in out.chunks_mut(chunk).enumerate() {
                s.spawn(move || self.fill_range(t * chunk, part));
            }
        });
        out
    }
}

/// Near-cubic dimensions for `n` elements (dx*dy*dz >= n, trimmed by the
/// caller via the flat index).
fn cube_dims(n: usize) -> (usize, usize, usize) {
    let side = (n as f64).cbrt().ceil().max(1.0) as usize;
    (side, side, side)
}

/// Deterministic per-seed pseudo-random unit value in `[0, 1)`.
fn unit(seed: u64, k: u64) -> f32 {
    let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// Ricker wavelet (second derivative of a Gaussian), the standard seismic
/// source signature.
#[inline]
fn ricker(t: f32) -> f32 {
    let a = t * t;
    (1.0 - 2.0 * a) * (-a).exp()
}

/// RTM Setting 1: 4 point sources fired at an early time — thin expanding
/// spherical shells; everything outside the shells is exactly zero, giving
/// the large zero-block population the paper notes for this dataset. The
/// shells carry fine scattering structure, so tight bounds must spend bits
/// on them (the paper's ratio drops steeply from 111 at 1e-1 to 10.8 at
/// 1e-4).
fn rtm_early(
    noise: &mut impl Noise,
    p: (f32, f32, f32),
    dims: (usize, usize, usize),
    sources: &[[f32; 4]; 4],
    seed: u64,
) -> f32 {
    let shell_width = dims.0 as f32 * 0.045;
    let mut v = 0.0f32;
    let mut scatter = None;
    for &[sx, sy, sz, radius] in sources {
        let dx = p.0 - sx;
        let dy = p.1 - sy;
        let dz = p.2 - sz;
        let r = (dx * dx + dy * dy + dz * dz).sqrt();
        let band = (r - radius) / shell_width;
        if band.abs() < 3.0 {
            // amplitude decays with distance; the wavelet rides on the shell
            // and is modulated by fine-grained scattering noise (the same
            // for every shell through this point)
            let s = 0.35;
            let scatter = *scatter.get_or_insert_with(|| {
                1.0 + 0.35 * noise.fbm3(0, seed ^ 0xA5, p.0 * s, p.1 * s, p.2 * s, 3)
            });
            v += ricker(band) * scatter * 50.0 / (1.0 + r * 0.05);
        }
    }
    v
}

/// RTM Setting 2: late-time wavefield — well-resolved wave packets over a
/// quiet background. Most of the domain sits below the quantization quantum
/// at range-relative bounds (constant blocks), reproducing the paper's very
/// high compression ratios for this dataset.
fn rtm_late(
    noise: &mut impl Noise,
    p: (f32, f32, f32),
    dims: (usize, usize, usize),
    seed: u64,
) -> f32 {
    let s = 1.0 / (dims.0 as f32 * 0.30);
    let (x, y, z) = (p.0 * s, p.1 * s, p.2 * s);
    // smooth packet envelope covering a few percent of the domain
    let e = noise.fbm3(0, seed ^ 2, x * 0.6, y * 0.6, z * 0.6, 2);
    let env = (e - 0.9).max(0.0);
    // gentle residual wavefield everywhere: far below coarse quanta (mostly
    // constant blocks) but costing ~1-bit codes at the tightest bounds,
    // matching the paper's 129 -> 61 ratio decline for this dataset
    let residual = 0.008 * noise.value3(1, seed ^ 3, x * 0.12, y * 0.12, z * 0.12);
    if env == 0.0 {
        return residual;
    }
    // carrier resolved at ~50 grid points per wavelength
    let carrier = (x * 4.0 + y * 1.5).sin() * (y * 3.5 - z * 1.0).cos() * (z * 3.0 + x * 0.5).sin();
    120.0 * env * env * carrier + residual
}

/// NYX baryon density: log-normal background (huge dynamic range) with rare
/// halo spikes; at range-relative error bounds almost every block quantizes
/// to constant, driving the 99% pipeline-① share of Table V.
fn nyx(noise: &mut impl Noise, p: (f32, f32, f32), dims: (usize, usize, usize), seed: u64) -> f32 {
    let s = 1.0 / (dims.0 as f32 * 0.2);
    let (x, y, z) = (p.0 * s, p.1 * s, p.2 * s);
    // log-normal background with both large-scale clustering and small-scale
    // turbulence: huge dynamic range, but visible structure at tight bounds
    let log_density = 3.5 * noise.fbm3(0, seed, x, y, z, 3)
        + 1.2 * noise.fbm3(1, seed ^ 0x11, x * 8.0, y * 8.0, z * 8.0, 2);
    let mut v = log_density.exp();
    // rare halos: sharp peaks several orders of magnitude above background
    let halo = noise.value3(2, seed ^ 0xBEEF, x * 2.0, y * 2.0, z * 2.0);
    if halo > 0.88 {
        let t = (halo - 0.88) / 0.12;
        v += 2.0e5 * t * t * t;
    }
    v
}

/// CESM-ATM: multi-scale 2-D turbulence, rough down to the block scale —
/// the pipeline-④-dominated, low-ratio dataset of Tables III/V. `p` is the
/// point's column and row in the 2-D field (Table I: 1800x3600).
fn cesm(noise: &mut impl Noise, p: (f32, f32), seed: u64) -> f32 {
    let (x, y) = p;
    // large-scale weather systems set the range; genuine small-amplitude
    // turbulence persists down to the block scale, so coarse bounds see
    // near-constant blocks (paper ratio ~58 at 1e-1) while tight bounds pay
    // for the fine structure (paper ratio ~6 at 1e-4)
    let synoptic = 80.0 * noise.fbm2(0, seed, x * 0.004, y * 0.004, 3);
    let turb = 2.0 * noise.fbm2(1, seed ^ 0x22, x * 0.15, y * 0.15, 3);
    260.0 + synoptic + turb
}

/// Hurricane Isabel: axial vortex (tangential wind profile `r * exp(-r/R)`)
/// around the eye `(cx, cy)`, plus moderate turbulence.
fn hurricane(
    noise: &mut impl Noise,
    p: (f32, f32, f32),
    dims: (usize, usize, usize),
    (cx, cy): (f32, f32),
    seed: u64,
) -> f32 {
    let side = dims.0 as f32;
    let dx = p.0 - cx;
    let dy = p.1 - cy;
    let r = (dx * dx + dy * dy).sqrt() / (side * 0.12);
    // concentrated eyewall: the peak sets the value range while most of the
    // domain stays quiet, as in the real Isabel wind fields
    let swirl = 120.0 * r * (-r * r).exp();
    // small-amplitude turbulence on top of the large-range vortex profile
    let s = 1.0 / (side * 0.12);
    let turb = 2.0 * noise.fbm3(0, seed ^ 7, p.0 * s, p.1 * s, p.2 * s, 3);
    // altitude attenuation
    let alt = 1.0 - 0.5 * (p.2 / side);
    swirl * alt + turb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::reference::PerPoint;

    #[test]
    fn row_fill_on_any_split_matches_the_per_point_reference() {
        // 40,000 is not a cube (dx = 35): every worker range but the first
        // starts mid-row, and the serial fill crosses rows and planes
        let n = 40_000;
        for app in App::ALL {
            let field = Field::new(app, n, 42);
            let (dx, dy, _) = field.dims;
            let want: Vec<u32> = (0..n)
                .map(|i| field.at(&mut PerPoint, i % dx, i / dx % dy, i / (dx * dy)).to_bits())
                .collect();
            for threads in [1, 2, 3, 7] {
                let got = field.fill_parallel(threads);
                assert!(
                    got.iter().map(|v| v.to_bits()).eq(want.iter().copied()),
                    "{app} on {threads} workers"
                );
            }
        }
    }

    #[test]
    fn parse_names_every_app_and_lists_the_tokens_on_error() {
        let tokens = ["sim1", "sim2", "nyx", "cesm", "hurricane"];
        for (token, app) in tokens.iter().zip(App::ALL) {
            assert_eq!(App::parse(token), Ok(app));
        }
        assert!(App::parse("NYX").unwrap_err().contains("sim1|sim2|nyx|cesm|hurricane"));
    }

    #[test]
    fn generators_are_deterministic() {
        for app in App::ALL {
            let a = app.generate(10_000, 42);
            let b = app.generate(10_000, 42);
            assert_eq!(a, b, "{app}");
            let c = app.generate(10_000, 43);
            assert_ne!(a, c, "{app} must vary with seed");
        }
    }

    #[test]
    fn fields_are_finite() {
        for app in App::ALL {
            let f = app.generate(50_000, 7);
            assert_eq!(f.len(), 50_000);
            assert!(f.iter().all(|v| v.is_finite()), "{app}");
        }
    }

    #[test]
    fn sim1_has_large_zero_fraction() {
        let f = App::SimSet1.generate(1 << 18, 3);
        let zeros = f.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros as f64 > 0.5 * f.len() as f64, "only {zeros}/{} zeros", f.len());
    }

    #[test]
    fn nyx_has_huge_dynamic_range() {
        let f = App::Nyx.generate(1 << 18, 3);
        let max = f.iter().cloned().fold(f32::MIN, f32::max);
        let min = f.iter().cloned().fold(f32::MAX, f32::min);
        assert!(max > 1e4, "max {max}");
        assert!((0.0..10.0).contains(&min), "min {min}");
    }

    #[test]
    fn cesm_is_least_compressible_sim2_most() {
        // Table III's ordering at the tightest bound: CESM-ATM compresses
        // far worse than the very smooth RTM Setting 2 field.
        let cfg = fzlight::Config::new(fzlight::ErrorBound::Rel(1e-4));
        let ratio = |app: App| {
            fzlight::compress(&app.generate(1 << 18, 5), &cfg).expect("compress").ratio()
        };
        let rough = ratio(App::CesmAtm);
        let smooth = ratio(App::SimSet2);
        assert!(smooth > 3.0 * rough, "Sim2 ratio {smooth:.1} vs CESM {rough:.1}");
    }

    #[test]
    fn block_statistics_match_each_apps_profile() {
        // the property the whole reproduction rests on: each dataset's
        // constant-block fraction at REL 1e-3 drives its Table V pipeline mix
        let cfg = fzlight::Config::new(fzlight::ErrorBound::Rel(1e-3));
        let frac = |app: App| {
            let s = fzlight::compress(&app.generate(1 << 17, 0), &cfg).unwrap();
            fzlight::StreamStats::inspect(&s).unwrap().constant_fraction()
        };
        // NYX and Sim2 nearly all constant (pipeline-1 regime)
        assert!(frac(App::Nyx) > 0.85, "NYX {}", frac(App::Nyx));
        assert!(frac(App::SimSet2) > 0.85, "Sim2 {}", frac(App::SimSet2));
        // CESM and Hurricane dominated by non-constant blocks (pipeline 4)
        assert!(frac(App::CesmAtm) < 0.15, "CESM {}", frac(App::CesmAtm));
        assert!(frac(App::Hurricane) < 0.15, "Hurricane {}", frac(App::Hurricane));
        // Sim1 in between (mixed pipelines)
        let s1 = frac(App::SimSet1);
        assert!((0.2..0.95).contains(&s1), "Sim1 {s1}");
    }

    #[test]
    fn generators_scale_without_changing_character() {
        // block statistics should be roughly size-invariant
        let cfg = fzlight::Config::new(fzlight::ErrorBound::Rel(1e-3));
        for app in [App::Nyx, App::CesmAtm] {
            let small = fzlight::StreamStats::inspect(
                &fzlight::compress(&app.generate(1 << 15, 0), &cfg).unwrap(),
            )
            .unwrap()
            .constant_fraction();
            let large = fzlight::StreamStats::inspect(
                &fzlight::compress(&app.generate(1 << 18, 0), &cfg).unwrap(),
            )
            .unwrap()
            .constant_fraction();
            assert!((small - large).abs() < 0.25, "{app}: {small} vs {large} constant fraction");
        }
    }

    #[test]
    fn hurricane_peaks_off_center() {
        let f = App::Hurricane.generate(1 << 15, 11);
        let max = f.iter().cloned().fold(f32::MIN, f32::max);
        assert!(max > 10.0, "vortex winds should be tens of m/s, max {max}");
    }
}
