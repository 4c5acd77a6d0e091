//! Seeded lattice value-noise / fBm substrate for the synthetic dataset
//! generators.
//!
//! A deterministic integer hash drives lattice values; octaves of trilinearly
//! interpolated noise compose into fractional Brownian motion. Everything is
//! reproducible from a `u64` seed — no external noise crates.
//!
//! The generators sweep their grid with x fastest, so along a row every
//! octave sees the same `y` and `z`: [`Rows`] computes an octave's y/z
//! lattice indices and smoothstep weights once per row and keeps a cell's
//! eight lattice values until `floor(x)` moves (the right face becomes the
//! next cell's left face). Each value goes through the same `f32` operations
//! in the same order as the per-point `value_noise3` / `fbm3` of the tests,
//! so a field does not depend on the order its points are filled in.

/// SplitMix64-style avalanche hash of lattice coordinates and seed.
#[inline]
fn hash3(seed: u64, x: i64, y: i64, z: i64) -> u64 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (z as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    h
}

/// Lattice value in `[-1, 1)`.
#[inline]
fn lattice(seed: u64, x: i64, y: i64, z: i64) -> f32 {
    // top 24 bits -> [0,1) -> [-1,1)
    let u = (hash3(seed, x, y, z) >> 40) as f32 / (1u64 << 24) as f32;
    2.0 * u - 1.0
}

#[inline]
fn smooth(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

/// The lattice coordinate `floor(v)` and the smoothstep weight of `v`'s
/// offset from it, without libm's `floor`. Below 2^22 in magnitude, adding
/// `1.5·2^23` rounds `v` to the nearest integer, which the sum's low mantissa
/// bits hold in two's complement (`fzlight`'s quantizer does the same in
/// `f64`); step down when that rounded up. Larger values, infinities and NaN
/// take `f32::floor`. (At `v = -0.0` the offset is `-0.0` rather than
/// `+0.0`; both smooth to `+0.0`.)
#[inline]
fn split(v: f32) -> (i64, f32) {
    const MAGIC: f32 = 12_582_912.0;
    if v.abs() < 4_194_304.0 {
        let m = v + MAGIC;
        let nearest = m - MAGIC;
        let down = (nearest > v) as i32;
        let f = m.to_bits() as i32 - MAGIC.to_bits() as i32 - down;
        (f as i64, smooth(v - (nearest - down as f32)))
    } else {
        let f = v.floor();
        (f as i64, smooth(v - f))
    }
}

/// One octave of value noise swept along x, with the state a row reuses.
#[derive(Default)]
struct Octave {
    /// `(seed, y, z)` bits the row fields below were computed for.
    row: Option<(u64, u32, u32)>,
    yi: i64,
    zi: i64,
    ty: f32,
    tz: f32,
    /// Lattice x of the cached cell, whose corners at `x = xi` are `lo` and
    /// at `x = xi + 1` are `hi`, indexed `2·dz + dy`; `d = hi − lo`.
    xi: Option<i64>,
    lo: [f32; 4],
    hi: [f32; 4],
    d: [f32; 4],
}

impl Octave {
    /// The four lattice values of the cell face at lattice `x`.
    fn face(&self, seed: u64, x: i64) -> [f32; 4] {
        let (y, z) = (self.yi, self.zi);
        [
            lattice(seed, x, y, z),
            lattice(seed, x, y + 1, z),
            lattice(seed, x, y, z + 1),
            lattice(seed, x, y + 1, z + 1),
        ]
    }

    /// Single-octave trilinear value noise, equal bit for bit to the
    /// per-point `value_noise3(seed, x, y, z)`.
    #[inline]
    fn at(&mut self, seed: u64, x: f32, y: f32, z: f32) -> f32 {
        let key = (seed, y.to_bits(), z.to_bits());
        if self.row != Some(key) {
            ((self.yi, self.ty), (self.zi, self.tz)) = (split(y), split(z));
            self.row = Some(key);
            self.xi = None;
        }
        let (xi, tx) = split(x);
        if self.xi != Some(xi) {
            self.lo =
                if self.xi == Some(xi.wrapping_sub(1)) { self.hi } else { self.face(seed, xi) };
            self.hi = self.face(seed, xi + 1);
            self.d = std::array::from_fn(|k| self.hi[k] - self.lo[k]);
            self.xi = Some(xi);
        }
        let e: [f32; 4] = std::array::from_fn(|k| self.lo[k] + self.d[k] * tx);
        let a0 = e[0] + (e[1] - e[0]) * self.ty;
        let a1 = e[2] + (e[3] - e[2]) * self.ty;
        a0 + (a1 - a0) * self.tz
    }
}

/// Where a generator's formula reads its noise. `site` names the call site,
/// so each site keeps its own row state.
pub(crate) trait Noise {
    /// `octaves` (at most 3) octaves of value noise with per-octave frequency
    /// doubling and amplitude halving. Output roughly in `[-2, 2]`.
    fn fbm3(&mut self, site: usize, seed: u64, x: f32, y: f32, z: f32, octaves: usize) -> f32;

    /// Single-octave value noise, in `[-1, 1]`.
    fn value3(&mut self, site: usize, seed: u64, x: f32, y: f32, z: f32) -> f32;

    /// 2-D fBm (z fixed at a constant offset).
    fn fbm2(&mut self, site: usize, seed: u64, x: f32, y: f32, octaves: usize) -> f32 {
        self.fbm3(site, seed, x, y, 0.137, octaves)
    }
}

/// The fill path's noise: one worker's row state for three call sites of up
/// to three octaves each.
#[derive(Default)]
pub(crate) struct Rows {
    sites: [[Octave; 3]; 3],
}

impl Noise for Rows {
    fn fbm3(&mut self, site: usize, seed: u64, x: f32, y: f32, z: f32, octaves: usize) -> f32 {
        let mut amp = 1.0f32;
        let mut freq = 1.0f32;
        let mut acc = 0.0f32;
        for (o, octave) in self.sites[site][..octaves].iter_mut().enumerate() {
            acc += amp * octave.at(seed.wrapping_add(o as u64), x * freq, y * freq, z * freq);
            amp *= 0.5;
            freq *= 2.0;
        }
        acc
    }

    fn value3(&mut self, site: usize, seed: u64, x: f32, y: f32, z: f32) -> f32 {
        self.sites[site][0].at(seed, x, y, z)
    }
}

/// The per-point reference [`Rows`] must reproduce bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{lattice, smooth};

    /// Single-octave trilinear value noise at continuous coordinates, in
    /// `[-1, 1]`.
    pub(crate) fn value_noise3(seed: u64, x: f32, y: f32, z: f32) -> f32 {
        let xf = x.floor();
        let yf = y.floor();
        let zf = z.floor();
        let (xi, yi, zi) = (xf as i64, yf as i64, zf as i64);
        let (tx, ty, tz) = (smooth(x - xf), smooth(y - yf), smooth(z - zf));
        let mut acc = [0f32; 2];
        for (dz, a) in acc.iter_mut().enumerate() {
            let dz = dz as i64;
            let c00 = lattice(seed, xi, yi, zi + dz);
            let c10 = lattice(seed, xi + 1, yi, zi + dz);
            let c01 = lattice(seed, xi, yi + 1, zi + dz);
            let c11 = lattice(seed, xi + 1, yi + 1, zi + dz);
            let x0 = c00 + (c10 - c00) * tx;
            let x1 = c01 + (c11 - c01) * tx;
            *a = x0 + (x1 - x0) * ty;
        }
        acc[0] + (acc[1] - acc[0]) * tz
    }

    /// Fractional Brownian motion: `octaves` octaves of value noise with
    /// per-octave frequency doubling and amplitude halving.
    pub(crate) fn fbm3(seed: u64, x: f32, y: f32, z: f32, octaves: u32) -> f32 {
        let mut amp = 1.0f32;
        let mut freq = 1.0f32;
        let mut acc = 0.0f32;
        for o in 0..octaves {
            acc += amp * value_noise3(seed.wrapping_add(o as u64), x * freq, y * freq, z * freq);
            amp *= 0.5;
            freq *= 2.0;
        }
        acc
    }

    /// The reference as a [`Noise`](super::Noise): every call from scratch.
    pub(crate) struct PerPoint;

    impl super::Noise for PerPoint {
        fn fbm3(&mut self, _: usize, seed: u64, x: f32, y: f32, z: f32, octaves: usize) -> f32 {
            fbm3(seed, x, y, z, octaves as u32)
        }

        fn value3(&mut self, _: usize, seed: u64, x: f32, y: f32, z: f32) -> f32 {
            value_noise3(seed, x, y, z)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{fbm3, value_noise3};
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        assert_eq!(value_noise3(42, 1.3, 2.7, 0.5), value_noise3(42, 1.3, 2.7, 0.5));
        assert_eq!(fbm3(7, 0.1, 0.2, 0.3, 5), fbm3(7, 0.1, 0.2, 0.3, 5));
    }

    #[test]
    fn different_seeds_differ() {
        let a = value_noise3(1, 1.5, 1.5, 1.5);
        let b = value_noise3(2, 1.5, 1.5, 1.5);
        assert_ne!(a, b);
    }

    #[test]
    fn range_is_bounded() {
        for i in 0..10_000 {
            let x = i as f32 * 0.173;
            let v = value_noise3(9, x, x * 0.7, x * 0.3);
            assert!((-1.0..=1.0).contains(&v), "{v}");
            let f = fbm3(9, x, x * 0.7, x * 0.3, 5);
            assert!((-2.0..=2.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn noise_is_continuous() {
        // neighbouring samples should differ by a small amount
        let eps = 1e-3f32;
        for i in 0..1000 {
            let x = i as f32 * 0.31;
            let a = value_noise3(5, x, 0.0, 0.0);
            let b = value_noise3(5, x + eps, 0.0, 0.0);
            assert!((a - b).abs() < 0.02, "jump at {x}: {a} vs {b}");
        }
    }

    #[test]
    fn lattice_matches_at_integer_points() {
        // at integer coordinates the interpolation collapses to the lattice
        let v = value_noise3(3, 4.0, 5.0, 6.0);
        assert!((-1.0..=1.0).contains(&v));
        // and moving by exactly 1 samples a different lattice point
        let w = value_noise3(3, 5.0, 5.0, 6.0);
        assert_ne!(v, w);
    }

    #[test]
    fn split_is_floor_exactly() {
        let mut cases = vec![
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.0e-30,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            4_194_303.5,
            -4_194_303.5,
            4_194_304.0,
            -4_194_304.0,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_608.0,
            3.0e9,
            -3.0e9,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // every exponent, with the neighbours of each integer crossing
        let mut v = 1.0e-3f32;
        while v < 1.0e8 {
            for w in [v, v.next_up(), v.next_down(), v.floor(), v.floor().next_down()] {
                cases.extend([w, -w]);
            }
            v *= 1.37;
        }
        for v in cases {
            let (i, t) = split(v);
            let f = v.floor();
            assert_eq!((i, t.to_bits()), (f as i64, smooth(v - f).to_bits()), "split({v:e})");
        }
    }

    #[test]
    fn rows_reproduce_the_per_point_reference() {
        // rows swept at the generators' steps, restarted mid-cell, skipping
        // cells, staying in one cell while the row or the seed moves,
        // revisiting a row, walking backwards and crossing zero
        let mut rows = Rows::default();
        for (seed, step, y, z) in [
            (3u64, 0.031f32, 0.7f32, 4.2f32),
            (3, 0.49, 0.7, 4.2),
            (3, 0.001, 0.7, 4.2),
            (3, 0.001, 1.7, 4.2),
            (4, 0.001, 1.7, 4.2),
            (9, 2.5, -3.3, 0.137),
            (9, -0.2, -3.3, 0.137),
            (3, 0.031, 0.7, 4.2),
            (u64::MAX, 0.004, 1.0e4, -0.0),
        ] {
            for k in 0..400 {
                let x = -7.0 + step * k as f32;
                assert_eq!(
                    rows.value3(0, seed, x, y, z).to_bits(),
                    value_noise3(seed, x, y, z).to_bits(),
                    "value3({seed}, {x}, {y}, {z})"
                );
                for octaves in 1..=3 {
                    assert_eq!(
                        rows.fbm3(octaves - 1, seed, x, y, z, octaves).to_bits(),
                        fbm3(seed, x, y, z, octaves as u32).to_bits(),
                        "fbm3({seed}, {x}, {y}, {z}, {octaves})"
                    );
                }
            }
        }
    }
}
