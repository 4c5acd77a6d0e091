//! Seeded lattice value-noise / fBm substrate for the synthetic dataset
//! generators.
//!
//! A deterministic integer hash drives lattice values; octaves of trilinearly
//! interpolated noise compose into fractional Brownian motion. Everything is
//! reproducible from a `u64` seed — no external noise crates.

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

/// Single-octave trilinear value noise at continuous coordinates, in
/// `[-1, 1]`.
pub fn value_noise3(seed: u64, x: f32, y: f32, z: f32) -> f32 {
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
/// per-octave frequency doubling and amplitude halving. Output roughly in
/// `[-2, 2]`.
pub fn fbm3(seed: u64, x: f32, y: f32, z: f32, octaves: u32) -> f32 {
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

/// 2-D fBm (z fixed at a constant offset).
pub fn fbm2(seed: u64, x: f32, y: f32, octaves: u32) -> f32 {
    fbm3(seed, x, y, 0.137, octaves)
}

#[cfg(test)]
mod tests {
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
}
