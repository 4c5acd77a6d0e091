//! Order statistics over timing samples.

use netsim::Json;

/// What is reported for one sampled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile, as Python's `statistics.quantiles(v, n=4)` gives it.
    pub q1: f64,
    /// Third quartile, same method.
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile that still has ten
    /// samples beyond it; `None` below 20 samples, where that percentile
    /// would fall under the median.
    pub hi: Option<(f64, f64)>,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Quartiles `(q1, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the one the benchmark contract
/// measures spread with. Fewer than two samples give `(x, x)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // j = i*(m+1)/4 clamped to [1, m-1]; interpolate between v[j-1], v[j]
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Summarize `samples`; panics on an empty slice (a metric without a sample
/// is a harness bug, not a measurement).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let v = sorted(samples);
    let n = v.len();
    let (q1, q3) = quartiles(&v);
    let hi = (n >= 20).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]));
    Summary { n, median: median(&v), min: v[0], max: v[n - 1], q1, q3, hi }
}

impl Summary {
    /// A summary of one exact value (deterministic metrics, single samples).
    pub fn exact(x: f64) -> Summary {
        Summary { n: 1, median: x, min: x, max: x, q1: x, q3: x, hi: None }
    }

    /// JSON form used in the result files.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("n", Json::Num(self.n as f64)),
            ("median", Json::Num(self.median)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
        ];
        if let Some((p, v)) = self.hi {
            pairs.push(("hi_pct", Json::Num(p)));
            pairs.push(("hi", Json::Num(v)));
        }
        Json::obj(pairs)
    }

    /// Inverse of [`Summary::to_json`].
    pub fn from_json(doc: &Json) -> Option<Summary> {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64);
        Some(Summary {
            n: num("n")? as usize,
            median: num("median")?,
            min: num("min")?,
            max: num("max")?,
            q1: num("q1")?,
            q3: num("q3")?,
            hi: num("hi_pct").zip(num("hi")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.hi, Some((90.0, 90.0)));
        assert_eq!((s.n, s.min, s.max, s.median), (100, 1.0, 100.0, 50.5));
        assert_eq!(summarize(&v[..19]).hi, None);
        let (p, x) = summarize(&v[..20]).hi.unwrap();
        assert_eq!((p, x), (50.0, 10.0));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let v: Vec<f64> = (0..40).map(|i| 1.0 + f64::from(i) * 0.125).collect();
        for s in [summarize(&v), Summary::exact(0.1 + 0.2)] {
            let text = s.to_json().render();
            let back = Summary::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, s);
        }
    }
}
