//! Pipeline-selection statistics (the percentages reported in Table V).

use std::fmt;
use std::ops::AddAssign;

/// Counts of block pairs dispatched to each of the four dynamic pipelines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// ① both blocks constant — write one `0` byte.
    pub p1: u64,
    /// ② left constant — copy right block verbatim.
    pub p2: u64,
    /// ③ right constant — copy left block verbatim.
    pub p3: u64,
    /// ④ both non-constant — decode, operate, re-encode.
    pub p4: u64,
}

impl PipelineStats {
    /// Total block pairs processed.
    fn total(&self) -> u64 {
        self.p1 + self.p2 + self.p3 + self.p4
    }

    /// Percentage share of each pipeline (`[p1, p2, p3, p4]`); zeros when no
    /// blocks were processed.
    pub fn percentages(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.p1 as f64 * 100.0 / t,
            self.p2 as f64 * 100.0 / t,
            self.p3 as f64 * 100.0 / t,
            self.p4 as f64 * 100.0 / t,
        ]
    }
}

impl AddAssign for PipelineStats {
    fn add_assign(&mut self, rhs: Self) {
        self.p1 += rhs.p1;
        self.p2 += rhs.p2;
        self.p3 += rhs.p3;
        self.p4 += rhs.p4;
    }
}

impl FromIterator<PipelineStats> for PipelineStats {
    fn from_iter<I: IntoIterator<Item = PipelineStats>>(parts: I) -> Self {
        let mut total = Self::default();
        parts.into_iter().for_each(|part| total += part);
        total
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.percentages();
        write!(f, "P1 {a:.2}% | P2 {b:.2}% | P3 {c:.2}% | P4 {d:.2}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_100() {
        let s = PipelineStats { p1: 10, p2: 20, p3: 30, p4: 40 };
        let p = s.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((p[3] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PipelineStats::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.percentages(), [0.0; 4]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PipelineStats { p1: 1, p2: 2, p3: 3, p4: 4 };
        a += PipelineStats { p1: 10, p2: 20, p3: 30, p4: 40 };
        assert_eq!(a, PipelineStats { p1: 11, p2: 22, p3: 33, p4: 44 });
    }

    #[test]
    fn display_is_readable() {
        let s = PipelineStats { p1: 1, p2: 1, p3: 1, p4: 1 };
        assert!(s.to_string().contains("P4 25.00%"));
    }
}
