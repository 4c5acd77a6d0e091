//! Per-rank cost breakdown (the DPR+CPT+CPR / MPI / OTHER split of Fig. 2 and
//! Table VII).

use crate::config::OpKind;
use std::fmt;
use std::ops::AddAssign;

/// Virtual seconds charged to each cost bucket on one rank (or aggregated
/// over ranks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Compression time.
    pub cpr: f64,
    /// Decompression time.
    pub dpr: f64,
    /// Homomorphic processing time.
    pub hpr: f64,
    /// Raw reduction arithmetic time.
    pub cpt: f64,
    /// Everything else charged explicitly.
    pub other: f64,
    /// Time spent blocked on communication.
    pub mpi: f64,
}

impl Breakdown {
    /// Charge `secs` to the bucket for `kind`.
    pub(crate) fn charge(&mut self, kind: OpKind, secs: f64) {
        match kind {
            OpKind::Cpr => self.cpr += secs,
            OpKind::Dpr => self.dpr += secs,
            OpKind::Hpr => self.hpr += secs,
            OpKind::Cpt => self.cpt += secs,
            OpKind::Other => self.other += secs,
        }
    }

    /// Total virtual time across all buckets.
    pub fn total(&self) -> f64 {
        self.cpr + self.dpr + self.hpr + self.cpt + self.other + self.mpi
    }

    /// The paper's Fig. 2 aggregate: decompression + computation +
    /// compression (+ homomorphic processing, which replaces them in hZCCL).
    fn doc_related(&self) -> f64 {
        self.cpr + self.dpr + self.hpr + self.cpt
    }

    /// `(doc_related, mpi, other)` as percentages of the total; zeros for an
    /// empty breakdown.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.doc_related() * 100.0 / t, self.mpi * 100.0 / t, self.other * 100.0 / t)
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Self) {
        self.cpr += rhs.cpr;
        self.dpr += rhs.dpr;
        self.hpr += rhs.hpr;
        self.cpt += rhs.cpt;
        self.other += rhs.other;
        self.mpi += rhs.mpi;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (doc, mpi, other) = self.percentages();
        write!(
            f,
            "DOC-related {doc:.2}% (cpr {:.3}s dpr {:.3}s hpr {:.3}s cpt {:.3}s) | MPI {mpi:.2}% | OTHER {other:.2}%",
            self.cpr, self.dpr, self.hpr, self.cpt
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_routes_to_right_bucket() {
        let mut b = Breakdown::default();
        b.charge(OpKind::Cpr, 1.0);
        b.charge(OpKind::Dpr, 2.0);
        b.charge(OpKind::Hpr, 3.0);
        b.charge(OpKind::Cpt, 4.0);
        b.charge(OpKind::Other, 5.0);
        b.mpi = 5.0;
        assert_eq!(b.total(), 20.0);
        assert_eq!(b.doc_related(), 10.0);
        let (doc, mpi, other) = b.percentages();
        assert!((doc - 50.0).abs() < 1e-12);
        assert!((mpi - 25.0).abs() < 1e-12);
        assert!((other - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_percentages() {
        assert_eq!(Breakdown::default().percentages(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Breakdown { cpr: 1.0, ..Default::default() };
        a += Breakdown { mpi: 2.0, ..Default::default() };
        assert_eq!(a.cpr, 1.0);
        assert_eq!(a.mpi, 2.0);
    }
}
