//! Every step label a collective charges: the name its events are
//! recorded under, the cost bucket its time lands in and what netsim's
//! reports make of it, declared once, below. Each charge site names a row;
//! netsim reads only the [`Class`], so a name is free to change and a typo
//! is a compile error.
//!
//! Readers outside this crate still match a few names as text — the
//! benchmark counts `res:retransmit` and `rec:recovery` events, and a
//! critical-path table prints every name — and the test below pins what
//! they rely on: every `res:` name is of the resilience family, every
//! `rec:` name of the recovery family, and each marker class [`netsim::Tally`]
//! counts has exactly one row.

use netsim::{Class, Label, OpKind};

/// Declares each step label once, as a `pub(crate)` constant: its name, its
/// [`OpKind`] and its [`Class`], one row each; [`ALL`] lists the rows.
macro_rules! step_labels {
    ($($(#[$attr:meta])* $id:ident = $name:literal, $kind:ident, $class:ident;)*) => {
        $($(#[$attr])*
        pub(crate) const $id: Label =
            Label { name: $name, kind: OpKind::$kind, class: Class::$class };)*
        /// Every step label, in table order.
        #[cfg(test)]
        const ALL: &[Label] = &[$($id),*];
    };
}

step_labels! {
    // the MPI ring (a DOC codec over raw f32s)
    MPI_PACK = "mpi:pack", Other, Step;                   // f32 -> NIC staging copy
    MPI_UNPACK = "mpi:unpack", Other, Step;               // and back
    MPI_REDUCE = "mpi:reduce", Cpt, Step;
    HIER_REDUCE = "hier:reduce", Cpt, Step;               // the node tier of the two-tier ring
    // C-Coll: DOC over ompSZp
    CCOLL_COMPRESS = "ccoll:compress", Cpr, Step;
    CCOLL_DECOMPRESS = "ccoll:decompress", Dpr, Step;
    CCOLL_REDUCE = "ccoll:reduce", Cpt, Step;
    // CPR-P2P, which only the tests run
    #[cfg(test)]
    P2P_COMPRESS = "p2p:compress", Cpr, Step;
    #[cfg(test)]
    P2P_DECOMPRESS = "p2p:decompress", Dpr, Step;
    #[cfg(test)]
    P2P_REDUCE = "p2p:reduce", Cpt, Step;
    // hZCCL: homomorphic over fZ-light
    HZ_COMPRESS_ALL = "hz:compress-all", Cpr, Step;       // N·CPR in one sweep
    HZ_COMPRESS_SEGMENT = "hz:compress-segment", Cpr, Step;
    HZ_HOMOMORPHIC_SUM = "hz:homomorphic-sum", Hpr, Step;
    HZ_FINAL_DECOMPRESS = "hz:final-decompress", Dpr, Step;
    HZ_ROOT_DECOMPRESS = "hz:root-decompress", Dpr, Step; // Reduce-to-root
    HZ_BCAST_COMPRESS = "hz:bcast-compress", Cpr, Step;
    HZ_BCAST_DECOMPRESS = "hz:bcast-decompress", Dpr, Step;
    // recursive doubling
    RD_PACK = "rd:pack", Other, Step;
    RD_UNPACK = "rd:unpack", Other, Step;
    RD_REDUCE = "rd:reduce", Cpt, Step;
    RD_COMPRESS = "rd:compress", Cpr, Step;
    RD_HOMOMORPHIC_SUM = "rd:homomorphic-sum", Hpr, Step;
    RD_DECOMPRESS = "rd:decompress", Dpr, Step;
    // Auto's in-band size probe
    AUTO_PROBE = "auto:probe", Other, Step;
    // the resilient transport (`resilient.rs`) and the codecs' degraded hops
    RES_TIMEOUT_WAIT = "res:timeout-wait", Other, Resilience;
    RES_BACKOFF = "res:backoff", Other, Resilience;
    RES_RECOMPRESS = "res:recompress", Cpr, Resilience;
    RES_DEGRADE_DECOMPRESS = "res:degrade-decompress", Dpr, Resilience;
    RES_RETRANSMIT = "res:retransmit", Other, Retransmit;
    RES_TIMEOUT = "res:timeout", Other, Timeout;
    RES_DEGRADED_SEGMENT = "res:degraded-segment", Other, DegradedSegment;
    // crash recovery (`survivable.rs`, `ring.rs`, `collectives.rs`)
    REC_RESCALE = "rec:rescale", Cpt, Recovery;
    REC_RELIABLE_RESEND = "rec:reliable-resend", Other, Recovery;
    REC_STREAM_CACHE_HIT = "rec:stream-cache-hit", Other, Recovery;
    REC_RECOVERY = "rec:recovery", Other, Repair;
    REC_EPOCH = "rec:epoch", Other, Epoch;
    REC_SURVIVORS = "rec:survivors", Other, Survivors;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = ALL.iter().map(|l| l.name).collect();
        assert_eq!(names.len(), ALL.len(), "a name declared twice");
    }

    #[test]
    fn prefixes_name_exactly_the_fault_handling_families() {
        for l in ALL {
            let (layer, family) = (l.name.split(':').next(), l.class.family());
            assert_eq!(layer == Some("res"), family == Class::Resilience, "{l:?}");
            assert_eq!(layer == Some("rec"), family == Class::Recovery, "{l:?}");
        }
    }

    #[test]
    fn each_tally_marker_has_exactly_one_row() {
        use Class::*;
        for class in [Retransmit, Timeout, DegradedSegment, Repair, Epoch, Survivors] {
            let rows: Vec<&str> = ALL.iter().filter(|l| l.class == class).map(|l| l.name).collect();
            assert_eq!(rows.len(), 1, "{class:?}: {rows:?}");
        }
        // the names the benchmark crate matches on
        assert_eq!(RES_RETRANSMIT.name, "res:retransmit");
        assert_eq!(REC_RECOVERY.name, "rec:recovery");
        // markers cost nothing and file under `other`
        for l in ALL.iter().filter(|l| !matches!(l.class, Step | Resilience | Recovery)) {
            assert_eq!(l.kind, OpKind::Other, "{l:?}");
        }
    }
}
