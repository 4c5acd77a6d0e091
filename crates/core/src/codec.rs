//! The segment codec: what a ring step does to the bytes it moves.
//!
//! The paper's three frameworks (Table II) share one ring skeleton
//! ([`crate::ring`]) and differ only in the per-step operator, which this
//! module states as one trait with two implementations. The raw MPI ring is
//! C-Coll's decompression-operation-compression workflow with the identity
//! compressor, so one value-accumulating [`DocCodec`] serves both, generic
//! over a [`Format`] — what a payload *is* — while [`HzCodec`] sums streams:
//!
//! | | [`DocCodec`] over [`Raw`] (MPI) | [`DocCodec`] over [`Oszp`] (C-Coll [13]) | [`HzCodec`] (hZCCL) |
//! |---|---|---|---|
//! | accumulator | raw `f32`s | raw `f32`s | fZ-light stream |
//! | own operand | slice of the input | slice of the input | compressed once (`hz:compress-all`, or just in time per segment) |
//! | encode | pack into a spent buffer (`mpi:pack`) | compress (`ccoll:compress`, CPR) | the stream's bytes, into a spent buffer — free |
//! | fold | unpack into the spent accumulator + sum (`mpi:reduce`, CPT) | decompress into it + sum (DPR + CPT) | homomorphic sum (`hz:homomorphic-sum`, HPR) |
//! | install | unpack into the output | decompress into it (DPR) | decompress into it (`hz:*-decompress`, DPR) |
//! | degraded arrival | same bytes | raw values, no DPR | recompress (`res:recompress`) |
//!
//! So a Reduce_scatter costs `(N-1)·CPT` plus full-size traffic raw,
//! `(N-1)(CPR + DPR + CPT)` under decompression-operation-compression, and
//! `N·CPR + (N-1)·HPR + 1·DPR` homomorphically (Sec. III-C.1). C-Coll's
//! conventional compressor maps to [`ompszp`] (slower than fZ-light,
//! especially multi-threaded — as the published SZx-class compressor trails
//! hZCCL's co-designed stack). CPR-P2P [25], the baseline C-Coll itself
//! improves on, is the DOC codec with every hop an independent transfer
//! (`DocCodec::p2p`): it re-compresses what it forwards, so its Allgather
//! pays `CPR + DPR` per hop where C-Coll pays `CPR + (N-1)·DPR` in total.
//!
//! All integer sums on the homomorphic path are exact and quantization is
//! per element, so segment boundaries never change an output bit.

use crate::chunks::{f32_to_bytes, read_f32s, write_f32s};
use crate::config::CollectiveConfig;
use crate::labels::{
    CCOLL_COMPRESS, CCOLL_DECOMPRESS, CCOLL_REDUCE, HIER_REDUCE, HZ_COMPRESS_ALL,
    HZ_COMPRESS_SEGMENT, HZ_FINAL_DECOMPRESS, HZ_HOMOMORPHIC_SUM, MPI_PACK, MPI_REDUCE, MPI_UNPACK,
    RES_DEGRADE_DECOMPRESS, RES_RECOMPRESS,
};
use crate::resilient::{PayloadKind, Wire};
use fzlight::{compress_resolved, CompressedStream, Result};
use hzdyn::{doc::reduce_in_place, homomorphic_sum, ReduceOp};
use netsim::{Comm, Label};
use ompszp::OszpStream;
use std::ops::Range;

/// The per-step operator of a ring collective over `data`, this rank's
/// input. Ranges are absolute element ranges of `data`. A codec holds no
/// per-call state: the schedule that drives it owns every operand and
/// accumulator, and with them their lifetime.
pub(crate) trait SegCodec {
    /// One segment's partial sum between reduce-scatter steps.
    type Acc;

    /// This rank's own contribution to a range, prepared for folding.
    /// `None` throughout when the input slice itself is the operand.
    type Operand: Clone;

    /// How this codec's payloads are framed: raw payloads degrade by a
    /// reliable resend of the same bytes, opaque ones via the fallbacks.
    const WIRE: PayloadKind;

    /// Segment boundaries fall on multiples of this (1 for raw traffic).
    fn block_len(&self) -> usize;

    /// True when a chunk, once encoded, travels the allgather as bytes and
    /// is decoded at its destinations; false when every hop is an
    /// independent transfer — decoded into the output buffer on arrival,
    /// re-encoded from it to send (NIC staging, CPR-P2P).
    fn forwards_verbatim(&self) -> bool;

    /// Prepare the own operand of `rng`.
    fn operand(
        &self,
        comm: &mut Comm,
        data: &[f32],
        rng: &Range<usize>,
    ) -> Result<Option<Self::Operand>>;

    /// Prepare the own operands of all `chunks` at once (the paper's
    /// phase-serial schedule).
    fn prime(
        &self,
        comm: &mut Comm,
        data: &[f32],
        chunks: impl Iterator<Item = Range<usize>>,
    ) -> Result<Vec<Option<Self::Operand>>> {
        chunks.map(|rng| self.operand(comm, data, &rng)).collect()
    }

    /// The accumulator a reduction of `rng` starts from: this rank's own
    /// contribution alone.
    fn seed(&self, data: &[f32], rng: &Range<usize>, operand: Option<Self::Operand>) -> Self::Acc;

    /// Wire bytes of an accumulator, over the spent (or empty) buffer `buf`.
    fn encode(&self, comm: &mut Comm, acc: &Self::Acc, buf: Vec<u8>) -> Result<Vec<u8>>;

    /// Fold a received segment with this rank's own contribution to `rng`,
    /// into `spent` (the accumulator of the segment just forwarded) where
    /// values accumulate. The consumed wire buffer comes back.
    fn fold(
        &self,
        comm: &mut Comm,
        wire: Wire,
        data: &[f32],
        rng: &Range<usize>,
        operand: Option<&Self::Operand>,
        spent: Option<Self::Acc>,
    ) -> Result<(Self::Acc, Vec<u8>)>;

    /// Raw f32 bytes of an accumulator whose framed send ran out of retries.
    fn degrade(&self, comm: &mut Comm, acc: &Self::Acc) -> Vec<u8>;

    /// Settle a finished accumulator: its values land in `dst`, or — when
    /// the accumulator already is wire bytes (the fused hZCCL hand-over: no
    /// decompress/recompress at the stage boundary) — the bytes come back.
    fn handoff(&self, acc: Self::Acc, dst: &mut [f32]) -> Option<Vec<u8>>;

    /// Wire bytes of raw values, over `buf` like [`SegCodec::encode`].
    fn pack(&self, comm: &mut Comm, vals: &[f32], buf: Vec<u8>) -> Result<Vec<u8>>;

    /// Decode a received segment into `dst`; its bytes come back for the
    /// next hop.
    fn install(
        &self,
        comm: &mut Comm,
        wire: Vec<u8>,
        kind: PayloadKind,
        dst: &mut [f32],
    ) -> Result<Vec<u8>>;

    /// Raw f32 bytes of a forwarded payload whose framed send ran out of
    /// retries (the bytes in hand are the last good state).
    fn degrade_wire(&self, comm: &mut Comm, wire: &[u8]) -> Vec<u8>;
}

/// What a payload of a value-accumulating codec is: how values become wire
/// bytes and back. The ring step is the same for every format
/// ([`DocCodec`]); only these conversions and their charges differ.
pub(crate) trait Format {
    /// How payloads of this format are framed: raw payloads degrade by a
    /// reliable resend of the same bytes, opaque ones via the fallbacks.
    const KIND: PayloadKind;

    /// Segment boundaries fall on multiples of this (1 for raw traffic).
    fn block_len(&self) -> usize;

    /// Wire bytes of `vals`, over the spent (or empty) buffer `buf`.
    fn pack(&self, comm: &mut Comm, vals: &[f32], buf: Vec<u8>) -> Result<Vec<u8>>;

    /// Decode a payload of either kind into `dst`; its bytes come back.
    fn unpack(&self, comm: &mut Comm, wire: Wire, dst: &mut [f32]) -> Result<Vec<u8>>;

    /// Raw f32 bytes of a forwarded payload whose framed send ran out of
    /// retries.
    fn degrade_wire(&self, comm: &mut Comm, wire: &[u8]) -> Vec<u8>;
}

/// Raw little-endian `f32`s: the identity compressor of the MPI baseline.
pub(crate) struct Raw {
    /// Charge the f32↔bytes staging copies (`mpi:pack` / `mpi:unpack`).
    /// Node-local exchange is shared memory, where the byte view of a
    /// buffer is a reinterpretation and costs nothing.
    staged: bool,
}

impl Format for Raw {
    const KIND: PayloadKind = PayloadKind::RawF32;

    fn block_len(&self) -> usize {
        1
    }

    fn pack(&self, comm: &mut Comm, vals: &[f32], mut buf: Vec<u8>) -> Result<Vec<u8>> {
        buf.resize(vals.len() * 4, 0);
        if self.staged {
            let dst = &mut buf[..];
            comm.compute(MPI_PACK, dst.len(), || write_f32s(vals, dst));
        } else {
            write_f32s(vals, &mut buf);
        }
        Ok(buf)
    }

    fn unpack(&self, comm: &mut Comm, (wire, _): Wire, dst: &mut [f32]) -> Result<Vec<u8>> {
        if self.staged {
            comm.compute(MPI_UNPACK, wire.len(), || read_f32s(&wire, dst))?;
        } else {
            read_f32s(&wire, dst)?;
        }
        Ok(wire)
    }

    fn degrade_wire(&self, _: &mut Comm, wire: &[u8]) -> Vec<u8> {
        wire.to_vec()
    }
}

/// ompSZp streams, the conventional compressor of C-Coll (and CPR-P2P).
pub(crate) struct Oszp {
    cfg: ompszp::Config,
    /// `[compress, decompress]` step labels.
    labels: [Label; 2],
}

impl Format for Oszp {
    const KIND: PayloadKind = PayloadKind::Opaque;

    fn block_len(&self) -> usize {
        self.cfg.block_len
    }

    fn pack(&self, comm: &mut Comm, vals: &[f32], _: Vec<u8>) -> Result<Vec<u8>> {
        // (the compressor builds its own stream buffer)
        let stream =
            comm.compute(self.labels[0], vals.len() * 4, || ompszp::compress(vals, &self.cfg))?;
        Ok(stream.into_bytes())
    }

    fn unpack(&self, comm: &mut Comm, (wire, kind): Wire, dst: &mut [f32]) -> Result<Vec<u8>> {
        match kind {
            PayloadKind::Opaque => {
                let stream = OszpStream::from_bytes(wire)?;
                comm.compute(self.labels[1], dst.len() * 4, || {
                    ompszp::decompress_into(&stream, dst)
                })?;
                Ok(stream.into_bytes())
            }
            // a degraded hop delivered raw f32s — no DPR needed
            PayloadKind::RawF32 => {
                read_f32s(&wire, dst)?;
                Ok(wire)
            }
        }
    }

    fn degrade_wire(&self, comm: &mut Comm, wire: &[u8]) -> Vec<u8> {
        let stream = OszpStream::from_bytes(wire.to_vec()).expect("forwarded stream must parse");
        let vals = comm
            .compute(RES_DEGRADE_DECOMPRESS, stream.n() * 4, || ompszp::decompress(&stream))
            .expect("forwarded stream must decompress");
        f32_to_bytes(&vals)
    }
}

/// Decompression-operation-compression (C-Coll): the accumulator is raw
/// `f32`s, every received payload is unpacked into it and summed, and the
/// result is packed again to send. Over [`Raw`] it is the MPI ring.
pub(crate) struct DocCodec<F> {
    fmt: F,
    threads: usize,
    reduce_label: Label,
    verbatim: bool,
}

impl DocCodec<Raw> {
    /// The flat (and inter-node) MPI ring: NIC staging copies are charged.
    pub(crate) fn mpi(threads: usize) -> DocCodec<Raw> {
        DocCodec { fmt: Raw { staged: true }, threads, reduce_label: MPI_REDUCE, verbatim: false }
    }

    /// The intra-node tier of the hierarchical schedule: the summation is
    /// the only compute charge.
    pub(crate) fn shared_memory(threads: usize) -> DocCodec<Raw> {
        DocCodec { fmt: Raw { staged: false }, reduce_label: HIER_REDUCE, ..DocCodec::mpi(threads) }
    }
}

impl DocCodec<Oszp> {
    pub(crate) fn ccoll(cfg: &CollectiveConfig) -> DocCodec<Oszp> {
        let ocfg = ompszp::Config::new(ompszp::ErrorBound::Abs(cfg.eb))
            .with_block_len(cfg.block_len)
            .with_threads(cfg.mode.threads());
        DocCodec {
            fmt: Oszp { cfg: ocfg, labels: [CCOLL_COMPRESS, CCOLL_DECOMPRESS] },
            threads: cfg.mode.threads(),
            reduce_label: CCOLL_REDUCE,
            verbatim: true,
        }
    }

    /// CPR-P2P [25]: the same kernels, but a forwarded chunk is decompressed
    /// and recompressed by every hop. Kept for the paper's comparison chain
    /// (CPR-P2P → C-Coll → hZCCL), which only the tests walk.
    #[cfg(test)]
    pub(crate) fn p2p(cfg: &CollectiveConfig) -> DocCodec<Oszp> {
        use crate::labels::{P2P_COMPRESS, P2P_DECOMPRESS, P2P_REDUCE};
        let ccoll = DocCodec::ccoll(cfg);
        DocCodec {
            fmt: Oszp { labels: [P2P_COMPRESS, P2P_DECOMPRESS], ..ccoll.fmt },
            reduce_label: P2P_REDUCE,
            verbatim: false,
            ..ccoll
        }
    }
}

impl<F: Format> SegCodec for DocCodec<F> {
    type Acc = Vec<f32>;
    /// The input slice itself is the operand.
    type Operand = std::convert::Infallible;
    const WIRE: PayloadKind = F::KIND;

    fn block_len(&self) -> usize {
        self.fmt.block_len()
    }

    fn forwards_verbatim(&self) -> bool {
        self.verbatim
    }

    fn operand(&self, _: &mut Comm, _: &[f32], _: &Range<usize>) -> Result<Option<Self::Operand>> {
        Ok(None)
    }

    fn seed(&self, data: &[f32], rng: &Range<usize>, _: Option<Self::Operand>) -> Vec<f32> {
        data[rng.clone()].to_vec()
    }

    fn encode(&self, comm: &mut Comm, acc: &Vec<f32>, buf: Vec<u8>) -> Result<Vec<u8>> {
        self.fmt.pack(comm, acc, buf)
    }

    fn fold(
        &self,
        comm: &mut Comm,
        wire: Wire,
        data: &[f32],
        rng: &Range<usize>,
        _: Option<&Self::Operand>,
        spent: Option<Vec<f32>>,
    ) -> Result<(Vec<f32>, Vec<u8>)> {
        // a payload of any other length is refused by the unpack; DOC fully
        // decompresses before any arithmetic, its bottleneck
        let mut acc = spent.unwrap_or_default();
        acc.resize(rng.len(), 0.0);
        let wire = self.fmt.unpack(comm, wire, &mut acc)?;
        comm.compute(self.reduce_label, acc.len() * 4, || {
            reduce_in_place(&mut acc, &data[rng.clone()], ReduceOp::Sum, self.threads)
        });
        Ok((acc, wire))
    }

    fn degrade(&self, _: &mut Comm, acc: &Vec<f32>) -> Vec<u8> {
        // the raw accumulator is the last good state
        f32_to_bytes(acc)
    }

    fn handoff(&self, acc: Vec<f32>, dst: &mut [f32]) -> Option<Vec<u8>> {
        dst.copy_from_slice(&acc);
        None
    }

    fn pack(&self, comm: &mut Comm, vals: &[f32], buf: Vec<u8>) -> Result<Vec<u8>> {
        self.fmt.pack(comm, vals, buf)
    }

    fn install(
        &self,
        comm: &mut Comm,
        wire: Vec<u8>,
        kind: PayloadKind,
        dst: &mut [f32],
    ) -> Result<Vec<u8>> {
        self.fmt.unpack(comm, (wire, kind), dst)
    }

    fn degrade_wire(&self, comm: &mut Comm, wire: &[u8]) -> Vec<u8> {
        self.fmt.degrade_wire(comm, wire)
    }
}

/// Homomorphic reduction over fZ-light streams (hZCCL, Sec. III-C).
pub(crate) struct HzCodec {
    eb: f64,
    block_len: usize,
    threads: usize,
    pack_label: Label,
    install_label: Label,
}

impl HzCodec {
    /// `pack_label` / `install_label` name the verb-specific CPR and DPR
    /// steps (`hz:bcast-compress`, `hz:root-decompress`, …).
    pub(crate) fn new(cfg: &CollectiveConfig, pack_label: Label, install_label: Label) -> HzCodec {
        HzCodec {
            eb: cfg.eb,
            block_len: cfg.block_len,
            threads: cfg.mode.threads(),
            pack_label,
            install_label,
        }
    }

    /// The codec of the reducing verbs outside Reduce-to-root.
    pub(crate) fn reducing(cfg: &CollectiveConfig) -> HzCodec {
        HzCodec::new(cfg, HZ_COMPRESS_SEGMENT, HZ_FINAL_DECOMPRESS)
    }

    fn compress(&self, comm: &mut Comm, vals: &[f32], label: Label) -> Result<CompressedStream> {
        comm.compute(label, vals.len() * 4, || {
            compress_resolved(vals, self.eb, self.block_len, self.threads)
        })
    }
}

impl SegCodec for HzCodec {
    type Acc = CompressedStream;
    type Operand = CompressedStream;
    const WIRE: PayloadKind = PayloadKind::Opaque;

    fn block_len(&self) -> usize {
        self.block_len
    }

    fn forwards_verbatim(&self) -> bool {
        true
    }

    fn operand(
        &self,
        comm: &mut Comm,
        data: &[f32],
        rng: &Range<usize>,
    ) -> Result<Option<CompressedStream>> {
        self.compress(comm, &data[rng.clone()], HZ_COMPRESS_SEGMENT).map(Some)
    }

    fn prime(
        &self,
        comm: &mut Comm,
        data: &[f32],
        chunks: impl Iterator<Item = Range<usize>>,
    ) -> Result<Vec<Option<CompressedStream>>> {
        // N·CPR, charged as one sweep over the full vector
        comm.compute(HZ_COMPRESS_ALL, data.len() * 4, || {
            chunks
                .map(|c| {
                    compress_resolved(&data[c], self.eb, self.block_len, self.threads).map(Some)
                })
                .collect()
        })
    }

    fn seed(
        &self,
        _: &[f32],
        _: &Range<usize>,
        operand: Option<CompressedStream>,
    ) -> CompressedStream {
        operand.expect("hZCCL reduces compressed operands")
    }

    fn encode(&self, _: &mut Comm, acc: &CompressedStream, mut buf: Vec<u8>) -> Result<Vec<u8>> {
        buf.clear();
        buf.reserve_exact(acc.as_bytes().len());
        buf.extend_from_slice(acc.as_bytes());
        Ok(buf)
    }

    fn fold(
        &self,
        comm: &mut Comm,
        (wire, kind): Wire,
        _: &[f32],
        rng: &Range<usize>,
        operand: Option<&CompressedStream>,
        _: Option<CompressedStream>,
    ) -> Result<(CompressedStream, Vec<u8>)> {
        let received = match kind {
            PayloadKind::Opaque => CompressedStream::from_bytes(wire)?,
            // a degraded hop delivered raw f32s: recompress (at most one
            // extra quantization of error) so the homomorphic sum proceeds
            PayloadKind::RawF32 => {
                let mut vals = vec![0f32; rng.len()];
                read_f32s(&wire, &mut vals)?;
                self.compress(comm, &vals, RES_RECOMPRESS)?
            }
        };
        let operand = operand.expect("hZCCL reduces compressed operands");
        // reduce two compressed segments directly, no decompression
        let sum = comm
            .compute(HZ_HOMOMORPHIC_SUM, rng.len() * 4, || homomorphic_sum(&received, operand))?;
        Ok((sum, received.into_bytes()))
    }

    fn degrade(&self, comm: &mut Comm, acc: &CompressedStream) -> Vec<u8> {
        let vals = comm
            .compute(RES_DEGRADE_DECOMPRESS, acc.n() * 4, || fzlight::decompress(acc))
            .expect("own partial-sum stream must decompress");
        f32_to_bytes(&vals)
    }

    fn handoff(&self, acc: CompressedStream, _: &mut [f32]) -> Option<Vec<u8>> {
        Some(acc.into_bytes())
    }

    fn pack(&self, comm: &mut Comm, vals: &[f32], _: Vec<u8>) -> Result<Vec<u8>> {
        Ok(self.compress(comm, vals, self.pack_label)?.into_bytes())
    }

    fn install(
        &self,
        comm: &mut Comm,
        wire: Vec<u8>,
        kind: PayloadKind,
        dst: &mut [f32],
    ) -> Result<Vec<u8>> {
        match kind {
            PayloadKind::Opaque => {
                let stream = CompressedStream::from_bytes(wire)?;
                comm.compute(self.install_label, dst.len() * 4, || {
                    fzlight::decompress_into(&stream, dst)
                })?;
                Ok(stream.into_bytes())
            }
            // the segment arrived degraded — already raw, copy it in
            PayloadKind::RawF32 => {
                read_f32s(&wire, dst)?;
                Ok(wire)
            }
        }
    }

    fn degrade_wire(&self, comm: &mut Comm, wire: &[u8]) -> Vec<u8> {
        let stream =
            CompressedStream::from_bytes(wire.to_vec()).expect("forwarded stream must parse");
        self.degrade(comm, &stream)
    }
}
