//! Self-healing transport: checksummed message frames with
//! NACK/retransmit and graceful degradation, layered over `netsim`'s
//! fault-injectable point-to-point primitives.
//!
//! ## Frame format (25-byte header + payload)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "HZFR"
//!      4     1  kind: 0 = data/opaque, 1 = data/raw-f32, 2 = ACK, 3 = NACK
//!      5     4  seq  (u32 LE; the sender's attempt number, 1-based)
//!      9     8  tag  (u64 LE; must match the channel tag)
//!     17     4  payload_len (u32 LE)
//!     21     4  CRC32 (IEEE, over header-sans-crc + payload)
//!     25     …  payload
//! ```
//!
//! The checksum is computed 16 bytes a step (`crc32_update`, slicing-by-16);
//! a receiver validates a frame and strips its header in the buffer it got.
//!
//! ## Protocol: stop-and-wait ARQ with bounded backoff
//!
//! Each logical transfer is one data frame per attempt, answered by exactly
//! one control frame (ACK or NACK) — strict alternation, so a control frame
//! is never ambiguous about which attempt it answers. The receiver NACKs a
//! frame that the fault plan dropped (detected by the receive timeout) or
//! that fails CRC/shape validation; the sender backs off exponentially
//! (`BACKOFF_BASE_S · 2^(retry-1)`, capped at `BACKOFF_MAX_S`) and
//! retransmits. Control frames travel on `ctrl_tag(tag)` (bit 63 set — the
//! collective tag bases stay far below it) via [`Comm::send_reliable`],
//! modelling link-level-protected control traffic; this sidesteps the
//! lost-ACK ambiguity a full end-to-end protocol would need sequence-window
//! state to resolve.
//!
//! ## Graceful degradation
//!
//! After `max_retries` failed retransmissions the sender stops insisting on
//! the compressed representation: for an [`PayloadKind::Opaque`] payload it
//! invokes the schedule-supplied fallback (e.g. "decompress my own stream"
//! or "re-serialize the raw accumulator"), sends the raw f32 bytes as a
//! [`PayloadKind::RawF32`] frame on the reliable channel, and marks the
//! segment degraded (`hz_degraded_segments_total`). A payload that is
//! already raw is simply resent reliably. Either way the collective
//! completes instead of aborting — at worst one extra quantization step of
//! error on the degraded segment (see DESIGN.md "Fault model and
//! resilience").
//!
//! A ring reaches the wire through one `Hop`, so the transport is a
//! property of the ring, not of the call site. A plain hop is exactly the
//! bare `Comm` calls: fault-free runs are bit-identical to a build without
//! this layer.

use crate::pipeline::CTRL_BIT;
use netsim::{Comm, OpKind};

/// Loss-detection timeout charged when a frame never arrives. This and the
/// backoff below are **virtual time** — simulated seconds on the cluster's
/// α–β clock, sized for the paper fabric's 3 µs injection latency.
const TIMEOUT_S: f64 = 50e-6;
/// First-retry backoff; doubles per retry.
const BACKOFF_BASE_S: f64 = 5e-6;
/// Backoff ceiling.
const BACKOFF_MAX_S: f64 = 80e-6;

/// Retry policy of the resilient transport. `Copy` so it can ride inside
/// [`crate::CollectiveConfig`] without breaking its `Copy`-ness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// Retransmissions before degrading to an uncompressed reliable resend.
    pub max_retries: u32,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience { max_retries: 4 }
    }
}

impl Resilience {
    /// Override the retransmission budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }
}

/// The virtual seconds a sender waits before its `retry`-th retransmission.
fn backoff(retry: u32) -> f64 {
    let exp = retry.saturating_sub(1).min(30);
    (BACKOFF_BASE_S * f64::from(1u32 << exp)).min(BACKOFF_MAX_S)
}

/// What a data frame's payload contains, so a receiver knows how to
/// interpret a degraded (fallback) delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Schedule-native bytes (a compressed stream, packed floats, …).
    Opaque,
    /// Raw little-endian `f32`s — the degradation format.
    RawF32,
}

const KIND_DATA_OPAQUE: u8 = 0;
const KIND_DATA_RAW_F32: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_NACK: u8 = 3;

const FRAME_MAGIC: [u8; 4] = *b"HZFR";
/// Frame header length in bytes (see the module docs for the layout).
pub(crate) const HEADER_LEN: usize = 25;

/// Control frames travel on the data tag with [`CTRL_BIT`] set.
pub(crate) fn ctrl_tag(tag: u64) -> u64 {
    tag | CTRL_BIT
}

/// Why a frame failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameError {
    /// Shorter than the fixed header.
    TooShort { len: usize },
    /// Magic bytes do not match.
    BadMagic,
    /// Unknown kind byte.
    BadKind(u8),
    /// Header payload length disagrees with the buffer.
    LengthMismatch { header: usize, actual: usize },
    /// CRC32 over header+payload failed.
    Checksum { expect: u32, got: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FrameError::TooShort { len } => write!(f, "frame too short ({len} < {HEADER_LEN})"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::LengthMismatch { header, actual } => {
                write!(f, "payload length mismatch (header says {header}, buffer has {actual})")
            }
            FrameError::Checksum { expect, got } => {
                write!(f, "frame checksum mismatch ({got:#010x} != {expect:#010x})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A validated frame.
#[derive(Debug)]
struct Frame {
    kind: u8,
    seq: u32,
    payload: Vec<u8>,
}

/// Slicing-by-16: `CRC_TABLES[0]` is the classic byte-at-a-time table and
/// `CRC_TABLES[k][b]` the state `k` zero bytes after byte `b`, so the sixteen
/// lookups of a 16-byte stride do not wait on each other.
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut b = 0;
        while b < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            b += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    while i < 16 * 256 {
        let prev = tables[i / 256 - 1][i % 256];
        tables[i / 256][i % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        i += 1;
    }
    tables
}

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut strides = bytes.chunks_exact(16);
    for stride in &mut strides {
        // the state folds into the first four bytes; byte j has 15 - j after it
        let state = crc.to_le_bytes();
        crc = 0;
        for (j, &b) in stride.iter().enumerate() {
            crc ^= CRC_TABLES[15 - j][(b ^ if j < 4 { state[j] } else { 0 }) as usize];
        }
    }
    // the tail, byte at a time (fed single bytes, this loop is the test reference)
    for &b in strides.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 (IEEE 802.3) over a sequence of byte slices.
fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for p in parts {
        crc = crc32_update(crc, p);
    }
    !crc
}

fn encode_frame(kind: u8, seq: u32, tag: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(kind);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&tag.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32(&[&buf, payload]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

fn decode_frame(mut bytes: Vec<u8>) -> Result<Frame, FrameError> {
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::TooShort { len: bytes.len() });
    }
    if bytes[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let kind = bytes[4];
    if kind > KIND_NACK {
        return Err(FrameError::BadKind(kind));
    }
    let seq = u32::from_le_bytes(bytes[5..9].try_into().unwrap());
    let payload_len = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
    let actual = bytes.len() - HEADER_LEN;
    if payload_len != actual {
        return Err(FrameError::LengthMismatch { header: payload_len, actual });
    }
    let expect = u32::from_le_bytes(bytes[21..25].try_into().unwrap());
    let got = crc32(&[&bytes[0..21], &bytes[HEADER_LEN..]]);
    if got != expect {
        return Err(FrameError::Checksum { expect, got });
    }
    bytes.drain(..HEADER_LEN);
    Ok(Frame { kind, seq, payload: bytes })
}

fn data_kind_byte(kind: PayloadKind) -> u8 {
    match kind {
        PayloadKind::Opaque => KIND_DATA_OPAQUE,
        PayloadKind::RawF32 => KIND_DATA_RAW_F32,
    }
}

fn payload_kind(kind_byte: u8) -> Option<PayloadKind> {
    match kind_byte {
        KIND_DATA_OPAQUE => Some(PayloadKind::Opaque),
        KIND_DATA_RAW_F32 => Some(PayloadKind::RawF32),
        _ => None,
    }
}

/// A segment on the wire and the form it travels in: a hop that degraded
/// under the framed transport delivers raw f32s, and the segment stays raw
/// for the rest of its trip.
pub(crate) type Wire = (Vec<u8>, PayloadKind);

/// Produces the raw-f32 replacement of a payload out of retries.
type Fallback<'a> = &'a mut dyn FnMut(&mut Comm) -> Vec<u8>;

/// The outgoing half of an exchange, carried through the ARQ engine.
struct OutHalf<'a> {
    to: usize,
    payload: Vec<u8>,
    kind: PayloadKind,
    logical_bytes: usize,
    /// What a sender out of retries does — on the reliable channel either
    /// way. Degrade (`res:degraded-segment`): an [`PayloadKind::Opaque`]
    /// payload is replaced by the raw f32s this produces, a raw one goes as
    /// it is. Without one: send the same bytes again (`rec:reliable-resend`).
    degrade: Option<Fallback<'a>>,
}

/// Why a hop stopped before delivering its payload. Only survivable hops
/// ever see one: without survivable mode [`Comm::recv_checked`] panics on a
/// crash notice itself, and nobody else aborts in band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interrupt {
    /// A crash notice for this rank arrived on the awaited channel.
    Dead(usize),
    /// The neighbour sent [`SV_ABORT`] instead of data (or of an ACK).
    Aborted,
}

/// The in-band abort: a one-byte message where data (or, on the control
/// channel, an ACK) was due — the sender is tearing down this attempt and
/// will meet the receiver at the agreement barrier instead. Unambiguous:
/// every data payload holds at least one f32 or a stream header, and every
/// ARQ frame is at least [`HEADER_LEN`] bytes.
const SV_ABORT: u8 = 1;

/// The framed stop-and-wait engine. Runs the outgoing transfer (`out`),
/// the incoming transfer (`from`), or both interleaved; returns the
/// received `(payload, kind)` when `from` is given.
///
/// Deadlock-freedom: the fault plan delivers dropped frames *marked* rather
/// than withholding them, so every blocking receive here is matched by a
/// message that provably arrives; and every data attempt is answered by
/// exactly one control frame (strict alternation), so neither side can wait
/// on a frame the other will never send. Resends after the last retry travel
/// the reliable channel and therefore always terminate the retry loop.
///
/// Both halves run to completion even when the other one is interrupted — a
/// rank that has observed a death keeps serving its live peer (ACKing its
/// data, or retransmitting until ACKed) before returning, so no survivor is
/// left waiting on a rank that silently walked away. Only then is the
/// interrupt reported (the incoming half's first). A message too short to
/// be a frame is the in-band [`SV_ABORT`] — on the data tag from a
/// predecessor that tore down, on the control tag from a successor that
/// did; it is not ACKed: the aborting rank is no longer listening.
fn engine(
    comm: &mut Comm,
    res: &Resilience,
    tag: u64,
    mut out: Option<OutHalf<'_>>,
    from: Option<usize>,
) -> Result<Option<Wire>, Interrupt> {
    let ctrl = ctrl_tag(tag);
    let mut attempts: u32 = 0;
    if let Some(o) = &mut out {
        attempts = 1;
        let frame = encode_frame(data_kind_byte(o.kind), attempts, tag, &o.payload);
        comm.send_compressed(o.to, tag, frame, o.logical_bytes);
    }
    let mut incoming = Ok(None);
    let mut out_stop = None;
    let mut in_done = from.is_none();
    let mut out_done = out.is_none();
    while !(in_done && out_done) {
        if !in_done {
            let src = from.expect("in half active");
            match comm.recv_checked(src, tag) {
                Err(crash) => {
                    incoming = Err(Interrupt::Dead(crash.rank));
                    in_done = true;
                }
                Ok(got) if !got.dropped && got.payload.len() < HEADER_LEN => {
                    debug_assert_eq!(got.payload, [SV_ABORT]);
                    incoming = Err(Interrupt::Aborted);
                    in_done = true;
                }
                Ok(got) => {
                    let frame = if got.dropped {
                        // the receiver only learns of the loss when its
                        // timeout fires; charge that wait before NACKing
                        comm.advance_labeled(OpKind::Other, TIMEOUT_S, "res:timeout-wait");
                        comm.mark("res:timeout");
                        None
                    } else {
                        decode_frame(got.payload)
                            .ok()
                            .and_then(|f| payload_kind(f.kind).map(|k| (f.seq, f.payload, k)))
                    };
                    let (kind, seq) = match frame {
                        Some((seq, payload, kind)) => {
                            incoming = Ok(Some((payload, kind)));
                            in_done = true;
                            (KIND_ACK, seq)
                        }
                        None => (KIND_NACK, attempts),
                    };
                    comm.send_reliable(src, ctrl, encode_frame(kind, seq, ctrl, &[]), 0);
                }
            }
        }
        if !out_done {
            let o = out.as_mut().expect("out half active");
            let frame = match comm.recv_checked(o.to, ctrl) {
                Err(crash) => {
                    out_stop = Some(Interrupt::Dead(crash.rank));
                    out_done = true;
                    continue;
                }
                Ok(got) if got.payload.len() < HEADER_LEN => {
                    debug_assert_eq!(got.payload, [SV_ABORT]);
                    out_stop = Some(Interrupt::Aborted);
                    out_done = true;
                    continue;
                }
                Ok(got) => {
                    assert!(!got.dropped, "control frames travel the reliable channel");
                    decode_frame(got.payload).expect("control frame corrupted on reliable channel")
                }
            };
            if frame.kind == KIND_ACK {
                out_done = true;
            } else if attempts > res.max_retries {
                // out of retries: the reliable channel carries the frame —
                // guaranteed valid, so this NACK was the last
                match &mut o.degrade {
                    Some(fallback) => {
                        comm.mark("res:degraded-segment");
                        if o.kind == PayloadKind::Opaque {
                            o.payload = fallback(comm);
                            o.kind = PayloadKind::RawF32;
                        }
                    }
                    None => comm.mark("rec:reliable-resend"),
                }
                attempts += 1;
                let frame = encode_frame(data_kind_byte(o.kind), attempts, tag, &o.payload);
                comm.send_reliable(o.to, tag, frame, 0);
            } else {
                comm.advance_labeled(OpKind::Other, backoff(attempts), "res:backoff");
                attempts += 1;
                comm.mark("res:retransmit");
                let frame = encode_frame(data_kind_byte(o.kind), attempts, tag, &o.payload);
                // retransmits count as wire bytes but never as logical
                // bytes — the recorder invariant tests/chaos.rs pins
                comm.send_compressed(o.to, tag, frame, 0);
            }
        }
    }
    let received = incoming?;
    out_stop.map_or(Ok(received), Err)
}

/// The transport of a ring's hops, to the `right` neighbour and from the
/// `left` one: plain, framed (every hop an ARQ exchange under a
/// [`Resilience`]), or survivable — framed or not, on a communicator in
/// survivable mode: a peer's death or in-band abort comes back as an
/// [`Interrupt`] instead of a panic, and a sender out of retries resends the
/// same bytes instead of degrading (survivors keep decoding identical bytes).
pub(crate) struct Hop<'a> {
    right: usize,
    left: usize,
    res: Option<&'a Resilience>,
    survivable: bool,
    /// The payload and logical bytes of the framed hop a [`Hop::send`]
    /// opened. The ARQ engine must drive both directions of a hop jointly
    /// (two one-way transfers around a ring deadlock on each other's ACK
    /// wait), so the outgoing half waits here for [`Hop::recv`].
    open: Option<(Wire, usize)>,
}

/// The fallback of a receive, and of a send only survivor rings make under
/// framing (a ragged step's unpaired segment).
fn no_fallback(_: &mut Comm) -> Vec<u8> {
    unreachable!("only a paired or rooted send degrades")
}

impl<'a> Hop<'a> {
    pub(crate) fn new(
        right: usize,
        left: usize,
        res: Option<&'a Resilience>,
        survivable: bool,
    ) -> Hop<'a> {
        Hop { right, left, res, survivable, open: None }
    }

    /// Post `wire` to the right neighbour: the first half of a hop the
    /// matching [`Hop::recv`] completes (`paired`), or — a segment of a
    /// ragged step no receive pairs with — a one-way transfer.
    pub(crate) fn send(
        &mut self,
        comm: &mut Comm,
        tag: u64,
        wire: Wire,
        logical: usize,
        paired: bool,
    ) -> Result<(), Interrupt> {
        if paired && self.res.is_some() {
            self.open = Some((wire, logical));
            return Ok(());
        }
        self.send_to(comm, self.right, tag, wire, logical, no_fallback)
    }

    /// Receive from the left neighbour, completing the hop a [`Hop::send`]
    /// opened. `fallback` produces the raw-f32 replacement of the payload
    /// just sent, should the framed transport run out of retries on it.
    pub(crate) fn recv(
        &mut self,
        comm: &mut Comm,
        tag: u64,
        native: PayloadKind,
        mut fallback: impl FnMut(&mut Comm) -> Vec<u8>,
    ) -> Result<Wire, Interrupt> {
        let out = self.open.take().map(|(wire, logical)| (self.right, wire, logical));
        let got = self.run(comm, tag, out, Some(self.left), native, &mut fallback)?;
        Ok(got.expect("incoming half yields a payload"))
    }

    /// One-way send to any rank (a gather or scatter hop).
    pub(crate) fn send_to(
        &self,
        comm: &mut Comm,
        to: usize,
        tag: u64,
        wire: Wire,
        logical: usize,
        mut fallback: impl FnMut(&mut Comm) -> Vec<u8>,
    ) -> Result<(), Interrupt> {
        let native = wire.1;
        self.run(comm, tag, Some((to, wire, logical)), None, native, &mut fallback).map(drop)
    }

    /// One-way receive: the other end of a [`Hop::send_to`]. An unframed
    /// payload is reported as `native`, the schedule's own wire format.
    pub(crate) fn recv_from(
        &self,
        comm: &mut Comm,
        from: usize,
        tag: u64,
        native: PayloadKind,
    ) -> Result<Wire, Interrupt> {
        let got = self.run(comm, tag, None, Some(from), native, &mut no_fallback)?;
        Ok(got.expect("incoming half yields a payload"))
    }

    /// Tear this attempt down in band: tell the successor, on the tag of the
    /// data it next awaits (`send`), that none is coming — and under framing
    /// the predecessor, on the control tag of the frame it sends next
    /// (`recv`), that no ACK is (an unframed send never blocks). Each abort
    /// is consumed at a deterministic point of a neighbour's schedule; they
    /// travel the reliable channel and are never ACKed.
    pub(crate) fn abort(&self, comm: &mut Comm, send: Option<u64>, recv: Option<u64>) {
        if let Some(tag) = send {
            comm.send_reliable(self.right, tag, vec![SV_ABORT], 0);
        }
        if let Some(tag) = recv.filter(|_| self.res.is_some()) {
            comm.send_reliable(self.left, ctrl_tag(tag), vec![SV_ABORT], 0);
        }
    }

    /// Every transfer ends up here: the ARQ [`engine`] under a
    /// [`Resilience`], the bare `Comm` calls without one.
    fn run(
        &self,
        comm: &mut Comm,
        tag: u64,
        out: Option<(usize, Wire, usize)>,
        from: Option<usize>,
        native: PayloadKind,
        fallback: Fallback<'_>,
    ) -> Result<Option<Wire>, Interrupt> {
        let got = match self.res {
            Some(res) => {
                let degrade = (!self.survivable).then_some(fallback);
                let out = out.map(|(to, (payload, kind), logical_bytes)| OutHalf {
                    to,
                    payload,
                    kind,
                    logical_bytes,
                    degrade,
                });
                engine(comm, res, tag, out, from)
            }
            None => {
                if let Some((to, (payload, _), logical)) = out {
                    comm.send_compressed(to, tag, payload, logical);
                }
                match from {
                    None => Ok(None),
                    Some(src) if !self.survivable => Ok(Some((comm.recv(src, tag), native))),
                    Some(src) => match comm.recv_checked(src, tag) {
                        Err(crash) => Err(Interrupt::Dead(crash.rank)),
                        Ok(got) if got.payload == [SV_ABORT] => Err(Interrupt::Aborted),
                        Ok(got) => {
                            assert!(!got.dropped, "a lossy fabric needs the framed transport");
                            Ok(Some((got.payload, native)))
                        }
                    },
                }
            }
        };
        if self.survivable {
            return got;
        }
        // the fail-fast edge: an interrupt is the crash cascade a plain
        // receive raises
        got.map_err(|interrupt| match interrupt {
            Interrupt::Dead(rank) => panic!("rank {} observed crash of rank {rank}", comm.rank()),
            Interrupt::Aborted => unreachable!("only survivable schedules abort in band"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        let buf = encode_frame(KIND_DATA_OPAQUE, 3, 0xDEAD_BEEF, &payload);
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let frame = decode_frame(buf).expect("roundtrip");
        assert_eq!(frame.kind, KIND_DATA_OPAQUE);
        assert_eq!(frame.seq, 3);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_frames_work() {
        let buf = encode_frame(KIND_ACK, 1, 42, &[]);
        let frame = decode_frame(buf).expect("ack frame");
        assert_eq!(frame.kind, KIND_ACK);
        assert!(frame.payload.is_empty());
    }

    /// Payload lengths on both sides of the checksum's stride, so the word
    /// loop and the byte tail are each under the frame tests.
    const PAYLOAD_LENS: [usize; 6] = [0, 1, 15, 16, 17, 200];

    fn xorshift_bytes(state: &mut u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in PAYLOAD_LENS {
            let buf = encode_frame(KIND_DATA_RAW_F32, 9, 7, &xorshift_bytes(&mut state, len));
            for bit in 0..buf.len() * 8 {
                let mut mutated = buf.clone();
                mutated[bit / 8] ^= 1 << (bit % 8);
                assert!(decode_frame(mutated).is_err(), "len {len}: flip of bit {bit} decoded");
            }
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        for payload_len in PAYLOAD_LENS {
            let buf = encode_frame(KIND_DATA_OPAQUE, 1, 1, &vec![5; payload_len]);
            for len in 0..buf.len() {
                let err = decode_frame(buf[..len].to_vec()).unwrap_err();
                match err {
                    FrameError::TooShort { .. } | FrameError::LengthMismatch { .. } => {}
                    other => panic!("truncation of {payload_len} to {len} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926, "chunking must not matter");
    }

    /// The CRC a byte at a time: single bytes only ever reach
    /// `crc32_update`'s tail loop.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(crc, |crc, b| crc32_update(crc, std::slice::from_ref(b)))
    }

    #[test]
    fn crc_word_loop_matches_the_byte_loop() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        // every length around the stride at every start alignment
        let pool = xorshift_bytes(&mut state, 16 + 80);
        for align in 0..16 {
            for len in 0..=80 {
                let bytes = &pool[align..align + len];
                let seed = state as u32 ^ len as u32;
                assert_eq!(
                    crc32_update(seed, bytes),
                    crc32_bytewise(seed, bytes),
                    "len {len} at alignment {align}"
                );
            }
        }
        // random buffers up to 64 KiB, random running states
        let pool = xorshift_bytes(&mut state, 1 << 16);
        for _ in 0..10_000 {
            let draw = xorshift_bytes(&mut state, 8);
            let a = u16::from_le_bytes([draw[0], draw[1]]) as usize;
            let b = u16::from_le_bytes([draw[2], draw[3]]) as usize;
            let bytes = &pool[a.min(b)..a.max(b)];
            let seed = u32::from_le_bytes([draw[4], draw[5], draw[6], draw[7]]);
            assert_eq!(crc32_update(seed, bytes), crc32_bytewise(seed, bytes), "{a}..{b}");
        }
    }

    /// The frame checksum runs over header and payload as two parts: where
    /// the cuts fall must not matter.
    #[test]
    fn crc_does_not_depend_on_how_the_bytes_are_split() {
        let buf = xorshift_bytes(&mut 0x0123_4567_89AB_CDEF, 67);
        let whole = crc32(&[&buf]);
        assert_eq!(whole, !crc32_bytewise(0xFFFF_FFFF, &buf));
        for i in 0..=buf.len() {
            assert_eq!(crc32(&[&buf[..i], &buf[i..]]), whole, "cut at {i}");
            for j in i..=buf.len() {
                assert_eq!(crc32(&[&buf[..i], &buf[i..j], &buf[j..]]), whole, "cuts at {i}, {j}");
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), 5e-6);
        assert_eq!(backoff(2), 10e-6);
        assert_eq!(backoff(3), 20e-6);
        assert_eq!(backoff(10), 80e-6, "capped at BACKOFF_MAX_S");
    }

    #[test]
    fn ctrl_tag_cannot_collide_with_data_tags() {
        for base in [crate::pipeline::TAG_RS, crate::pipeline::TAG_SCATTER] {
            let t = crate::pipeline::seg_tag(base, 63, 4095);
            assert!(t < 1 << 62, "data tags stay far below bit 63");
            assert_ne!(ctrl_tag(t), t);
        }
    }
}
