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
//! ## Protocol: stop-and-wait ARQ with bounded backoff
//!
//! Each logical transfer is one data frame per attempt, answered by exactly
//! one control frame (ACK or NACK) — strict alternation, so a control frame
//! is never ambiguous about which attempt it answers. The receiver NACKs a
//! frame that the fault plan dropped (detected by the receive timeout) or
//! that fails CRC/shape validation; the sender backs off exponentially
//! (`backoff_base_s · 2^(retry-1)`, capped at `backoff_max_s`) and
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
//! With `res == None` every wrapper below compiles down to exactly the
//! pre-existing unframed `Comm` call, so fault-free runs are bit-identical
//! to the unresilient build.

use netsim::{splitmix64, Comm, NetConfig, OpKind};

/// Retry/timeout policy of the resilient transport. `Copy` so it can ride
/// inside [`crate::CollectiveConfig`] without breaking its `Copy`-ness.
///
/// Every duration here is **virtual time** — simulated seconds on the
/// cluster's α–β clock, not wall-clock seconds of the host running the
/// simulation. The defaults are sized for the paper fabric's 3 µs
/// injection latency; on a different network derive a matching policy
/// with [`Resilience::for_net`] instead of reusing the absolute numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resilience {
    /// Retransmissions before degrading to an uncompressed reliable resend.
    pub max_retries: u32,
    /// Loss-detection timeout charged (virtual seconds) when a frame never
    /// arrives.
    pub timeout_s: f64,
    /// First-retry backoff (virtual seconds); doubles per retry.
    pub backoff_base_s: f64,
    /// Backoff ceiling (virtual seconds).
    pub backoff_max_s: f64,
    /// Fractional jitter applied to every backoff wait: each retry's wait
    /// is scaled by a deterministic factor in
    /// `[1 - jitter/2, 1 + jitter/2)` hashed from
    /// `(jitter_seed, tag, retry)`, decorrelating the synchronized retry
    /// storms a lossy fabric otherwise produces. `0.0` (the default)
    /// reproduces the historical constant schedule bit-for-bit.
    pub backoff_jitter: f64,
    /// Seed of the jitter hash; runs with equal seeds replay identical
    /// backoff sequences.
    pub jitter_seed: u64,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            max_retries: 4,
            timeout_s: 50e-6,
            backoff_base_s: 5e-6,
            backoff_max_s: 80e-6,
            backoff_jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl Resilience {
    /// A policy whose virtual-time constants are scaled to `net`'s
    /// per-message latency α: the loss-detection timeout and the backoff
    /// window keep the same ratio to α that the defaults have to the paper
    /// fabric's 3 µs. A 30 µs-latency WAN therefore waits 10× longer before
    /// declaring a frame lost, instead of timing out on every in-flight
    /// message; `Resilience::for_net(&NetConfig::default())` is exactly
    /// [`Resilience::default`].
    pub fn for_net(net: &NetConfig) -> Self {
        let scale = (net.latency_s / NetConfig::default().latency_s).max(f64::MIN_POSITIVE);
        let d = Resilience::default();
        Resilience {
            max_retries: d.max_retries,
            timeout_s: d.timeout_s * scale,
            backoff_base_s: d.backoff_base_s * scale,
            backoff_max_s: d.backoff_max_s * scale,
            backoff_jitter: d.backoff_jitter,
            jitter_seed: d.jitter_seed,
        }
    }
    /// Override the retransmission budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Enable seeded backoff jitter: `frac` is the total spread (clamped to
    /// `[0, 1]`, so the wait stays within ±50% of the deterministic
    /// schedule), `seed` makes it reproducible. `frac = 0.0` restores the
    /// exact constant backoffs.
    pub fn with_backoff_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.backoff_jitter = frac.clamp(0.0, 1.0);
        self.jitter_seed = seed;
        self
    }

    fn backoff(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(30);
        (self.backoff_base_s * f64::from(1u32 << exp)).min(self.backoff_max_s)
    }

    /// [`Self::backoff`] scaled by the seeded jitter factor for this
    /// `(tag, retry)`: a pure hash, so every replay of the same seed waits
    /// the same virtual time, yet distinct tags (and thus distinct
    /// contending transfers) desynchronize. Returns [`Self::backoff`]
    /// exactly when jitter is off — the transport tests pin that equality.
    fn backoff_jittered(&self, retry: u32, salt: u64) -> f64 {
        let base = self.backoff(retry);
        if self.backoff_jitter <= 0.0 {
            return base;
        }
        let h = splitmix64(splitmix64(splitmix64(self.jitter_seed) ^ salt) ^ u64::from(retry));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0, 1)
        base * (1.0 + self.backoff_jitter * (unit - 0.5))
    }
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

/// Control frames travel on the data tag with bit 63 set; the collective
/// tag bases (`TAG_RS`…`TAG_SCATTER`, segment stride 4096) never reach it.
pub(crate) fn ctrl_tag(tag: u64) -> u64 {
    tag | 1 << 63
}

/// Why a frame failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
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
    #[allow(dead_code)] // diagnostic field; the strict-alternation protocol needs no seq matching
    seq: u32,
    payload: Vec<u8>,
}

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut b = 0;
        while b < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            b += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
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

fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
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
    Ok(Frame { kind, seq, payload: bytes[HEADER_LEN..].to_vec() })
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

/// The outgoing half of an exchange, carried through the ARQ engine.
struct OutHalf<'a> {
    to: usize,
    payload: Vec<u8>,
    kind: PayloadKind,
    logical_bytes: usize,
    exhausted: Exhausted<'a>,
}

/// What a sender out of retries does — on the reliable channel either way.
enum Exhausted<'a> {
    /// Degrade (`res:degraded-segment`): an [`PayloadKind::Opaque`] payload
    /// is replaced by the raw f32s this produces, a raw one goes as it is.
    Degrade(&'a mut dyn FnMut(&mut Comm) -> Vec<u8>),
    /// Send the same bytes again (`rec:reliable-resend`).
    Resend,
}

/// Why an exchange stopped before delivering its payload. Only survivable
/// schedules ever see one: without survivable mode [`Comm::recv_checked`]
/// panics on a crash notice itself, and nobody else aborts in band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interrupt {
    /// A crash notice for this rank arrived on the awaited channel.
    Dead(usize),
    /// The predecessor sent [`SV_ABORT`] instead of data.
    Aborted,
}

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
/// interrupt reported (the incoming half's first). A message on the data tag
/// too short to be a frame is the in-band [`SV_ABORT`]; it is not ACKed —
/// the aborting sender is no longer listening.
fn engine(
    comm: &mut Comm,
    res: &Resilience,
    tag: u64,
    mut out: Option<OutHalf<'_>>,
    from: Option<usize>,
) -> Result<Option<(Vec<u8>, PayloadKind)>, Interrupt> {
    let ctrl = ctrl_tag(tag);
    let mut attempts: u32 = 0;
    if let Some(o) = &mut out {
        attempts = 1;
        let frame = encode_frame(data_kind_byte(o.kind), attempts, tag, &o.payload);
        comm.send_compressed(o.to, tag, frame, o.logical_bytes);
    }
    let mut incoming = Ok(None);
    let mut out_dead = None;
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
                        comm.advance_labeled(OpKind::Other, res.timeout_s, "res:timeout-wait");
                        comm.mark("res:timeout");
                        None
                    } else {
                        decode_frame(&got.payload)
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
                    out_dead = Some(Interrupt::Dead(crash.rank));
                    out_done = true;
                    continue;
                }
                Ok(got) => {
                    assert!(!got.dropped, "control frames travel the reliable channel");
                    decode_frame(&got.payload).expect("control frame corrupted on reliable channel")
                }
            };
            if frame.kind == KIND_ACK {
                out_done = true;
            } else if attempts > res.max_retries {
                // out of retries: the reliable channel carries the frame —
                // guaranteed valid, so this NACK was the last
                match &mut o.exhausted {
                    Exhausted::Degrade(fallback) => {
                        comm.mark("res:degraded-segment");
                        if o.kind == PayloadKind::Opaque {
                            o.payload = fallback(comm);
                            o.kind = PayloadKind::RawF32;
                        }
                    }
                    Exhausted::Resend => comm.mark("rec:reliable-resend"),
                }
                attempts += 1;
                let frame = encode_frame(data_kind_byte(o.kind), attempts, tag, &o.payload);
                comm.send_reliable(o.to, tag, frame, 0);
            } else {
                let backoff = res.backoff_jittered(attempts, tag);
                attempts += 1;
                if backoff > 0.0 {
                    comm.advance_labeled(OpKind::Other, backoff, "res:backoff");
                }
                comm.mark("res:retransmit");
                let frame = encode_frame(data_kind_byte(o.kind), attempts, tag, &o.payload);
                // retransmits count as wire bytes but never as logical
                // bytes — the recorder invariant tests/chaos.rs pins
                comm.send_compressed(o.to, tag, frame, 0);
            }
        }
    }
    let received = incoming?;
    out_dead.map_or(Ok(received), Err)
}

/// The edge of the fail-fast wrappers: an interrupt is the crash cascade
/// a plain receive raises.
fn fail_fast(comm: &Comm, interrupt: Interrupt) -> ! {
    match interrupt {
        Interrupt::Dead(rank) => panic!("rank {} observed crash of rank {rank}", comm.rank()),
        Interrupt::Aborted => unreachable!("only survivable schedules abort in band"),
    }
}

/// Framed `sendrecv`: exchange `payload` with the ring neighbours under the
/// ARQ protocol, both directions driven by one engine (unframed rings post
/// the plain [`Comm::send_compressed`] / [`Comm::recv`] pair themselves).
#[allow(clippy::too_many_arguments)] // mirrors Comm::sendrecv_compressed plus the resilience trio
pub(crate) fn sendrecv_resilient(
    comm: &mut Comm,
    res: &Resilience,
    to: usize,
    tag: u64,
    payload: Vec<u8>,
    kind: PayloadKind,
    logical_bytes: usize,
    from: usize,
    mut fallback: impl FnMut(&mut Comm) -> Vec<u8>,
) -> (Vec<u8>, PayloadKind) {
    let out =
        OutHalf { to, payload, kind, logical_bytes, exhausted: Exhausted::Degrade(&mut fallback) };
    engine(comm, res, tag, Some(out), Some(from))
        .unwrap_or_else(|i| fail_fast(comm, i))
        .expect("incoming half yields a payload")
}

/// Resilient one-directional send (gather/scatter hops). With `res == None`
/// this is exactly [`Comm::send_compressed`].
#[allow(clippy::too_many_arguments)] // mirrors Comm::send_compressed plus the resilience trio
pub(crate) fn send_resilient(
    comm: &mut Comm,
    res: Option<&Resilience>,
    to: usize,
    tag: u64,
    payload: Vec<u8>,
    kind: PayloadKind,
    logical_bytes: usize,
    mut fallback: impl FnMut(&mut Comm) -> Vec<u8>,
) {
    match res {
        None => comm.send_compressed(to, tag, payload, logical_bytes),
        Some(res) => {
            let out = OutHalf {
                to,
                payload,
                kind,
                logical_bytes,
                exhausted: Exhausted::Degrade(&mut fallback),
            };
            engine(comm, res, tag, Some(out), None).unwrap_or_else(|i| fail_fast(comm, i));
        }
    }
}

/// Resilient one-directional receive. With `res == None` this is exactly
/// [`Comm::recv`] (the payload is reported [`PayloadKind::Opaque`]: the
/// schedule's native wire format).
pub(crate) fn recv_resilient(
    comm: &mut Comm,
    res: Option<&Resilience>,
    from: usize,
    tag: u64,
) -> (Vec<u8>, PayloadKind) {
    match res {
        None => (comm.recv(from, tag), PayloadKind::Opaque),
        Some(res) => engine(comm, res, tag, None, Some(from))
            .unwrap_or_else(|i| fail_fast(comm, i))
            .expect("incoming half yields a payload"),
    }
}

// ---------------------------------------------------------------------------
// Survivable (checked) transport — the data plane of `crate::survivable`
// ---------------------------------------------------------------------------

/// First payload byte of a survivable message: ordinary schedule data.
pub(crate) const SV_DATA: u8 = 0;
/// First payload byte of a survivable message: in-band abort — the sender
/// is tearing down this attempt and will meet the receiver at the
/// agreement barrier instead of sending the scheduled data.
pub(crate) const SV_ABORT: u8 = 1;

/// Send the one-byte in-band abort to `to` on `tag` — the tag of the data
/// the receiver will next await from this rank, so the abort is consumed at
/// a deterministic point of its schedule. Travels the reliable channel
/// (aborts must not be droppable) and is never ACKed; under resilience it
/// is unambiguous because every ARQ frame is at least [`HEADER_LEN`] bytes.
pub(crate) fn sv_abort(comm: &mut Comm, to: usize, tag: u64) {
    comm.send_reliable(to, tag, vec![SV_ABORT], 0);
}

/// Survivable ring exchange: send `payload` to `to` and receive the
/// counterpart from `from` on the same `tag`, tolerating peer death and
/// in-band aborts: an [`Interrupt`] comes back once both directions have
/// settled (see [`engine`]), and the caller escalates it into the abort
/// ripple (`crate::survivable`).
///
/// Retry exhaustion under recovery resends the *same* bytes on the
/// reliable channel instead of degrading to raw f32: survivable group
/// payloads are multi-segment containers whose wire format the group codec
/// must see unchanged.
pub(crate) fn sv_exchange(
    comm: &mut Comm,
    res: Option<&Resilience>,
    to: usize,
    from: usize,
    tag: u64,
    payload: &[u8],
    logical_bytes: usize,
) -> Result<Vec<u8>, Interrupt> {
    let mut framed = Vec::with_capacity(1 + payload.len());
    framed.push(SV_DATA);
    framed.extend_from_slice(payload);
    let got = match res {
        None => {
            comm.send_compressed(to, tag, framed, logical_bytes);
            let got = comm.recv_checked(from, tag).map_err(|c| Interrupt::Dead(c.rank))?;
            assert!(
                !got.dropped,
                "survivable exchanges need the resilient transport on lossy fabrics"
            );
            got.payload
        }
        Some(res) => {
            let (kind, exhausted) = (PayloadKind::Opaque, Exhausted::Resend);
            let out = OutHalf { to, payload: framed, kind, logical_bytes, exhausted };
            engine(comm, res, tag, Some(out), Some(from))?
                .expect("incoming half yields a payload")
                .0
        }
    };
    match got.first() {
        Some(&SV_ABORT) => Err(Interrupt::Aborted),
        Some(&SV_DATA) => Ok(got[1..].to_vec()),
        _ => unreachable!("survivable payloads always carry a kind prefix"),
    }
}

/// Pack per-segment wire bytes into one survivable group payload
/// (`[u32 LE len][bytes]` per segment, ascending segment id).
pub(crate) fn pack_sections(parts: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = parts.iter().map(|p| 4 + p.len()).sum();
    let mut buf = Vec::with_capacity(total);
    for p in parts {
        buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
        buf.extend_from_slice(p);
    }
    buf
}

/// Split a group payload back into its `count` per-segment sections. Total
/// on arbitrary wire bytes: a short buffer, a length field reaching past the
/// end, or bytes left over after the last section are typed errors.
pub fn split_sections(buf: &[u8], count: usize) -> fzlight::Result<Vec<&[u8]>> {
    let mut out = Vec::with_capacity(count.min(buf.len() / 4));
    let mut rest = buf;
    for _ in 0..count {
        let truncated = |need| fzlight::Error::Truncated { need, have: buf.len() };
        let consumed = buf.len() - rest.len();
        let (len, body) = rest.split_first_chunk::<4>().ok_or(truncated(consumed + 4))?;
        let len = u32::from_le_bytes(*len) as usize;
        if len > body.len() {
            return Err(truncated(consumed.saturating_add(4).saturating_add(len)));
        }
        let (section, tail) = body.split_at(len);
        out.push(section);
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(fzlight::Error::Corrupt("section table"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        let buf = encode_frame(KIND_DATA_OPAQUE, 3, 0xDEAD_BEEF, &payload);
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let frame = decode_frame(&buf).expect("roundtrip");
        assert_eq!(frame.kind, KIND_DATA_OPAQUE);
        assert_eq!(frame.seq, 3);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_frames_work() {
        let buf = encode_frame(KIND_ACK, 1, 42, &[]);
        let frame = decode_frame(&buf).expect("ack frame");
        assert_eq!(frame.kind, KIND_ACK);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let payload: Vec<u8> = (0..64).collect();
        let buf = encode_frame(KIND_DATA_RAW_F32, 9, 7, &payload);
        for bit in 0..buf.len() * 8 {
            let mut mutated = buf.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_frame(&mutated).is_err(), "flip of bit {bit} must not decode as valid");
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        let buf = encode_frame(KIND_DATA_OPAQUE, 1, 1, &[5; 32]);
        for len in 0..buf.len() {
            let err = decode_frame(&buf[..len]).unwrap_err();
            match err {
                FrameError::TooShort { .. } | FrameError::LengthMismatch { .. } => {}
                other => panic!("truncation to {len} gave {other:?}"),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is the classic check value
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926, "chunking must not matter");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let res = Resilience::default();
        assert_eq!(res.backoff(1), 5e-6);
        assert_eq!(res.backoff(2), 10e-6);
        assert_eq!(res.backoff(3), 20e-6);
        assert_eq!(res.backoff(10), 80e-6, "capped at backoff_max_s");
    }

    #[test]
    fn for_net_on_the_paper_fabric_is_exactly_the_default() {
        assert_eq!(Resilience::for_net(&NetConfig::default()), Resilience::default());
    }

    #[test]
    fn jitter_off_reproduces_the_constant_backoff_schedule() {
        // the default (and an explicit zero) must be bit-identical to the
        // historical constants — fault-free traces depend on it
        for res in [Resilience::default(), Resilience::default().with_backoff_jitter(0.0, 1234)] {
            for retry in 1..12 {
                for salt in [0u64, 7, u64::MAX] {
                    assert_eq!(res.backoff_jittered(retry, salt), res.backoff(retry));
                }
            }
        }
    }

    #[test]
    fn jitter_is_seeded_bounded_and_deterministic() {
        let res = Resilience::default().with_backoff_jitter(0.5, 42);
        let twin = Resilience::default().with_backoff_jitter(0.5, 42);
        let other_seed = Resilience::default().with_backoff_jitter(0.5, 43);
        let mut moved = 0;
        for retry in 1..10 {
            for salt in [3u64, 1 << 32, 99] {
                let b = res.backoff(retry);
                let j = res.backoff_jittered(retry, salt);
                assert!(j >= b * 0.75 && j < b * 1.25, "jitter stays within the ±25% band");
                assert_eq!(j, twin.backoff_jittered(retry, salt), "same seed replays exactly");
                if j != b {
                    moved += 1;
                }
                if j != other_seed.backoff_jittered(retry, salt) {
                    moved += 1;
                }
            }
        }
        assert!(moved > 10, "jitter must actually perturb and depend on the seed");
    }

    #[test]
    fn for_net_scales_the_virtual_time_constants_with_alpha() {
        let mut wan = NetConfig::default();
        wan.latency_s *= 10.0;
        let res = Resilience::for_net(&wan);
        let d = Resilience::default();
        assert_eq!(res.max_retries, d.max_retries, "the retry budget is latency-independent");
        assert_eq!(res.timeout_s, d.timeout_s * 10.0);
        assert_eq!(res.backoff_base_s, d.backoff_base_s * 10.0);
        assert_eq!(res.backoff_max_s, d.backoff_max_s * 10.0);
        assert!(res.timeout_s > wan.latency_s, "a frame still in flight must not be declared lost");
    }

    #[test]
    fn ctrl_tag_cannot_collide_with_data_tags() {
        for base in [crate::ring::TAG_RS, crate::ring::TAG_SCATTER] {
            let t = crate::pipeline::seg_tag(base, 63, 4095);
            assert!(t < 1 << 62, "data tags stay far below bit 63");
            assert_ne!(ctrl_tag(t), t);
        }
    }
}
