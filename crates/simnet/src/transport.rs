//! Deterministic reliable transport: CRC32-framed packets, per-stream
//! sequence numbers, receiver-side dedup/reassembly, and ack/retransmit
//! with virtual-time exponential backoff.
//!
//! This is the defender half of the lossy-network contract (the adversary
//! — the seeded fault lottery — lives in [`crate::fault`]). Beneath
//! [`RankCtx::send_bytes`], every message is fragmented into MTU-sized
//! frames, each carrying a CRC32 over header+payload and a per-`(src, dst,
//! tag)` sequence number. The link protocol is then *simulated to
//! completion at send time*: each frame's transmission attempts draw fates
//! from the sender-owned per-link SplitMix64 stream, corrupted copies are
//! literally bit-flipped and rejected by the real [`Frame::decode`] CRC
//! check, duplicates are deduplicated by the real [`Reassembler`], and
//! every failed attempt (data lost, frame corrupted, or ack lost) charges
//! a retransmit timeout with exponential backoff to the sender's virtual
//! clock. Only the fully reassembled payload is deposited into the
//! receiver's mailbox — exactly once — so the mailbox/scheduler layer
//! above stays lossless and both [`SchedMode`]s see identical values.
//!
//! Running the protocol synchronously inside the send is the simulation
//! analogue of an MPI progress engine: the receive side of a real NIC's
//! reliable link layer runs concurrently with the application, and its
//! *observable effect* — in-order, exactly-once delivery, with latency
//! inflated by retransmissions — is reproduced here with the actual
//! receiver-side algorithms, just executed on the sender's thread. Because
//! the fault lottery and all protocol state are owned by the sending rank,
//! the entire fault/retry schedule is a pure function of
//! [`FaultPlan`](crate::fault::FaultPlan) — independent of thread timing
//! and scheduler seed — which is what extends the determinism contract to
//! lossy networks.
//!
//! When the budget of [`FaultPlan::retry_budget`] retransmissions is
//! exhausted the transport escalates a typed
//! [`TransportError::RetryBudgetExhausted`] naming the link, frame
//! sequence number, and retry count. The send path wraps it in a
//! [`FaultEscalation`](crate::recovery::FaultEscalation) panic payload
//! that `Machine::try_run` surfaces as a structured `Err` (and
//! `Machine::run` re-raises with the historical diagnosable message), so
//! the job fail-stops without a hang under either scheduler.
//!
//! [`RankCtx::send_bytes`]: crate::rank::RankCtx::send_bytes
//! [`SchedMode`]: crate::sched::SchedMode

use crate::fault::{FaultPlan, FrameFate, LinkRng, StallSchedule};
use crate::rank::Tag;
use crate::stats::NetStats;
use crate::trace::{TraceBuf, TraceCode, TraceKind};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Frame magic: `b"G500"` little-endian.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"G500");

/// Encoded frame header size in bytes.
pub const HEADER_SIZE: usize = 4 + 4 + 4 + 8 + 8 + 4 + 4;

/// Byte offset of the CRC field inside the header.
const CRC_OFFSET: usize = HEADER_SIZE - 4;

// ---- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ----

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Fold `bytes` into a running CRC32 state (start from
/// [`CRC_INIT`], finish with [`crc_finish`]).
pub fn crc_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Initial CRC32 state.
pub const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Final xor of the CRC32 state.
pub fn crc_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_finish(crc_update(CRC_INIT, bytes))
}

// ---- frames ----

/// One link-layer packet: a fragment of an application message, framed
/// with routing metadata, a per-`(src, dst, tag)` sequence number, and a
/// CRC32 over header+payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sending rank.
    pub src: u32,
    /// Destination rank.
    pub dst: u32,
    /// Application/collective tag of the carried message.
    pub tag: Tag,
    /// Stream sequence number (monotone per `(src, dst, tag)`).
    pub seq: u64,
    /// The carried payload fragment.
    pub payload: Vec<u8>,
}

/// Why a received byte buffer is not a valid frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a header, or shorter than the header's claimed length.
    Truncated,
    /// The magic word does not match.
    BadMagic,
    /// Trailing bytes beyond the header's claimed payload length.
    LengthMismatch,
    /// CRC32 over header+payload does not match the stored checksum.
    CrcMismatch {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum recomputed from the received bytes.
        computed: u32,
    },
}

impl Frame {
    /// Serialize to wire bytes: `magic | src | dst | tag | seq | len | crc
    /// | payload`, CRC32 computed over every byte except the CRC field.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_SIZE + self.payload.len());
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder
        out.extend_from_slice(&self.payload);
        let crc = frame_crc(&out);
        out[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and verify wire bytes. Any burst corruption of ≤ 32
    /// contiguous bits anywhere in the buffer is guaranteed to be caught
    /// (CRC32 burst-error property), surfacing as one of the
    /// [`FrameError`] variants.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < HEADER_SIZE {
            return Err(FrameError::Truncated);
        }
        let rd32 = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
        let rd64 = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        if rd32(0) != FRAME_MAGIC {
            return Err(FrameError::BadMagic);
        }
        let len = rd32(28) as usize;
        match buf.len().checked_sub(HEADER_SIZE) {
            Some(have) if have < len => return Err(FrameError::Truncated),
            Some(have) if have > len => return Err(FrameError::LengthMismatch),
            _ => {}
        }
        let stored = rd32(CRC_OFFSET);
        let computed = frame_crc(buf);
        if stored != computed {
            return Err(FrameError::CrcMismatch { stored, computed });
        }
        Ok(Frame {
            src: rd32(4),
            dst: rd32(8),
            tag: rd64(12),
            seq: rd64(20),
            payload: buf[HEADER_SIZE..].to_vec(),
        })
    }
}

/// CRC32 of an encoded frame buffer, skipping the CRC field itself.
fn frame_crc(buf: &[u8]) -> u32 {
    let state = crc_update(CRC_INIT, &buf[..CRC_OFFSET]);
    let state = crc_update(state, &buf[CRC_OFFSET + 4..]);
    crc_finish(state)
}

/// Flip a seeded burst of 1–32 contiguous bits in `buf` — the fault
/// injector's corruption model, chosen because CRC32 detects *every* burst
/// of at most 32 bits, making corruption detection a guarantee rather
/// than a probability.
pub fn corrupt_burst(buf: &mut [u8], seed: u64) {
    if buf.is_empty() {
        return;
    }
    let total_bits = buf.len() as u64 * 8;
    let start = seed % total_bits;
    let width = 1 + (seed >> 32) % 32;
    for bit in start..(start + width).min(total_bits) {
        buf[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

// ---- receiver-side dedup + in-order reassembly ----

/// What the receiver did with an offered frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// New sequence number: buffered / appended in order.
    Accepted,
    /// Already-seen sequence number: dropped.
    Duplicate,
}

/// Receiver-side state for one message: accepts frames in any order,
/// drops duplicate sequence numbers, and reassembles the payload in
/// sequence order.
#[derive(Debug)]
pub struct Reassembler {
    next_seq: u64,
    data: Vec<u8>,
    out_of_order: BTreeMap<u64, Vec<u8>>,
}

impl Reassembler {
    /// Start reassembling a message whose first frame carries `first_seq`.
    pub fn new(first_seq: u64) -> Self {
        Reassembler {
            next_seq: first_seq,
            data: Vec::new(),
            out_of_order: BTreeMap::new(),
        }
    }

    /// Offer a verified frame; duplicates (by sequence number) are
    /// rejected, fresh frames are merged in order.
    pub fn offer(&mut self, frame: Frame) -> Offer {
        if frame.seq < self.next_seq || self.out_of_order.contains_key(&frame.seq) {
            return Offer::Duplicate;
        }
        self.out_of_order.insert(frame.seq, frame.payload);
        while let Some(chunk) = self.out_of_order.remove(&self.next_seq) {
            self.data.extend_from_slice(&chunk);
            self.next_seq += 1;
        }
        Offer::Accepted
    }

    /// True once every sequence number below `end_seq` has been merged.
    pub fn is_complete(&self, end_seq: u64) -> bool {
        self.next_seq >= end_seq && self.out_of_order.is_empty()
    }

    /// The reassembled payload (call once complete).
    pub fn into_payload(self) -> Vec<u8> {
        debug_assert!(self.out_of_order.is_empty(), "incomplete reassembly");
        self.data
    }
}

// ---- structured failure ----

/// A structured, diagnosable transport failure. Escalated as a
/// [`FaultEscalation`](crate::recovery::FaultEscalation) through
/// `Machine::try_run`; `Machine::run` re-raises it as a job-abort panic
/// whose message embeds the `Display` text (what `should_panic` tests and
/// operators see).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// A frame could not be delivered within the retry budget.
    RetryBudgetExhausted {
        /// Sending rank of the doomed frame.
        src: usize,
        /// Destination rank of the doomed frame.
        dst: usize,
        /// Message tag of the stream.
        tag: Tag,
        /// Sequence number of the frame that kept failing.
        seq: u64,
        /// Retransmissions attempted before giving up.
        retries: u32,
    },
    /// A received payload does not decode as the receiver's record type —
    /// mismatched send/recv types or a truncated/garbage payload — or, in a
    /// collective, decodes to a record count its schedule cannot have sent.
    Decode {
        /// Source rank of the undecodable message.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload length in bytes.
        len: usize,
        /// The receiver's record size in bytes.
        elem_size: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::RetryBudgetExhausted {
                src,
                dst,
                tag,
                seq,
                retries,
            } => write!(
                f,
                "transport error: retry budget exhausted on link {src} -> {dst} \
                 (tag {tag:#x}, frame seq {seq}) after {retries} retransmission(s)"
            ),
            TransportError::Decode {
                src,
                dst,
                tag,
                len,
                elem_size,
            } => write!(
                f,
                "transport error: payload from rank {src} to rank {dst} on tag {tag:#x} \
                 does not decode as the receiver's record type \
                 ({len} bytes against {elem_size}-byte records: not a whole number \
                 of them, or not the number expected)"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// Mutable per-send context threaded through [`SenderTransport::deliver`]:
/// the sender's virtual clock, its counters, and (when tracing) its trace
/// buffer. Bundled so the protocol loop can stamp timeout/retransmit events
/// at the exact virtual times the counters change.
pub(crate) struct TransportIo<'a> {
    /// The sending rank's virtual clock.
    pub now: &'a mut f64,
    /// The sending rank's traffic counters.
    pub stats: &'a mut NetStats,
    /// The sending rank's trace buffer, when tracing is on.
    pub trace: Option<&'a mut TraceBuf>,
}

// ---- the sender-side reliable channel ----

/// Per-rank reliable-transport state: one fault-lottery stream per
/// outgoing link, per-`(dst, tag)` sequence counters, and the rank's
/// seeded stall schedule. Created only when the machine's
/// [`FaultPlan`] is active.
pub(crate) struct SenderTransport {
    plan: FaultPlan,
    rank: usize,
    links: Vec<LinkRng>,
    seqs: HashMap<(usize, Tag), u64>,
    stalls: StallSchedule,
}

impl SenderTransport {
    pub(crate) fn new(plan: FaultPlan, rank: usize, size: usize) -> Self {
        SenderTransport {
            plan,
            rank,
            links: (0..size)
                .map(|dst| LinkRng::for_link(plan.seed, rank, dst))
                .collect(),
            seqs: HashMap::new(),
            stalls: StallSchedule::for_rank(&plan, rank),
        }
    }

    /// Account one application message against the stall schedule;
    /// returns newly-triggered stall seconds and window count, if any.
    pub(crate) fn on_send(&mut self) -> Option<(f64, u64)> {
        self.stalls.on_send()
    }

    /// Run the reliable link protocol for one message to completion and
    /// return the virtual arrival time of the fully reassembled payload at
    /// the receiver. Advances `*io.now` past every retransmit timeout
    /// (exponential backoff), accumulates fault counters into `io.stats`,
    /// and (when tracing) records a timeout/retransmit event per counter
    /// bump. `transit(frame_bytes)` prices one frame's flight.
    ///
    /// Returns a typed [`TransportError::RetryBudgetExhausted`] once any
    /// single frame fails `retry_budget + 1` attempts; the caller decides
    /// how to escalate (the rank send path raises it as a
    /// [`FaultEscalation`](crate::recovery::FaultEscalation) panic payload).
    pub(crate) fn deliver(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: &[u8],
        io: &mut TransportIo<'_>,
        transit: impl Fn(usize) -> f64,
    ) -> Result<f64, TransportError> {
        let now = &mut *io.now;
        let stats = &mut *io.stats;
        let mut trace = io.trace.as_deref_mut();
        let plan = self.plan;
        let src = self.rank;
        let start_seq = *self.seqs.entry((dst, tag)).or_insert(0);
        let nframes = payload.len().div_ceil(plan.mtu).max(1) as u64;
        let mut reasm = Reassembler::new(start_seq);
        let mut arrive_msg = f64::NEG_INFINITY;

        for i in 0..nframes {
            let lo = (i as usize) * plan.mtu;
            let hi = (lo + plan.mtu).min(payload.len());
            let frame = Frame {
                src: src as u32,
                dst: dst as u32,
                tag,
                seq: start_seq + i,
                payload: payload[lo..hi].to_vec(),
            };
            let encoded = frame.encode();
            let mut rto = plan.rto_s;
            let mut attempt = 0u32;
            loop {
                let fate = FrameFate::draw(&mut self.links[dst], &plan);
                attempt += 1;
                let mut acked = false;
                if !fate.drop {
                    let wire_bytes = if fate.corrupt {
                        let mut c = encoded.clone();
                        corrupt_burst(&mut c, fate.corrupt_seed);
                        c
                    } else {
                        encoded.clone()
                    };
                    match Frame::decode(&wire_bytes) {
                        Err(_) => {
                            // the receiver's CRC check rejects the frame
                            // silently (no ack) — indistinguishable from a
                            // drop to the sender, so the RTO fires below
                            stats.corrupt_frames += 1;
                        }
                        Ok(f) => {
                            let mut arr = *now + transit(encoded.len());
                            match reasm.offer(f) {
                                Offer::Accepted => {
                                    if fate.reorder {
                                        // delayed past its successors; the
                                        // reassembler masks the order, the
                                        // clock pays the delay
                                        arr += plan.rto_s / 2.0;
                                        stats.reordered_frames += 1;
                                    }
                                    arrive_msg = arrive_msg.max(arr);
                                }
                                Offer::Duplicate => stats.dup_frames_dropped += 1,
                            }
                            if fate.duplicate {
                                // the network delivers a second clean copy;
                                // the receiver's seqno dedup discards it
                                let copy = Frame::decode(&encoded).expect("clean copy decodes");
                                if reasm.offer(copy) == Offer::Duplicate {
                                    stats.dup_frames_dropped += 1;
                                }
                            }
                            acked = !fate.ack_drop;
                        }
                    }
                }
                if acked {
                    break;
                }
                // data lost, frame corrupted, or ack lost: the retransmit
                // timer fires in virtual time
                stats.timeouts += 1;
                if let Some(tb) = trace.as_deref_mut() {
                    tb.record(
                        *now,
                        TraceKind::Count,
                        TraceCode::Timeout,
                        start_seq + i,
                        attempt as u64,
                    );
                }
                if attempt > plan.retry_budget {
                    return Err(TransportError::RetryBudgetExhausted {
                        src,
                        dst,
                        tag,
                        seq: start_seq + i,
                        retries: attempt - 1,
                    });
                }
                stats.retransmits += 1;
                *now += rto;
                stats.comm_s += rto;
                if let Some(tb) = trace.as_deref_mut() {
                    tb.record(
                        *now,
                        TraceKind::Count,
                        TraceCode::Retransmit,
                        start_seq + i,
                        attempt as u64,
                    );
                }
                rto *= plan.backoff;
            }
        }

        debug_assert!(reasm.is_complete(start_seq + nframes));
        let reassembled = reasm.into_payload();
        debug_assert_eq!(
            reassembled, payload,
            "reliable transport must reproduce the payload exactly"
        );
        self.seqs.insert((dst, tag), start_seq + nframes);
        // arrival can never precede the send completing
        Ok(arrive_msg.max(*now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, payload: &[u8]) -> Frame {
        Frame {
            src: 1,
            dst: 2,
            tag: 0x77,
            seq,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // the classic check value for CRC-32/ISO-HDLC
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let f = frame(42, b"hello lossy world");
        let enc = f.encode();
        assert_eq!(enc.len(), HEADER_SIZE + 17);
        assert_eq!(Frame::decode(&enc), Ok(f));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = frame(0, b"");
        assert_eq!(Frame::decode(&f.encode()), Ok(f));
    }

    #[test]
    fn truncated_frame_rejected() {
        let enc = frame(1, b"abcdef").encode();
        assert_eq!(Frame::decode(&enc[..10]), Err(FrameError::Truncated));
        assert_eq!(
            Frame::decode(&enc[..enc.len() - 1]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = frame(1, b"abcdef").encode();
        enc.push(0);
        assert_eq!(Frame::decode(&enc), Err(FrameError::LengthMismatch));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = frame(1, b"abcdef").encode();
        enc[0] ^= 0xFF;
        assert_eq!(Frame::decode(&enc), Err(FrameError::BadMagic));
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let enc = frame(7, b"the quick brown fox").encode();
        for bit in 0..enc.len() * 8 {
            let mut bad = enc.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Frame::decode(&bad).is_err(),
                "undetected single-bit flip at bit {bit}"
            );
        }
    }

    #[test]
    fn reassembler_handles_reorder_and_dups() {
        let mut r = Reassembler::new(10);
        assert_eq!(r.offer(frame(12, b"cc")), Offer::Accepted);
        assert_eq!(r.offer(frame(10, b"aa")), Offer::Accepted);
        assert_eq!(r.offer(frame(10, b"aa")), Offer::Duplicate);
        assert_eq!(r.offer(frame(12, b"cc")), Offer::Duplicate);
        assert_eq!(r.offer(frame(11, b"bb")), Offer::Accepted);
        assert!(r.is_complete(13));
        assert_eq!(r.into_payload(), b"aabbcc");
    }

    #[test]
    fn reassembler_rejects_already_merged_seq() {
        let mut r = Reassembler::new(0);
        assert_eq!(r.offer(frame(0, b"x")), Offer::Accepted);
        assert_eq!(r.offer(frame(0, b"x")), Offer::Duplicate);
        assert!(!r.is_complete(2));
    }

    #[test]
    fn transport_error_display_names_the_link() {
        let e = TransportError::RetryBudgetExhausted {
            src: 3,
            dst: 5,
            tag: 0x42,
            seq: 17,
            retries: 16,
        };
        let s = e.to_string();
        assert!(s.contains("link 3 -> 5"), "{s}");
        assert!(s.contains("seq 17"), "{s}");
        assert!(s.contains("16 retransmission"), "{s}");
        let d = TransportError::Decode {
            src: 1,
            dst: 0,
            tag: 9,
            len: 7,
            elem_size: 8,
        };
        assert!(d.to_string().contains("does not decode"));
    }
}
