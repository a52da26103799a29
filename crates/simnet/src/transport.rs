//! Deterministic reliable transport: per-stream sequence numbers and
//! selective-repeat ack/retransmit with virtual-time exponential backoff,
//! run on the fates the link's lottery draws.
//!
//! This is the defender half of the lossy-network contract (the adversary
//! — the seeded fault lottery — lives in [`crate::fault`]). Beneath
//! [`RankCtx::send_bytes`], every message is cut into MTU-sized frames,
//! each carrying a per-`(src, dst, tag)` sequence number and priced as
//! [`FRAME_HEADER_BYTES`] plus its share of the payload. The link protocol
//! is *simulated to completion at send time*: each transmission attempt of
//! a frame draws a [`FrameFate`] from the sender-owned per-link SplitMix64
//! stream, and the fate alone decides what the receiver does with it:
//!
//! - a dropped frame never arrives;
//! - a corrupted frame fails the receiver's frame check and is not acked;
//! - the first clean copy is held (a reordered one arrives half an RTO
//!   late); every later clean copy — a network duplicate, or the
//!   retransmit of a frame whose ack was lost — is dropped by sequence
//!   number;
//! - the ack of a clean copy gets back unless the lottery loses it.
//!
//! The link runs selective repeat: every frame has its own retransmit
//! timer, started when the send is posted. An attempt that is not acked
//! lets that frame's timer run out, which moves the frame's next attempt
//! one timeout later, the timeout doubling (exponential backoff) each
//! time; the frame arrives a flight after its first clean copy left. The
//! timers never touch the sender's virtual clock: the sender pays the LogGP
//! overhead `o` once per retransmission (it re-posts the frame) and goes
//! on, so a loss delays that message alone, not the rank's later sends on
//! other links or streams. The payload never enters the protocol: the
//! frames the receiver holds are, in sequence order, exactly the message,
//! so the send deposits the payload into the receiver's mailbox once,
//! stamped with the arrival of its latest frame, and the mailbox/scheduler
//! layer above stays lossless with both [`SchedMode`]s seeing identical
//! values. A later message on the same stream may so arrive earlier in
//! virtual time than one posted before it; the mailbox matches each
//! `(src, tag)` stream in send order, so the stream is still consumed in
//! order.
//!
//! Running the protocol synchronously inside the send is the simulation
//! analogue of an MPI progress engine: the receive side of a real NIC's
//! reliable link layer runs concurrently with the application, and its
//! *observable effect* — in-order, exactly-once delivery, with the latency
//! of a lost frame's message inflated by its retransmissions — is
//! reproduced here on the sender's thread. Because the fault lottery and
//! all protocol state are owned by the sending rank, the entire
//! fault/retry schedule is a pure function of
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
use std::collections::HashMap;
use std::fmt;

/// Bytes one frame's header adds to its flight: magic, source,
/// destination, tag, sequence number, payload length and a CRC32
/// (4 + 4 + 4 + 8 + 8 + 4 + 4).
pub const FRAME_HEADER_BYTES: usize = 36;

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
/// on the sender's clock as the counters change.
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

    /// Run the reliable link protocol for one message of `len` bytes to
    /// completion and return the virtual time the receiver holds all of its
    /// frames. Selective repeat: every frame runs its own retransmit timer
    /// from the send's post time `*io.now`, so a frame whose first clean
    /// copy follows `k` failed attempts sends it `(2^k − 1)·rto` after the
    /// post (with the default doubling), and the message arrives with its
    /// latest frame. The sender only re-posts: `*io.now` and
    /// `comm_s` advance by `overhead` per retransmission and never by a
    /// timer. Fault counters accumulate into `io.stats`, and (when tracing)
    /// a timeout/retransmit event is stamped on the sender's clock per
    /// counter bump. `transit(frame_bytes)` prices one frame's flight.
    ///
    /// Returns a typed [`TransportError::RetryBudgetExhausted`] once any
    /// single frame fails `retry_budget + 1` attempts; the caller decides
    /// how to escalate (the rank send path raises it as a
    /// [`FaultEscalation`](crate::recovery::FaultEscalation) unwind payload).
    pub(crate) fn deliver(
        &mut self,
        dst: usize,
        tag: Tag,
        len: usize,
        io: &mut TransportIo<'_>,
        overhead: f64,
        transit: impl Fn(usize) -> f64,
    ) -> Result<f64, TransportError> {
        let now = &mut *io.now;
        let stats = &mut *io.stats;
        let mut trace = io.trace.as_deref_mut();
        let plan = self.plan;
        let src = self.rank;
        let start_seq = *self.seqs.entry((dst, tag)).or_insert(0);
        let nframes = len.div_ceil(plan.mtu).max(1) as u64;
        let post = *now;
        let mut arrive_msg = f64::NEG_INFINITY;

        for i in 0..nframes {
            let frame_bytes = FRAME_HEADER_BYTES + (len - i as usize * plan.mtu).min(plan.mtu);
            let mut rto = plan.rto_s;
            let mut attempt = 0u32;
            // the frame's own clock: when its current attempt leaves
            let mut sent = post;
            // the receiver holds the frame from its first clean copy on
            let mut held = false;
            loop {
                let fate = FrameFate::draw(&mut self.links[dst], &plan);
                attempt += 1;
                match (fate.drop, fate.corrupt) {
                    // lost in flight: nothing arrives
                    (true, _) => {}
                    // the receiver's frame check rejects it silently (no
                    // ack), which to the sender is a drop
                    (false, true) => stats.corrupt_frames += 1,
                    (false, false) => {
                        if held {
                            // a retransmit after a lost ack: dropped by seq
                            stats.dup_frames_dropped += 1;
                        } else {
                            held = true;
                            let mut arr = sent + transit(frame_bytes);
                            if fate.reorder {
                                // delayed past its successors; sequence
                                // order masks it, the clock pays the delay
                                arr += plan.rto_s / 2.0;
                                stats.reordered_frames += 1;
                            }
                            arrive_msg = arrive_msg.max(arr);
                        }
                        if fate.duplicate {
                            // the network delivers a second clean copy,
                            // which the receiver drops by seq
                            stats.dup_frames_dropped += 1;
                        }
                        if !fate.ack_drop {
                            break;
                        }
                    }
                }
                // data lost, frame corrupted, or ack lost: the frame's
                // retransmit timer fires on the frame's clock
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
                sent += rto;
                rto *= plan.backoff;
                // the sender pays the re-post, not the wait
                *now += overhead;
                stats.comm_s += overhead;
                if let Some(tb) = trace.as_deref_mut() {
                    tb.record(
                        *now,
                        TraceKind::Count,
                        TraceCode::Retransmit,
                        start_seq + i,
                        attempt as u64,
                    );
                }
            }
        }

        self.seqs.insert((dst, tag), start_seq + nframes);
        Ok(arrive_msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MTU: usize = 4096;

    /// The sender's cost of posting one retransmission (a power of two,
    /// so sums of it are exact).
    const OVERHEAD: f64 = 0.25;

    /// Send one `len`-byte message on `t` from rank 0 to rank 1, tag 7,
    /// posted at virtual time 0, over a flight of one second plus a
    /// nanosecond a byte. Returns the arrival, the counters and the clock.
    fn send(
        t: &mut SenderTransport,
        tag: Tag,
        len: usize,
    ) -> (Result<f64, TransportError>, NetStats, f64) {
        let (mut now, mut stats) = (0.0, NetStats::default());
        let mut io = TransportIo {
            now: &mut now,
            stats: &mut stats,
            trace: None,
        };
        let arrive = t.deliver(1, tag, len, &mut io, OVERHEAD, |bytes| {
            1.0 + bytes as f64 * 1e-9
        });
        (arrive, stats, now)
    }

    fn link(plan: FaultPlan) -> SenderTransport {
        assert_eq!(plan.mtu, MTU);
        SenderTransport::new(plan, 0, 2)
    }

    /// The flight of a frame carrying `body` payload bytes.
    fn flight(body: usize) -> f64 {
        1.0 + (FRAME_HEADER_BYTES + body) as f64 * 1e-9
    }

    /// Failed attempts before the first clean copy of the next frame `t`
    /// sends to rank 1, read off a copy of that link's lottery.
    fn failures_before_clean(t: &SenderTransport) -> i32 {
        let mut rng = t.links[1].clone();
        let mut k = 0;
        loop {
            let fate = FrameFate::draw(&mut rng, &t.plan);
            if !fate.drop && !fate.corrupt {
                return k;
            }
            k += 1;
        }
    }

    /// A power-of-two base timeout: the doubled timers then sum exactly.
    fn exact_rto(plan: FaultPlan) -> FaultPlan {
        FaultPlan {
            rto_s: 1.0 / 1024.0,
            ..plan
        }
    }

    #[test]
    fn a_clean_link_prices_the_largest_frame_once() {
        let (arrive, stats, now) = send(&mut link(FaultPlan::none()), 7, 2 * MTU + 100);
        assert_eq!(arrive, Ok(flight(MTU)));
        assert_eq!((stats, now), (NetStats::default(), 0.0));
    }

    #[test]
    fn an_empty_message_is_one_header_frame() {
        let (arrive, _, _) = send(&mut link(FaultPlan::none()), 7, 0);
        assert_eq!(arrive, Ok(flight(0)));
    }

    #[test]
    fn duplicate_and_reordered_copies_are_masked() {
        // three frames, each delivered twice and behind its successor: the
        // second copies are dropped by seq, the delay is paid in time only
        let plan = FaultPlan::none().with_duplicate(1.0).with_reorder(1.0);
        let (arrive, stats, now) = send(&mut link(plan), 7, 2 * MTU + 100);
        assert_eq!(arrive, Ok(flight(MTU) + plan.rto_s / 2.0));
        assert_eq!(now, 0.0, "every first copy is acked");
        assert_eq!((stats.dup_frames_dropped, stats.reordered_frames), (3, 3));
        assert_eq!((stats.timeouts, stats.retransmits), (0, 0));
    }

    #[test]
    fn corrupt_frames_are_rejected_until_the_budget_runs_out() {
        let plan = FaultPlan::none().with_corrupt(1.0).with_retry_budget(3);
        let (arrive, stats, now) = send(&mut link(plan), 7, 10);
        let retries = match arrive {
            Err(TransportError::RetryBudgetExhausted {
                seq: 0, retries, ..
            }) => retries,
            other => panic!("a frame corrupted on every attempt got through: {other:?}"),
        };
        assert_eq!(retries, 3);
        assert_eq!(
            (stats.corrupt_frames, stats.timeouts, stats.retransmits),
            (4, 4, 3)
        );
        assert_eq!(
            now,
            3.0 * OVERHEAD,
            "the sender pays each re-post, no timer"
        );
        assert_eq!(stats.comm_s, now);
        assert_eq!(stats.dup_frames_dropped, 0, "nothing reached the receiver");
    }

    #[test]
    fn a_frame_through_after_k_failures_waited_out_doubling_timers() {
        // a frame whose first clean copy is its (k+1)-th attempt left
        // rto + 2·rto + … + 2^(k-1)·rto after the post
        let plan =
            exact_rto(FaultPlan::none().with_seed(5).with_corrupt(0.6)).with_retry_budget(64);
        let mut t = link(plan);
        let mut deepest = 0;
        for _ in 0..64 {
            let k = failures_before_clean(&t);
            let (arrive, stats, now) = send(&mut t, 7, 10);
            let timers = (2f64.powi(k) - 1.0) * plan.rto_s;
            assert_eq!(arrive, Ok(timers + flight(10)), "k = {k}");
            assert_eq!(stats.retransmits, k as u64, "no ack is lost");
            assert_eq!(now, stats.retransmits as f64 * OVERHEAD);
            deepest = deepest.max(k);
        }
        assert!(deepest >= 3, "no frame failed three times in a row");
    }

    #[test]
    fn a_retransmit_after_a_lost_ack_is_dropped_by_seq() {
        // no network duplicates: every dropped copy is a retransmit of a
        // frame the receiver already holds, and each costs a timeout
        let plan = exact_rto(
            FaultPlan::none()
                .with_seed(11)
                .with_drop(0.4)
                .with_retry_budget(64),
        );
        let mut t = link(plan);
        let mut total = NetStats::default();
        for _ in 0..64 {
            let k = failures_before_clean(&t);
            let (arrive, stats, now) = send(&mut t, 7, MTU);
            // priced from the first clean copy's departure (the timers
            // before it), never from a later copy's
            let timers = (2f64.powi(k) - 1.0) * plan.rto_s;
            assert_eq!(arrive, Ok(timers + flight(MTU)), "k = {k}");
            assert_eq!(now, stats.retransmits as f64 * OVERHEAD);
            total.merge(&stats);
        }
        assert!(total.dup_frames_dropped > 0, "{total:?}");
        assert!(total.dup_frames_dropped < total.timeouts, "{total:?}");
        assert_eq!(total.timeouts, total.retransmits);
    }

    #[test]
    fn a_loss_on_one_link_does_not_delay_the_others() {
        // rank 0 sends one frame each to ranks 1, 2 and 3: the seed loses
        // the first attempt on 0 -> 1 and lets 0 -> 2 and 0 -> 3 through
        // clean, against a seed that lets all three through clean
        use crate::{LogGP, Machine, MachineConfig};
        let clean_first = |plan: &FaultPlan, dst: usize| {
            let f = FrameFate::draw(&mut LinkRng::for_link(plan.seed, 0, dst), plan);
            !(f.drop || f.corrupt || f.duplicate || f.reorder || f.ack_drop)
        };
        let seed_where = |lossy_to_1: bool| {
            (0..)
                .map(|seed| FaultPlan::none().with_seed(seed).with_drop(0.3))
                .find(|p| clean_first(p, 1) != lossy_to_1 && clean_first(p, 2) && clean_first(p, 3))
                .expect("some seed")
        };
        let (lossy, clean) = (seed_where(true), seed_where(false));
        let clocks = |plan: FaultPlan, loggp: LogGP| {
            let out =
                Machine::new(MachineConfig::with_ranks(4).loggp(loggp).faults(plan)).run(|ctx| {
                    if ctx.rank() == 0 {
                        for dst in 1..4 {
                            ctx.send_bytes(dst, 5, vec![7; 8]);
                        }
                    } else {
                        ctx.recv_bytes(0, 5);
                    }
                    ctx.now()
                });
            (out.results, out.stats[0].retransmits)
        };
        // with a free re-post, ranks 2 and 3 cannot tell the runs apart
        let free = LogGP {
            overhead: 0.0,
            ..LogGP::default()
        };
        let ((l, retransmits), (c, 0)) = (clocks(lossy, free), clocks(clean, free)) else {
            panic!("the clean seed retransmitted");
        };
        assert!(retransmits > 0);
        assert!(l[1] >= c[1] + lossy.rto_s, "0 -> 1 waits out its timer");
        assert_eq!((l[2], l[3]), (c[2], c[3]));
        // otherwise they are later by the re-posts alone, not by a timer
        let o = LogGP::default().overhead;
        let ((l, retransmits), (c, _)) = (
            clocks(lossy, LogGP::default()),
            clocks(clean, LogGP::default()),
        );
        for dst in [2, 3] {
            let shift = l[dst] - c[dst];
            assert!(
                (shift - retransmits as f64 * o).abs() < 1e-15,
                "rank {dst} is {shift} s late"
            );
        }
    }

    #[test]
    fn sequence_numbers_run_on_per_stream() {
        let mut t = link(FaultPlan::none());
        send(&mut t, 7, 2 * MTU + 100).0.expect("clean");
        t.plan = FaultPlan::lossy(1, 1.0, 0.0, 0.0).with_retry_budget(0);
        let seq_of = |r: Result<f64, TransportError>| match r {
            Err(TransportError::RetryBudgetExhausted { seq, .. }) => seq,
            other => panic!("a 100% drop rate got through: {other:?}"),
        };
        assert_eq!(seq_of(send(&mut t, 7, 1).0), 3, "tag 7 sent frames 0..3");
        assert_eq!(seq_of(send(&mut t, 8, 1).0), 0, "tag 8 is its own stream");
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
