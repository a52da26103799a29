//! Per-rank execution context: virtual clock, counters, point-to-point
//! messaging.
//!
//! A [`RankCtx`] is handed to the SPMD closure for each rank. It owns the
//! rank's identity, virtual clock and traffic counters, and shares the
//! job's one mailbox table ([`crate::sched`]) with every other rank, under
//! either [`SchedMode`]. Message *matching* follows MPI: a receive names
//! `(source, tag)` and non-matching envelopes wait in the mailbox — this is
//! what keeps back-to-back collectives from stealing each other's traffic
//! even when ranks run arbitrarily skewed.
//!
//! [`SchedMode`]: crate::sched::SchedMode

use crate::collectives::{worst_hops, Grid};
use crate::cost::{ComputeModel, LogGP, Topology};
use crate::fault::CrashPlan;
use crate::machine::MachineConfig;
use crate::recovery::{CrashState, FaultEscalation};
use crate::sched::{splitmix64, SchedCore};
use crate::stats::NetStats;
use crate::trace::{TraceBuf, TraceCode, TraceKind};
use crate::transport::{SenderTransport, TransportIo};
use crate::wire::{encode_slice, Wire};
use std::sync::Arc;

/// Message tag. Application tags must be `< TAG_COLLECTIVE_BASE`.
pub type Tag = u64;

/// Tags at or above this value are reserved for internal collectives.
pub const TAG_COLLECTIVE_BASE: Tag = 1 << 48;

#[derive(Debug)]
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    /// Virtual time at which the payload is available at the receiver.
    pub arrive: f64,
    /// Global deposit sequence number, stamped by the mailbox table under
    /// either scheduler. A receive takes the lowest one of its `(src, tag)`
    /// stream, and orphan diagnostics name the message by it.
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Which accounting bucket a send belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrafficClass {
    User,
    Collective,
}

/// What [`RankCtx::into_parts`] hands back to the machine: counters, final
/// clock, and the trace buffer when tracing was on.
pub(crate) type RankParts = (NetStats, f64, Option<Box<TraceBuf>>);

/// The per-rank handle: identity, clock, mailboxes, counters.
pub struct RankCtx {
    rank: usize,
    size: usize,
    core: Arc<SchedCore>,
    now: f64,
    loggp: LogGP,
    topo: Topology,
    compute: ComputeModel,
    stats: NetStats,
    pub(crate) coll_seq: u64,
    subcomm_counter: u64,
    /// This rank's place in the two-hop exchange grid (`collectives.rs`,
    /// "Routes"); `None` when the rank count has none.
    pub(crate) grid: Option<Box<Grid>>,
    /// Worst hop count of a direct message, for pricing the routes.
    pub(crate) direct_hops: u32,
    /// Tag of the last message received, for
    /// [`decode_failure`](RankCtx::decode_failure).
    pub(crate) last_recv_tag: Tag,
    /// SplitMix64 stream behind [`RankCtx::delivery_order`]; zero means
    /// "identity orders" (threaded mode, or deterministic seed 0).
    perm_state: u64,
    /// Reliable-transport state; `Some` only when the machine's
    /// [`FaultPlan`](crate::fault::FaultPlan) is active, so a fault-free
    /// machine pays zero overhead and keeps the historical lossless byte
    /// accounting bit-for-bit.
    reliable: Option<Box<SenderTransport>>,
    /// Crash-fault state (every rank's lottery, restore budget, recovery
    /// tag space); `Some` only when the machine's [`CrashPlan`] is active.
    /// It lives here rather than in [`crate::recovery::Recovery`] because
    /// it must outlive individual kernel runs: the lotteries' draw streams
    /// and the job-wide restore budget are monotone across every kernel a
    /// rank executes.
    crash: Option<Box<CrashState>>,
    /// Trace buffer; `Some` only when the machine's
    /// [`TraceConfig`](crate::trace::TraceConfig) is enabled, so an
    /// untraced run pays a `None` branch per instrumentation site and
    /// nothing else.
    trace: Option<Box<TraceBuf>>,
}

impl RankCtx {
    pub(crate) fn new(rank: usize, size: usize, core: Arc<SchedCore>, cfg: &MachineConfig) -> Self {
        let perm_state = match core.fuzz_seed() {
            0 => 0,
            seed => splitmix64(seed ^ (rank as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        };
        Self {
            rank,
            size,
            core,
            now: 0.0,
            loggp: cfg.loggp,
            topo: cfg.topology,
            compute: cfg.compute,
            stats: NetStats::default(),
            coll_seq: 0,
            subcomm_counter: 0,
            grid: Grid::new(rank, size, &cfg.topology),
            direct_hops: worst_hops(&cfg.topology, 1..size),
            last_recv_tag: 0,
            perm_state,
            reliable: cfg
                .fault
                .is_active()
                .then(|| Box::new(SenderTransport::new(cfg.fault, rank, size))),
            crash: cfg
                .crash
                .is_active()
                .then(|| Box::new(CrashState::new(cfg.crash, size))),
            trace: cfg.trace.enabled.then(|| Box::new(TraceBuf::new(rank))),
        }
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank's virtual clock, in simulated seconds since launch.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// A permutation of `0..n` that algorithms apply to any *semantically
    /// order-free* loop over per-peer data (e.g. merging the blocks of an
    /// all-to-all). Identity in threaded mode and for deterministic seed 0;
    /// a seeded Fisher–Yates shuffle otherwise. This is the schedule
    /// fuzzer's lever: a correct algorithm must produce identical results
    /// for every permutation, because message delivery order between ranks
    /// is never guaranteed.
    pub fn delivery_order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        if self.perm_state != 0 && n > 1 {
            for i in (1..n).rev() {
                self.perm_state = splitmix64(self.perm_state);
                let j = (self.perm_state % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        order
    }

    /// Snapshot of the traffic counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// True when this run records trace events. Instrumentation sites that
    /// need to *compute* an event payload (e.g. snapshot counters) can gate
    /// on this to stay zero-cost when tracing is off.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Open a span of `code` at the current virtual time.
    #[inline]
    pub fn trace_begin(&mut self, code: TraceCode, a: u64, b: u64) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.record(self.now, TraceKind::Begin, code, a, b);
        }
    }

    /// Close the innermost open span of `code` at the current virtual time.
    #[inline]
    pub fn trace_end(&mut self, code: TraceCode, a: u64, b: u64) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.record(self.now, TraceKind::End, code, a, b);
        }
    }

    /// Record a counter sample of `code` at the current virtual time.
    #[inline]
    pub fn trace_count(&mut self, code: TraceCode, a: u64, b: u64) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.record(self.now, TraceKind::Count, code, a, b);
        }
    }

    /// Record an `f64`-valued counter sample (value carried as f64 bits).
    #[inline]
    pub fn trace_count_f64(&mut self, code: TraceCode, x: f64, b: u64) {
        if let Some(tb) = self.trace.as_deref_mut() {
            tb.record(self.now, TraceKind::Count, code, x.to_bits(), b);
        }
    }

    /// Tear down: mark the rank done in the scheduler and return counters,
    /// final clock, and the trace buffer when tracing was on. The mailbox
    /// table keeps what nobody received, for the machine's orphan check.
    pub(crate) fn into_parts(self) -> RankParts {
        self.core.finish(self.rank, self.now);
        (self.stats, self.now, self.trace)
    }

    pub(crate) fn bump_collective(&mut self) {
        self.stats.collectives += 1;
    }

    pub(crate) fn bump_barrier(&mut self) {
        self.stats.barriers += 1;
    }

    /// Allocate the next sub-communicator namespace id. SPMD programs call
    /// `split` in the same order everywhere, so ids agree globally.
    pub(crate) fn next_subcomm_id(&mut self) -> u64 {
        let id = self.subcomm_counter;
        self.subcomm_counter += 1;
        id
    }

    /// Charge `ops` abstract compute operations (edge relaxations, vertex
    /// scans) against the virtual clock.
    pub fn charge_compute(&mut self, ops: u64) {
        let dt = self.compute.seconds(ops);
        self.now += dt;
        self.stats.compute_s += dt;
    }

    /// The machine's message cost parameters, for kernels that weigh
    /// traffic against work.
    pub fn loggp(&self) -> &LogGP {
        &self.loggp
    }

    /// The machine's compute throughput model.
    pub fn compute_model(&self) -> &ComputeModel {
        &self.compute
    }

    /// Charge an explicit number of simulated seconds of compute (for costs
    /// that are not op-shaped, e.g. a modeled sort).
    pub fn charge_seconds(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.now += dt;
        self.stats.compute_s += dt;
    }

    /// Charge simulated seconds of *waiting* (failure-detection timeouts,
    /// respawn delays): advances the clock against the communication
    /// bucket, like a blocked receive.
    pub(crate) fn charge_wait(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.now += dt;
        self.stats.comm_s += dt;
    }

    /// Mutable counter access for the recovery machinery.
    pub(crate) fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    /// The machine's checkpoint interval, `None` when crash faults are off
    /// (the recovery layer's activation switch).
    pub(crate) fn crash_interval(&self) -> Option<u64> {
        self.crash.as_ref().map(|c| c.plan.checkpoint_interval)
    }

    /// The active crash plan (call only when crash faults are on).
    pub(crate) fn crash_plan(&self) -> CrashPlan {
        self.crash.as_ref().expect("crash plan active").plan
    }

    /// Draw every rank's crash lottery for one recovery probe: the ranks
    /// that die here, in rank order, the same on every rank.
    pub(crate) fn crash_draw(&mut self) -> Vec<usize> {
        let crash = self.crash.as_mut().expect("crash plan active");
        (crash.lotteries.iter_mut().enumerate())
            .filter_map(|(r, lottery)| lottery.crash_now().then_some(r))
            .collect()
    }

    /// Account `n` freshly agreed crashes against the job-wide restore
    /// budget; returns the new total. Called with the identical `n` at the
    /// identical point on every rank, so the total agrees globally.
    pub(crate) fn add_restores(&mut self, n: u32) -> u32 {
        let c = self.crash.as_mut().expect("crash plan active");
        c.restores_used += n;
        c.restores_used
    }

    /// Allocate the next recovery-traffic tag sequence number (globally
    /// agreed: bumped only at collectively consistent points).
    pub(crate) fn next_recovery_seq(&mut self) -> u64 {
        let c = self.crash.as_mut().expect("crash plan active");
        let s = c.recovery_seq;
        c.recovery_seq += 1;
        s
    }

    pub(crate) fn send_bytes_class(
        &mut self,
        dest: usize,
        tag: Tag,
        payload: Vec<u8>,
        class: TrafficClass,
    ) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        let bytes = payload.len() as u64;
        match class {
            TrafficClass::User => {
                debug_assert!(
                    tag < TAG_COLLECTIVE_BASE,
                    "tag collides with collective space"
                );
                self.stats.user_msgs += 1;
                self.stats.user_bytes += bytes;
            }
            TrafficClass::Collective => {
                self.stats.coll_msgs += 1;
                self.stats.coll_bytes += bytes;
            }
        }
        // Injected stall windows fire in sent-message-count space, before
        // this send is charged.
        if let Some(rel) = self.reliable.as_mut() {
            if let Some((dt, hit)) = rel.on_send() {
                self.now += dt;
                self.stats.stall_s += dt;
                self.stats.stall_events += hit;
            }
        }
        // Sender-side overhead.
        self.now += self.loggp.overhead;
        self.stats.comm_s += self.loggp.overhead;
        let hops = self.topo.hops(self.rank, dest);
        let arrive = match self.reliable.as_mut() {
            None => self.now + self.loggp.transit(payload.len(), hops),
            Some(rel) => {
                // Lossy link: run the reliable protocol (fault lottery,
                // sequence-number dedup, per-frame retransmit timers) over
                // the message's frames to completion; the mailbox below
                // stays lossless and carries the payload exactly once. The
                // sender pays `o` per retransmission, the timers run on the
                // link.
                let loggp = self.loggp;
                let mut io = TransportIo {
                    now: &mut self.now,
                    stats: &mut self.stats,
                    trace: self.trace.as_deref_mut(),
                };
                match rel.deliver(
                    dest,
                    tag,
                    payload.len(),
                    &mut io,
                    loggp.overhead,
                    |frame_len| loggp.transit(frame_len, hops),
                ) {
                    Ok(arrive) => arrive,
                    // Typed escalation: carried out of arbitrarily deep
                    // send paths (collectives, subcomms, exchanges) as an
                    // unwind payload, caught and downcast by
                    // `Machine::try_run` into a structured `Err`. Not a
                    // panic, so the hook prints nothing per rank thread.
                    Err(e) => std::panic::resume_unwind(Box::new(FaultEscalation::Transport(e))),
                }
            }
        };
        let env = Envelope {
            src: self.rank,
            tag,
            arrive,
            seq: 0,
            payload,
        };
        self.core.deposit(self.rank, self.now, dest, env);
    }

    /// Send a raw byte payload to `dest` with `tag`.
    pub fn send_bytes(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) {
        self.send_bytes_class(dest, tag, payload, TrafficClass::User);
    }

    /// Send a slice of typed records.
    pub fn send<T: Wire>(&mut self, dest: usize, tag: Tag, items: &[T]) {
        self.send_bytes(dest, tag, encode_slice(items));
    }

    pub(crate) fn recv_bytes_class(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        let env = self.core.recv_match(self.rank, self.now, src, tag);
        debug_assert!(
            env.src == src && env.tag == tag,
            "misrouted envelope: got (src {}, tag {:#x}), wanted (src {src}, tag {tag:#x})",
            env.src,
            env.tag
        );
        self.consume(env)
    }

    fn consume(&mut self, env: Envelope) -> Vec<u8> {
        // Wait until the payload has arrived in virtual time, then pay the
        // receiver-side overhead.
        if env.arrive > self.now {
            self.stats.comm_s += env.arrive - self.now;
            self.now = env.arrive;
        }
        self.now += self.loggp.overhead;
        self.stats.comm_s += self.loggp.overhead;
        self.last_recv_tag = env.tag;
        env.payload
    }

    /// Receive the raw payload of the next message from `(src, tag)`.
    /// Blocks (in host time) until it arrives.
    pub fn recv_bytes(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        self.recv_bytes_class(src, tag)
    }

    /// Receive a slice of typed records from `(src, tag)`.
    ///
    /// A payload that does not decode as a whole number of `T`s — a
    /// truncated/garbage payload or mismatched send/recv types — leaves
    /// through [`RankCtx::decode_failure`] as the typed
    /// [`crate::TransportError::Decode`], which `Machine::try_run` returns
    /// as its `Err`, never as a silently truncated batch. A receive is the
    /// same whatever class the message was sent in, so this is the
    /// collectives' own checked receive.
    pub fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        self.recv_coll(src, tag)
    }

    /// Convenience: send a single record.
    pub fn send_one<T: Wire>(&mut self, dest: usize, tag: Tag, item: T) {
        self.send(dest, tag, &[item]);
    }

    /// Convenience: receive exactly one record. Another count is the same
    /// typed decode error as an undecodable payload.
    pub fn recv_one<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        self.recv_one_coll(src, tag)
    }
}
