//! Crash recovery: superstep-boundary checkpoints, deterministic failure
//! detection, and restore-and-replay.
//!
//! The paper's record runs hold 40M cores for hours; at that scale process
//! death is a *when*, not an *if*. This module extends the fault model of
//! [`crate::fault`] from lossy links to dying ranks, recovered with the
//! classic coordinated checkpoint/rollback discipline:
//!
//! * **Checkpoints** are taken at bucket boundaries (collectively
//!   consistent points of the kernel loop), just before the boundary's
//!   agreement and crash probe, once [`CrashPlan::checkpoint_interval`]
//!   probes have passed counting that one. Each rank encodes its mutable
//!   kernel state through the [`Checkpoint`] trait and keeps the bytes
//!   locally; its *buddy* rank `(r + 1) % p` holds a replica — the
//!   in-memory equivalent of buddy-node checkpointing. The epoch-0
//!   encoding is a pure function of the kernel's inputs (graph, root,
//!   lanes), so it ships nowhere: every rank keeps its own as the *base*.
//!   A later checkpoint ships the buddy only what changed since the last
//!   encoding it sent, as a word delta (the new length, a dirty-word
//!   bitmap, the 8-byte words that differ), and the buddy folds it into
//!   its *overlay* of the predecessor's base — every word that differs
//!   from it. The sender pays one encode-and-compare pass (`bytes / 8 + 1`
//!   operations), the buddy one fold (`shipped / 8 + 1`).
//! * **Detection** is deterministic and sends nothing. A rank's
//!   [`CrashLottery`](crate::fault::CrashLottery) is a pure function of
//!   `(seed, rank, draw index)`, so every rank holds every rank's lottery
//!   and at every probe point ([`Recovery::probe`]) draws all of them:
//!   every survivor reads the identical crashed set without a message. A
//!   probe sits just after the collective that ends its step (a boundary's
//!   agreement, a light step's exchange), so a crash is acted on when that
//!   collective returns, and the rollback discards the step with the rest.
//!   Survivors charge the plan's `detect_timeout_s` of virtual wait — the
//!   timeout-at-the-next-collective failure-detector model.
//! * **Restore-and-replay**: on a crash verdict every rank rolls back to
//!   the last checkpoint and the loop replays. A crashed rank respawns
//!   after `respawn_s`, rebuilds its base (charged as an encode) and
//!   restores base ⊕ the overlay its buddy re-ships — from the base alone,
//!   with no message, while the held checkpoint is epoch 0. The survivors'
//!   replicas are still those of the rolled-back epoch, so redundancy needs
//!   one message more a crash: the crashed rank's predecessor re-sends the
//!   overlay the crash wiped, as its diff against its own base. The crash
//!   lottery's draw counter is *never* rolled back, so a crash window fires
//!   exactly once and replay terminates.
//!
//! ## Determinism contract
//!
//! Under any crash schedule within [`CrashPlan::recovery_budget`], the
//! final kernel state is **byte-identical** to the fault-free run at any
//! `G500_THREADS` and under either scheduler mode: rollback restores exact
//! state (bucket queues are snapshotted verbatim, stale entries included),
//! replay re-executes the identical deterministic supersteps, and only
//! virtual time, recovery trace spans, and the crash/checkpoint counters
//! in [`crate::NetStats`] move.
//!
//! ## Escalation
//!
//! Faults the machinery cannot mask become a typed [`FaultEscalation`]:
//! a retry-budget-exhausted link (carried out of the transport by panic
//! payload and surfaced as `Err` by [`Machine::try_run`]), an exhausted
//! recovery budget, or a checkpoint lost because a rank and its buddy died
//! in the same window. Recovery errors are *deterministic*: every rank
//! computes the identical verdict from the identical draws, so every rank
//! returns the same `Err` from the same collective point — which is what
//! lets the query engine retry or shed a window in lockstep instead of
//! deadlocking.
//!
//! [`Machine::try_run`]: crate::machine::Machine::try_run

use crate::fault::{CrashLottery, CrashPlan};
use crate::rank::{RankCtx, Tag, TrafficClass};
use crate::trace::TraceCode;
use crate::transport::TransportError;
use delta::Overlay;

/// Tags at or above this value (and below the subcomm space at `1 << 52`)
/// are reserved for recovery traffic: checkpoint replication and restore
/// re-shipment. Disjoint from user tags (`< 1 << 48`) and from global
/// collective tags (bit 48 set, bit 49 clear for any realistic sequence
/// count).
pub const TAG_RECOVERY_BASE: Tag = 1 << 49;

/// A fault the masking layers could not absorb, escalated as a typed error
/// instead of a raw panic so drivers and the query engine can degrade
/// gracefully.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEscalation {
    /// The reliable transport gave up on a link (retry budget exhausted or
    /// an undecodable payload). Fail-stop for the whole job: peers may be
    /// mid-collective, so no consistent recovery point exists.
    Transport(TransportError),
    /// More rank crashes than the recovery budget allows. Returned
    /// identically by every rank from the same probe.
    RecoveryBudgetExhausted {
        /// The plan's recovery budget.
        budget: u32,
        /// Crashes counted so far (including the ones in this verdict).
        crashes: u32,
        /// Superstep epoch at which the budget died.
        epoch: u64,
    },
    /// A rank and the buddy holding its checkpoint died in the same
    /// window, so the snapshot is unrecoverable. (With one rank there is
    /// no buddy and any crash is immediately fatal.)
    CheckpointLost {
        /// The crashed rank whose state is gone.
        rank: usize,
        /// The buddy that held its replica.
        buddy: usize,
    },
}

impl std::fmt::Display for FaultEscalation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Delegates to TransportError so the historical diagnosable
            // message text ("retry budget exhausted on link ...") survives
            // the move from panic to typed error.
            FaultEscalation::Transport(e) => write!(f, "{e}"),
            FaultEscalation::RecoveryBudgetExhausted {
                budget,
                crashes,
                epoch,
            } => write!(
                f,
                "recovery budget exhausted: {crashes} rank crash(es) exceed budget {budget} \
                 at superstep epoch {epoch}"
            ),
            FaultEscalation::CheckpointLost { rank, buddy } => write!(
                f,
                "checkpoint lost: rank {rank} and its checkpoint buddy {buddy} crashed in \
                 the same window"
            ),
        }
    }
}

impl std::error::Error for FaultEscalation {}

/// Kernel state that can be snapshotted and rolled back. Implementations
/// must round-trip exactly: `load(save(x))` restores byte-identical state,
/// including "cosmetic" internals like stale bucket-queue entries, because
/// replay determinism is defined as bitwise equality with the fault-free
/// run.
pub trait Checkpoint {
    /// Append this state's complete encoding to `out`.
    fn save(&self, out: &mut Vec<u8>);
    /// Replace this state from an encoding produced by [`Checkpoint::save`].
    fn load(&mut self, buf: &[u8]);
}

/// The checkpoint byte format, for [`Checkpoint`] implementations: every
/// scalar is its [`Wire`](crate::wire::Wire) encoding (little-endian,
/// floats as raw bit patterns so NaN and infinities survive, `bool` one
/// byte), and a sequence is a `u64` element count followed by the
/// elements. Decoders panic on malformed input: a corrupt checkpoint is a
/// logic error inside the simulator, not a recoverable condition.
pub mod codec {
    use crate::wire::Wire;

    /// Append one value.
    pub fn put<T: Wire>(out: &mut Vec<u8>, x: T) {
        x.write(out);
    }

    /// Read one value at `*pos`, advancing it.
    pub fn get<T: Wire>(buf: &[u8], pos: &mut usize) -> T {
        T::read(buf, pos).expect("checkpoint truncated")
    }

    /// Append a length-prefixed slice.
    pub fn put_slice<T: Wire>(out: &mut Vec<u8>, xs: &[T]) {
        put(out, xs.len() as u64);
        for x in xs {
            x.write(out);
        }
    }

    /// Read a length-prefixed vector at `*pos`, advancing it.
    pub fn get_vec<T: Wire>(buf: &[u8], pos: &mut usize) -> Vec<T> {
        let n = get::<u64>(buf, pos) as usize;
        // bound the count by the bytes actually present before allocating
        assert!(
            n.saturating_mul(T::SIZE) <= buf.len() - *pos,
            "checkpoint truncated"
        );
        (0..n).map(|_| get(buf, pos)).collect()
    }
}

/// Word deltas between checkpoint encodings. A buffer is read as 8-byte
/// little-endian words, the last one zero-padded. A delta from `old` to
/// `new` is `new`'s length (`u64`), a bitmap of `new`'s words, bit `i` of
/// word `i / 64` set where word `i` differs from `old`'s or `old` has no
/// word `i`, and then the set words in order. Whatever a buffer was,
/// applying the delta to it yields `new` exactly.
mod delta {
    use super::codec::{get, put};

    const WORD: usize = 8;

    /// Word `i` of `buf`, zero-padded past its end; `buf` has the word.
    fn word(buf: &[u8], i: usize) -> u64 {
        let lo = i * WORD;
        match buf.get(lo..lo + WORD) {
            Some(full) => u64::from_le_bytes(full.try_into().expect("a whole word")),
            None => {
                let mut b = [0u8; WORD];
                b[..buf.len() - lo].copy_from_slice(&buf[lo..]);
                u64::from_le_bytes(b)
            }
        }
    }

    /// The delta from `old` to `new`.
    pub(super) fn diff(old: &[u8], new: &[u8]) -> Vec<u8> {
        let (n, kept) = (new.len().div_ceil(WORD), old.len().div_ceil(WORD));
        let mut mask = vec![0u64; n.div_ceil(64)];
        let mut dirty = Vec::new();
        for i in 0..n {
            let w = word(new, i);
            if i >= kept || word(old, i) != w {
                mask[i / 64] |= 1 << (i % 64);
                dirty.push(w);
            }
        }
        write(new.len(), &mask, dirty)
    }

    /// A delta's bytes: the buffer length, the bitmap, the marked words.
    fn write(len: usize, mask: &[u64], words: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let mut out = Vec::new();
        put(&mut out, len as u64);
        for w in mask.iter().copied().chain(words) {
            put(&mut out, w);
        }
        out
    }

    /// A delta's buffer length and its words, each with its index.
    fn read(delta: &[u8]) -> (usize, Vec<(usize, u64)>) {
        let pos = &mut 0;
        let len = get::<u64>(delta, pos) as usize;
        let mask: Vec<u64> = (0..len.div_ceil(WORD).div_ceil(64))
            .map(|_| get(delta, pos))
            .collect();
        let mut words = Vec::new();
        for (j, mut m) in mask.into_iter().enumerate() {
            while m != 0 {
                words.push((j * 64 + m.trailing_zeros() as usize, get(delta, pos)));
                m &= m - 1;
            }
        }
        assert_eq!(*pos, delta.len(), "trailing bytes in checkpoint delta");
        (len, words)
    }

    /// `base` with `delta` applied.
    pub(super) fn patch(base: &[u8], delta: &[u8]) -> Vec<u8> {
        let (len, words) = read(delta);
        let mut out = base.to_vec();
        out.resize(len.div_ceil(WORD) * WORD, 0);
        for (i, w) in words {
            out[i * WORD..(i + 1) * WORD].copy_from_slice(&w.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// A buddy's replica of its predecessor's snapshot: the snapshot's
    /// length and every word that differs from the predecessor's base, which
    /// the buddy never holds. Before the first delta it is empty: the
    /// snapshot is still the base, and a restore then ships nothing.
    #[derive(Default)]
    pub(super) struct Overlay {
        len: usize,
        mask: Vec<u64>,
        words: Vec<u64>,
    }

    impl Overlay {
        /// Fold in `delta`, a diff from the snapshot this overlay stands
        /// for: a word it marks replaces the overlay's, and the overlay
        /// takes its length (words past a shrunken end are forgotten; a
        /// delta marks every word past its old end).
        pub(super) fn fold(&mut self, delta: &[u8]) {
            let (len, words) = read(delta);
            let n = len.div_ceil(WORD);
            self.len = len;
            self.words.resize(n, 0);
            self.mask.resize(n.div_ceil(64), 0);
            if let Some(last) = self.mask.last_mut().filter(|_| n % 64 != 0) {
                *last &= (1 << (n % 64)) - 1;
            }
            for (i, w) in words {
                self.mask[i / 64] |= 1 << (i % 64);
                self.words[i] = w;
            }
        }

        /// The overlay as one delta from the base: what a restore ships.
        pub(super) fn encode(&self) -> Vec<u8> {
            let marked = |&(i, _): &(usize, &u64)| self.mask[i / 64] >> (i % 64) & 1 == 1;
            let words = self.words.iter().enumerate().filter(marked);
            write(self.len, &self.mask, words.map(|(_, &w)| w))
        }
    }
}

/// Per-rank crash machinery that outlives individual kernel runs (the
/// query engine runs many windows against one [`RankCtx`]): every rank's
/// lottery, the job-wide restore budget, and the recovery tag namespace.
/// Lives inside `RankCtx`; updated only at collectively consistent points,
/// so its fields agree across ranks.
pub(crate) struct CrashState {
    pub(crate) plan: CrashPlan,
    /// The lotteries of ranks `0..P`, drawn all at once at every probe:
    /// O(P) memory a rank and O(P) draws a probe.
    pub(crate) lotteries: Vec<CrashLottery>,
    /// Crashes recovered so far across the whole job (the same draws, so
    /// identical on every rank).
    pub(crate) restores_used: u32,
    /// Monotone namespace counter for recovery-traffic tags.
    pub(crate) recovery_seq: u64,
}

impl CrashState {
    pub(crate) fn new(plan: CrashPlan, ranks: usize) -> Self {
        CrashState {
            plan,
            lotteries: (0..ranks)
                .map(|r| CrashLottery::for_rank(&plan, r))
                .collect(),
            restores_used: 0,
            recovery_seq: 0,
        }
    }
}

/// One kernel run's checkpoint/restore driver. Obtained from
/// [`Recovery::begin`] at kernel entry (`None` when the machine has no
/// crash plan — the fault-free path stays zero-cost); the kernel then
/// calls [`Recovery::bucket_boundary`] at the top of its outer bucket loop
/// and [`Recovery::probe`] after the boundary's agreement and after every
/// inner superstep. A probe returns `Ok(true)` when a crash was recovered
/// and the caller must restart its outer loop from the restored state.
pub struct Recovery {
    interval: u64,
    /// Probes passed since kernel entry.
    epoch: u64,
    /// Epoch of the checkpoint currently held.
    ckpt_epoch: u64,
    /// This rank's epoch-0 snapshot, which no rank ships: its buddy's
    /// overlay is relative to it.
    base: Vec<u8>,
    /// This rank's own snapshot at `ckpt_epoch`, the last encoding its
    /// buddy folded.
    my_ckpt: Vec<u8>,
    /// The snapshot of rank `(me - 1 + p) % p`, held as its buddy.
    pred: Overlay,
    /// Pre-crash epoch the current replay must re-reach (closes the
    /// `Replay` trace span).
    replay_until: Option<u64>,
}

/// One pass over `bytes` of checkpoint data — an encode, a compare, a
/// fold — charged as one compute op a word.
fn charge_pass(ctx: &mut RankCtx, bytes: usize) {
    ctx.charge_compute(bytes as u64 / 8 + 1);
}

impl Recovery {
    /// Start recovery for one kernel run: `None` when the machine has no
    /// active [`CrashPlan`], otherwise encodes `state` as the epoch-0 base,
    /// which stays on this rank, and returns the driver.
    pub fn begin(ctx: &mut RankCtx, state: &dyn Checkpoint) -> Option<Recovery> {
        ctx.crash_interval().map(|interval| {
            let mut base = Vec::new();
            state.save(&mut base);
            let bytes = base.len() as u64;
            ctx.trace_begin(TraceCode::CheckpointWrite, bytes, 0);
            charge_pass(ctx, base.len());
            ctx.trace_end(TraceCode::CheckpointWrite, bytes, 0);
            Recovery {
                interval,
                epoch: 0,
                ckpt_epoch: 0,
                my_ckpt: base.clone(),
                base,
                pred: Overlay::default(),
                replay_until: None,
            }
        })
    }

    /// Bucket-boundary hook for the outer bucket loop: takes the periodic
    /// checkpoint when it falls due, counting the boundary's coming probe
    /// in the interval. A crash that probe draws rolls back to the
    /// snapshot just taken.
    pub fn bucket_boundary(&mut self, ctx: &mut RankCtx, state: &dyn Checkpoint) {
        let reached = self.epoch + 1;
        if reached - self.ckpt_epoch >= self.interval {
            // labelled with the epoch the boundary reaches when its probe
            // passes: the state is the same either side of the probe
            self.take_checkpoint(ctx, state, reached);
        }
    }

    /// Crash probe at a collectively consistent point: draw every rank's
    /// lottery, the same draws on every rank. No rank dies, the probe
    /// passes; otherwise every rank rolls `state` back to the last
    /// checkpoint, and whatever ran since is discarded with the rest.
    /// Returns `Ok(true)` after a restore.
    pub fn probe(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut dyn Checkpoint,
    ) -> Result<bool, FaultEscalation> {
        let crashed = ctx.crash_draw();
        if crashed.is_empty() {
            self.epoch += 1;
            self.close_replay(ctx);
            return Ok(false);
        }
        self.recover(ctx, state, &crashed)?;
        Ok(true)
    }

    /// Close the replay span once the pre-crash epoch is re-reached.
    fn close_replay(&mut self, ctx: &mut RankCtx) {
        if let Some(t) = self.replay_until {
            if self.epoch >= t {
                ctx.trace_end(TraceCode::Replay, t, self.epoch);
                self.replay_until = None;
            }
        }
    }

    /// Finish the kernel run, closing a replay span left open by a crash
    /// near the end of the loop.
    pub fn finish(mut self, ctx: &mut RankCtx) {
        if let Some(t) = self.replay_until.take() {
            ctx.trace_end(TraceCode::Replay, t, self.epoch);
        }
    }

    /// Encode `state`, keep it as the checkpoint of `epoch`, and ship the
    /// buddy its delta from the last encoding sent, folding the
    /// predecessor's in turn. Eager sends, so the ring cannot deadlock.
    fn take_checkpoint(&mut self, ctx: &mut RankCtx, state: &dyn Checkpoint, epoch: u64) {
        let mut buf = Vec::new();
        state.save(&mut buf);
        let bytes = buf.len() as u64;
        ctx.trace_begin(TraceCode::CheckpointWrite, bytes, epoch);
        charge_pass(ctx, buf.len());
        let (p, me) = (ctx.size(), ctx.rank());
        if p > 1 {
            let delta = delta::diff(&self.my_ckpt, &buf);
            let s = ctx.stats_mut();
            s.checkpoints += 1;
            s.checkpoint_bytes += delta.len() as u64;
            let tag = TAG_RECOVERY_BASE | (ctx.next_recovery_seq() << 1);
            ctx.send_bytes_class((me + 1) % p, tag, delta, TrafficClass::Collective);
            let got = ctx.recv_bytes_class((me + p - 1) % p, tag);
            charge_pass(ctx, got.len());
            self.pred.fold(&got);
        }
        self.my_ckpt = buf;
        self.ckpt_epoch = epoch;
        ctx.trace_end(TraceCode::CheckpointWrite, bytes, epoch);
    }

    /// Execute an agreed crash verdict: budget and buddy-loss checks (the
    /// same `Err` on every rank, by construction), detection/respawn time,
    /// the respawned ranks' restores and replicas, and the rollback.
    fn recover(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut dyn Checkpoint,
        crashed: &[usize],
    ) -> Result<(), FaultEscalation> {
        let p = ctx.size();
        let me = ctx.rank();
        let plan = ctx.crash_plan();
        let used = ctx.add_restores(crashed.len() as u32);
        if used > plan.recovery_budget {
            return Err(FaultEscalation::RecoveryBudgetExhausted {
                budget: plan.recovery_budget,
                crashes: used,
                epoch: self.epoch,
            });
        }
        for &c in crashed {
            let buddy = (c + 1) % p;
            if buddy == c || crashed.contains(&buddy) {
                return Err(FaultEscalation::CheckpointLost { rank: c, buddy });
            }
        }
        let pre_epoch = self.epoch;
        ctx.trace_begin(TraceCode::Restore, crashed.len() as u64, self.ckpt_epoch);
        // The failure detector: every rank spends the timeout discovering
        // the death at its next collective.
        ctx.charge_wait(plan.detect_timeout_s);
        if crashed.contains(&me) {
            // Simulated memory loss + respawn: this rank's own snapshot and
            // the replica it held for its predecessor are gone. The base is
            // a pure function of the kernel's inputs: rebuilt, not shipped.
            ctx.charge_wait(plan.respawn_s);
            self.pred = Overlay::default();
            self.my_ckpt.clone_from(&self.base);
            charge_pass(ctx, self.base.len());
            ctx.stats_mut().crashes += 1;
        }
        // Past epoch 0, each buddy re-ships its overlay of the respawned
        // rank, which patches its base with it; and each respawned rank's
        // predecessor re-sends the overlay that rank held for it, as its
        // diff against its own base. Every other replica is still the
        // rolled-back epoch's. Neither sender can have crashed (that is
        // `CheckpointLost`), so survivors only send and the respawned only
        // receive.
        if self.ckpt_epoch > 0 {
            let overlay_tag = TAG_RECOVERY_BASE | (ctx.next_recovery_seq() << 1) | 1;
            let resend_tag = TAG_RECOVERY_BASE | (ctx.next_recovery_seq() << 1) | 1;
            for &c in crashed {
                let (buddy, pred) = ((c + 1) % p, (c + p - 1) % p);
                if me == buddy {
                    let overlay = self.pred.encode();
                    ctx.send_bytes_class(c, overlay_tag, overlay, TrafficClass::Collective);
                }
                if me == pred {
                    charge_pass(ctx, self.my_ckpt.len());
                    let delta = delta::diff(&self.base, &self.my_ckpt);
                    ctx.send_bytes_class(c, resend_tag, delta, TrafficClass::Collective);
                }
                if me == c {
                    let overlay = ctx.recv_bytes_class(buddy, overlay_tag);
                    charge_pass(ctx, overlay.len());
                    self.my_ckpt = delta::patch(&self.base, &overlay);
                    let delta = ctx.recv_bytes_class(pred, resend_tag);
                    charge_pass(ctx, delta.len());
                    self.pred.fold(&delta);
                }
            }
        }
        // Coordinated rollback: every rank re-enters the checkpoint epoch.
        state.load(&self.my_ckpt);
        // A crash drawn at the boundary that has just taken the checkpoint
        // (labelled with the epoch that boundary reaches) loses nothing.
        let replayed = pre_epoch.saturating_sub(self.ckpt_epoch);
        self.epoch = self.ckpt_epoch;
        let s = ctx.stats_mut();
        s.restores += 1;
        s.replayed_supersteps += replayed;
        ctx.trace_end(TraceCode::Restore, crashed.len() as u64, self.ckpt_epoch);
        match self.replay_until {
            Some(t) => self.replay_until = Some(t.max(pre_epoch)),
            None if pre_epoch > self.epoch => {
                ctx.trace_begin(TraceCode::Replay, replayed, self.epoch);
                self.replay_until = Some(pre_epoch);
            }
            None => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashPlan;
    use crate::machine::{Machine, MachineConfig};

    /// A little iterative SPMD kernel with checkpointable state: `step`
    /// must be part of the snapshot so rollback rewinds the loop itself.
    struct IterState {
        step: u64,
        vals: Vec<u64>,
    }

    impl Checkpoint for IterState {
        fn save(&self, out: &mut Vec<u8>) {
            codec::put(out, self.step);
            codec::put_slice(out, &self.vals);
        }
        fn load(&mut self, buf: &[u8]) {
            let mut pos = 0;
            self.step = codec::get(buf, &mut pos);
            self.vals = codec::get_vec(buf, &mut pos);
        }
    }

    /// Shaped like the bucket-epoch driver: every other step opens at a
    /// boundary (checkpoint if due), and every step ends with its allreduce
    /// and then a probe.
    fn iter_prog(ctx: &mut RankCtx) -> Result<Vec<u64>, FaultEscalation> {
        let mut st = IterState {
            step: 0,
            vals: vec![ctx.rank() as u64 + 1; 4],
        };
        let mut rec = Recovery::begin(ctx, &st);
        while st.step < 12 {
            if let Some(r) = rec.as_mut().filter(|_| st.step.is_multiple_of(2)) {
                r.bucket_boundary(ctx, &st);
            }
            let total = ctx.allreduce_sum(st.vals[0]);
            for v in st.vals.iter_mut() {
                *v = v.wrapping_mul(31).wrapping_add(total);
            }
            st.step += 1;
            if let Some(r) = rec.as_mut() {
                // on a restore `st.step` rewinds with the state, to a boundary
                r.probe(ctx, &mut st)?;
            }
        }
        if let Some(r) = rec {
            r.finish(ctx);
        }
        Ok(st.vals)
    }

    #[test]
    fn forced_crash_recovers_to_fault_free_state() {
        let clean = Machine::new(MachineConfig::with_ranks(4)).run(iter_prog);
        let plan = CrashPlan::none()
            .with_forced(1, 5)
            .with_checkpoint_interval(3);
        let crashed = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        for r in 0..4 {
            assert_eq!(
                clean.results[r], crashed.results[r],
                "rank {r}: recovery must reproduce fault-free values"
            );
        }
        let total = crashed.total_stats();
        assert_eq!(total.crashes, 1, "exactly the forced crash fires");
        assert_eq!(total.restores, 4, "all ranks roll back together");
        assert!(total.replayed_supersteps > 0, "the rollback loses work");
        assert!(total.checkpoints >= 4, "epoch-0 checkpoints at minimum");
        assert!(total.checkpoint_bytes > 0);
        assert!(
            crashed.sim_time_s > clean.sim_time_s,
            "detection, respawn, and replay must cost virtual time"
        );
    }

    #[test]
    fn crash_recovery_is_scheduler_invariant() {
        let plan = CrashPlan::random(0xC0FFEE, 0.02).with_checkpoint_interval(2);
        let threads = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        let canon = Machine::new(MachineConfig::with_ranks(4).crashes(plan).deterministic(0))
            .run(iter_prog);
        assert_eq!(threads.results, canon.results);
        assert_eq!(
            threads.stats, canon.stats,
            "crash schedule and recovery counters must not depend on the scheduler"
        );
        assert_eq!(threads.sim_time_s.to_bits(), canon.sim_time_s.to_bits());
    }

    #[test]
    fn budget_exhaustion_returns_identical_error_on_every_rank() {
        let plan = CrashPlan::none()
            .with_forced(0, 2)
            .with_forced(2, 6)
            .with_recovery_budget(1)
            .with_checkpoint_interval(2);
        let rep = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        let expect = &rep.results[0];
        assert!(
            matches!(
                expect,
                Err(FaultEscalation::RecoveryBudgetExhausted {
                    budget: 1,
                    crashes: 2,
                    ..
                })
            ),
            "got {expect:?}"
        );
        for r in rep.results.iter() {
            assert_eq!(r, expect, "agreement must make the verdict identical");
        }
    }

    #[test]
    fn buddy_loss_is_detected_as_checkpoint_lost() {
        // ranks 1 and 2 die in the same window: rank 2 holds rank 1's
        // replica, so rank 1's state is unrecoverable
        let plan = CrashPlan::none().with_forced(1, 3).with_forced(2, 3);
        let rep = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        for r in rep.results.iter() {
            assert_eq!(
                r,
                &Err(FaultEscalation::CheckpointLost { rank: 1, buddy: 2 })
            );
        }
    }

    #[test]
    fn single_rank_crash_is_immediately_fatal() {
        let plan = CrashPlan::none().with_forced(0, 1);
        let rep = Machine::new(MachineConfig::with_ranks(1).crashes(plan)).run(iter_prog);
        assert_eq!(
            rep.results[0],
            Err(FaultEscalation::CheckpointLost { rank: 0, buddy: 0 })
        );
    }

    #[test]
    fn escalation_display_keeps_transport_text() {
        let e = FaultEscalation::Transport(TransportError::RetryBudgetExhausted {
            src: 0,
            dst: 1,
            tag: 0x10,
            seq: 3,
            retries: 16,
        });
        let msg = format!("{e}");
        assert!(
            msg.contains("retry budget exhausted on link 0 -> 1"),
            "{msg}"
        );
        let b = FaultEscalation::RecoveryBudgetExhausted {
            budget: 2,
            crashes: 3,
            epoch: 7,
        };
        assert!(format!("{b}").contains("recovery budget exhausted"));
        let l = FaultEscalation::CheckpointLost { rank: 1, buddy: 2 };
        assert!(format!("{l}").contains("checkpoint lost"));
    }

    /// `old` edited into a `len`-byte buffer: cut or grown (with bytes
    /// drawn from `seed`), then `edits` drawn bytes rewritten at drawn
    /// positions.
    fn edit(old: &[u8], seed: u64, len: usize, edits: usize) -> Vec<u8> {
        let draw = |i: usize| crate::sched::splitmix64(seed ^ ((i as u64) << 20));
        let mut new = old.to_vec();
        new.resize(len, 0);
        for (i, b) in new.iter_mut().enumerate().skip(old.len()) {
            *b = draw(i) as u8;
        }
        for e in 0..edits.min(len) {
            let x = draw(len + e);
            new[x as usize % len] = (x >> 32) as u8;
        }
        new
    }

    /// A delta rebuilds its target from its source, directly and folded
    /// into an overlay of that source, and marks exactly the words that
    /// changed: equal buffers, edited ones, grown, shrunk, grown across a
    /// partial last word, and empty on either side.
    #[test]
    fn delta_round_trips_every_shape() {
        let base = edit(&[], 1, 100, 0);
        // (old, new, the words a delta must mark)
        let shapes = [
            (base.clone(), base.clone(), Some(0)),
            (base.clone(), edit(&base, 2, 100, 9), None),
            (base[..96].to_vec(), base.clone(), Some(1)),
            (base.clone(), base[..64].to_vec(), Some(0)),
            (base.clone(), edit(&base, 3, 61, 2), None),
            (base[..13].to_vec(), edit(&base[..13], 4, 21, 0), Some(2)),
            (base[..13].to_vec(), base[..16].to_vec(), Some(1)),
            (base[..16].to_vec(), base[..13].to_vec(), Some(1)),
            (Vec::new(), base.clone(), Some(13)),
            (base.clone(), Vec::new(), Some(0)),
            (Vec::new(), Vec::new(), Some(0)),
        ];
        for (i, (old, new, marked)) in shapes.into_iter().enumerate() {
            let d = delta::diff(&old, &new);
            assert_eq!(delta::patch(&old, &d), new, "shape {i}: patched");
            let mut overlay = Overlay::default();
            overlay.fold(&d);
            assert_eq!(
                delta::patch(&old, &overlay.encode()),
                new,
                "shape {i}: folded"
            );
            let words = new.len().div_ceil(8);
            let dirty = (d.len() - 8 - 8 * words.div_ceil(64)) / 8;
            if let Some(m) = marked {
                assert_eq!(dirty, m, "shape {i}: words marked");
            }
            assert!(dirty <= words, "shape {i}");
        }
    }

    /// A buddy folds a chain of deltas, the buffer shrinking below its base,
    /// growing past it, across partial words and through empty; after each
    /// the base patched with the overlay is the last encoding, byte for
    /// byte, as the last encoding patched with the delta is.
    #[test]
    fn delta_chain_folds_to_the_last_encoding() {
        let base = edit(&[], 10, 203, 0);
        let (mut last, mut overlay) = (base.clone(), Overlay::default());
        let lens = [203, 203, 150, 157, 260, 7, 0, 90];
        let edits = [5, 40, 3, 0, 7, 1, 0, 4];
        for (step, (len, edits)) in lens.into_iter().zip(edits).enumerate() {
            let next = edit(&last, 11 + step as u64, len, edits);
            let d = delta::diff(&last, &next);
            assert_eq!(delta::patch(&last, &d), next, "step {step}: patched");
            overlay.fold(&d);
            let restored = delta::patch(&base, &overlay.encode());
            assert_eq!(restored, next, "step {step}: base ⊕ overlay");
            last = next;
        }
    }

    #[test]
    fn codec_round_trips() {
        let mut buf = Vec::new();
        codec::put(&mut buf, 42u64);
        codec::put(&mut buf, f64::INFINITY);
        codec::put_slice(&mut buf, &[1u64, 2, 3]);
        codec::put_slice(&mut buf, &[7u32, 8]);
        codec::put_slice(&mut buf, &[0.5f64, -1.25]);
        codec::put_slice(&mut buf, &[true, false, true]);
        let mut pos = 0;
        assert_eq!(codec::get::<u64>(&buf, &mut pos), 42);
        assert_eq!(codec::get::<f64>(&buf, &mut pos), f64::INFINITY);
        assert_eq!(codec::get_vec::<u64>(&buf, &mut pos), vec![1, 2, 3]);
        assert_eq!(codec::get_vec::<u32>(&buf, &mut pos), vec![7, 8]);
        assert_eq!(codec::get_vec::<f64>(&buf, &mut pos), vec![0.5, -1.25]);
        assert_eq!(
            codec::get_vec::<bool>(&buf, &mut pos),
            vec![true, false, true]
        );
        assert_eq!(pos, buf.len());
    }
}
