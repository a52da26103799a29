//! The machine's one message layer: a mailbox table and a rank scheduler.
//!
//! Every [`SchedMode`] runs on the same table. A send deposits its envelope
//! into the receiver's mailbox and stamps it with a global sequence number;
//! a receive takes the lowest-sequence envelope matching `(src, tag)`, so
//! within one `(src, tag)` stream messages are received in send order (on a
//! lossy link a later message may arrive earlier in virtual time than one a
//! retransmission delayed; it still waits its turn). A receive that finds
//! no match marks its rank *blocked* and parks it on the rank's own
//! condition variable until a matching deposit makes it *ready* again.
//!
//! The modes differ only in which ready ranks may run:
//!
//! * [`SchedMode::Threads`] lets every ready rank run: one free OS thread
//!   per rank, interleaved however the host schedules them. Results are
//!   still *value*-deterministic (receives match on `(src, tag)` and each
//!   stream is received in order), but execution order is not replayable.
//! * [`SchedMode::Deterministic`] serializes the job: exactly one rank runs
//!   at a time, holding an execution token that is handed off at every
//!   blocking point (a receive that cannot be satisfied yet, a seeded
//!   preemption on send, or rank completion), waking only the rank granted
//!   it. The next rank is always the ready rank with the minimum
//!   `(virtual_time, tie_break)` key, where `tie_break` is the rank id for
//!   seed 0 (the canonical schedule) or a seeded hash for fuzzing. The same
//!   seed therefore replays the exact same schedule — byte-identical
//!   `NetStats`, superstep counts, and distance vectors — while different
//!   seeds explore different legal interleavings.
//!
//! Because the table sees the whole job in both modes, both get two
//! checks:
//!
//! * **Deadlock detection** — the scheduler counts the runnable ranks; a
//!   rank that blocks or finishes when none is left while another waits
//!   aborts the job at once with the full wait-for list instead of
//!   hanging.
//! * **Orphan detection** — at teardown, envelopes that were deposited but
//!   never received (e.g. a message routed to the wrong rank) are reported
//!   (see [`SchedCore::orphans`] and `Machine::run`).
//!
//! Fault injection composes with both modes without touching this module:
//! the reliable transport ([`crate::transport`]) runs its retransmit
//! protocol synchronously inside the send, pricing each frame's timeouts
//! into the message's arrival (and a re-post overhead into the sender's
//! clock) before the (single, lossless) envelope is deposited. The
//! scheduler only ever sees final arrival times, so the
//! same `(sched_seed, fault_seed)` pair replays byte-identically, and
//! fault schedules are identical under [`SchedMode::Threads`] and
//! [`SchedMode::Deterministic`].

use crate::rank::{Envelope, Tag};
use std::sync::{Condvar, Mutex, MutexGuard};

/// How the machine schedules rank execution and message delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedMode {
    /// One free-running OS thread per rank (the historical default).
    Threads,
    /// Serialized seeded execution: replayable schedules and seeded
    /// delivery-order fuzzing. Seed 0 is the canonical schedule (lowest
    /// virtual time first, rank id tie-break); other seeds permute
    /// tie-breaks, preemption points, and the orders returned by
    /// `RankCtx::delivery_order`.
    Deterministic {
        /// Schedule seed. Same seed ⇒ byte-identical replay.
        seed: u64,
    },
}

/// SplitMix64 — the tie-break / permutation hash used throughout the
/// deterministic scheduler. Public within the crate so `RankCtx` can derive
/// per-rank permutation streams from the same generator.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    /// Runnable: running (threads), or waiting for the token.
    Ready,
    /// Parked in a receive that no deposited envelope matches yet.
    Blocked { src: usize, tag: Tag },
    /// The rank's closure returned.
    Done,
}

/// Which parked ranks to wake once the lock is released.
enum Wake {
    Nobody,
    One(usize),
    All,
}

struct Inner {
    /// Rank holding the execution token (deterministic mode only).
    current: usize,
    status: Vec<Status>,
    /// How many entries of `status` are `Ready`.
    runnable: usize,
    /// Per-receiver undelivered envelopes, in deposit (sequence) order.
    mailbox: Vec<Vec<Envelope>>,
    /// Last reported virtual clock of each rank (refreshed at yield points);
    /// the primary sort key for granting the token.
    vtime: Vec<f64>,
    /// Global deposit counter: stamps `Envelope::seq`.
    next_seq: u64,
    /// Scheduling-decision counter, mixed into seeded tie-breaks.
    step: u64,
    /// Set on rank panic or detected deadlock; wakes and fails all waiters.
    aborted: bool,
    /// Diagnostic attached to the abort (deadlock wait-for list).
    fail_msg: Option<String>,
}

/// Shared state of one job. One instance per `Machine::run`.
pub(crate) struct SchedCore {
    inner: Mutex<Inner>,
    /// One condition variable a rank: a rank parks on its own, so a wake
    /// reaches the one rank it concerns.
    cv: Vec<Condvar>,
    /// The deterministic seed; `None` under [`SchedMode::Threads`].
    token: Option<u64>,
}

impl SchedCore {
    /// Lock the scheduler state, ignoring poisoning: a panicking rank
    /// poisons the mutex by design (fail-stop), and peers still need the
    /// state to report clean abort diagnostics.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn new(ranks: usize, mode: SchedMode) -> Self {
        let token = match mode {
            SchedMode::Threads => None,
            SchedMode::Deterministic { seed } => Some(seed),
        };
        let mut inner = Inner {
            current: 0,
            status: vec![Status::Ready; ranks],
            runnable: ranks,
            mailbox: (0..ranks).map(|_| Vec::new()).collect(),
            vtime: vec![0.0; ranks],
            next_seq: 0,
            step: 0,
            aborted: false,
            fail_msg: None,
        };
        if let Some(seed) = token {
            // Initial grant: all ranks are ready at virtual time zero, so
            // the tie-break alone decides who starts.
            inner.current = pick_next(&mut inner, seed);
        }
        SchedCore {
            inner: Mutex::new(inner),
            cv: (0..ranks).map(|_| Condvar::new()).collect(),
            token,
        }
    }

    /// The seed that fuzzes delivery orders; 0 (identity orders) under
    /// threads and for the canonical deterministic schedule.
    pub(crate) fn fuzz_seed(&self) -> u64 {
        self.token.unwrap_or(0)
    }

    /// Block until `rank` may run for the first time.
    pub(crate) fn acquire(&self, rank: usize) {
        let inner = self.wait_turn(self.lock(), Wake::Nobody, rank);
        if inner.aborted {
            panic_aborted(&inner, rank, None);
        }
    }

    /// Deposit `env` into `dest`'s mailbox, stamping the global sequence
    /// number, and make `dest` ready if it waits for this stream. With a
    /// non-zero deterministic seed this is also a potential preemption
    /// point: the sender may yield the token so a woken receiver (or any
    /// other ready rank) runs before the sender's next step.
    pub(crate) fn deposit(&self, me: usize, now: f64, dest: usize, mut env: Envelope) {
        let mut inner = self.lock();
        debug_assert!(
            self.token.is_none() || inner.current == me,
            "send from a rank not holding the token"
        );
        inner.vtime[me] = now;
        env.seq = inner.next_seq;
        inner.next_seq += 1;
        let mut wake = Wake::Nobody;
        let awaited = Status::Blocked {
            src: env.src,
            tag: env.tag,
        };
        if inner.status[dest] == awaited {
            inner.status[dest] = Status::Ready;
            inner.runnable += 1;
            if self.token.is_none() {
                wake = Wake::One(dest);
            }
        }
        inner.mailbox[dest].push(env);

        match self.token {
            Some(seed) if seed != 0 => {
                inner.step += 1;
                let coin = splitmix64(seed ^ inner.step.wrapping_mul(0xD134_2543_DE82_EF95));
                if coin & 1 == 0 {
                    // Yield while staying ready; the grant key decides who
                    // runs.
                    let next = pick_next(&mut inner, seed);
                    inner.current = next;
                    let inner = self.wait_turn(inner, Wake::One(next), me);
                    if inner.aborted {
                        panic_aborted(&inner, me, None);
                    }
                }
            }
            _ => {
                // Wake the receiver after letting go of the lock, so it
                // does not wake only to wait for it.
                drop(inner);
                self.wake(wake);
            }
        }
    }

    /// Take the lowest-sequence envelope matching `(src, tag)` from `rank`'s
    /// mailbox, parking the rank (and handing off the token) until one is
    /// available. Detects deadlock if parking leaves no rank runnable.
    pub(crate) fn recv_match(&self, rank: usize, now: f64, src: usize, tag: Tag) -> Envelope {
        let mut inner = self.lock();
        inner.vtime[rank] = now;
        loop {
            if inner.aborted {
                panic_aborted(&inner, rank, Some((src, tag)));
            }
            if let Some(i) = inner.mailbox[rank]
                .iter()
                .position(|e| e.src == src && e.tag == tag)
            {
                return inner.mailbox[rank].remove(i);
            }
            inner.status[rank] = Status::Blocked { src, tag };
            let wake = self.step_aside(&mut inner);
            inner = self.wait_turn(inner, wake, rank);
        }
    }

    /// Mark `rank`'s closure as finished and hand the token onward. If every
    /// remaining rank is blocked, raise the deadlock abort (the blocked
    /// ranks themselves panic with the diagnostic).
    pub(crate) fn finish(&self, rank: usize, now: f64) {
        let mut inner = self.lock();
        inner.vtime[rank] = now;
        inner.status[rank] = Status::Done;
        let wake = self.step_aside(&mut inner);
        drop(inner);
        self.wake(wake);
    }

    /// Raise the abort flag (rank panic propagation) and wake all waiters.
    pub(crate) fn abort_all(&self) {
        self.lock().aborted = true;
        self.wake(Wake::All);
    }

    /// `(dest, src, tag, seq)` of every deposited-but-never-received
    /// envelope. Non-empty at teardown means a message was misrouted or a
    /// receive was forgotten.
    pub(crate) fn orphans(&self) -> Vec<(usize, usize, Tag, u64)> {
        let inner = self.lock();
        let mut out = Vec::new();
        for (dest, mbox) in inner.mailbox.iter().enumerate() {
            for env in mbox {
                out.push((dest, env.src, env.tag, env.seq));
            }
        }
        out.sort_unstable_by_key(|&(.., seq)| seq);
        out
    }

    /// The caller's rank just stopped being ready (it blocked or finished):
    /// count it out, grant the token onward in deterministic mode, and raise
    /// the deadlock abort when no rank is left runnable while one waits.
    /// Returns whom to wake once the lock is released.
    fn step_aside(&self, inner: &mut Inner) -> Wake {
        inner.runnable -= 1;
        if inner.runnable == 0 {
            let blocked = inner
                .status
                .iter()
                .any(|s| matches!(s, Status::Blocked { .. }));
            if !blocked || inner.aborted {
                return Wake::Nobody;
            }
            // No rank is runnable and one waits: the job can never make
            // progress again.
            inner.fail_msg = Some(deadlock_report(inner));
            inner.aborted = true;
            return Wake::All;
        }
        match self.token {
            Some(seed) => {
                let next = pick_next(inner, seed);
                inner.current = next;
                Wake::One(next)
            }
            None => Wake::Nobody,
        }
    }

    /// Wake `wake` with the lock released, then park `rank` on its own
    /// condition variable until it may run or the job aborts.
    fn wait_turn<'a>(
        &'a self,
        mut inner: MutexGuard<'a, Inner>,
        wake: Wake,
        rank: usize,
    ) -> MutexGuard<'a, Inner> {
        if !matches!(wake, Wake::Nobody) {
            drop(inner);
            self.wake(wake);
            inner = self.lock();
        }
        while !inner.aborted
            && (inner.status[rank] != Status::Ready
                || (self.token.is_some() && inner.current != rank))
        {
            inner = self.cv[rank].wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        inner
    }

    fn wake(&self, wake: Wake) {
        match wake {
            Wake::Nobody => {}
            Wake::One(r) => self.cv[r].notify_one(),
            Wake::All => self.cv.iter().for_each(Condvar::notify_one),
        }
    }
}

/// Grant key: the ready rank with the minimum `(virtual_time, tie_break)`.
/// Seed 0 tie-breaks by rank id — the canonical schedule. Other seeds hash
/// `(seed, step, rank)` so equal-time ranks run in a seeded order. Called
/// only while some rank is ready.
fn pick_next(inner: &mut Inner, seed: u64) -> usize {
    inner.step += 1;
    let step = inner.step;
    let mut best: Option<(f64, u64, usize)> = None;
    for (r, s) in inner.status.iter().enumerate() {
        if *s != Status::Ready {
            continue;
        }
        let tie = if seed == 0 {
            r as u64
        } else {
            splitmix64(seed ^ step.wrapping_mul(0x9E6C_63D0_876A_68DD) ^ r as u64)
        };
        let key = (inner.vtime[r], tie, r);
        if best.is_none_or(|(bt, btie, _)| (key.0, key.1) < (bt, btie)) {
            best = Some(key);
        }
    }
    best.expect("a rank is ready").2
}

fn deadlock_report(inner: &Inner) -> String {
    let mut msg = String::from("deadlock: no rank can make progress; ");
    let waits: Vec<String> = inner
        .status
        .iter()
        .enumerate()
        .filter_map(|(r, s)| match s {
            Status::Blocked { src, tag } => {
                Some(format!("rank {r} waits for (src {src}, tag {tag:#x})"))
            }
            _ => None,
        })
        .collect();
    msg.push_str(&waits.join(", "));
    msg
}

fn panic_aborted(inner: &Inner, rank: usize, waiting: Option<(usize, Tag)>) -> ! {
    if let Some(msg) = &inner.fail_msg {
        panic!("rank {rank}: {msg}");
    }
    match waiting {
        Some((src, tag)) => abort_quietly(format!(
            "rank {rank}: job aborted — another rank failed while this rank \
             was waiting for ({src}, tag {tag})"
        )),
        None => abort_quietly(format!("rank {rank}: job aborted — another rank failed")),
    }
}

/// The unwind payload of a rank that another rank's failure aborted: its
/// text says where the abort found it. `Machine` reports a failure of this
/// kind only when no rank failed for a cause of its own.
pub(crate) struct Collateral(pub(crate) String);

/// Leave a rank that another rank's failure aborted, without running the
/// panic hook: the rank that failed reports the cause.
fn abort_quietly(msg: String) -> ! {
    std::panic::resume_unwind(Box::new(Collateral(msg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_pure_and_spreads() {
        // The replay guarantee depends on this function being pure.
        assert_eq!(splitmix64(42), splitmix64(42));
        let outs: std::collections::HashSet<u64> = (0..64).map(splitmix64).collect();
        assert_eq!(outs.len(), 64, "first 64 outputs must be distinct");
    }
}
