//! Seeded lossy-network fault injection.
//!
//! The paper's record run holds 40M cores in lockstep for hours only
//! because the interconnect stack masks transient faults below the
//! application: dropped, duplicated, reordered, and corrupted packets are
//! absorbed by link-level retransmission long before MPI sees them. This
//! module is the *adversary* half of that contract: a [`FaultPlan`]
//! describes per-link fault probabilities (plus seeded rank stall windows),
//! and every fault decision is drawn from a SplitMix64 stream keyed by
//! `(fault_seed, src, dst)` and advanced only by the sending rank — so a
//! fault schedule is a pure function of the plan, independent of host
//! thread scheduling and of [`SchedMode`], and any failing run replays
//! exactly from `--fault-seed`.
//!
//! The defender half — per-stream sequence numbers, dedup, ack/retransmit
//! with exponential backoff, all run on the fates drawn here — lives in
//! [`crate::transport`]. Under any fault seed whose faults stay within the
//! retry budget, kernels on top of [`crate::RankCtx`] must produce
//! bitwise-identical results to the fault-free run; only virtual time and
//! the fault counters in [`crate::NetStats`] may move.
//!
//! [`SchedMode`]: crate::sched::SchedMode

use crate::sched::splitmix64;

/// A replayable description of how the simulated interconnect misbehaves.
///
/// All rates are per-frame probabilities in `[0, 1]`; the default plan
/// ([`FaultPlan::none`]) is a perfect network and makes the transport a
/// pass-through (byte-identical behaviour to the historical lossless
/// simnet, including `NetStats`). Stall windows freeze a rank for
/// [`stall_s`](FaultPlan::stall_s) virtual seconds at seeded points of its
/// send stream, modelling OS jitter / GC pauses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of every fault lottery. Same plan ⇒ same fault schedule,
    /// independent of scheduler mode and thread count.
    pub seed: u64,
    /// Probability that a data frame is dropped in flight (the ack return
    /// path rolls the same rate independently).
    pub drop: f64,
    /// Probability that a delivered data frame arrives twice.
    pub duplicate: f64,
    /// Probability that a delivered data frame is delayed past its
    /// successors (masked by sequence order; costs time).
    pub reorder: f64,
    /// Probability that a data frame is corrupted in flight (always caught
    /// by the receiver's frame check, so it costs a retransmit).
    pub corrupt: f64,
    /// Number of stall windows injected per rank (0 disables stalls).
    pub stalls_per_rank: u32,
    /// Base length of one stall window in virtual seconds (jittered by the
    /// seeded stream to 0.5×–1.5×).
    pub stall_s: f64,
    /// Spacing of stall windows in sent-message counts: window `i` triggers
    /// at a seeded point inside `[i·stall_every, (i+1)·stall_every)`.
    pub stall_every: u64,
    /// Maximum retransmissions per frame before the transport escalates to
    /// a fail-stop [`TransportError`](crate::transport::TransportError).
    pub retry_budget: u32,
    /// Base retransmit timeout in virtual seconds (doubles per retry via
    /// [`backoff`](FaultPlan::backoff)).
    pub rto_s: f64,
    /// Exponential backoff multiplier applied to the timeout after every
    /// failed attempt.
    pub backoff: f64,
    /// Maximum payload bytes per frame; larger messages travel as several
    /// frames, each with its own sequence number and retransmit timer.
    pub mtu: usize,
}

impl FaultPlan {
    /// A perfect network: all fault rates zero, no stalls. The transport
    /// layer short-circuits to the historical lossless path.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            stalls_per_rank: 0,
            stall_s: 0.0,
            stall_every: 256,
            retry_budget: 16,
            rto_s: 25.0e-6,
            backoff: 2.0,
            mtu: 4096,
        }
    }

    /// A lossy profile: `drop`/`duplicate`/`corrupt` as given, reorder at
    /// half the drop rate, no stalls.
    pub fn lossy(seed: u64, drop: f64, duplicate: f64, corrupt: f64) -> Self {
        FaultPlan {
            seed,
            drop,
            duplicate,
            corrupt,
            reorder: drop / 2.0,
            ..Self::none()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style drop-rate override.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Builder-style duplicate-rate override.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Builder-style reorder-rate override.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Builder-style corrupt-rate override.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Builder-style retry-budget override.
    pub fn with_retry_budget(mut self, n: u32) -> Self {
        self.retry_budget = n;
        self
    }

    /// Builder-style stall-window configuration: `n` windows per rank of
    /// `stall_s` base seconds, spaced `every` sent messages apart. Stored as
    /// given: a spacing of 0 is refused by [`validate`](Self::validate), not
    /// run as 1.
    pub fn with_stalls(mut self, n: u32, stall_s: f64, every: u64) -> Self {
        self.stalls_per_rank = n;
        self.stall_s = stall_s;
        self.stall_every = every;
        self
    }

    /// True when any fault class is enabled. Inactive plans bypass the
    /// reliable transport entirely (zero overhead, legacy byte accounting).
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || self.corrupt > 0.0
            || self.stalls_per_rank > 0
    }

    /// Validate the plan (CLI plumbing aid): every probability must be a
    /// finite value in `[0, 1]`, every duration finite and not negative,
    /// the backoff at least 1, and the MTU and stall spacing nonzero.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("fault rate {name} = {p} is not in [0, 1]"));
            }
        }
        for (name, s) in [("stall_s", self.stall_s), ("rto_s", self.rto_s)] {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("{name} = {s} must be finite and >= 0"));
            }
        }
        if !(self.backoff >= 1.0 && self.backoff.is_finite()) {
            return Err(format!(
                "backoff = {} must be finite and >= 1",
                self.backoff
            ));
        }
        if self.mtu == 0 {
            return Err("mtu must be nonzero".into());
        }
        if self.stall_every == 0 {
            return Err("stall spacing must be >= 1 message".into());
        }
        Ok(())
    }
}

crate::json_fields! {
    FaultPlan:
    seed, drop, duplicate, reorder, corrupt, stalls_per_rank, stall_s, retry_budget, mtu,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Maximum explicitly scheduled crash windows in a [`CrashPlan`]. A fixed
/// array keeps the plan `Copy` (it lives inside `MachineConfig`); tests use
/// forced windows to place crashes precisely, production runs use `rate`.
pub const MAX_FORCED_CRASHES: usize = 4;

/// Sentinel for an unused forced-crash slot.
const NO_FORCED: (u32, u32) = (u32::MAX, u32::MAX);

/// A replayable description of *process* faults: seeded rank crashes
/// recovered through superstep-boundary checkpoints (see
/// [`crate::recovery`]).
///
/// Crash decisions are drawn from a per-rank SplitMix64 stream keyed by
/// `(seed, rank)` and advanced once per recovery probe (a collectively
/// consistent point of the superstep loop), so a crash schedule — like the
/// link-fault schedule — is a pure function of the plan and the program's
/// probe sequence, independent of host threads and of
/// [`SchedMode`](crate::sched::SchedMode). The draw counter is *never*
/// rolled back by a restore: a crash window fires exactly once.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashPlan {
    /// Seed of the per-rank crash lottery.
    pub seed: u64,
    /// Probability that a rank dies at any one recovery probe.
    pub rate: f64,
    /// Total rank deaths the job will recover from before escalating a
    /// typed [`FaultEscalation`](crate::recovery::FaultEscalation).
    pub recovery_budget: u32,
    /// Supersteps between checkpoints (≥ 1). Smaller means less replay on
    /// restore, more checkpoint traffic.
    pub checkpoint_interval: u64,
    /// Virtual seconds every survivor spends detecting a death (the
    /// timeout-at-next-collective model).
    pub detect_timeout_s: f64,
    /// Extra virtual seconds the respawned rank spends coming back up
    /// before its checkpoint is re-shipped.
    pub respawn_s: f64,
    /// Explicit crash windows as `(rank, probe_index)` pairs; unused slots
    /// hold `(u32::MAX, u32::MAX)`. Fires in addition to `rate`.
    pub forced: [(u32, u32); MAX_FORCED_CRASHES],
}

impl CrashPlan {
    /// No process faults (the default): ranks are immortal and the
    /// recovery machinery is compiled out of the hot path.
    pub fn none() -> Self {
        CrashPlan {
            seed: 0,
            rate: 0.0,
            recovery_budget: 8,
            checkpoint_interval: 4,
            detect_timeout_s: 200.0e-6,
            respawn_s: 1.0e-3,
            forced: [NO_FORCED; MAX_FORCED_CRASHES],
        }
    }

    /// Seeded random crashes at `rate` per rank per probe.
    pub fn random(seed: u64, rate: f64) -> Self {
        CrashPlan {
            seed,
            rate,
            ..Self::none()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style rate override.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Builder-style recovery-budget override.
    pub fn with_recovery_budget(mut self, n: u32) -> Self {
        self.recovery_budget = n;
        self
    }

    /// Builder-style checkpoint-interval override, stored as given: an
    /// interval of 0 is refused by [`validate`](Self::validate), not run as 1.
    pub fn with_checkpoint_interval(mut self, every: u64) -> Self {
        self.checkpoint_interval = every;
        self
    }

    /// Schedule an explicit crash of `rank` at probe `probe_index`.
    /// Panics when all [`MAX_FORCED_CRASHES`] slots are taken.
    pub fn with_forced(mut self, rank: u32, probe_index: u32) -> Self {
        let slot = self
            .forced
            .iter()
            .position(|&w| w == NO_FORCED)
            .expect("too many forced crash windows");
        self.forced[slot] = (rank, probe_index);
        self
    }

    /// True when any crash source is enabled.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 || self.forced_ranks().next().is_some()
    }

    /// The ranks the forced crash windows name, one per window.
    pub(crate) fn forced_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        (self.forced.iter())
            .filter(|&&w| w != NO_FORCED)
            .map(|&(rank, _)| rank as usize)
    }

    /// Validate the plan (CLI plumbing aid).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) || !self.rate.is_finite() {
            return Err(format!("crash rate {} is not in [0, 1]", self.rate));
        }
        if self.checkpoint_interval == 0 {
            return Err("checkpoint interval must be >= 1".into());
        }
        for (name, s) in [
            ("detect_timeout_s", self.detect_timeout_s),
            ("respawn_s", self.respawn_s),
        ] {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("{name} = {s} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

crate::json_fields! {
    CrashPlan:
    seed, rate, recovery_budget, checkpoint_interval, detect_timeout_s, respawn_s,
}

impl Default for CrashPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// One rank's crash lottery: a monotone stream of Bernoulli draws, one per
/// recovery probe. Pure function of `(plan.seed, rank, draw index)`; the
/// draw index only ever advances (restores do not rewind it), so a crash
/// window fires exactly once and the schedule is identical under any
/// scheduler mode or thread count.
#[derive(Clone, Debug)]
pub struct CrashLottery {
    rng: LinkRng,
    rate: f64,
    forced: [(u32, u32); MAX_FORCED_CRASHES],
    rank: u32,
    draws: u64,
}

impl CrashLottery {
    /// Build rank `rank`'s lottery under `plan`.
    pub fn for_rank(plan: &CrashPlan, rank: usize) -> Self {
        CrashLottery {
            rng: LinkRng::for_link(plan.seed ^ 0x4352_5348, rank, rank), // "CRSH"
            rate: plan.rate,
            forced: plan.forced,
            rank: rank as u32,
            draws: 0,
        }
    }

    /// Draw the next probe: does this rank die here? Always advances the
    /// stream, so forced windows never shift the random schedule.
    pub fn crash_now(&mut self) -> bool {
        let window = self.draws;
        self.draws += 1;
        let random = self.rng.coin(self.rate);
        let forced = self
            .forced
            .iter()
            .any(|&(r, w)| r == self.rank && w as u64 == window);
        random || forced
    }

    /// Probes drawn so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

/// The per-link fault lottery: one SplitMix64 stream per ordered `(src,
/// dst)` pair, owned and advanced exclusively by the sending rank — the
/// property that makes fault schedules independent of execution
/// interleaving.
#[derive(Clone, Debug)]
pub struct LinkRng {
    state: u64,
}

impl LinkRng {
    /// Derive the stream for link `src → dst` from the plan seed.
    pub fn for_link(seed: u64, src: usize, dst: usize) -> Self {
        let key = splitmix64(seed ^ (src as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        LinkRng {
            state: splitmix64(key ^ (dst as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)),
        }
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw. Always advances the stream, even for `p == 0`, so a
    /// plan with one rate zeroed still replays the same schedule for the
    /// other classes.
    pub fn coin(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// The fate the lottery assigns one transmission attempt of one frame.
/// Exactly six draws per attempt (five coins and one spare), so the stream
/// position is a pure function of the attempt count.
#[derive(Clone, Copy, Debug)]
pub struct FrameFate {
    /// Data frame lost in flight.
    pub drop: bool,
    /// Data frame delivered corrupted (the receiver's frame check rejects it).
    pub corrupt: bool,
    /// A second copy of the data frame is delivered.
    pub duplicate: bool,
    /// Data frame delayed behind its successors.
    pub reorder: bool,
    /// The acknowledgement for a delivered frame is lost on the way back.
    pub ack_drop: bool,
}

impl FrameFate {
    /// Draw the fate of one attempt from `rng` under `plan`.
    pub fn draw(rng: &mut LinkRng, plan: &FaultPlan) -> Self {
        let fate = FrameFate {
            drop: rng.coin(plan.drop),
            corrupt: rng.coin(plan.corrupt),
            duplicate: rng.coin(plan.duplicate),
            reorder: rng.coin(plan.reorder),
            ack_drop: rng.coin(plan.drop),
        };
        // the spare draw: every fault schedule on record was drawn six to
        // an attempt, and dropping it would shift all of them
        rng.next_u64();
        fate
    }
}

/// One rank's seeded stall schedule: virtual-time freezes triggered when
/// the rank's sent-message count crosses seeded thresholds. Pure function
/// of `(plan, rank)`.
#[derive(Clone, Debug, Default)]
pub struct StallSchedule {
    /// `(trigger_msg_count, duration_s)`, sorted by trigger count.
    windows: Vec<(u64, f64)>,
    /// Index of the next untriggered window.
    next: usize,
    /// Messages sent so far by this rank.
    sent: u64,
}

impl StallSchedule {
    /// Build rank `rank`'s schedule under `plan`.
    pub fn for_rank(plan: &FaultPlan, rank: usize) -> Self {
        let mut windows = Vec::with_capacity(plan.stalls_per_rank as usize);
        if plan.stalls_per_rank > 0 && plan.stall_s > 0.0 {
            let mut rng = LinkRng::for_link(plan.seed ^ 0x5741_4C4C, rank, rank); // "WALL"
            for i in 0..plan.stalls_per_rank as u64 {
                let trigger = i * plan.stall_every + rng.below(plan.stall_every);
                let jitter = 0.5 + rng.unit(); // 0.5×–1.5×
                windows.push((trigger, plan.stall_s * jitter));
            }
            windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }
        StallSchedule {
            windows,
            next: 0,
            sent: 0,
        }
    }

    /// Account one sent message; returns the total stall seconds (and
    /// window count) newly triggered by this send, if any.
    pub fn on_send(&mut self) -> Option<(f64, u64)> {
        self.sent += 1;
        let mut dt = 0.0;
        let mut hit = 0u64;
        while self.next < self.windows.len() && self.windows[self.next].0 < self.sent {
            dt += self.windows[self.next].1;
            hit += 1;
            self.next += 1;
        }
        (hit > 0).then_some((dt, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::lossy(1, 0.05, 0.02, 0.01).is_active());
    }

    #[test]
    fn stall_only_plan_is_active() {
        assert!(FaultPlan::none().with_stalls(2, 1e-4, 64).is_active());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(FaultPlan::none().with_drop(1.5).validate().is_err());
        assert!(FaultPlan::none().with_corrupt(-0.1).validate().is_err());
        assert!(FaultPlan::none().with_drop(f64::NAN).validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_timers_and_stalls() {
        let zero = FaultPlan::none().with_stalls(2, 1e-4, 0);
        assert_eq!(zero.stall_every, 0, "with_stalls keeps what it was given");
        assert!(zero.validate().is_err());
        assert!(FaultPlan::none().with_stalls(2, 1e-4, 1).validate().is_ok());
        assert!(FaultPlan::none()
            .with_stalls(2, f64::NAN, 8)
            .validate()
            .is_err());
        for bad in [
            FaultPlan {
                rto_s: -1e-6,
                ..FaultPlan::none()
            },
            FaultPlan {
                rto_s: f64::INFINITY,
                ..FaultPlan::none()
            },
            FaultPlan {
                backoff: 0.5,
                ..FaultPlan::none()
            },
            FaultPlan {
                backoff: f64::NAN,
                ..FaultPlan::none()
            },
            FaultPlan {
                mtu: 0,
                ..FaultPlan::none()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn link_streams_are_independent_and_replayable() {
        let a1: Vec<u64> = {
            let mut r = LinkRng::for_link(7, 0, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = LinkRng::for_link(7, 0, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = LinkRng::for_link(7, 1, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a1, a2, "same link must replay");
        assert_ne!(a1, b, "reverse link must draw a different stream");
    }

    #[test]
    fn fate_draw_count_is_fixed() {
        // the stream advances by the same amount whatever the rates, so
        // zeroing one class never perturbs another class's schedule
        let plan_a = FaultPlan::lossy(3, 0.5, 0.0, 0.0);
        let plan_b = FaultPlan::lossy(3, 0.5, 0.9, 0.9);
        let mut ra = LinkRng::for_link(3, 0, 1);
        let mut rb = LinkRng::for_link(3, 0, 1);
        for _ in 0..32 {
            let fa = FrameFate::draw(&mut ra, &plan_a);
            let fb = FrameFate::draw(&mut rb, &plan_b);
            assert_eq!(fa.drop, fb.drop, "drop schedule must not shift");
            assert_eq!(fa.ack_drop, fb.ack_drop);
        }
    }

    #[test]
    fn crash_plan_inactive_by_default() {
        assert!(!CrashPlan::none().is_active());
        assert!(CrashPlan::none().validate().is_ok());
        assert!(CrashPlan::random(1, 0.1).is_active());
        assert!(CrashPlan::none().with_forced(2, 5).is_active());
    }

    #[test]
    fn crash_plan_validation() {
        assert!(CrashPlan::random(1, 1.5).validate().is_err());
        assert!(CrashPlan::random(1, f64::NAN).validate().is_err());
        let zero = CrashPlan::none().with_checkpoint_interval(0);
        assert_eq!(
            zero.checkpoint_interval, 0,
            "the builder keeps what it was given"
        );
        assert!(zero.validate().is_err());
        assert!(CrashPlan::none()
            .with_checkpoint_interval(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn crash_lottery_replays_and_is_per_rank() {
        let plan = CrashPlan::random(42, 0.25);
        let draw = |rank: usize| -> Vec<bool> {
            let mut l = CrashLottery::for_rank(&plan, rank);
            (0..64).map(|_| l.crash_now()).collect()
        };
        assert_eq!(draw(0), draw(0), "same rank must replay");
        assert_ne!(draw(0), draw(1), "ranks draw independent streams");
    }

    #[test]
    fn forced_windows_fire_exactly_once_without_shifting_randoms() {
        let base = CrashPlan::random(7, 0.2);
        let forced = base.with_forced(3, 10);
        let random_only: Vec<bool> = {
            let mut l = CrashLottery::for_rank(&base, 3);
            (0..32).map(|_| l.crash_now()).collect()
        };
        let with_forced: Vec<bool> = {
            let mut l = CrashLottery::for_rank(&forced, 3);
            (0..32).map(|_| l.crash_now()).collect()
        };
        for (i, (a, b)) in random_only.iter().zip(&with_forced).enumerate() {
            if i == 10 {
                assert!(*b, "forced window must fire");
            } else {
                assert_eq!(a, b, "window {i}: forcing must not shift the stream");
            }
        }
        // another rank is untouched
        let mut l = CrashLottery::for_rank(&forced, 2);
        let mut m = CrashLottery::for_rank(&base, 2);
        for _ in 0..32 {
            assert_eq!(l.crash_now(), m.crash_now());
        }
    }

    #[test]
    fn stall_schedule_triggers_once_each() {
        let plan = FaultPlan::none().with_stalls(3, 1e-3, 10);
        let mut s = StallSchedule::for_rank(&plan, 2);
        let mut total = 0.0;
        let mut hits = 0;
        for _ in 0..100 {
            if let Some((dt, h)) = s.on_send() {
                total += dt;
                hits += h;
            }
        }
        assert_eq!(hits, 3, "every window triggers exactly once");
        assert!((3.0 * 0.5e-3..=3.0 * 1.5e-3).contains(&total));
        // replay
        let mut s2 = StallSchedule::for_rank(&plan, 2);
        let mut total2 = 0.0;
        for _ in 0..100 {
            if let Some((dt, _)) = s2.on_send() {
                total2 += dt;
            }
        }
        assert_eq!(total.to_bits(), total2.to_bits());
    }
}
