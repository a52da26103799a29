//! Machine construction and SPMD launch.
//!
//! [`Machine::run`] spawns one OS thread per rank over one shared mailbox
//! table ([`crate::sched`]), whichever [`SchedMode`] the configuration
//! names. A rank panic aborts every rank waiting in the table; a job in
//! which no rank can proceed panics with "deadlock" and the wait-for list;
//! and a job that ends with an envelope nobody received panics naming it
//! as an orphan.

use crate::cost::{ComputeModel, LogGP, Topology};
use crate::fault::{CrashPlan, FaultPlan};
use crate::rank::RankCtx;
use crate::recovery::FaultEscalation;
use crate::sched::{Collateral, SchedCore, SchedMode};
use crate::stats::NetStats;
use crate::trace::{TraceBuf, TraceConfig};
use std::sync::Arc;

/// Configuration of a simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of ranks (processes) in the job.
    pub ranks: usize,
    /// Per-message cost parameters.
    pub loggp: LogGP,
    /// Interconnect topology.
    pub topology: Topology,
    /// Per-rank compute throughput.
    pub compute: ComputeModel,
    /// Execution scheduling: free threads or deterministic replay.
    pub sched: SchedMode,
    /// Seeded lossy-network fault injection; [`FaultPlan::none`] (the
    /// default) is a perfect network and bypasses the reliable transport.
    pub fault: FaultPlan,
    /// Seeded process-crash injection with checkpoint/restart recovery;
    /// [`CrashPlan::none`] (the default) takes no checkpoints and draws no
    /// crash lotteries.
    pub crash: CrashPlan,
    /// Virtual-time tracing; [`TraceConfig::off`] (the default) records
    /// nothing and costs a `None` branch per instrumentation site.
    pub trace: TraceConfig,
}

impl MachineConfig {
    /// `ranks` ranks on a crossbar with default LogGP/compute constants and
    /// threaded scheduling.
    pub fn with_ranks(ranks: usize) -> Self {
        Self {
            ranks,
            loggp: LogGP::default(),
            topology: Topology::Crossbar,
            compute: ComputeModel::default(),
            sched: SchedMode::Threads,
            fault: FaultPlan::none(),
            crash: CrashPlan::none(),
            trace: TraceConfig::off(),
        }
    }

    /// Builder-style topology override.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Builder-style LogGP override.
    pub fn loggp(mut self, l: LogGP) -> Self {
        self.loggp = l;
        self
    }

    /// Builder-style compute-model override.
    pub fn compute(mut self, c: ComputeModel) -> Self {
        self.compute = c;
        self
    }

    /// Switch to the deterministic scheduler with `seed`. Seed 0 is the
    /// canonical schedule; any other seed fuzzes delivery order.
    pub fn deterministic(mut self, seed: u64) -> Self {
        self.sched = SchedMode::Deterministic { seed };
        self
    }

    /// Builder-style fault-injection override. Panics on an invalid plan
    /// (rates outside `[0, 1]`, zero MTU) — misconfigured fault plumbing
    /// should fail at machine construction, not mid-run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.fault = plan;
        self
    }

    /// Builder-style crash-injection override. Panics on an invalid plan
    /// (rate outside `[0, 1]`, zero checkpoint interval) — misconfigured
    /// crash plumbing should fail at machine construction, not mid-run.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid crash plan: {e}");
        }
        self.crash = plan;
        self
    }

    /// Builder-style tracing override.
    pub fn traced(mut self, on: bool) -> Self {
        self.trace = if on {
            TraceConfig::on()
        } else {
            TraceConfig::off()
        };
        self
    }
}

/// What a run produced: per-rank results and accounting.
#[derive(Debug)]
pub struct SimReport<R> {
    /// Return value of the SPMD closure on each rank, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank traffic/time counters, indexed by rank.
    pub stats: Vec<NetStats>,
    /// Simulated job time: the maximum final virtual clock over ranks.
    pub sim_time_s: f64,
    /// Host wall-clock seconds the simulation itself took.
    pub wall_time_s: f64,
    /// Per-rank trace buffers, indexed by rank; empty when tracing is off.
    pub traces: Vec<TraceBuf>,
}

impl<R> SimReport<R> {
    /// Aggregate traffic over all ranks.
    pub fn total_stats(&self) -> NetStats {
        crate::stats::aggregate(&self.stats)
    }
}

/// A simulated machine, ready to run SPMD jobs.
pub struct Machine {
    cfg: MachineConfig,
}

/// What each rank thread hands back: its result, traffic counters, final
/// simulated clock, and its trace buffer when tracing was on.
type RankOutcome<R> = (R, NetStats, f64, Option<Box<TraceBuf>>);

impl Machine {
    /// Build a machine from `cfg`. Panics if `cfg.ranks == 0`, or if the
    /// crash plan forces a crash on a rank the machine lacks (a window
    /// that would never fire).
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(cfg.ranks > 0, "a machine needs at least one rank");
        if let Some(rank) = cfg.crash.forced_ranks().find(|&r| r >= cfg.ranks) {
            panic!(
                "invalid crash plan: a forced crash on rank {rank}, but the machine has {} ranks",
                cfg.ranks
            );
        }
        Machine { cfg }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Run `f` as an SPMD program: one OS thread per rank, each receiving
    /// its own [`RankCtx`]. Returns when every rank's closure returns.
    ///
    /// A panic on any rank propagates out of `run` (with the rank id in the
    /// message), mirroring a fail-stop job abort; a typed
    /// [`FaultEscalation`] raised inside the simulation is re-panicked with
    /// its `Display` text so the diagnosable message survives. Use
    /// [`Machine::try_run`] to receive the escalation as an `Err` instead.
    /// Under either [`SchedMode`], a deadlocked job aborts immediately with
    /// the wait-for list instead of hanging, and a job that completes while
    /// undelivered (orphan) messages remain panics listing them — this is
    /// how misrouted messages surface.
    pub fn run<R, F>(&self, f: F) -> SimReport<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        match self.run_inner(f) {
            Ok(report) => report,
            Err((rank, e)) => panic!("rank {rank} panicked: {e}"),
        }
    }

    /// Like [`Machine::run`], but a [`FaultEscalation`] raised on any rank
    /// (transport retry-budget exhaustion, recovery-budget exhaustion, a
    /// lost checkpoint) comes back as `Err` instead of a panic, so drivers
    /// can degrade gracefully. Non-escalation panics still propagate.
    pub fn try_run<R, F>(&self, f: F) -> Result<SimReport<R>, FaultEscalation>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.run_inner(f).map_err(|(_, e)| e)
    }

    fn run_inner<R, F>(&self, f: F) -> Result<SimReport<R>, (usize, FaultEscalation)>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        let p = self.cfg.ranks;
        let start = std::time::Instant::now();

        let core = Arc::new(SchedCore::new(p, self.cfg.sched));

        // Per-rank join result: the outcome, a typed escalation, a panic
        // of the rank's own, or the abort another rank's failure raised on
        // it. Collected (not short-circuited) because the rank that failed
        // first is not necessarily rank 0 — its peers die with collateral
        // aborts that must not shadow it.
        enum Joined<R> {
            Done(RankOutcome<R>),
            Escalated(FaultEscalation),
            Panicked(String),
            Aborted(String),
        }

        let joined: Vec<Joined<R>> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for rank in 0..p {
                let cfg = self.cfg;
                let f = &f;
                let core = Arc::clone(&core);
                let h = std::thread::Builder::new()
                    .name(format!("simnet-rank-{rank}"))
                    .spawn_scoped(scope, move || {
                        core.acquire(rank);
                        let mut ctx = RankCtx::new(rank, p, Arc::clone(&core), &cfg);
                        // Fail-stop semantics: a panic on one rank aborts
                        // the job, so peers blocked in recv abort too,
                        // instead of deadlocking it.
                        let r = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            f(&mut ctx)
                        })) {
                            Ok(r) => r,
                            Err(payload) => {
                                core.abort_all();
                                std::panic::resume_unwind(payload);
                            }
                        };
                        let (stats, now, trace) = ctx.into_parts();
                        (r, stats, now, trace)
                    })
                    .expect("spawning a rank thread");
                handles.push(h);
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(outcome) => Joined::Done(outcome),
                    Err(payload) => match payload.downcast_ref::<FaultEscalation>() {
                        Some(e) => Joined::Escalated(e.clone()),
                        None if let Some(Collateral(msg)) = payload.downcast_ref() => {
                            Joined::Aborted(msg.clone())
                        }
                        None => {
                            // surface the original panic text so job aborts
                            // are debuggable from the top-level message
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "<non-string panic payload>".into());
                            Joined::Panicked(msg)
                        }
                    },
                })
                .collect()
        });

        // A typed escalation wins over the collateral aborts of the peers
        // it aborted; it also skips the orphan check — an aborted job
        // legitimately leaves messages in flight. Otherwise a rank's own
        // panic is the root cause, reported before any collateral abort,
        // the lowest rank first either way.
        for (rank, j) in joined.iter().enumerate() {
            if let Joined::Escalated(e) = j {
                return Err((rank, e.clone()));
            }
        }
        let failed = |own: bool| {
            joined.iter().enumerate().find_map(|(rank, j)| match j {
                Joined::Panicked(msg) if own => Some((rank, msg)),
                Joined::Aborted(msg) if !own => Some((rank, msg)),
                _ => None,
            })
        };
        if let Some((rank, msg)) = failed(true).or_else(|| failed(false)) {
            panic!("rank {rank} panicked: {msg}");
        }
        let outcome: Vec<RankOutcome<R>> = joined
            .into_iter()
            .map(|j| match j {
                Joined::Done(o) => o,
                _ => unreachable!("failures reported above"),
            })
            .collect();

        // Orphan detection: a finished job must have consumed every
        // message it sent; leftovers mean a misroute or forgotten recv.
        let orphans: Vec<String> = (core.orphans().into_iter())
            .map(|(dest, src, tag, seq)| {
                format!("rank {dest} never received (src {src}, tag {tag:#x}, seq {seq})")
            })
            .collect();
        assert!(
            orphans.is_empty(),
            "orphan message(s) left in mailboxes at job end — misrouted send or missing \
             recv: {}",
            orphans.join("; ")
        );

        let mut results = Vec::with_capacity(p);
        let mut stats = Vec::with_capacity(p);
        let mut traces = Vec::new();
        let mut sim_time_s: f64 = 0.0;
        for (r, s, now, trace) in outcome {
            results.push(r);
            stats.push(s);
            if let Some(buf) = trace {
                traces.push(*buf);
            }
            sim_time_s = sim_time_s.max(now);
        }
        Ok(SimReport {
            results,
            stats,
            sim_time_s,
            wall_time_s: start.elapsed().as_secs_f64(),
            traces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let rep = Machine::new(MachineConfig::with_ranks(1)).run(|ctx| {
            ctx.charge_compute(1_000_000);
            ctx.rank()
        });
        assert_eq!(rep.results, vec![0]);
        assert!(rep.sim_time_s > 0.0);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[1u64, 2, 3]);
                ctx.recv::<u64>(1, 8)
            } else {
                let got = ctx.recv::<u64>(0, 7);
                ctx.send(0, 8, &[got.iter().sum::<u64>()]);
                got
            }
        });
        assert_eq!(rep.results[0], vec![6]);
        assert_eq!(rep.results[1], vec![1, 2, 3]);
        // one user message each way
        assert_eq!(rep.stats[0].user_msgs, 1);
        assert_eq!(rep.stats[1].user_msgs, 1);
    }

    #[test]
    fn tag_matching_reorders() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_one(1, 2, 222u64);
                ctx.send_one(1, 1, 111u64);
                0
            } else {
                let first: u64 = ctx.recv_one(0, 1);
                let second: u64 = ctx.recv_one(0, 2);
                assert_eq!((first, second), (111, 222));
                1
            }
        });
        assert_eq!(rep.results, vec![0, 1]);
    }

    #[test]
    fn virtual_time_accounts_for_transit() {
        let cfg = MachineConfig::with_ranks(2);
        let rep = Machine::new(cfg).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_one(1, 1, 42u64);
            } else {
                let _: u64 = ctx.recv_one(0, 1);
            }
            ctx.now()
        });
        // receiver's clock must include latency + overheads
        assert!(rep.results[1] >= cfg.loggp.latency);
        assert!(rep.sim_time_s >= rep.results[1]);
    }

    #[test]
    #[should_panic(expected = "a forced crash on rank 4, but the machine has 4 ranks")]
    fn forced_crash_on_a_missing_rank_is_refused() {
        let plan = CrashPlan::none().with_forced(4, 0);
        Machine::new(MachineConfig::with_ranks(4).crashes(plan));
    }

    #[test]
    fn results_are_rank_ordered() {
        let rep = Machine::new(MachineConfig::with_ranks(8)).run(|ctx| ctx.rank() * 10);
        assert_eq!(rep.results, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }

    // ---- deterministic scheduler ----

    fn det(ranks: usize, seed: u64) -> Machine {
        Machine::new(MachineConfig::with_ranks(ranks).deterministic(seed))
    }

    #[test]
    fn deterministic_roundtrip_matches_threads() {
        let prog = |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, &[1u64, 2, 3]);
                ctx.recv::<u64>(1, 8)
            } else {
                let got = ctx.recv::<u64>(0, 7);
                ctx.send(0, 8, &[got.iter().sum::<u64>()]);
                got
            }
        };
        let threaded = Machine::new(MachineConfig::with_ranks(2)).run(prog);
        let canonical = det(2, 0).run(prog);
        assert_eq!(threaded.results, canonical.results);
        assert_eq!(threaded.stats, canonical.stats);
        assert_eq!(threaded.sim_time_s, canonical.sim_time_s);
    }

    #[test]
    fn same_seed_replays_identically() {
        let prog = |ctx: &mut RankCtx| {
            let p = ctx.size();
            let mut acc = ctx.rank() as u64;
            for round in 0..3 {
                for d in 0..p {
                    if d != ctx.rank() {
                        ctx.send_one(d, 10 + round, acc);
                    }
                }
                for s in 0..p {
                    if s != ctx.rank() {
                        acc = acc.wrapping_add(ctx.recv_one::<u64>(s, 10 + round));
                    }
                }
            }
            (acc, ctx.now())
        };
        let a = det(4, 0xFEED).run(prog);
        let b = det(4, 0xFEED).run(prog);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sim_time_s, b.sim_time_s);
    }

    #[test]
    fn different_seeds_same_values() {
        let prog = |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                (1..ctx.size())
                    .map(|s| ctx.recv_one::<u64>(s, 3))
                    .sum::<u64>()
            } else {
                ctx.send_one(0, 3, ctx.rank() as u64);
                0
            }
        };
        let vals: Vec<u64> = (0..8u64)
            .map(|seed| det(5, seed).run(prog).results[0])
            .collect();
        assert!(vals.iter().all(|&v| v == 1 + 2 + 3 + 4));
    }

    /// Run `f` on `ranks` ranks under each scheduler; each run must panic
    /// with `expected` in its message. The last panic is raised again, so a
    /// `should_panic` test sees it; a wrong text fails with a message that
    /// names neither (the text goes to stderr), so it cannot pass one.
    fn panics_under_both_modes(ranks: usize, expected: &str, f: impl Fn(&mut RankCtx) + Sync) {
        let mut last = None;
        for sched in [SchedMode::Threads, SchedMode::Deterministic { seed: 0 }] {
            let cfg = MachineConfig {
                sched,
                ..MachineConfig::with_ranks(ranks)
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Machine::new(cfg).run(&f);
            }));
            let payload = run.expect_err("the job must fail");
            let msg = (payload.downcast_ref::<String>().cloned())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            if !msg.contains(expected) {
                eprintln!("{sched:?} failed with: {msg}");
                panic!("{sched:?}: the failure text lacks the expected words");
            }
            last = Some(payload);
        }
        std::panic::resume_unwind(last.expect("two modes ran"));
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        // Rank 0 waits for a message rank 1 never sends; rank 1 finishes.
        // Each wait is named.
        panics_under_both_modes(2, "rank 0 waits for (src 1, tag 0x9)", |ctx| {
            if ctx.rank() == 0 {
                ctx.recv::<u64>(1, 9);
            }
        });
    }

    #[test]
    #[should_panic(expected = "orphan")]
    fn misrouted_message_is_caught() {
        // Rank 0 sends to rank 1 with a tag nobody receives; the job
        // completes, and teardown flags the orphan envelope.
        panics_under_both_modes(2, "rank 1 never received (src 0, tag 0x77", |ctx| {
            if ctx.rank() == 0 {
                ctx.send_one(1, 0x77, 1u64);
            }
        });
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn rank_panic_propagates() {
        // Rank 1 fails; rank 0 blocks on a message that will never come,
        // and the abort raised by rank 1's failure unblocks it with a
        // panic instead of a deadlock. The job's failure is rank 1's own,
        // not rank 0's collateral abort, though rank 0 comes first.
        panics_under_both_modes(2, "rank 1 panicked: injected fault", |ctx| {
            if ctx.rank() == 1 {
                panic!("injected fault");
            }
            ctx.recv::<u64>(1, 9);
        });
    }

    #[test]
    fn delivery_order_is_identity_for_seed_zero_and_threads() {
        let rep = Machine::new(MachineConfig::with_ranks(1)).run(|ctx| ctx.delivery_order(5));
        assert_eq!(rep.results[0], vec![0, 1, 2, 3, 4]);
        let rep = det(1, 0).run(|ctx| ctx.delivery_order(5));
        assert_eq!(rep.results[0], vec![0, 1, 2, 3, 4]);
    }

    // ---- fault injection ----

    /// A little all-pairs exchange whose result depends on every payload.
    fn exchange_prog(ctx: &mut RankCtx) -> u64 {
        let p = ctx.size();
        let me = ctx.rank();
        let vals: Vec<u64> = (0..64).map(|i| (me as u64) << 32 | i).collect();
        for d in 0..p {
            if d != me {
                ctx.send(d, 5, &vals);
            }
        }
        let mut acc = vals.iter().sum::<u64>();
        for s in 0..p {
            if s != me {
                acc = acc.wrapping_add(ctx.recv::<u64>(s, 5).iter().sum::<u64>());
            }
        }
        acc
    }

    #[test]
    fn lossy_network_is_masked_by_reliable_transport() {
        let clean = Machine::new(MachineConfig::with_ranks(4)).run(exchange_prog);
        let plan = crate::fault::FaultPlan::lossy(0xBAD_5EED, 0.2, 0.1, 0.1);
        let lossy = Machine::new(MachineConfig::with_ranks(4).faults(plan)).run(exchange_prog);
        assert_eq!(
            clean.results, lossy.results,
            "faults must not change values"
        );
        assert!(
            lossy.total_stats().saw_faults(),
            "a 20% drop rate must exercise the transport: {:?}",
            lossy.total_stats()
        );
        // message/byte accounting counts application payloads, not frames
        assert_eq!(
            clean.total_stats().user_bytes,
            lossy.total_stats().user_bytes
        );
        assert_eq!(clean.total_stats().user_msgs, lossy.total_stats().user_msgs);
        // retransmissions cost virtual time
        assert!(lossy.sim_time_s > clean.sim_time_s);
    }

    #[test]
    fn fault_schedule_is_identical_across_sched_modes() {
        let plan = crate::fault::FaultPlan::lossy(42, 0.15, 0.05, 0.05);
        let threads = Machine::new(MachineConfig::with_ranks(4).faults(plan)).run(exchange_prog);
        let canon = Machine::new(MachineConfig::with_ranks(4).faults(plan).deterministic(0))
            .run(exchange_prog);
        assert_eq!(threads.results, canon.results);
        assert_eq!(
            threads.stats, canon.stats,
            "per-rank fault counters must not depend on the scheduler"
        );
        assert_eq!(threads.sim_time_s, canon.sim_time_s);
    }

    #[test]
    fn same_fault_seed_replays_identically() {
        let plan = crate::fault::FaultPlan::lossy(9, 0.3, 0.1, 0.1).with_stalls(2, 1e-4, 16);
        let a = Machine::new(MachineConfig::with_ranks(3).faults(plan)).run(exchange_prog);
        let b = Machine::new(MachineConfig::with_ranks(3).faults(plan)).run(exchange_prog);
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sim_time_s.to_bits(), b.sim_time_s.to_bits());
    }

    #[test]
    #[should_panic(expected = "retry budget exhausted on link")]
    fn retry_budget_exhaustion_fails_stop() {
        // drop rate 1.0: no frame ever gets through; the transport must
        // escalate to a structured TransportError instead of hanging
        let plan = crate::fault::FaultPlan::lossy(1, 1.0, 0.0, 0.0).with_retry_budget(3);
        Machine::new(MachineConfig::with_ranks(2).faults(plan)).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_one(1, 5, 7u64);
            } else {
                let _: u64 = ctx.recv_one(0, 5);
            }
        });
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_fault_plan_rejected_at_construction() {
        let _ = MachineConfig::with_ranks(2).faults(crate::fault::FaultPlan::none().with_drop(2.0));
    }

    #[test]
    fn try_run_returns_typed_transport_escalation() {
        // same scenario as retry_budget_exhaustion_fails_stop, but via
        // try_run: the escalation arrives as a typed Err, not a panic
        let plan = crate::fault::FaultPlan::lossy(1, 1.0, 0.0, 0.0).with_retry_budget(3);
        let res = Machine::new(MachineConfig::with_ranks(2).faults(plan)).try_run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_one(1, 5, 7u64);
            } else {
                let _: u64 = ctx.recv_one(0, 5);
            }
        });
        match res {
            Err(FaultEscalation::Transport(e)) => {
                assert!(format!("{e}").contains("retry budget exhausted on link"));
            }
            Err(other) => panic!("wrong escalation: {other:?}"),
            Ok(_) => panic!("a 100% drop rate cannot succeed"),
        }
    }

    #[test]
    fn try_run_succeeds_on_clean_network() {
        let res = Machine::new(MachineConfig::with_ranks(2)).try_run(|ctx| ctx.rank());
        assert_eq!(res.unwrap().results, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid crash plan")]
    fn invalid_crash_plan_rejected_at_construction() {
        let _ =
            MachineConfig::with_ranks(2).crashes(crate::fault::CrashPlan::none().with_rate(1.5));
    }

    #[test]
    fn delivery_order_is_a_seeded_permutation() {
        let perm_for =
            |seed: u64| det(1, seed).run(|ctx| ctx.delivery_order(16)).results[0].clone();
        let a = perm_for(1);
        let b = perm_for(1);
        assert_eq!(a, b, "same seed must replay the same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "must be a permutation");
        let c = perm_for(2);
        assert_ne!(a, c, "different seeds should permute differently");
    }
}
