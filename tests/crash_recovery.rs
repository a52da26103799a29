//! Crash-fault tolerance acceptance: seeded rank crashes recovered through
//! superstep-boundary checkpoints must be *invisible* in the results.
//!
//! The contract mirrors the link-fault one: with the same generator and
//! scheduler seeds, ANY crash schedule that stays within the recovery
//! budget (and never kills a rank together with its checkpoint buddy)
//! yields byte-identical distances, parents, and kernel counters to the
//! fault-free run — only virtual time and the crash/recovery counters in
//! NetStats move. Out-of-budget schedules end in a typed
//! [`FaultEscalation`], never a panic.

use std::process::Command;

use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::partition::{assemble_local_graph, Block1D};
use graph500::simnet::{Machine, MachineConfig, SchedMode, TraceCode};
use graph500::sssp::{try_batched_delta_stepping, BatchSpec, Direction, Grid2DSssp, OptConfig};
use graph500::validate::{validate_sssp, SsspResult};
use graph500::{
    run_bfs_benchmark, run_sssp_benchmark, try_run_bfs_benchmark, try_run_sssp_benchmark,
    BenchmarkConfig, BenchmarkReport, CrashPlan, FaultEscalation,
};

// ---------- shared helpers ----------

fn run_1d(
    scale: u32,
    ranks: usize,
    sched: Option<u64>,
    crash: CrashPlan,
) -> graph500::BenchmarkReport {
    let mut cfg = BenchmarkConfig::quick(scale, ranks).crashes(crash);
    if let Some(seed) = sched {
        cfg = cfg.deterministic(seed);
    }
    cfg.keep_paths = true;
    run_sssp_benchmark(&cfg)
}

/// Distances, parents, and every discrete kernel counter must be bitwise
/// equal; virtual time legitimately moves (detection timeouts, respawn,
/// checkpoint traffic, replayed supersteps all cost simulated seconds).
fn assert_same_outputs(clean: &graph500::BenchmarkReport, crashy: &graph500::BenchmarkReport) {
    assert!(clean.all_validated() && crashy.all_validated());
    assert_eq!(clean.runs.len(), crashy.runs.len());
    for (a, b) in clean.runs.iter().zip(&crashy.runs) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.traversed_edges, b.traversed_edges);
        let strip_time = |s: &graph500::sssp::SsspRunStats| {
            let mut s = s.clone();
            s.sim_time_s = 0.0;
            s.compute_s = 0.0;
            s.comm_s = 0.0;
            s
        };
        assert_eq!(
            strip_time(&a.stats),
            strip_time(&b.stats),
            "kernel counters moved under crashes (root {})",
            a.root
        );
        let (pa, pb) = (
            a.paths.as_ref().expect("kept"),
            b.paths.as_ref().expect("kept"),
        );
        for v in 0..pa.dist.len() {
            assert_eq!(
                pa.dist[v].to_bits(),
                pb.dist[v].to_bits(),
                "root {}: distance moved at vertex {v}",
                a.root
            );
        }
        assert_eq!(pa.parent, pb.parent, "root {}: parents moved", a.root);
    }
}

// ---------- byte-identity at scale 10, every kernel ----------

/// 1D acceptance: a seeded random crash schedule is byte-identical to the
/// fault-free run under both schedulers, and the schedule provably fired.
#[test]
fn scale10_1d_crashy_matches_fault_free_both_schedulers() {
    // Seeds chosen so the schedule crashes at least one rank per benchmark
    // run without ever killing a buddy pair (the schedule is a pure
    // function of (seed, rate, rank count, probe sequence), so this is
    // stable).
    let plan = |seed| {
        CrashPlan::random(seed, 0.004)
            .with_checkpoint_interval(3)
            .with_recovery_budget(64)
    };
    // 5 ranks as well: a ragged count, so restore-and-replay runs through
    // agreements (and crash verdicts) that fold ranks in and out. And 16,
    // where nearly every exchange takes the grouped route: a mid-bucket
    // crash rolls back between two-hop exchanges and replays them.
    let cases = [
        (8, None, 1),
        (8, Some(0), 1),
        (5, Some(0), 1),
        (16, Some(0), 6),
    ];
    for (ranks, sched, seed) in cases {
        let plan = plan(seed);
        let clean = run_1d(10, ranks, sched, CrashPlan::none());
        let crashy = run_1d(10, ranks, sched, plan);
        assert_same_outputs(&clean, &crashy);
        assert!(
            crashy.net.crashes > 0 && crashy.net.restores > 0,
            "crash schedule never fired ({ranks} ranks, {sched:?}): {:?}",
            crashy.net
        );
        assert!(crashy.net.replayed_supersteps > 0, "{:?}", crashy.net);
        assert_eq!(clean.net.crashes, 0, "clean run saw crashes");
        assert_eq!(clean.net.checkpoints, 0, "inactive plan took checkpoints");
    }
}

/// The heavy fetch under crashes. `Pull` fetches in every bucket, so each
/// rollback replays at least one request/reply round from checkpointed
/// state (`settled_seen`, the unsettled-arc counters) plus scratch the
/// replayed bucket must rebuild for itself. Δ is the degree rule's: on 128
/// vertices a rank the machine's price makes every arc light, and the
/// fetch needs heavy arcs.
#[test]
fn scale10_1d_heavy_fetch_replays_byte_identically() {
    let run = |crash: CrashPlan| {
        let mut cfg = BenchmarkConfig::quick(10, 8).crashes(crash).traced(true);
        cfg.opts = OptConfig::all_on()
            .with_direction(Direction::Pull)
            .with_delta(0.125);
        cfg.keep_paths = true;
        run_sssp_benchmark(&cfg)
    };
    let plan = CrashPlan::random(1, 0.004)
        .with_checkpoint_interval(3)
        .with_recovery_budget(64);
    let (clean, crashy) = (run(CrashPlan::none()), run(plan));
    assert_same_outputs(&clean, &crashy);
    for r in &clean.runs {
        assert!(r.stats.heavy_pulls > 0, "root {}: {:?}", r.root, r.stats);
    }
    // every heavy superstep is a fetch under `Pull`; the arcs its scans
    // relaxed are the heavy arcs it fetched for
    let trace = clean.trace.as_ref().expect("traced");
    let fetched: u64 = trace
        .events
        .iter()
        .filter(|(_, ev)| ev.code == TraceCode::Relaxations && ev.b == 1)
        .map(|(_, ev)| ev.a)
        .sum();
    assert!(fetched > 0, "no heavy arc was fetched");
    assert!(
        crashy.net.restores > 0 && crashy.net.replayed_supersteps > 0,
        "crash schedule never fired: {:?}",
        crashy.net
    );
}

/// 2D acceptance: the grid kernel recovers forced crash windows and stays
/// byte-identical, under both schedulers.
#[test]
fn scale10_2d_crashy_matches_fault_free_both_schedulers() {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(10, 20220814));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let root = {
        let mut has_edge = vec![false; n as usize];
        for e in el.iter() {
            has_edge[e.u as usize] = true;
            has_edge[e.v as usize] = true;
        }
        (0..n).find(|&v| has_edge[v as usize]).expect("nonempty")
    };
    let run = |sched: SchedMode, crash: CrashPlan| {
        let cfg = MachineConfig::with_ranks(p).sched(sched).crashes(crash);
        let report = Machine::new(cfg).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
            let stats = g.run(ctx, root);
            (g.gather(ctx), stats)
        });
        let net = report.total_stats();
        let (sp, stats) = report.results.into_iter().next().expect("rank 0");
        (sp, stats, net)
    };
    // Forced windows make the schedule explicit: two separated crashes,
    // never a buddy pair.
    let plan = CrashPlan::none()
        .with_forced(1, 2)
        .with_forced(3, 7)
        .with_checkpoint_interval(2);
    for sched in [SchedMode::Threads, SchedMode::Deterministic { seed: 0 }] {
        let (sp_c, st_c, net_c) = run(sched, CrashPlan::none());
        let (sp_f, st_f, net_f) = run(sched, plan);
        assert_eq!(st_c, st_f, "2D kernel counters moved under crashes");
        for v in 0..n as usize {
            assert_eq!(
                sp_c.dist[v].to_bits(),
                sp_f.dist[v].to_bits(),
                "distance moved at {v}"
            );
        }
        assert_eq!(sp_c.parent, sp_f.parent, "parents moved under crashes");
        assert_eq!(net_f.crashes, 2, "{net_f:?}");
        assert!(net_f.restores >= 2, "{net_f:?}");
        assert_eq!(net_c.crashes, 0);
        let res = SsspResult {
            root,
            dist: sp_f.dist.clone(),
            parent: sp_f.parent.clone(),
        };
        assert!(validate_sssp(n, &el, &res).ok);
    }
}

/// Batched acceptance: the kernel over several lanes (full + point-to-point
/// lanes, early retirement and all) recovers crashes byte-identically —
/// lanes choosing their direction per step, and lanes that only pull, whose
/// frontier broadcasts and heavy-fetch request/reply pairs are then what a
/// restore replays.
#[test]
fn scale10_batched_crashy_matches_fault_free() {
    for dir in [Direction::Hybrid, Direction::Pull] {
        batched_crashy_matches_fault_free(dir);
    }
}

fn batched_crashy_matches_fault_free(dir: Direction) {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(10, 20220814));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let specs = [
        BatchSpec::full(1),
        BatchSpec::p2p(3, 200),
        BatchSpec::full(5),
        BatchSpec::p2p(7, 11).with_bound(6.0),
    ];
    let run = |crash: CrashPlan| {
        let cfg = MachineConfig::with_ranks(p).deterministic(0).crashes(crash);
        let report = Machine::new(cfg).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let opts = OptConfig::all_on().with_delta(0.25).with_direction(dir);
            let (lanes, mut st) =
                try_batched_delta_stepping(ctx, &g, &specs, &opts).expect("in budget");
            // virtual time legitimately moves under crashes
            (st.sim_time_s, st.compute_s, st.comm_s) = (0.0, 0.0, 0.0);
            (lanes, st)
        });
        let net = report.total_stats();
        let (lanes, st) = report.results.into_iter().next().expect("rank 0");
        (lanes, st, net)
    };
    let plan = CrashPlan::none()
        .with_forced(0, 3)
        .with_forced(2, 9)
        .with_checkpoint_interval(2);
    let (lanes_c, st_c, net_c) = run(CrashPlan::none());
    let (lanes_f, st_f, net_f) = run(plan);
    assert_eq!(st_c, st_f, "batched kernel counters moved under crashes");
    assert_eq!(lanes_c.len(), lanes_f.len());
    for (s, (c, f)) in lanes_c.iter().zip(&lanes_f).enumerate() {
        assert_eq!(c.paths.dist.len(), f.paths.dist.len());
        for i in 0..c.paths.dist.len() {
            let (dc, df) = (c.paths.dist[i], f.paths.dist[i]);
            assert_eq!(dc.to_bits(), df.to_bits(), "lane {s} slot {i}");
        }
        assert_eq!(c.paths.parent, f.paths.parent, "lane {s}");
        assert_eq!(c.early_exit, f.early_exit, "lane {s}");
        assert_eq!(
            c.target.0.to_bits(),
            f.target.0.to_bits(),
            "lane {s} target distance moved"
        );
        assert_eq!(c.target.1, f.target.1, "lane {s}");
        assert_eq!(c.pruned, f.pruned, "lane {s}");
    }
    assert_eq!(net_f.crashes, 2, "{net_f:?}");
    assert!(
        net_f.restores >= 2 && net_f.replayed_supersteps > 0,
        "{net_f:?}"
    );
    assert_eq!(net_c.crashes, 0);
}

/// BFS on the bucket-epoch driver: a crash schedule leaves levels and every
/// kernel counter as the fault-free run left them, under both schedulers,
/// and parents too where delivery order is canonical (threads, seed 0).
/// Under a fuzzed seed a replayed push level applies its claims in another
/// delivery order, and a claim's parent is first-claim-wins, so there the
/// tree need only validate.
#[test]
fn scale10_bfs_crashy_matches_fault_free_both_schedulers() {
    let plan = CrashPlan::random(1, 0.01)
        .with_checkpoint_interval(2)
        .with_recovery_budget(64);
    for sched in [None, Some(0), Some(5)] {
        let run = |crash| {
            let mut cfg = BenchmarkConfig::quick(10, 8).crashes(crash);
            if let Some(seed) = sched {
                cfg = cfg.deterministic(seed);
            }
            cfg.keep_paths = true;
            run_bfs_benchmark(&cfg)
        };
        let (mut clean, mut crashy) = (run(CrashPlan::none()), run(plan));
        assert!(
            crashy.net.crashes > 0 && crashy.net.restores > 0,
            "crash schedule never fired ({sched:?}): {:?}",
            crashy.net
        );
        if sched.is_some_and(|seed| seed != 0) {
            for rep in [&mut clean, &mut crashy] {
                forget_parents(rep);
            }
        }
        assert_same_outputs(&clean, &crashy);
    }
}

/// Drop a report's kept parents, leaving levels (as distances) to compare.
fn forget_parents(rep: &mut BenchmarkReport) {
    for r in &mut rep.runs {
        r.paths.as_mut().expect("kept").parent.clear();
    }
}

// ---------- crash during a collective ----------

/// A forced crash fires at the very first probe after the epoch-0
/// checkpoint, so every survivor is already blocked inside the agreement
/// collective when the victim dies: detection must deliver the identical
/// verdict to all of them mid-collective and the run must still match the
/// fault-free one.
#[test]
fn crash_during_first_collective_recovers() {
    let plan = CrashPlan::none()
        .with_forced(2, 0)
        .with_checkpoint_interval(1);
    for sched in [None, Some(0)] {
        let clean = run_1d(8, 4, sched, CrashPlan::none());
        let crashy = run_1d(8, 4, sched, plan);
        assert_same_outputs(&clean, &crashy);
        // one forced window per benchmark root (the draw counter restarts
        // with each Machine::run kernel invocation)
        assert!(crashy.net.crashes > 0, "{:?}", crashy.net);
        assert!(crashy.net.restores > 0, "{:?}", crashy.net);
    }
}

// ---------- unrecoverable schedules: typed errors, never panics ----------

/// A rank dying in the same window as its checkpoint buddy makes the
/// snapshot unrecoverable: the job must end with `CheckpointLost` on every
/// rank, not hang and not panic.
#[test]
fn buddy_pair_crash_is_checkpoint_lost() {
    // Buddy of rank 1 is rank 2 (of 4): kill both at the same probe.
    let plan = CrashPlan::none()
        .with_forced(1, 1)
        .with_forced(2, 1)
        .with_checkpoint_interval(2);
    for sched in [None, Some(0)] {
        let mut cfg = BenchmarkConfig::quick(8, 4).crashes(plan);
        if let Some(seed) = sched {
            cfg = cfg.deterministic(seed);
        }
        match try_run_sssp_benchmark(&cfg) {
            Err(FaultEscalation::CheckpointLost { rank, buddy }) => {
                assert_eq!((rank, buddy), (1, 2), "wrong pair reported ({sched:?})");
            }
            other => panic!("expected CheckpointLost, got {other:?} ({sched:?})"),
        }
    }
}

/// More crashes than the budget allows ends in `RecoveryBudgetExhausted`
/// carrying the budget and the epoch — identically under both schedulers,
/// for SSSP and BFS alike, and with the diagnosable message text preserved
/// in `Display`.
#[test]
fn budget_exhaustion_is_typed_error_both_schedulers() {
    let plan = CrashPlan::random(0xEE, 1.0)
        .with_recovery_budget(1)
        .with_checkpoint_interval(2);
    for run in [try_run_sssp_benchmark, try_run_bfs_benchmark] {
        for sched in [None, Some(0)] {
            let mut cfg = BenchmarkConfig::quick(8, 2).crashes(plan);
            if let Some(seed) = sched {
                cfg = cfg.deterministic(seed);
            }
            match run(&cfg) {
                Err(e @ FaultEscalation::RecoveryBudgetExhausted { budget, .. }) => {
                    assert_eq!(budget, 1);
                    let msg = e.to_string();
                    assert!(
                        msg.contains("recovery budget exhausted"),
                        "lost the diagnosable message: {msg}"
                    );
                }
                other => panic!("expected RecoveryBudgetExhausted, got {other:?} ({sched:?})"),
            }
        }
    }
}

// ---------- cross-process, cross-thread-count JSON identity ----------

fn run_normalized(threads: usize, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_g500"))
        .args(args)
        .env("G500_THREADS", threads.to_string())
        .output()
        .expect("spawn g500");
    assert!(
        out.status.success(),
        "g500 {:?} failed under {} threads: {}",
        args,
        threads,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf8 json")
        .lines()
        .filter(|l| !l.contains("wall_time_s") && !l.contains("\"threads\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The crash schedule is keyed to (seed, rank, probe index) — never to
/// host threads — so a crashy run's whole JSON report (distances, crash
/// counters, virtual times) is bitwise identical at any `G500_THREADS`.
#[test]
fn crashy_sssp_json_is_bitwise_identical_across_thread_counts() {
    let args = [
        "sssp",
        "--scale",
        "9",
        "--ranks",
        "4",
        "--roots",
        "4",
        "--deterministic",
        "--crash-seed",
        "49407",
        "--crash-rate",
        "0.002",
        "--checkpoint-interval",
        "3",
        "--recovery-budget",
        "64",
        "--json",
    ];
    let one = run_normalized(1, &args);
    let four = run_normalized(4, &args);
    assert!(!one.is_empty(), "empty JSON");
    assert_eq!(
        one, four,
        "crashy g500 output differs between G500_THREADS=1 and =4"
    );
    // and the run really did crash and recover
    assert!(
        one.contains("\"crash\":"),
        "report lost the crash plan echo"
    );
    assert!(
        one.contains("\"crashes\":") && !one.contains("\"crashes\": 0,"),
        "crash schedule never fired:\n{one}"
    );
}

/// A serve run whose every window is unrecoverable (rate 1.0 kills each
/// rank together with its buddy) must exit 0 with a shed-query report —
/// the acceptance criterion "never a panic".
#[test]
fn unrecoverable_serve_run_sheds_and_exits_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_g500"))
        .args([
            "serve",
            "--scale",
            "8",
            "--ranks",
            "2",
            "--queries",
            "6",
            "--batch",
            "3",
            "--landmarks",
            "0",
            "--lru",
            "0",
            "--crash-rate",
            "1.0",
            "--crash-seed",
            "3",
            "--json",
        ])
        .output()
        .expect("spawn g500");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "crashed serve run must degrade, not fail: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    let json = String::from_utf8(out.stdout).expect("utf8 json");
    assert!(
        json.contains("\"queries_shed\": 6"),
        "all six queries should be shed:\n{json}"
    );
}

/// Landmark precompute has no query stream to degrade onto: with landmarks
/// requested and an unrecoverable schedule, `serve` must exit 1 with the
/// typed error on stderr — still never a panic.
#[test]
fn unrecoverable_landmark_precompute_is_a_clean_cli_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_g500"))
        .args([
            "serve",
            "--scale",
            "8",
            "--ranks",
            "2",
            "--queries",
            "4",
            "--landmarks",
            "2",
            "--crash-rate",
            "1.0",
        ])
        .output()
        .expect("spawn g500");
    assert!(!out.status.success(), "precompute cannot have succeeded");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    assert!(
        stderr.contains("checkpoint lost") || stderr.contains("recovery budget exhausted"),
        "expected a typed recovery error on stderr, got: {stderr}"
    );
}
