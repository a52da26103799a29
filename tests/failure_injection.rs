//! Failure injection: the runtime must fail *stop*, not hang or lie.
//!
//! A 40-million-core job dies fast or corrupts results slowly; the
//! simulated machine mirrors the fail-stop discipline (a rank fault aborts
//! the job, waiters included) and the validator must catch every class of
//! corrupted kernel output.

use graph500::gen::simple;
use graph500::graph::{EdgeList, INF_WEIGHT, NO_PARENT};
use graph500::simnet::{FaultEscalation, Machine, MachineConfig, RankCtx, TransportError};
use graph500::validate::{validate_sssp, SsspResult};

// ---------- runtime fail-stop ----------

#[test]
#[should_panic(expected = "panicked")]
fn fault_on_one_rank_aborts_waiters() {
    Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
        if ctx.rank() == 2 {
            panic!("injected fault on rank 2");
        }
        // everyone else waits on a collective rank 2 will never join
        ctx.barrier();
    });
}

#[test]
#[should_panic(expected = "panicked")]
fn fault_during_alltoall_aborts() {
    Machine::new(MachineConfig::with_ranks(3)).run(|ctx| {
        if ctx.rank() == 0 {
            panic!("injected fault before exchange");
        }
        let out: Vec<Vec<u64>> = (0..ctx.size()).map(|d| vec![d as u64]).collect();
        ctx.alltoallv(out);
    });
}

#[test]
fn healthy_job_after_failed_job() {
    // a failed Machine::run must not poison the next one
    let bad = std::panic::catch_unwind(|| {
        Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.barrier();
        });
    });
    assert!(bad.is_err());
    let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| ctx.allreduce_sum(1));
    assert_eq!(rep.results, vec![2, 2]);
}

#[test]
#[should_panic(expected = "does not decode")]
fn type_confusion_is_detected() {
    // sender ships u32s, receiver expects (u64, f32) records: the payload
    // length cannot divide evenly → decode failure, loudly
    Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, &[7u32]);
        } else {
            let _: Vec<(u64, f32)> = ctx.recv(0, 5);
        }
    });
}

#[test]
fn type_confusion_is_a_typed_decode_error() {
    // the mismatch above under `try_run` is the typed error, not a panic,
    // and so is a `recv_one` that meets two records
    let failure = |sent: &'static [u32], recv: fn(&mut RankCtx)| {
        Machine::new(MachineConfig::with_ranks(2))
            .try_run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 5, sent);
                } else {
                    recv(ctx);
                }
            })
            .expect_err("an undecodable payload fails the run")
    };
    let decode = |len, elem_size| {
        let e = TransportError::Decode {
            src: 0,
            dst: 1,
            tag: 5,
            len,
            elem_size,
        };
        FaultEscalation::Transport(e)
    };
    let mistyped = |ctx: &mut RankCtx| {
        let _: Vec<(u64, f32)> = ctx.recv(0, 5);
    };
    assert_eq!(failure(&[7], mistyped), decode(4, 12));
    let one = |ctx: &mut RankCtx| {
        let _: u32 = ctx.recv_one(0, 5);
    };
    assert_eq!(failure(&[7, 8], one), decode(8, 4));
}

// ---------- deterministic-mode fail-stop ----------

#[test]
#[should_panic(expected = "panicked")]
fn det_fault_on_one_rank_aborts_waiters() {
    // the serialized scheduler must hand the token past the dead rank and
    // abort the waiters instead of spinning on them forever
    Machine::new(MachineConfig::with_ranks(4).deterministic(0)).run(|ctx| {
        if ctx.rank() == 2 {
            panic!("injected fault on rank 2");
        }
        ctx.barrier();
    });
}

#[test]
#[should_panic(expected = "panicked")]
fn det_fault_under_fuzzed_schedule_aborts() {
    // same, under a non-canonical (preempting) schedule
    Machine::new(MachineConfig::with_ranks(4).deterministic(0xBAD)).run(|ctx| {
        if ctx.rank() == 1 {
            panic!("injected fault before exchange");
        }
        let out: Vec<Vec<u64>> = (0..ctx.size()).map(|d| vec![d as u64]).collect();
        ctx.alltoallv(out);
    });
}

#[test]
fn det_healthy_job_after_failed_job() {
    let bad = std::panic::catch_unwind(|| {
        Machine::new(MachineConfig::with_ranks(2).deterministic(7)).run(|ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.barrier();
        });
    });
    assert!(bad.is_err());
    let rep =
        Machine::new(MachineConfig::with_ranks(2).deterministic(7)).run(|ctx| ctx.allreduce_sum(1));
    assert_eq!(rep.results, vec![2, 2]);
}

// ---------- deadlock and orphans, both schedulers ----------

/// Run `f` on two ranks under each scheduler; each run must panic with
/// `expected` in its message. The last panic is raised again for
/// `should_panic`; a wrong text fails naming neither (it goes to stderr).
fn fails_under_both_schedulers(expected: &str, f: impl Fn(&mut graph500::simnet::RankCtx) + Sync) {
    let mut last = None;
    for sched in [SchedMode::Threads, SchedMode::Deterministic { seed: 0 }] {
        let cfg = MachineConfig {
            sched,
            ..MachineConfig::with_ranks(2)
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
    std::panic::resume_unwind(last.expect("two schedulers ran"));
}

#[test]
#[should_panic(expected = "deadlock")]
fn mismatched_recv_is_reported_as_deadlock() {
    // rank 0 waits for a message rank 1 never sends: with every rank
    // blocked or done, the scheduler must name the deadlock and the wait
    // rather than hang
    fails_under_both_schedulers("rank 0 waits for (src 1, tag 0x9)", |ctx| {
        if ctx.rank() == 0 {
            let _: Vec<u64> = ctx.recv(1, 9);
        }
    });
}

#[test]
#[should_panic(expected = "orphan")]
fn misrouted_message_is_caught() {
    // rank 0 sends rank 1 a message nobody receives: orphan detection
    // fails the job at exit instead of dropping it silently
    fails_under_both_schedulers("rank 1 never received (src 0, tag 0x3", |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 3, &[1u64]);
        }
    });
}

// ---------- validator catches corrupted kernel output ----------

fn good_result() -> (EdgeList, SsspResult) {
    let el = simple::path(5, 0.5);
    (
        el,
        SsspResult {
            root: 0,
            dist: vec![0.0, 0.5, 1.0, 1.5, 2.0],
            parent: vec![0, 0, 1, 2, 3],
        },
    )
}

#[test]
fn pristine_result_passes() {
    let (el, res) = good_result();
    assert!(validate_sssp(5, &el, &res).ok);
}

#[test]
fn corruption_too_short_distance() {
    let (el, mut res) = good_result();
    res.dist[3] = 0.6; // shorter than any real path
    assert!(!validate_sssp(5, &el, &res).ok);
}

#[test]
fn corruption_too_long_distance() {
    let (el, mut res) = good_result();
    res.dist[3] = 2.5;
    res.dist[4] = 3.0;
    assert!(!validate_sssp(5, &el, &res).ok);
}

#[test]
fn corruption_false_unreachability() {
    let (el, mut res) = good_result();
    res.dist[4] = INF_WEIGHT;
    res.parent[4] = NO_PARENT;
    assert!(!validate_sssp(5, &el, &res).ok);
}

#[test]
fn corruption_parent_loop() {
    let (el, mut res) = good_result();
    res.parent[3] = 4;
    res.parent[4] = 3;
    assert!(!validate_sssp(5, &el, &res).ok);
}

#[test]
fn corruption_orphan_parent() {
    let (el, mut res) = good_result();
    res.parent[2] = NO_PARENT; // reached but parentless
    assert!(!validate_sssp(5, &el, &res).ok);
}

#[test]
fn corruption_parent_out_of_range() {
    // a parent id past the vertex set is a reported violation, not a panic
    let (el, mut res) = good_result();
    res.parent[3] = 1 << 40;
    let rep = validate_sssp(5, &el, &res);
    assert!(!rep.ok);
    assert!(rep.errors.iter().any(|e| e.contains("vertex 3")), "{rep:?}");
}

#[test]
fn corruption_nonexistent_tree_edge() {
    let (el, mut res) = good_result();
    res.parent[4] = 0; // no edge 0-4 in a path
    res.dist[4] = 0.5;
    assert!(!validate_sssp(5, &el, &res).ok);
}

#[test]
fn every_single_bit_flip_class_is_caught() {
    // systematic: corrupt each vertex's distance upward and downward and
    // require rejection (excluding no-ops)
    let (el, res) = good_result();
    for v in 1..5 {
        for delta in [-0.3f32, 0.3] {
            let mut bad = res.clone();
            bad.dist[v] += delta;
            let rep = validate_sssp(5, &el, &bad);
            assert!(!rep.ok, "undetected corruption at {v} delta {delta}");
        }
    }
}

// ---------- lossy network masked by the reliable transport ----------
//
// The determinism-under-faults contract: with the same generator and
// scheduler seeds, ANY fault seed whose faults stay within the retry
// budget must yield byte-identical distances, parents, kernel counters,
// and validation output to the fault-free run — only virtual time and the
// transport counters in NetStats may move.

use graph500::gen::KroneckerParams;
use graph500::simnet::SchedMode;
use graph500::sssp::Grid2DSssp;
use graph500::{run_bfs_benchmark, run_sssp_benchmark, BenchmarkConfig, FaultPlan};

/// The ISSUE's lossy CI profile.
fn lossy_profile(seed: u64) -> FaultPlan {
    FaultPlan::lossy(seed, 0.05, 0.02, 0.01)
}

fn run_1d(
    scale: u32,
    ranks: usize,
    sched: Option<u64>,
    fault: FaultPlan,
) -> graph500::BenchmarkReport {
    let mut cfg = BenchmarkConfig::quick(scale, ranks).faults(fault);
    if let Some(seed) = sched {
        cfg = cfg.deterministic(seed);
    }
    cfg.keep_paths = true;
    run_sssp_benchmark(&cfg)
}

fn assert_same_outputs(clean: &graph500::BenchmarkReport, lossy: &graph500::BenchmarkReport) {
    assert!(clean.all_validated() && lossy.all_validated());
    assert_eq!(clean.runs.len(), lossy.runs.len());
    for (a, b) in clean.runs.iter().zip(&lossy.runs) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.validated, b.validated);
        assert_eq!(a.traversed_edges, b.traversed_edges);
        // Virtual time legitimately moves under faults (retransmissions
        // cost RTOs); every discrete kernel counter must not.
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
            "kernel counters moved under faults"
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

/// Scale-10 1D acceptance: lossy run is byte-identical to fault-free,
/// with nonzero retransmit counters — under both schedulers.
#[test]
fn scale10_1d_lossy_matches_fault_free_both_schedulers() {
    // 16 ranks as well: there nearly every exchange takes the grouped
    // route, so the forwarded bundles cross the lossy links too.
    for (ranks, sched) in [(8, None), (8, Some(0)), (16, Some(0))] {
        let clean = run_1d(10, ranks, sched, FaultPlan::none());
        let lossy = run_1d(10, ranks, sched, lossy_profile(0xFA17));
        assert_same_outputs(&clean, &lossy);
        assert!(
            lossy.net.retransmits > 0 && lossy.net.corrupt_frames > 0,
            "lossy profile did not exercise the transport ({ranks} ranks, {sched:?}): {:?}",
            lossy.net
        );
        assert_eq!(clean.net.retransmits, 0, "clean run saw retransmits");
    }
}

/// BFS under the lossy profile, alone and with crashes: levels, parents and
/// every kernel counter byte-identical to the fault-free run under both
/// schedulers, and each fault model provably fired.
#[test]
fn scale10_bfs_lossy_matches_fault_free_both_schedulers() {
    let crashy = CrashPlan::random(1, 0.01)
        .with_checkpoint_interval(2)
        .with_recovery_budget(64);
    let cases = [
        (None, CrashPlan::none()),
        (Some(0), CrashPlan::none()),
        (Some(0), crashy),
    ];
    for (sched, crash) in cases {
        let run = |fault, crash| {
            let mut cfg = BenchmarkConfig::quick(10, 8).faults(fault).crashes(crash);
            if let Some(seed) = sched {
                cfg = cfg.deterministic(seed);
            }
            cfg.keep_paths = true;
            run_bfs_benchmark(&cfg)
        };
        let clean = run(FaultPlan::none(), CrashPlan::none());
        let lossy = run(lossy_profile(0xFA17), crash);
        assert_same_outputs(&clean, &lossy);
        assert!(lossy.net.retransmits > 0, "{sched:?}: {:?}", lossy.net);
        assert_eq!(lossy.net.crashes > 0, crash.is_active(), "{:?}", lossy.net);
    }
}

/// Scale-10 2D acceptance: the grid kernel (not driven by the benchmark
/// driver) is also byte-identical under faults, both schedulers.
#[test]
fn scale10_2d_lossy_matches_fault_free_both_schedulers() {
    let gen = graph500::gen::KroneckerGenerator::new(KroneckerParams::graph500(10, 20220814));
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
    let run = |sched: SchedMode, fault: FaultPlan| {
        let cfg = MachineConfig {
            sched,
            ..MachineConfig::with_ranks(p).faults(fault)
        };
        let report = Machine::new(cfg).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
            let stats = g.run(ctx, root);
            (g.gather(ctx), stats.supersteps)
        });
        let net = report.total_stats();
        let (sp, steps) = report.results.into_iter().next().expect("rank 0");
        (sp, steps, net)
    };
    for sched in [SchedMode::Threads, SchedMode::Deterministic { seed: 0 }] {
        let (sp_c, steps_c, net_c) = run(sched, FaultPlan::none());
        let (sp_f, steps_f, net_f) = run(sched, lossy_profile(0x2D));
        assert_eq!(steps_c, steps_f, "superstep count moved under faults");
        for v in 0..n as usize {
            assert_eq!(
                sp_c.dist[v].to_bits(),
                sp_f.dist[v].to_bits(),
                "distance moved at {v}"
            );
        }
        assert_eq!(sp_c.parent, sp_f.parent, "parents moved under faults");
        assert!(net_f.retransmits > 0, "{net_f:?}");
        assert_eq!(net_c.retransmits, 0);
        // validate the lossy result against the input edge list
        let res = SsspResult {
            root,
            dist: sp_f.dist.clone(),
            parent: sp_f.parent.clone(),
        };
        assert!(validate_sssp(n, &el, &res).ok);
    }
}

/// Fuzzed schedule × fault seed matrix: every combination must reproduce
/// the canonical fault-free distances.
#[test]
fn fuzzed_schedule_times_fault_seed_matrix() {
    let canonical = run_1d(8, 4, Some(0), FaultPlan::none());
    for sched_seed in [0u64, 1, 0xFEED] {
        // Faults must be invisible relative to the *same* schedule; the
        // schedule fuzz itself may move internal counters, but never the
        // computed distances.
        let clean = run_1d(8, 4, Some(sched_seed), FaultPlan::none());
        for fault_seed in [1u64, 0xABCD] {
            let lossy = run_1d(8, 4, Some(sched_seed), lossy_profile(fault_seed));
            assert_same_outputs(&clean, &lossy);
            assert!(
                lossy.net.saw_faults(),
                "sched {sched_seed:#x} fault {fault_seed:#x} drew no faults"
            );
            for (a, b) in canonical.runs.iter().zip(&lossy.runs) {
                let (pa, pb) = (a.paths.as_ref().unwrap(), b.paths.as_ref().unwrap());
                for v in 0..pa.dist.len() {
                    assert_eq!(
                        pa.dist[v].to_bits(),
                        pb.dist[v].to_bits(),
                        "sched {sched_seed:#x} fault {fault_seed:#x}: distance diverged at {v}"
                    );
                }
            }
        }
    }
}

/// Injected rank stall windows cost virtual time but change nothing else.
#[test]
fn rank_stalls_change_time_not_results() {
    let clean = run_1d(8, 4, Some(0), FaultPlan::none());
    let stalled = run_1d(
        8,
        4,
        Some(0),
        FaultPlan::none().with_seed(5).with_stalls(4, 1e-4, 64),
    );
    assert_same_outputs(&clean, &stalled);
    assert!(stalled.net.stall_events > 0, "{:?}", stalled.net);
    assert!(stalled.net.stall_s > 0.0);
    assert!(stalled.wall_time_s >= 0.0);
}

/// Same fault seed ⇒ byte-identical NetStats (including every transport
/// counter), independent of scheduler mode.
#[test]
fn fault_counters_are_scheduler_invariant() {
    let threads = run_1d(8, 4, None, lossy_profile(0x77));
    let det = run_1d(8, 4, Some(0), lossy_profile(0x77));
    assert_eq!(threads.per_rank_net, det.per_rank_net);
    assert_same_outputs(&threads, &det);
}

// ---------- tracing × faults: observation without perturbation ----------

use graph500::simnet::{TraceCode, TraceKind};

/// The trace's Retransmit/Timeout events are recorded 1:1 with the
/// NetStats counter bumps, per rank, at the same fault seed.
#[test]
fn trace_fault_events_match_netstats_counters() {
    for fault_seed in [0xFA17u64, 0xABCD] {
        let mut cfg = BenchmarkConfig::quick(9, 4)
            .deterministic(0)
            .faults(lossy_profile(fault_seed))
            .traced(true);
        cfg.validate = false;
        let rep = run_sssp_benchmark(&cfg);
        let trace = rep.trace.as_ref().expect("run was traced");
        assert!(rep.net.retransmits > 0, "profile drew no faults");
        let mut retrans = vec![0u64; rep.ranks];
        let mut timeouts = vec![0u64; rep.ranks];
        for (rank, ev) in &trace.events {
            if ev.kind == TraceKind::Count {
                match ev.code {
                    TraceCode::Retransmit => retrans[*rank as usize] += 1,
                    TraceCode::Timeout => timeouts[*rank as usize] += 1,
                    _ => {}
                }
            }
        }
        for (r, net) in rep.per_rank_net.iter().enumerate() {
            assert_eq!(
                retrans[r], net.retransmits,
                "rank {r}: trace retransmit events != NetStats ({fault_seed:#x})"
            );
            assert_eq!(
                timeouts[r], net.timeouts,
                "rank {r}: trace timeout events != NetStats ({fault_seed:#x})"
            );
        }
    }
}

/// Tracing observes the run but never perturbs it: distances, kernel
/// counters, and every NetStats field (virtual times included) are
/// byte-identical with tracing on or off — with and without faults.
#[test]
fn tracing_does_not_perturb_runs() {
    for fault in [FaultPlan::none(), lossy_profile(0x77)] {
        let base = BenchmarkConfig::quick(9, 4).deterministic(0).faults(fault);
        let mut off_cfg = base.clone();
        off_cfg.keep_paths = true;
        let mut on_cfg = base.traced(true);
        on_cfg.keep_paths = true;
        let off = run_sssp_benchmark(&off_cfg);
        let on = run_sssp_benchmark(&on_cfg);
        assert_same_outputs(&off, &on);
        assert_eq!(
            off.per_rank_net, on.per_rank_net,
            "tracing moved NetStats (virtual time or counters)"
        );
        for (a, b) in off.runs.iter().zip(&on.runs) {
            assert_eq!(
                a.sim_time_s.to_bits(),
                b.sim_time_s.to_bits(),
                "tracing moved the virtual clock for root {}",
                a.root
            );
        }
        assert!(off.trace.is_none());
        assert!(on.trace.is_some());
    }
}

// ---------- retry-budget exhaustion: diagnosable fail-stop ----------

#[test]
#[should_panic(expected = "retry budget exhausted on link")]
fn retry_budget_exhaustion_names_link_threads() {
    let plan = FaultPlan::lossy(1, 1.0, 0.0, 0.0).with_retry_budget(2);
    Machine::new(MachineConfig::with_ranks(2).faults(plan)).run(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, &[1u64]);
        } else {
            let _: Vec<u64> = ctx.recv(0, 5);
        }
    });
}

#[test]
#[should_panic(expected = "retry budget exhausted on link")]
fn retry_budget_exhaustion_names_link_deterministic() {
    let plan = FaultPlan::lossy(1, 1.0, 0.0, 0.0).with_retry_budget(2);
    Machine::new(MachineConfig::with_ranks(2).deterministic(0).faults(plan)).run(|ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, &[1u64]);
        } else {
            let _: Vec<u64> = ctx.recv(0, 5);
        }
    });
}

/// Out of retry budget, `g500 sssp` and `g500 bfs` print the typed error
/// once and exit 1, under either scheduler: no rank thread reports a panic,
/// neither the one that gave up nor the peers it aborted.
#[test]
fn retry_budget_exhaustion_is_one_cli_line() {
    for cmd in ["sssp", "bfs"] {
        for sched in [&[][..], &["--deterministic"]] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_g500"))
                .args([cmd, "--scale", "8", "--ranks", "4", "--roots", "1"])
                .args(["--drop-rate", "0.9", "--retry-budget", "2"])
                .args(sched)
                .output()
                .expect("spawn g500");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {sched:?}: {stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{cmd} {sched:?}: panic leaked: {stderr}"
            );
            assert_eq!(
                stderr.matches("retry budget exhausted on link").count(),
                1,
                "{cmd} {sched:?}: {stderr}"
            );
        }
    }
}

// ---------- process crashes compose with the lossy network ----------

use graph500::CrashPlan;

/// Link faults and rank crashes drawn together: the reliable transport
/// masks the former, checkpoint/rollback masks the latter, and the results
/// are still byte-identical to the fully fault-free run — under both
/// schedulers.
#[test]
fn crashes_compose_with_lossy_network() {
    let crash = CrashPlan::random(4, 0.004)
        .with_checkpoint_interval(3)
        .with_recovery_budget(64);
    for sched in [None, Some(0)] {
        let clean = run_1d(10, 8, sched, FaultPlan::none());
        let mut cfg = BenchmarkConfig::quick(10, 8)
            .faults(lossy_profile(0xFA17))
            .crashes(crash);
        if let Some(seed) = sched {
            cfg = cfg.deterministic(seed);
        }
        cfg.keep_paths = true;
        let faulty = run_sssp_benchmark(&cfg);
        assert_same_outputs(&clean, &faulty);
        assert!(
            faulty.net.retransmits > 0,
            "lossy profile never fired: {:?}",
            faulty.net
        );
        assert!(
            faulty.net.crashes > 0 && faulty.net.restores > 0,
            "crash schedule never fired ({sched:?}): {:?}",
            faulty.net
        );
    }
}

/// Same crash seed ⇒ byte-identical crash/recovery counters in every
/// rank's NetStats, independent of scheduler mode (the crash lottery is
/// keyed to probe indices, not to execution interleaving).
#[test]
fn crash_counters_are_scheduler_invariant() {
    let crash = CrashPlan::random(2, 0.004)
        .with_checkpoint_interval(3)
        .with_recovery_budget(64);
    let run = |sched: Option<u64>| {
        let mut cfg = BenchmarkConfig::quick(9, 4).crashes(crash);
        if let Some(seed) = sched {
            cfg = cfg.deterministic(seed);
        }
        cfg.keep_paths = true;
        run_sssp_benchmark(&cfg)
    };
    let threads = run(None);
    let det = run(Some(0));
    assert_eq!(threads.per_rank_net, det.per_rank_net);
    assert_same_outputs(&threads, &det);
    assert!(threads.net.checkpoints > 0);
}
