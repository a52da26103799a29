//! Schedule fuzzing: rerun the distributed kernels under many permuted
//! message-delivery orders (the deterministic scheduler's seed drives both
//! token-handoff preemption and the per-rank `delivery_order` merge
//! permutations) and assert the *results* never move.
//!
//! What must be invariant across schedules: distance vectors (bitwise),
//! BFS level vectors, superstep counts, total traffic volume. What may
//! legitimately differ: parent choices among equal-length paths, message
//! interleaving, per-message timing. The suite pins the former and is
//! silent on the latter.
//!
//! What must be *byte-identical* for the same seed: everything — distances,
//! parents, `NetStats`, simulated clocks. That is the replay guarantee.

use graph500::baselines::dijkstra;
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{Csr, Directedness, EdgeList, ShortestPaths};
use graph500::partition::{assemble_local_graph, Block1D, LocalGraph};
use graph500::simnet::{Machine, MachineConfig, NetStats, RankCtx};
use graph500::sssp::{
    distributed_bfs, distributed_delta_stepping, try_batched_delta_stepping, BatchSpec, Direction,
    Grid2DSssp, OptConfig, SsspRunStats,
};

/// The fuzz target: a scale-10 Kronecker graph (1024 vertices, 16384 edge
/// records) — big enough for multi-superstep frontiers on 8 ranks, small
/// enough to run under many schedules.
fn fuzz_graph() -> (EdgeList, u64) {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(10, 42));
    (gen.generate_all(), 1 << 10)
}

/// This rank's share of `el`'s records, assembled on a block partition of
/// `n` vertices over the machine's ranks.
fn block_graph(ctx: &mut RankCtx, el: &EdgeList, n: u64) -> LocalGraph<Block1D> {
    let p = ctx.size();
    let m = el.len();
    let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
    let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
    assemble_local_graph(ctx, mine.into_iter(), Block1D::new(n, p))
}

/// One deterministic-mode 1D run: distances gathered to rank 0, rank-0
/// kernel counters, per-rank network stats.
fn run_1d(
    el: &EdgeList,
    n: u64,
    p: usize,
    root: u64,
    opts: &OptConfig,
    sched_seed: u64,
) -> (ShortestPaths, SsspRunStats, Vec<NetStats>) {
    let report = Machine::new(MachineConfig::with_ranks(p).deterministic(sched_seed)).run(|ctx| {
        let g = block_graph(ctx, el, n);
        let (sp, stats) = distributed_delta_stepping(ctx, &g, root, opts);
        (sp.gather(ctx, g.part()), stats)
    });
    let stats_vec = report.stats.clone();
    let (sp, kstats) = report.results.into_iter().next().expect("rank 0");
    (sp, kstats, stats_vec)
}

fn assert_bitwise_equal_dists(a: &[f32], b: &[f32], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: vertex {v}: {x} vs {y}");
    }
}

/// ≥16 permuted delivery orders of the scale-10, 8-rank run: distances are
/// bitwise invariant, superstep counts invariant, and all equal Dijkstra.
#[test]
fn sixteen_schedules_zero_divergence_1d() {
    let (el, n) = fuzz_graph();
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let root = (0..n)
        .max_by_key(|&v| csr.degree(v as usize))
        .expect("nonempty");
    let oracle = dijkstra(&csr, root);
    let opts = OptConfig::all_on();

    let (base_sp, base_stats, _) = run_1d(&el, n, 8, root, &opts, 0);
    assert!(
        base_sp.distances_match(&oracle, 1e-4),
        "canonical schedule vs Dijkstra"
    );

    for sched_seed in 1..=16u64 {
        let (sp, stats, _) = run_1d(&el, n, 8, root, &opts, sched_seed);
        assert_bitwise_equal_dists(&base_sp.dist, &sp.dist, &format!("seed {sched_seed}"));
        assert_eq!(
            base_stats.supersteps, stats.supersteps,
            "seed {sched_seed}: superstep count moved"
        );
        assert_eq!(
            base_stats.buckets, stats.buckets,
            "seed {sched_seed}: bucket count moved"
        );
        assert!(
            sp.distances_match(&oracle, 1e-4),
            "seed {sched_seed} vs Dijkstra"
        );
    }
}

/// The same at 16 ranks, where nearly every exchange takes the grouped
/// route (the run posts fewer messages than one direct exchange a superstep
/// would): the forwarded bundles arrive under permuted orders too, and the
/// receiver still merges one block per source rank. Push, Hybrid and Pull
/// each run under 8 schedules; every direction's distances are the Push
/// run's, and a forced Pull, whose frontier broadcast crosses the grid's
/// unpack, keeps its parents and every kernel counter too.
#[test]
fn grouped_route_is_schedule_invariant_at_16_ranks() {
    let (el, n) = fuzz_graph();
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let oracle = dijkstra(&csr, 1);
    let push = OptConfig::all_on().with_direction(Direction::Push);
    let (pushed, ..) = run_1d(&el, n, 16, 1, &push, 0);
    assert!(pushed.distances_match(&oracle, 1e-4), "Push vs Dijkstra");
    for dir in [Direction::Push, Direction::Hybrid, Direction::Pull] {
        let opts = OptConfig::all_on().with_direction(dir);
        let (base_sp, base_stats, base_net) = run_1d(&el, n, 16, 1, &opts, 0);
        assert_bitwise_equal_dists(&pushed.dist, &base_sp.dist, &format!("{dir:?} vs Push"));
        if dir == Direction::Pull {
            assert!(base_stats.pull_iterations > 0, "Pull: no pull");
        }
        for net in &base_net {
            assert!(
                net.coll_msgs < base_stats.supersteps * 15,
                "{dir:?}: {} messages in {} supersteps is the direct route's count",
                net.coll_msgs,
                base_stats.supersteps
            );
        }
        for sched_seed in 1..=8u64 {
            let label = format!("{dir:?}/{sched_seed}");
            let (sp, stats, _) = run_1d(&el, n, 16, 1, &opts, sched_seed);
            assert_bitwise_equal_dists(&base_sp.dist, &sp.dist, &label);
            assert_eq!(base_stats.supersteps, stats.supersteps, "{label}");
            assert_eq!(base_stats.heavy_pulls, stats.heavy_pulls, "{label}");
            if dir == Direction::Pull {
                // every rank scans the same min-merged frontier index, so
                // no choice or count depends on the delivery order
                assert_eq!(base_sp.parent, sp.parent, "{label}: parents");
                assert_eq!(base_stats, stats, "{label}: kernel counters");
            }
        }
        let (sp, stats, net) = run_1d(&el, n, 16, 1, &opts, 6);
        let (again_sp, again_stats, again_net) = run_1d(&el, n, 16, 1, &opts, 6);
        assert_eq!(sp.parent, again_sp.parent, "{dir:?}: replayed parents");
        assert_eq!((stats, net), (again_stats, again_net), "{dir:?}: replay");
    }
}

/// A Pull-forced 4-lane batch at 16 ranks (one lane a root): its frontier
/// broadcast carries every lane's tagged records over the grouped route.
/// Under 8 schedules every lane's distances and parents and every kernel
/// counter are bit-equal, and the distances are the Push batch's.
#[test]
fn pull_batch_on_the_grid_is_schedule_invariant() {
    let (el, n) = fuzz_graph();
    let roots = [1u64, 2, 3, 5];
    let run = |dir, sched_seed| {
        let opts = OptConfig::all_on().with_direction(dir);
        let config = MachineConfig::with_ranks(16).deterministic(sched_seed);
        let report = Machine::new(config).run(|ctx| {
            let g = block_graph(ctx, &el, n);
            let specs: Vec<_> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
            let (lanes, stats) =
                try_batched_delta_stepping(ctx, &g, &specs, &opts).expect("no faults");
            let paths = lanes.iter().map(|lane| lane.paths.gather(ctx, g.part()));
            (paths.collect::<Vec<_>>(), stats)
        });
        report.results.into_iter().next().expect("rank 0")
    };
    let (pushed, _) = run(Direction::Push, 0);
    let (base, base_stats) = run(Direction::Pull, 0);
    assert!(base_stats.pull_iterations > 0, "no pull");
    for (s, (a, b)) in base.iter().zip(&pushed).enumerate() {
        assert_bitwise_equal_dists(&b.dist, &a.dist, &format!("lane {s} vs Push"));
    }
    for sched_seed in 1..=8u64 {
        let (paths, stats) = run(Direction::Pull, sched_seed);
        for (s, (a, b)) in base.iter().zip(&paths).enumerate() {
            let label = format!("{sched_seed}: lane {s}");
            assert_bitwise_equal_dists(&a.dist, &b.dist, &label);
            assert_eq!(a.parent, b.parent, "{label}: parents");
        }
        assert_eq!(base_stats, stats, "{sched_seed}: kernel counters");
    }
}

/// The replay guarantee: the same schedule seed reproduces everything
/// byte-for-byte — distances, parents, kernel counters, and per-rank
/// `NetStats` including simulated-time-derived fields.
#[test]
fn same_seed_replays_byte_identically() {
    let (el, n) = fuzz_graph();
    let opts = OptConfig::all_on();
    for sched_seed in [0u64, 0xFEED, 0xDEAD_BEEF] {
        let (sp_a, st_a, net_a) = run_1d(&el, n, 8, 1, &opts, sched_seed);
        let (sp_b, st_b, net_b) = run_1d(&el, n, 8, 1, &opts, sched_seed);
        assert_bitwise_equal_dists(&sp_a.dist, &sp_b.dist, &format!("replay {sched_seed:#x}"));
        assert_eq!(sp_a.parent, sp_b.parent, "replay {sched_seed:#x}: parents");
        assert_eq!(st_a, st_b, "replay {sched_seed:#x}: kernel counters");
        assert_eq!(net_a, net_b, "replay {sched_seed:#x}: NetStats");
    }
}

/// The *collective* structure is schedule-invariant: barrier and
/// collective-round counts are a function of the superstep structure, which
/// fuzzing must not move. Point-to-point volume MAY legitimately shift
/// between schedules (relaxation order changes which improvement updates
/// clear the send filter — that sensitivity is the point of fuzzing), but
/// it must never shift between replays of the same seed (covered by
/// `same_seed_replays_byte_identically`).
#[test]
fn collective_structure_is_schedule_invariant() {
    let (el, n) = fuzz_graph();
    let opts = OptConfig::all_on();
    let (_, _, base_net) = run_1d(&el, n, 4, 1, &opts, 0);
    let base_barriers: u64 = base_net.iter().map(|s| s.barriers).sum();
    let base_colls: u64 = base_net.iter().map(|s| s.collectives).sum();
    for sched_seed in [3u64, 7, 11, 15] {
        let (_, _, net) = run_1d(&el, n, 4, 1, &opts, sched_seed);
        let barriers: u64 = net.iter().map(|s| s.barriers).sum();
        let colls: u64 = net.iter().map(|s| s.collectives).sum();
        assert_eq!(
            base_barriers, barriers,
            "seed {sched_seed}: barrier count moved"
        );
        assert_eq!(
            base_colls, colls,
            "seed {sched_seed}: collective count moved"
        );
    }
}

/// Every optimization path (coalescing, dedup, compression, fusion, pull
/// direction) has its own merge loops — fuzz each toggle class. All but
/// `all_off` (push-only) take the heavy fetch, `pull` in every bucket; its
/// request and reply blocks are matched by position, not merged, so the
/// permuted order must not show. Δ is the degree rule's: on 128 or 205
/// vertices a rank the machine's price makes nearly every arc light, and the
/// fetch needs heavy arcs.
#[test]
fn every_opt_path_is_schedule_invariant() {
    let (el, n) = fuzz_graph();
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let oracle = dijkstra(&csr, 1);
    let all_on = OptConfig::all_on().with_delta(0.125);
    let configs: Vec<(&str, OptConfig)> = vec![
        ("all_off", OptConfig::all_off()),
        ("no_coalescing", all_on.without_coalescing()),
        ("no_dedup", all_on.without_dedup()),
        ("no_compression", all_on.without_compression()),
        ("no_fusion", all_on.without_fusion()),
        ("pull", all_on.with_direction(Direction::Pull)),
    ];
    // 8 ranks, and 5: a ragged count, so every agreement's fold-in and
    // fold-out rounds run under the permuted orders too.
    for (name, opts) in configs {
        for p in [8usize, 5] {
            let (base_sp, base_stats, _) = run_1d(&el, n, p, 1, &opts, 0);
            assert!(
                base_sp.distances_match(&oracle, 1e-4),
                "{name} p={p} vs Dijkstra"
            );
            assert_eq!(
                base_stats.heavy_pulls == 0,
                name == "all_off",
                "{name} p={p}"
            );
            for sched_seed in [5u64, 9] {
                let label = format!("{name}/p={p}/{sched_seed}");
                let (sp, stats, _) = run_1d(&el, n, p, 1, &opts, sched_seed);
                assert_bitwise_equal_dists(&base_sp.dist, &sp.dist, &label);
                assert_eq!(base_stats.supersteps, stats.supersteps, "{label}");
                assert_eq!(base_stats.heavy_pulls, stats.heavy_pulls, "{label}");
            }
        }
    }
}

/// The 2D kernel has different merge points (row broadcast flatten,
/// diagonal apply) — fuzz those too, on a 3×3 grid.
#[test]
fn grid_2d_is_schedule_invariant() {
    let (el, n) = fuzz_graph();
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let root = 1u64;
    let oracle = dijkstra(&csr, root);
    let p = 9usize;

    let run = |sched_seed: u64| {
        Machine::new(MachineConfig::with_ranks(p).deterministic(sched_seed))
            .run(|ctx| {
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine = (lo..hi).map(|i| el.get(i));
                let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
                let stats = g.run(ctx, root);
                (g.gather(ctx), stats.supersteps)
            })
            .results
            .into_iter()
            .next()
            .expect("rank 0")
    };

    let (base_sp, base_supersteps) = run(0);
    assert!(
        base_sp.distances_match(&oracle, 1e-4),
        "2D canonical vs Dijkstra"
    );
    for sched_seed in [1u64, 2, 6, 13] {
        let (sp, supersteps) = run(sched_seed);
        assert_bitwise_equal_dists(&base_sp.dist, &sp.dist, &format!("2D seed {sched_seed}"));
        assert_eq!(
            base_supersteps, supersteps,
            "2D seed {sched_seed}: supersteps moved"
        );
    }
}

/// BFS levels (and superstep counts) are schedule-invariant in all three
/// direction modes; parents may differ between schedules.
#[test]
fn bfs_is_schedule_invariant() {
    let (el, n) = fuzz_graph();
    let p = 8usize;
    for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
        let run = |sched_seed: u64| {
            Machine::new(MachineConfig::with_ranks(p).deterministic(sched_seed))
                .run(|ctx| {
                    let g = block_graph(ctx, &el, n);
                    let (res, stats) = distributed_bfs(ctx, &g, 1, dir).expect("no faults");
                    let (level, _parent) = res.gather(ctx, g.part());
                    (level, stats.supersteps)
                })
                .results
                .into_iter()
                .next()
                .expect("rank 0")
        };
        let (base_levels, base_supersteps) = run(0);
        for sched_seed in [4u64, 8, 12] {
            let (levels, supersteps) = run(sched_seed);
            assert_eq!(
                base_levels, levels,
                "{dir:?} seed {sched_seed}: levels moved"
            );
            assert_eq!(
                base_supersteps, supersteps,
                "{dir:?} seed {sched_seed}: supersteps moved"
            );
        }
    }
}

/// Threads mode and the canonical deterministic schedule (seed 0) are the
/// same algorithm over the same value stream — full-kernel check that the
/// serialized scheduler does not change results or simulated accounting.
#[test]
fn threads_and_canonical_deterministic_agree() {
    let (el, n) = fuzz_graph();
    let opts = OptConfig::all_on();
    let p = 4usize;
    let spmd = |ctx: &mut RankCtx| {
        let g = block_graph(ctx, &el, n);
        let (sp, stats) = distributed_delta_stepping(ctx, &g, 1, &opts);
        (sp.gather(ctx, g.part()), stats)
    };
    let threads = Machine::new(MachineConfig::with_ranks(p)).run(spmd);
    let det = Machine::new(MachineConfig::with_ranks(p).deterministic(0)).run(spmd);
    let (sp_t, st_t) = threads.results.into_iter().next().expect("rank 0");
    let (sp_d, st_d) = det.results.into_iter().next().expect("rank 0");
    assert_bitwise_equal_dists(&sp_t.dist, &sp_d.dist, "threads vs det(0)");
    assert_eq!(sp_t.parent, sp_d.parent);
    assert_eq!(st_t, st_d);
    assert_eq!(threads.stats, det.stats, "per-rank NetStats");
}
