//! Conformance for the batched query engine: a lane inside a width-B
//! batch must be *bitwise* identical (distances and parents) to the same
//! source run alone, across adversarial graph families, optimization
//! configs, and batch widths; point-to-point early exit and landmark
//! bounds must never change an answer; cache hits must return exactly
//! what a recompute would. Everything runs under the deterministic
//! scheduler so failures replay from the printed label, and the whole
//! suite is rerun by CI at `G500_THREADS` 1 and 4 (the fixed-chunk
//! contract makes results thread-count invariant).

mod common;

use common::adversarial;
use graph500::baselines::dijkstra;
use graph500::graph::{Csr, Directedness, EdgeList, WEdge};
use graph500::partition::{assemble_local_graph, Block1D};
use graph500::simnet::{Machine, MachineConfig};
use graph500::sssp::{
    batched_delta_stepping, BatchSpec, Direction, OptConfig, Query, QueryEngine, ServeConfig,
};

fn to_el(edges: &[(u64, u64, f32)]) -> EdgeList {
    EdgeList::from_edges(edges.iter().map(|&(u, v, w)| WEdge::new(u, v, w)))
}

/// Per-lane gathered result, in comparable form: distance bits, parents,
/// and the lane's target answer/flags.
type LaneResult = (Vec<u32>, Vec<u64>, u32, u64, bool);

/// Run one batch under the deterministic scheduler and gather every lane.
fn batch_run(
    el: &EdgeList,
    n: u64,
    p: usize,
    specs: &[BatchSpec],
    opts: &OptConfig,
) -> Vec<LaneResult> {
    Machine::new(MachineConfig::with_ranks(p).deterministic(0))
        .run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (md, _) = batched_delta_stepping(ctx, &g, specs, opts);
            (0..specs.len())
                .map(|s| {
                    let sp = md.lane_paths(s).gather(ctx, g.part());
                    (
                        sp.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                        sp.parent,
                        md.target_dist[s].to_bits(),
                        md.target_parent[s],
                        md.early_exit[s],
                    )
                })
                .collect::<Vec<_>>()
        })
        .results
        .swap_remove(0)
}

/// Deterministic full-lane roots for an n-vertex graph.
fn roots_for(n: u64, width: usize) -> Vec<u64> {
    (0..width as u64)
        .map(|i| (i * n / width as u64).min(n - 1))
        .collect()
}

fn opt_matrix() -> Vec<(&'static str, OptConfig)> {
    vec![
        ("all_on", OptConfig::all_on()),
        ("all_off", OptConfig::all_off()),
        ("no_coalescing", OptConfig::all_on().without_coalescing()),
        ("no_dedup", OptConfig::all_on().without_dedup()),
        ("no_compression", OptConfig::all_on().without_compression()),
        // lanes that broadcast frontiers and fetch heavy distances, and
        // lanes that never do (`all_on` lets each lane choose per step)
        ("pull", OptConfig::all_on().with_direction(Direction::Pull)),
        ("push", OptConfig::all_on().with_direction(Direction::Push)),
    ]
}

/// The direction rows of the matrix at the suite's Δ: every property below
/// holds for lanes that choose per step, lanes that always broadcast and
/// fetch, and lanes that never do. A failure prints the row it ran.
fn direction_rows() -> impl Iterator<Item = OptConfig> {
    let rows = opt_matrix().into_iter();
    rows.filter(|(name, _)| ["all_on", "pull", "push"].contains(name))
        .map(|(name, opts)| {
            eprintln!("direction row: {name}");
            opts.with_delta(0.25)
        })
}

#[test]
fn batched_lanes_bitwise_equal_width_one_runs() {
    for (family, n, edges) in adversarial::all(0xBA7C) {
        let el = to_el(&edges);
        for (opt_name, opts) in opt_matrix() {
            let opts = opts.with_delta(0.25);
            let roots = roots_for(n, 4);
            let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
            let batched = batch_run(&el, n, 3, &specs, &opts);
            for (s, &root) in roots.iter().enumerate() {
                let solo = batch_run(&el, n, 3, &[BatchSpec::full(root)], &opts);
                assert_eq!(
                    batched[s].0, solo[0].0,
                    "{family}/{opt_name}: lane {s} distances differ from solo run"
                );
                assert_eq!(
                    batched[s].1, solo[0].1,
                    "{family}/{opt_name}: lane {s} parents differ from solo run"
                );
            }
        }
    }
}

#[test]
fn width_sweep_is_invariant() {
    // the same source inside batches of width 1, 2, 4, 8: identical bits
    for opts in direction_rows() {
        for (family, n, edges) in adversarial::all(0x51DE) {
            let el = to_el(&edges);
            let probe = n / 2;
            let reference = batch_run(&el, n, 3, &[BatchSpec::full(probe)], &opts);
            for width in [2usize, 4, 8] {
                let mut roots = roots_for(n, width);
                roots[0] = probe; // keep the probe in lane 0 at every width
                let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
                let wide = batch_run(&el, n, 3, &specs, &opts);
                assert_eq!(
                    wide[0].0, reference[0].0,
                    "{family}: width {width} changed lane-0 distances"
                );
                assert_eq!(
                    wide[0].1, reference[0].1,
                    "{family}: width {width} changed lane-0 parents"
                );
            }
        }
    }
}

#[test]
fn p2p_early_exit_answers_equal_full_run() {
    for opts in direction_rows() {
        let mut any_early = false;
        for (family, n, edges) in adversarial::all(0xEE17) {
            let el = to_el(&edges);
            let source = 0u64;
            let targets = [1u64, n / 3, n - 1];
            let full = batch_run(&el, n, 3, &[BatchSpec::full(source)], &opts);
            let specs: Vec<BatchSpec> =
                targets.iter().map(|&t| BatchSpec::p2p(source, t)).collect();
            for (i, lane) in batch_run(&el, n, 3, &specs, &opts).iter().enumerate() {
                let t = targets[i] as usize;
                assert_eq!(
                    lane.2, full[0].0[t],
                    "{family}: p2p({source},{t}) distance differs from full run"
                );
                if f32::from_bits(lane.2).is_finite() {
                    assert_eq!(
                        lane.3, full[0].1[t],
                        "{family}: p2p({source},{t}) parent differs from full run"
                    );
                }
                any_early |= lane.4;
            }
        }
        assert!(any_early, "no p2p lane ever retired early across the suite");
    }
}

#[test]
fn landmark_bounded_lanes_stay_exact() {
    // a finite triangle-inequality bound prunes relaxations but must not
    // change the target's answer relative to the unbounded lane
    for opts in direction_rows() {
        for (family, n, edges) in adversarial::all(0x10B0) {
            let el = to_el(&edges);
            let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
            let (s, t) = (0u64, n - 1);
            let unbounded = batch_run(&el, n, 3, &[BatchSpec::p2p(s, t)], &opts);
            // exact-distance bound: the tightest sound bound there is
            let true_d = dijkstra(&csr, s).dist[t as usize];
            if !true_d.is_finite() {
                continue;
            }
            let bound = true_d * (1.0 + 1e-5);
            let bounded = batch_run(&el, n, 3, &[BatchSpec::p2p(s, t).with_bound(bound)], &opts);
            assert_eq!(
                bounded[0].2, unbounded[0].2,
                "{family}: bound changed the p2p distance"
            );
            assert_eq!(
                bounded[0].3, unbounded[0].3,
                "{family}: bound changed the p2p parent"
            );
        }
    }
}

#[test]
fn cache_hit_equals_recompute_bitwise() {
    for opts in direction_rows() {
        for (family, n, edges) in adversarial::all(0xCAC4) {
            let el = to_el(&edges);
            let (s, t) = (0u64, n - 1);
            let p = 3;
            // fresh p2p first, then cache the full tree, then hit it
            let stream = vec![Query::p2p(s, t), Query::full(s), Query::p2p(s, t)];
            let outcomes = Machine::new(MachineConfig::with_ranks(p).deterministic(0))
                .run(|ctx| {
                    let part = Block1D::new(n, p);
                    let m = el.len();
                    let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                    let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                    let g = assemble_local_graph(ctx, mine.into_iter(), part);
                    let cfg = ServeConfig {
                        batch_width: 1, // each query its own window
                        opts,
                        num_landmarks: 0,
                        lru_capacity: 2,
                        keep_paths: false,
                        deadline_s: f64::INFINITY,
                    };
                    let mut engine = QueryEngine::new(ctx, &g, cfg);
                    engine
                        .serve(ctx, &stream)
                        .iter()
                        .map(|o| (o.dist.map(|d| d.to_bits()), o.parent, o.cache_hit))
                        .collect::<Vec<_>>()
                })
                .results
                .pop()
                .expect("rank 0");
            // window 1 computes p2p(s,t) fresh; window 3 serves it from the
            // slice window 2 cached — both must carry identical bits
            assert!(
                !outcomes[0].2 && outcomes[2].2,
                "{family}: expected miss then hit"
            );
            assert_eq!(
                outcomes[0].0, outcomes[2].0,
                "{family}: hit distance differs"
            );
            assert_eq!(outcomes[0].1, outcomes[2].1, "{family}: hit parent differs");
        }
    }
}

#[test]
fn batched_answers_match_dijkstra_on_adversarial_graphs() {
    // end-to-end correctness anchor (tolerance compare against f64-free
    // oracle), complementing the bitwise self-consistency above
    for (family, n, edges) in adversarial::all(0xD13A) {
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let opts = OptConfig::all_on().with_delta(0.25);
        let roots = roots_for(n, 4);
        let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
        let batched = batch_run(&el, n, 3, &specs, &opts);
        for (s, &root) in roots.iter().enumerate() {
            let oracle = dijkstra(&csr, root);
            for v in 0..n as usize {
                let got = f32::from_bits(batched[s].0[v]);
                let want = oracle.dist[v];
                assert!(
                    (got.is_infinite() && want.is_infinite()) || (got - want).abs() <= 1e-4,
                    "{family}: root {root} vertex {v}: {got} vs {want}"
                );
            }
        }
    }
}
