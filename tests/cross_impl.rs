//! Cross-implementation agreement: every SSSP implementation in the
//! workspace — sequential delta-stepping, distributed (all optimization
//! configurations), Bellman-Ford, distributed Bellman-Ford, radix-heap
//! Dijkstra, BMSSP — must produce Dijkstra's distances on every graph
//! family.

use graph500::baselines::{
    bellman_ford, bmssp, dijkstra, dijkstra_radix_heap, distributed_bellman_ford, weight_to_key,
    INF_KEY,
};
use graph500::gen::{simple, KroneckerGenerator, KroneckerParams};
use graph500::graph::{Csr, Directedness, EdgeList, ShortestPaths};
use graph500::partition::{assemble_local_graph, Block1D, Cyclic1D, VertexPartition};
use graph500::simnet::{Machine, MachineConfig};
use graph500::sssp::{delta_stepping, distributed_delta_stepping, Direction, OptConfig};

fn families() -> Vec<(String, EdgeList, u64)> {
    let kron = KroneckerGenerator::new(KroneckerParams::graph500(8, 77));
    vec![
        ("path".into(), simple::path(40, 0.25), 40),
        ("cycle".into(), simple::cycle(33, 0.5), 33),
        ("star".into(), simple::star(50, 0.9), 50),
        ("grid".into(), simple::grid2d(8, 7), 56),
        ("tree".into(), simple::random_tree(60, 5), 60),
        ("erdos".into(), simple::erdos_renyi(64, 256, 9), 64),
        ("complete".into(), simple::complete(24, 0.7), 24),
        ("kronecker".into(), kron.generate_all(), 256),
    ]
}

fn dist_run<P: VertexPartition + 'static>(
    el: &EdgeList,
    part_of: impl Fn(usize) -> P + Sync,
    p: usize,
    root: u64,
    opts: OptConfig,
) -> ShortestPaths {
    Machine::new(MachineConfig::with_ranks(p))
        .run(|ctx| {
            let part = part_of(ctx.size());
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (sp, _) = distributed_delta_stepping(ctx, &g, root, &opts);
            sp.gather_to_all(ctx, g.part())
        })
        .results
        .pop()
        .expect("at least one rank")
}

#[test]
fn sequential_implementations_agree() {
    for (name, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for (algo, sp) in [
            ("delta_stepping", delta_stepping(&csr, 0, 0.3)),
            ("bellman_ford", bellman_ford(&csr, 0)),
            ("dijkstra_radix", dijkstra_radix_heap(&csr, 0)),
            ("bmssp", bmssp(&csr, 0)),
        ] {
            assert!(sp.distances_match(&oracle, 1e-4), "{algo} on {name}");
        }
    }
}

#[test]
fn distributed_delta_agrees_on_all_families() {
    for (name, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for p in [2usize, 5] {
            let sp = dist_run(&el, |p| Block1D::new(n, p), p, 0, OptConfig::all_on());
            assert!(sp.distances_match(&oracle, 1e-4), "block p={p} on {name}");
            let sp = dist_run(&el, |p| Cyclic1D::new(n, p), p, 0, OptConfig::all_on());
            assert!(sp.distances_match(&oracle, 1e-4), "cyclic p={p} on {name}");
        }
    }
}

#[test]
fn distributed_delta_every_config_on_kronecker() {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(8, 3));
    let el = gen.generate_all();
    let csr = Csr::from_edges(256, &el, Directedness::Undirected);
    let oracle = dijkstra(&csr, 7);
    let configs = vec![
        OptConfig::all_on(),
        OptConfig::all_off(),
        OptConfig::all_on().without_coalescing(),
        OptConfig::all_on().without_dedup().without_compression(),
        OptConfig::all_on().with_direction(Direction::Pull),
        OptConfig::all_on()
            .with_direction(Direction::Push)
            .without_fusion(),
        OptConfig::all_on().with_delta(0.03),
        OptConfig::all_on().with_delta(5.0),
    ];
    for (i, opts) in configs.into_iter().enumerate() {
        let sp = dist_run(&el, |p| Block1D::new(256, p), 4, 7, opts);
        assert!(sp.distances_match(&oracle, 1e-4), "config {i}");
    }
}

#[test]
fn distributed_bellman_ford_agrees() {
    for (name, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let sp = Machine::new(MachineConfig::with_ranks(3))
            .run(|ctx| {
                let part = Block1D::new(n, 3);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / 3, (ctx.rank() + 1) * m / 3);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (sp, _) = distributed_bellman_ford(ctx, &g, 0);
                sp.gather_to_all(ctx, g.part())
            })
            .results
            .pop()
            .expect("rank result");
        assert!(sp.distances_match(&oracle, 1e-4), "dist-bf on {name}");
    }
}

#[test]
fn distributed_validator_accepts_real_kernel_output() {
    // the full distributed pipeline: generate → assemble → optimized
    // kernel → *distributed* validation (no rank sees global state)
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(9, 21));
    let el = gen.generate_all();
    let n = 512u64;
    let p = 4;
    let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
        let part = Block1D::new(n, p);
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
        let g = assemble_local_graph(ctx, mine.clone().into_iter(), part);
        // pick a deterministic giant-ish root: highest-degree local vertex
        // of rank 0, broadcast
        let root = ctx.bcast(if ctx.rank() == 0 {
            let mut best = (0u64, 0usize);
            for l in 0..g.local_vertices() {
                if g.degree(l) > best.1 {
                    best = (part.to_global(0, l), g.degree(l));
                }
            }
            Some(best.0)
        } else {
            None
        });
        let (sp, _) = distributed_delta_stepping(ctx, &g, root, &OptConfig::all_on());
        let v = graph500::validate::distributed_validate_sssp(ctx, &g, &mine, root, &sp);
        (v.ok, v.errors.clone(), v.reached, v.traversed_edges)
    });
    let (ok0, errors0, reached0, traversed0) = rep.results[0].clone();
    assert!(ok0, "{errors0:?}");
    // every rank agrees on the global aggregates
    for (ok, _, reached, traversed) in &rep.results {
        assert!(ok);
        assert_eq!(*reached, reached0);
        assert_eq!(*traversed, traversed0);
    }
    assert!(
        traversed0 > 0 && reached0 > 1,
        "kernel reached a real component"
    );
}

#[test]
fn distributed_validator_rejects_corrupted_kernel_output() {
    let el = simple::erdos_renyi(64, 256, 3);
    let p = 4;
    let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
        let part = Block1D::new(64, p);
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
        let g = assemble_local_graph(ctx, mine.clone().into_iter(), part);
        let (mut sp, _) = distributed_delta_stepping(ctx, &g, 0, &OptConfig::all_on());
        // corrupt one reached vertex on rank 2
        if ctx.rank() == 2 {
            if let Some(l) =
                (0..g.local_vertices()).find(|&l| sp.dist[l] > 0.0 && sp.dist[l].is_finite())
            {
                sp.dist[l] *= 0.5;
            }
        }
        graph500::validate::distributed_validate_sssp(ctx, &g, &mine, 0, &sp).ok
    });
    assert!(
        rep.results.iter().all(|&ok| !ok),
        "corruption must fail on every rank"
    );
}

#[test]
fn shared_inf_sentinel_is_pinned_across_baselines() {
    use graph500::graph::{ShortestPaths, INF_WEIGHT};

    // the contract itself: one sentinel, u64::MAX / 4, with overflow
    // headroom, and the key embedding maps INF_WEIGHT onto it exactly
    assert_eq!(INF_KEY, u64::MAX / 4);
    assert_eq!(weight_to_key(INF_WEIGHT), INF_KEY);
    assert!(
        INF_KEY.checked_add(INF_KEY).is_some(),
        "sentinel addition must not wrap"
    );
    // every finite key sits strictly below the sentinel (monotone order)
    assert!(weight_to_key(f32::MAX) < INF_KEY);
    assert!(weight_to_key(0.0) < weight_to_key(f32::MAX));

    // a graph with an unreachable island: every baseline must report the
    // island with the *bitwise* shared sentinel, not some private infinity
    let el = EdgeList::from_edges(
        [(0u64, 1, 0.5f32), (1, 2, 0.25), (3, 4, 1.0)]
            .iter()
            .map(|&(u, v, w)| graph500::graph::WEdge::new(u, v, w)),
    );
    let csr = Csr::from_edges(5, &el, Directedness::Undirected);
    let runs: Vec<(&str, ShortestPaths)> = vec![
        ("dijkstra", dijkstra(&csr, 0)),
        ("dijkstra_radix", dijkstra_radix_heap(&csr, 0)),
        ("bmssp", bmssp(&csr, 0)),
        ("bellman_ford", bellman_ford(&csr, 0)),
        ("delta_stepping", delta_stepping(&csr, 0, 0.3)),
    ];
    for (algo, sp) in &runs {
        for v in [3usize, 4] {
            assert_eq!(
                sp.dist[v].to_bits(),
                INF_WEIGHT.to_bits(),
                "{algo}: unreachable vertex {v} must carry the shared sentinel"
            );
            assert_eq!(
                weight_to_key(sp.dist[v]),
                INF_KEY,
                "{algo}: sentinel must map onto INF_KEY"
            );
        }
    }
}

#[test]
fn parents_encode_valid_trees_everywhere() {
    // beyond distances: parents must reconstruct the same distance by
    // walking the tree
    for (name, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let sp = dist_run(&el, |p| Block1D::new(n, p), 3, 0, OptConfig::all_on());
        for v in 0..n as usize {
            if !sp.dist[v].is_finite() || v as u64 == 0 {
                continue;
            }
            let p = sp.parent[v] as usize;
            assert!(sp.dist[p].is_finite(), "{name}: parent of {v} unreached");
            // the tree edge must exist with a weight explaining the delta
            let ok = csr
                .arcs(p)
                .any(|(t, w)| t == v as u64 && (sp.dist[p] + w - sp.dist[v]).abs() < 1e-3);
            assert!(ok, "{name}: no tree edge {p}->{v}");
        }
    }
}
