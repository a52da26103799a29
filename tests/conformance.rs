//! Differential conformance: every distributed configuration — 1D
//! block/cyclic and 2D grid layouts crossed with each optimization toggle —
//! must produce sequential Dijkstra's distances on every graph family
//! (Kronecker, Erdős–Rényi, path, star), running under the deterministic
//! scheduler so any failure is replayable from the printed config label.

use graph500::baselines::dijkstra;
use graph500::gen::{simple, KroneckerGenerator, KroneckerParams};
use graph500::graph::{Csr, Directedness, EdgeList, ShortestPaths};
use graph500::partition::{assemble_local_graph, Block1D, Cyclic1D, VertexPartition};
use graph500::simnet::{Machine, MachineConfig};
use graph500::sssp::{distributed_delta_stepping, Direction, Grid2DSssp, OptConfig};

mod common;

/// The graph families the suite crosses against every configuration.
fn families() -> Vec<(&'static str, EdgeList, u64)> {
    let kron = KroneckerGenerator::new(KroneckerParams::graph500(9, 5));
    vec![
        ("kronecker", kron.generate_all(), 512),
        ("erdos_renyi", simple::erdos_renyi(256, 1024, 11), 256),
        ("path", simple::path(97, 0.25), 97),
        ("star", simple::star(64, 0.8), 64),
    ]
}

/// The optimization matrix: each toggle exercised both ways, plus the
/// direction variants and delta extremes — 9 combos. `all_on` runs at the
/// Δ the machine prices; the toggle rows at the degree rule's 0.125, since
/// on these few vertices a rank the price makes nearly every arc light and
/// each toggle must meet the heavy phase and the heavy fetch too.
fn opt_matrix() -> Vec<(&'static str, OptConfig)> {
    let narrow = OptConfig::all_on().with_delta(0.125);
    vec![
        ("all_on", OptConfig::all_on()),
        ("all_off", OptConfig::all_off()),
        ("no_coalescing", narrow.without_coalescing()),
        ("no_dedup", narrow.without_dedup()),
        ("no_compression", narrow.without_compression()),
        ("no_fusion", narrow.without_fusion()),
        ("pull", narrow.with_direction(Direction::Pull)),
        ("push", narrow.with_direction(Direction::Push)),
        ("delta_wide", OptConfig::all_on().with_delta(5.0)),
    ]
}

fn dist_run_det<P: VertexPartition + 'static>(
    el: &EdgeList,
    part_of: impl Fn(usize) -> P + Sync,
    p: usize,
    root: u64,
    opts: &OptConfig,
) -> ShortestPaths {
    // The CI lossy profile re-runs this whole suite over a faulty network
    // via G500_DROP_RATE etc.; the plan is inactive by default.
    Machine::new(
        MachineConfig::with_ranks(p)
            .deterministic(0)
            .faults(common::fault_overlay()),
    )
    .run(|ctx| {
        let part = part_of(ctx.size());
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
        let g = assemble_local_graph(ctx, mine.into_iter(), part);
        let (sp, _) = distributed_delta_stepping(ctx, &g, root, opts);
        sp.gather(ctx, g.part())
    })
    .results
    .swap_remove(0)
}

fn grid_run_det(el: &EdgeList, n: u64, p: usize, root: u64, delta: f32) -> ShortestPaths {
    Machine::new(
        MachineConfig::with_ranks(p)
            .deterministic(0)
            .faults(common::fault_overlay()),
    )
    .run(|ctx| {
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine = (lo..hi).map(|i| el.get(i));
        let mut g = Grid2DSssp::build(ctx, n, mine, delta);
        g.run(ctx, root);
        g.gather(ctx)
    })
    .results
    .into_iter()
    .next()
    .expect("rank 0")
}

/// 1D block layout × the full optimization matrix × every family:
/// 9 configs · 4 families = 36 differential checks against Dijkstra.
#[test]
fn block_1d_conforms_across_opt_matrix() {
    for (fam, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for (name, opts) in opt_matrix() {
            let sp = dist_run_det(&el, |p| Block1D::new(n, p), 4, 0, &opts);
            assert!(sp.distances_match(&oracle, 1e-4), "block/{name} on {fam}");
        }
    }
}

/// Cyclic striping reroutes every vertex to a different owner — same
/// matrix, different communication pattern.
#[test]
fn cyclic_1d_conforms_across_opt_matrix() {
    for (fam, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for (name, opts) in opt_matrix() {
            let sp = dist_run_det(&el, |p| Cyclic1D::new(n, p), 4, 0, &opts);
            assert!(sp.distances_match(&oracle, 1e-4), "cyclic/{name} on {fam}");
        }
    }
}

/// The 2D grid kernel against the oracle on every family, at two grid
/// shapes and two delta settings.
#[test]
fn grid_2d_conforms() {
    for (fam, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for p in [4usize, 9] {
            for delta in [0.25f32, 2.0] {
                let sp = grid_run_det(&el, n, p, 0, delta);
                assert!(
                    sp.distances_match(&oracle, 1e-4),
                    "2D p={p} delta={delta} on {fam}"
                );
            }
        }
    }
}

/// Rank-count sweep: the answer is independent of how many ranks share the
/// work, including degenerate (1 rank, more ranks than vertices on the
/// star's periphery blocks).
#[test]
fn rank_count_does_not_change_answers() {
    for (fam, el, n) in families() {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for p in [1usize, 3, 8] {
            let sp = dist_run_det(&el, |p| Block1D::new(n, p), p, 0, &OptConfig::all_on());
            assert!(sp.distances_match(&oracle, 1e-4), "p={p} on {fam}");
        }
    }
}

/// The adversarial families from `common::adversarial`, as `EdgeList`s.
fn adversarial_families(seed: u64) -> Vec<(&'static str, EdgeList, u64)> {
    common::adversarial::all(seed)
        .into_iter()
        .map(|(name, n, edges)| {
            let el = EdgeList::from_edges(
                edges
                    .iter()
                    .map(|&(u, v, w)| graph500::graph::WEdge::new(u, v, w)),
            );
            (name, el, n)
        })
        .collect()
}

/// Adversarial families × the optimization matrix on the 1D block layout.
/// These graphs are built to punish queue shortcuts (stale-entry trust,
/// label-correcting order, bucket-scan laziness, zero-weight plateaus);
/// every config must still reproduce Dijkstra exactly.
#[test]
fn adversarial_block_1d_conforms_across_opt_matrix() {
    for (fam, el, n) in adversarial_families(1) {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for (name, opts) in opt_matrix() {
            let sp = dist_run_det(&el, |p| Block1D::new(n, p), 4, 0, &opts);
            assert!(sp.distances_match(&oracle, 1e-4), "block/{name} on {fam}");
        }
    }
}

/// Same adversaries over cyclic striping: every plateau and correction
/// wave crosses rank boundaries.
#[test]
fn adversarial_cyclic_1d_conforms_across_opt_matrix() {
    for (fam, el, n) in adversarial_families(2) {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for (name, opts) in opt_matrix() {
            let sp = dist_run_det(&el, |p| Cyclic1D::new(n, p), 4, 0, &opts);
            assert!(sp.distances_match(&oracle, 1e-4), "cyclic/{name} on {fam}");
        }
    }
}

/// The Δ the machine prices, on 4 and 16 ranks, on the adversaries where
/// bucket width matters most: Dijkstra's distances to the bit.
#[test]
fn adversarial_families_are_bitwise_dijkstra_at_the_machine_priced_delta() {
    use common::adversarial::{almost_line, grid_swirl, spfa_killer, wrong_dijkstra_killer};
    let families = [
        ("grid_swirl", grid_swirl(4)),
        ("almost_line", almost_line(4)),
        ("spfa_killer", spfa_killer(4)),
        ("wrong_dijkstra_killer", wrong_dijkstra_killer(4)),
    ];
    for (fam, (n, edges)) in families {
        let el = EdgeList::from_edges(
            edges
                .iter()
                .map(|&(u, v, w)| graph500::graph::WEdge::new(u, v, w)),
        );
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for p in [4usize, 16] {
            let sp = dist_run_det(&el, |p| Block1D::new(n, p), p, 0, &OptConfig::all_on());
            for v in 0..n as usize {
                assert_eq!(
                    oracle.dist[v].to_bits(),
                    sp.dist[v].to_bits(),
                    "{fam} p={p}: vertex {v}"
                );
            }
        }
    }
}

/// Adversaries on the 2D grid kernel at two delta extremes.
#[test]
fn adversarial_grid_2d_conforms() {
    for (fam, el, n) in adversarial_families(3) {
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        for delta in [0.25f32, 2.0] {
            let sp = grid_run_det(&el, n, 4, 0, delta);
            assert!(
                sp.distances_match(&oracle, 1e-4),
                "2D delta={delta} on {fam}"
            );
        }
    }
}

/// The new sequential baselines must be *bitwise* Dijkstra on every
/// adversarial family, across several seeds per family.
#[test]
fn adversarial_new_baselines_bitwise_vs_dijkstra() {
    use graph500::baselines::{bmssp, dijkstra_radix_heap};
    for seed in 0..4u64 {
        for (fam, el, n) in adversarial_families(seed) {
            let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
            let oracle = dijkstra(&csr, 0);
            let radix = dijkstra_radix_heap(&csr, 0);
            let bm = bmssp(&csr, 0);
            for v in 0..n as usize {
                assert_eq!(
                    oracle.dist[v].to_bits(),
                    radix.dist[v].to_bits(),
                    "radix vs dijkstra: {fam} seed {seed} vertex {v}"
                );
                assert_eq!(
                    oracle.dist[v].to_bits(),
                    bm.dist[v].to_bits(),
                    "bmssp vs dijkstra: {fam} seed {seed} vertex {v}"
                );
            }
        }
    }
}

/// Cross-layout agreement is *bitwise*, not just within tolerance: block,
/// cyclic, and 2D layouts relax the same paths with the same f32 adds, so
/// the distance vectors must be identical to the bit.
#[test]
fn layouts_agree_bitwise() {
    for (fam, el, n) in families() {
        let block = dist_run_det(&el, |p| Block1D::new(n, p), 4, 0, &OptConfig::all_on());
        let cyclic = dist_run_det(&el, |p| Cyclic1D::new(n, p), 4, 0, &OptConfig::all_on());
        let grid = grid_run_det(&el, n, 4, 0, 0.25);
        for v in 0..n as usize {
            assert_eq!(
                block.dist[v].to_bits(),
                cyclic.dist[v].to_bits(),
                "{fam}: block vs cyclic at {v}"
            );
            assert_eq!(
                block.dist[v].to_bits(),
                grid.dist[v].to_bits(),
                "{fam}: block vs 2D at {v}"
            );
        }
    }
}
