//! Distributed direction-optimizing BFS — Graph500 kernel 2.
//!
//! The companion kernel (the sibling paper scaled it to 281 trillion
//! edges); implemented here both for the BFS-vs-SSSP cost comparison (F10)
//! and because the Graph500 output block reports it. Level-synchronous with
//! the Beamer-style direction switch:
//!
//! * **push** (top-down): frontier vertices send `(child, parent)` claims
//!   along out-edges — traffic ∝ frontier *arcs*;
//! * **pull** (bottom-up): the frontier is broadcast and every unvisited
//!   vertex scans its own adjacency for any frontier member, stopping at
//!   the first hit — traffic ∝ frontier *vertices*, and the early exit
//!   skips most of the adjacency on dense levels.
//!
//! The broadcast ships frontier ids rather than a bitmap (conservative for
//! pull: a bitmap would be cheaper still on very dense frontiers), so the
//! measured push/pull crossover is a lower bound on the real technique's
//! win.

use crate::config::Direction;
use g500_graph::{Bitmap, VertexId, NO_PARENT};
use g500_partition::{gather_to_root, LocalGraph, VertexPartition};
use simnet::{RankCtx, Wire};
use std::collections::HashSet;

/// One rank's BFS output: hop level (−1 unvisited) and global parent.
#[derive(Clone, Debug)]
pub struct DistBfs {
    /// `level[l]` of local vertex `l`, −1 if unvisited.
    pub level: Vec<i64>,
    /// `parent[l]` as a global id, [`NO_PARENT`] if unvisited.
    pub parent: Vec<u64>,
}

impl DistBfs {
    /// Collectively gather global `(level, parent)` arrays into rank 0
    /// ([`gather_to_root`]); every other rank gets two empty ones.
    pub fn gather<P: VertexPartition>(&self, ctx: &mut RankCtx, part: &P) -> (Vec<i64>, Vec<u64>) {
        let (me, n) = (ctx.rank(), part.num_vertices() as usize);
        let local = (&self.level[..], &self.parent[..]);
        gather_to_root(ctx, n, -1, local, |l| part.to_global(me, l))
    }
}

/// Counters from one BFS run.
#[derive(Clone, Debug, Default)]
pub struct BfsStats {
    /// Communication rounds (one per level).
    pub supersteps: u64,
    /// Depth of the BFS tree (number of levels below the root).
    pub levels: u64,
    /// Levels executed top-down.
    pub push_levels: u64,
    /// Levels executed bottom-up.
    pub pull_levels: u64,
    /// Bottom-up levels whose frontier was broadcast as a bitmap (dense
    /// frontiers) rather than an id list (sparse frontiers).
    pub bitmap_levels: u64,
    /// Local edge examinations.
    pub edges_scanned: u64,
    /// Virtual seconds for the traversal on this rank.
    pub sim_time_s: f64,
}

/// Tag-free wire record for a push claim: (child global id, parent global id).
type Claim = (u64, u64);

/// Run a distributed BFS from `root`. Collective; `direction` chooses the
/// policy (Hybrid = Beamer switch with `alpha = 14`).
pub fn distributed_bfs<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
    direction: Direction,
) -> (DistBfs, BfsStats) {
    const ALPHA: f64 = 14.0;
    let start_now = ctx.now();
    let p = ctx.size();
    let me = ctx.rank();
    let part = graph.part();
    let n_local = graph.local_vertices();

    let mut res = DistBfs {
        level: vec![-1; n_local],
        parent: vec![NO_PARENT; n_local],
    };
    let mut stats = BfsStats::default();
    let mut frontier: Vec<u32> = Vec::new();
    let mut unexplored_arcs: u64 = graph.local_arcs() as u64;

    if part.owner(root) == me {
        let l = part.to_local(root);
        res.level[l] = 0;
        res.parent[l] = root;
        frontier.push(l as u32);
        unexplored_arcs -= graph.degree(l) as u64;
    }

    let mut cur_level: i64 = 0;
    loop {
        let f_arcs_local: u64 = frontier
            .iter()
            .map(|&v| graph.degree(v as usize) as u64)
            .sum();
        let (f_size, f_arcs, unexplored) = ctx.allreduce(
            (frontier.len() as u64, f_arcs_local, unexplored_arcs),
            |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
        );
        if f_size == 0 {
            break;
        }
        let use_pull = match direction {
            Direction::Push => false,
            Direction::Pull => true,
            Direction::Hybrid => f_arcs as f64 * ALPHA > unexplored as f64,
        };

        let mut next: Vec<u32> = Vec::new();
        if use_pull {
            stats.pull_levels += 1;
            // Frontier membership travels one of two ways, picked by
            // density: a dense frontier as a fixed n-bit bitmap (the real
            // technique — traffic independent of frontier size), a sparse
            // one as an id list (bitmap would waste n/8 bytes per rank).
            let n_global = part.num_vertices();
            let use_bitmap = (f_size as u128) * 64 > n_global as u128;
            let in_frontier: Box<dyn Fn(u64) -> bool> = if use_bitmap {
                stats.bitmap_levels += 1;
                let mut bm = Bitmap::new(n_global as usize);
                for &v in &frontier {
                    bm.set(part.to_global(me, v as usize) as usize);
                }
                // every rank's block is the whole bitmap
                let bytes = (bm.words().len() * <u64 as Wire>::SIZE) as f64;
                let blocks = ctx.allgatherv_routed(ctx.allgatherv_route(bytes), bm.words());
                let mut merged = Bitmap::new(n_global as usize);
                for words in blocks {
                    merged.union_with(&Bitmap::from_words(n_global as usize, words));
                }
                ctx.charge_compute(n_global / 64 + 1);
                Box::new(move |v: u64| merged.get(v as usize))
            } else {
                let mine: Vec<u64> = frontier
                    .iter()
                    .map(|&v| part.to_global(me, v as usize))
                    .collect();
                let bytes = (f_size as usize * <u64 as Wire>::SIZE) as f64 / p as f64;
                let blocks = ctx.allgatherv_routed(ctx.allgatherv_route(bytes), &mine);
                let fset: HashSet<u64> = blocks.into_iter().flatten().collect();
                ctx.charge_compute(fset.len() as u64);
                Box::new(move |v: u64| fset.contains(&v))
            };
            let mut scanned = 0u64;
            for l in 0..n_local {
                if res.level[l] >= 0 {
                    continue;
                }
                for (t, _) in graph.arcs(l) {
                    scanned += 1;
                    if in_frontier(t) {
                        res.level[l] = cur_level + 1;
                        res.parent[l] = t;
                        next.push(l as u32);
                        break; // the bottom-up early exit
                    }
                }
            }
            stats.edges_scanned += scanned;
            ctx.charge_compute(scanned);
        } else {
            stats.push_levels += 1;
            // Top-down: claim children along out-edges.
            let mut out: Vec<Vec<Claim>> = vec![Vec::new(); p];
            let mut scanned = 0u64;
            for &u in &frontier {
                let u_global = part.to_global(me, u as usize);
                for (v, _) in graph.arcs(u as usize) {
                    scanned += 1;
                    let owner = part.owner(v);
                    if owner == me {
                        let l = part.to_local(v);
                        if res.level[l] < 0 {
                            res.level[l] = cur_level + 1;
                            res.parent[l] = u_global;
                            next.push(l as u32);
                        }
                    } else {
                        out[owner].push((v, u_global));
                    }
                }
            }
            stats.edges_scanned += scanned;
            ctx.charge_compute(scanned);
            // dedup claims per destination (first claim wins, any parent is
            // a valid parent)
            for b in out.iter_mut() {
                b.sort_unstable_by_key(|c| c.0);
                b.dedup_by_key(|c| c.0);
            }
            let mut incoming = ctx.alltoallv(out);
            // Claims are applied in the (possibly fuzzed) delivery order;
            // level assignment is first-claim-wins, so parents may differ
            // across orders but levels never do.
            let order = ctx.delivery_order(incoming.len());
            for block in order.into_iter().map(|s| std::mem::take(&mut incoming[s])) {
                for (v, parent) in block {
                    let l = part.to_local(v);
                    if res.level[l] < 0 {
                        res.level[l] = cur_level + 1;
                        res.parent[l] = parent;
                        next.push(l as u32);
                    }
                }
            }
        }

        for &v in &next {
            unexplored_arcs = unexplored_arcs.saturating_sub(graph.degree(v as usize) as u64);
        }
        frontier = next;
        cur_level += 1;
        stats.supersteps += 1;
    }

    stats.levels = cur_level.max(1) as u64 - 1;
    stats.sim_time_s = ctx.now() - start_now;
    (res, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_graph::EdgeList;
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    fn run_bfs(
        el: &EdgeList,
        n: u64,
        p: usize,
        root: u64,
        dir: Direction,
    ) -> (Vec<i64>, Vec<u64>, BfsStats) {
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (res, stats) = distributed_bfs(ctx, &g, root, dir);
            let (level, parent) = res.gather(ctx, g.part());
            (level, parent, stats)
        });
        rep.results.into_iter().next().expect("rank 0 result")
    }

    #[test]
    fn path_levels_all_directions() {
        let el = g500_gen::simple::path(10, 1.0);
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            let (level, parent, _) = run_bfs(&el, 10, 3, 0, dir);
            assert_eq!(
                level,
                (0..10).map(|i| i as i64).collect::<Vec<_>>(),
                "{dir:?}"
            );
            assert_eq!(parent[5], 4);
        }
    }

    #[test]
    fn bfs_tree_validates() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(8, 5));
        let el = gen.generate_all();
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            let (level, parent, _) = run_bfs(&el, 256, 4, 3, dir);
            g500_validate::validate_bfs(256, &el, 3, &level, &parent)
                .unwrap_or_else(|e| panic!("{dir:?}: {e:?}"));
        }
    }

    #[test]
    fn hybrid_pulls_on_dense_graph() {
        let el = g500_gen::simple::complete(64, 1.0);
        let (_, _, stats) = run_bfs(&el, 64, 2, 0, Direction::Hybrid);
        assert!(stats.pull_levels >= 1, "dense graph should trigger pull");
        assert_eq!(stats.levels, 1);
    }

    #[test]
    fn disconnected_part_unvisited() {
        let el = g500_gen::simple::path(4, 1.0); // vertices 4..7 isolated
        let (level, parent, _) = run_bfs(&el, 8, 2, 0, Direction::Hybrid);
        assert_eq!(level[5], -1);
        assert_eq!(parent[5], NO_PARENT);
        assert_eq!(level[3], 3);
    }

    #[test]
    fn dense_frontier_uses_bitmap_broadcast() {
        // complete graph: level-1 frontier is (almost) everyone → bitmap
        let el = g500_gen::simple::complete(64, 1.0);
        let (_, _, stats) = run_bfs(&el, 64, 2, 0, Direction::Pull);
        assert!(
            stats.bitmap_levels >= 1,
            "dense pull should pick the bitmap path"
        );
    }

    #[test]
    fn sparse_frontier_uses_id_list() {
        // long path: frontiers of size 1 → id list, never bitmap
        let el = g500_gen::simple::path(128, 1.0);
        let (_, _, stats) = run_bfs(&el, 128, 2, 0, Direction::Pull);
        assert_eq!(
            stats.bitmap_levels, 0,
            "singleton frontiers must not pay n-bit broadcasts"
        );
        assert!(stats.pull_levels > 100);
    }

    #[test]
    fn pull_scans_fewer_edges_than_push_on_dense_level() {
        let el = g500_gen::simple::complete(48, 1.0);
        let (_, _, push) = run_bfs(&el, 48, 2, 0, Direction::Push);
        let (_, _, pull) = run_bfs(&el, 48, 2, 0, Direction::Pull);
        assert!(
            pull.edges_scanned < push.edges_scanned,
            "pull {} vs push {}",
            pull.edges_scanned,
            push.edges_scanned
        );
    }
}
