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
//! The broadcast ships the frontier as an `n`-bit bitmap once its ids
//! would outweigh the bitmap, and as its ids before that.
//!
//! The levels run on the bucket-epoch driver (`crate::epoch`), so BFS
//! shares the SSSP kernels' agreement, crash probes and checkpoints: level
//! `k` is bucket `k` on every rank, its offer the three sums the direction
//! switch reads, and its one light step the push or the pull. A level never
//! adds to itself, so that step ends the level without a collective.

use crate::config::Direction;
use crate::dist::SsspRunStats;
use crate::epoch::{run_bucket_epochs, Agreed, BucketKernel, Offer, SuperstepSpan};
use g500_graph::{Bitmap, VertexId, NO_PARENT};
use g500_partition::{gather_to_root, LocalGraph, VertexPartition};
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::{Header, RankCtx, TraceCode, Wire};
use std::cmp::Ordering;
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

/// Tag-free wire record for a push claim: (child global id, parent global id).
type Claim = (u64, u64);

/// A rank's offer to a level's agreement: its frontier's size, the
/// frontier's arcs, and the arcs of its vertices not yet reached.
type Frontier = (u64, u64, u64);

/// One rank's side of a level's agreement.
type Agreement = Agreed<Frontier>;

/// Every rank names the level it expands, so the three sums always merge.
impl Offer for Frontier {
    fn merge(&self, other: &Frontier, _: Ordering) -> Frontier {
        (self.0 + other.0, self.1 + other.1, self.2 + other.2)
    }

    fn drained_nothing(&self) -> bool {
        self.0 == 0
    }
}

/// One BFS run on one rank. The level being expanded is the number of
/// levels closed, `stats.buckets`.
struct Bfs<'a, P: VertexPartition> {
    graph: &'a LocalGraph<P>,
    direction: Direction,
    res: DistBfs,
    frontier: Vec<u32>,
    unexplored_arcs: u64,
    stats: SsspRunStats,
}

/// Everything a level leaves for the next: the two result arrays, the
/// frontier, the unexplored count and the counters (the level among them).
impl<P: VertexPartition> Checkpoint for Bfs<'_, P> {
    fn save(&self, out: &mut Vec<u8>) {
        codec::put_slice(out, &self.res.level);
        codec::put_slice(out, &self.res.parent);
        codec::put_slice(out, &self.frontier);
        codec::put(out, self.unexplored_arcs);
        self.stats.save_ckpt(out);
    }

    fn load(&mut self, buf: &[u8]) {
        let pos = &mut 0;
        self.res.level = codec::get_vec(buf, pos);
        self.res.parent = codec::get_vec(buf, pos);
        self.frontier = codec::get_vec(buf, pos);
        self.unexplored_arcs = codec::get(buf, pos);
        self.stats.load_ckpt(buf, pos);
        assert_eq!(*pos, buf.len(), "trailing bytes in BFS checkpoint");
    }
}

impl<P: VertexPartition> BucketKernel for Bfs<'_, P> {
    type Offer = Frontier;

    fn offer(&mut self) -> Vec<Agreement> {
        let f = &self.frontier;
        let sums = (f.len() as u64, arcs(self.graph, f), self.unexplored_arcs);
        vec![(self.stats.buckets, sums)]
    }

    /// A level whose frontier is empty everywhere ends the search.
    fn open_bucket(&mut self, ctx: &mut RankCtx, k: u64, agreed: &mut [Agreement]) -> bool {
        let reached = !agreed[0].1.drained_nothing();
        if reached {
            ctx.trace_begin(TraceCode::Bucket, k, 0);
        }
        reached
    }

    /// Expand level `k` by push or pull, as `agreed`'s sums choose, and
    /// make what it reached the frontier.
    fn light_step(&mut self, ctx: &mut RankCtx, k: u64, agreed: &[Agreement]) -> Vec<Agreement> {
        let (f_size, f_arcs, unexplored) = agreed[0].1;
        let use_pull = match self.direction {
            Direction::Push => false,
            Direction::Pull => true,
            // Beamer's switch, alpha = 14
            Direction::Hybrid => f_arcs as f64 * 14.0 > unexplored as f64,
        };
        let (p, me) = (ctx.size(), ctx.rank());
        let (graph, res, frontier) = (self.graph, &mut self.res, &self.frontier);
        let part = graph.part();
        let next_level = k as i64 + 1;
        let span = SuperstepSpan::open(ctx, self.stats.supersteps, 0, self.stats.relaxations);

        let mut next: Vec<u32> = Vec::new();
        if use_pull {
            self.stats.pull_iterations += 1;
            // Frontier membership travels one of two ways, picked by
            // density: a dense frontier as a fixed n-bit bitmap (the real
            // technique — traffic independent of frontier size), a sparse
            // one as an id list (bitmap would waste n/8 bytes per rank).
            let n_global = part.num_vertices();
            let use_bitmap = (f_size as u128) * 64 > n_global as u128;
            let in_frontier: Box<dyn Fn(u64) -> bool> = if use_bitmap {
                let mut bm = Bitmap::new(n_global as usize);
                for &v in frontier {
                    bm.set(part.to_global(me, v as usize) as usize);
                }
                // every rank's block is the whole bitmap
                let bytes = (bm.words().len() * <u64 as Wire>::SIZE) as f64;
                let blocks = ctx
                    .allgatherv_routed(ctx.allgatherv_route(bytes), bm.words(), Header::none())
                    .0;
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
                let blocks = ctx
                    .allgatherv_routed(ctx.allgatherv_route(bytes), &mine, Header::none())
                    .0;
                let fset: HashSet<u64> = blocks.into_iter().flatten().collect();
                ctx.charge_compute(fset.len() as u64);
                Box::new(move |v: u64| fset.contains(&v))
            };
            let mut scanned = 0u64;
            for l in 0..res.level.len() {
                if res.level[l] >= 0 {
                    continue;
                }
                for (t, _) in graph.arcs(l) {
                    scanned += 1;
                    if in_frontier(t) {
                        res.level[l] = next_level;
                        res.parent[l] = t;
                        next.push(l as u32);
                        break; // the bottom-up early exit
                    }
                }
            }
            self.stats.relaxations += scanned;
            ctx.charge_compute(scanned);
        } else {
            self.stats.push_iterations += 1;
            // Top-down: claim children along out-edges.
            let mut out: Vec<Vec<Claim>> = vec![Vec::new(); p];
            let mut scanned = 0u64;
            for &u in frontier {
                let u_global = part.to_global(me, u as usize);
                for (v, _) in graph.arcs(u as usize) {
                    scanned += 1;
                    let owner = part.owner(v);
                    if owner == me {
                        let l = part.to_local(v);
                        if res.level[l] < 0 {
                            res.level[l] = next_level;
                            res.parent[l] = u_global;
                            next.push(l as u32);
                        }
                    } else {
                        out[owner].push((v, u_global));
                    }
                }
            }
            self.stats.relaxations += scanned;
            ctx.charge_compute(scanned);
            // dedup claims per destination (first claim wins, any parent is
            // a valid parent)
            for b in out.iter_mut() {
                self.stats.updates_offered += b.len() as u64;
                b.sort_unstable_by_key(|c| c.0);
                b.dedup_by_key(|c| c.0);
                self.stats.updates_sent += b.len() as u64;
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
                        res.level[l] = next_level;
                        res.parent[l] = parent;
                        next.push(l as u32);
                    }
                }
            }
        }

        // each vertex is reached once, so its arcs leave the count once
        self.unexplored_arcs -= arcs(graph, &next);
        self.frontier = next;
        self.stats.supersteps += 1;
        span.close(ctx, self.stats.supersteps, self.stats.relaxations);
        vec![(k, (0, 0, 0))]
    }

    /// Level `k` is done: the next one opens on the frontier it reached.
    fn close_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        self.stats.buckets += 1;
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }

    fn abandon_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }
}

/// The arcs of local vertices `vs`.
fn arcs<P: VertexPartition>(graph: &LocalGraph<P>, vs: &[u32]) -> u64 {
    vs.iter().map(|&v| graph.degree(v as usize) as u64).sum()
}

/// Run a distributed BFS from `root`. Collective; `direction` chooses the
/// policy (Hybrid = Beamer switch with `alpha = 14`). The counters are
/// [`SsspRunStats`], read as its doc says. Under a crash plan an
/// unrecoverable schedule is the identical `Err` on every rank.
pub fn distributed_bfs<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
    direction: Direction,
) -> Result<(DistBfs, SsspRunStats), FaultEscalation> {
    let (start_now, c0, m0) = (ctx.now(), ctx.stats().compute_s, ctx.stats().comm_s);
    let n_local = graph.local_vertices();
    let mut bfs = Bfs {
        graph,
        direction,
        res: DistBfs {
            level: vec![-1; n_local],
            parent: vec![NO_PARENT; n_local],
        },
        frontier: Vec::new(),
        unexplored_arcs: graph.local_arcs() as u64,
        stats: SsspRunStats::default(),
    };
    let part = graph.part();
    if part.owner(root) == ctx.rank() {
        let l = part.to_local(root);
        bfs.res.level[l] = 0;
        bfs.res.parent[l] = root;
        bfs.frontier.push(l as u32);
        bfs.unexplored_arcs -= graph.degree(l) as u64;
    }
    run_bucket_epochs(ctx, &mut bfs)?;
    bfs.stats.sim_time_s = ctx.now() - start_now;
    bfs.stats.compute_s = ctx.stats().compute_s - c0;
    bfs.stats.comm_s = ctx.stats().comm_s - m0;
    Ok((bfs.res, bfs.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::agree;
    use g500_graph::EdgeList;
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    /// Rank 0's gathered levels and parents and its counters, and the
    /// bytes each rank's pull broadcasts sent: its collective bytes over
    /// the run less one agreement's a level and one to end it.
    fn run_bfs(
        el: &EdgeList,
        n: u64,
        p: usize,
        root: u64,
        dir: Direction,
    ) -> (Vec<i64>, Vec<u64>, SsspRunStats, Vec<u64>) {
        let mut rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let before = ctx.stats().coll_bytes;
            agree::<Frontier>(ctx, vec![(0, (0, 0, 0))]);
            let agreement = ctx.stats().coll_bytes - before;
            let before = ctx.stats().coll_bytes;
            let (res, stats) = distributed_bfs(ctx, &g, root, dir).expect("no faults");
            let sent = ctx.stats().coll_bytes - before;
            let broadcast = sent - (stats.buckets + 1) * agreement;
            let (level, parent) = res.gather(ctx, g.part());
            (level, parent, stats, broadcast)
        });
        let broadcast = rep.results.iter().map(|r| r.3).collect();
        let (level, parent, stats, _) = rep.results.swap_remove(0);
        (level, parent, stats, broadcast)
    }

    #[test]
    fn path_levels_all_directions() {
        let el = g500_gen::simple::path(10, 1.0);
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            let (level, parent, ..) = run_bfs(&el, 10, 3, 0, dir);
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
            let (level, parent, ..) = run_bfs(&el, 256, 4, 3, dir);
            g500_validate::validate_bfs(256, &el, 3, &level, &parent)
                .unwrap_or_else(|e| panic!("{dir:?}: {e:?}"));
        }
    }

    #[test]
    fn hybrid_pulls_on_dense_graph() {
        let el = g500_gen::simple::complete(64, 1.0);
        let (_, _, stats, _) = run_bfs(&el, 64, 2, 0, Direction::Hybrid);
        assert!(
            stats.pull_iterations >= 1,
            "dense graph should trigger pull"
        );
        // the root's level and its 63 neighbours'
        assert_eq!((stats.buckets, stats.supersteps), (2, 2));
    }

    #[test]
    fn disconnected_part_unvisited() {
        let el = g500_gen::simple::path(4, 1.0); // vertices 4..7 isolated
        let (level, parent, ..) = run_bfs(&el, 8, 2, 0, Direction::Hybrid);
        assert_eq!(level[5], -1);
        assert_eq!(parent[5], NO_PARENT);
        assert_eq!(level[3], 3);
    }

    #[test]
    fn dense_frontier_uses_bitmap_broadcast() {
        // complete graph from a root on rank 1: rank 0 holds none of level
        // 0 and 32 of level 1's 63, which it ships as one ⌈64/64⌉-word
        // bitmap, not 32 ids
        let el = g500_gen::simple::complete(64, 1.0);
        let (_, _, stats, broadcast) = run_bfs(&el, 64, 2, 40, Direction::Pull);
        assert_eq!(stats.pull_iterations, 2);
        assert_eq!(broadcast[0], 8, "dense pull should pick the bitmap path");
    }

    #[test]
    fn sparse_frontier_uses_id_list() {
        // long path: frontiers of size 1 → each vertex's id shipped once by
        // its owner (64 a rank), never a 2-word bitmap a level
        let el = g500_gen::simple::path(128, 1.0);
        let (_, _, stats, broadcast) = run_bfs(&el, 128, 2, 0, Direction::Pull);
        assert_eq!(
            broadcast,
            [64 * 8, 64 * 8],
            "singleton frontiers must not pay n-bit broadcasts"
        );
        assert!(stats.pull_iterations > 100);
    }

    #[test]
    fn pull_scans_fewer_edges_than_push_on_dense_level() {
        let el = g500_gen::simple::complete(48, 1.0);
        let (_, _, push, _) = run_bfs(&el, 48, 2, 0, Direction::Push);
        let (_, _, pull, _) = run_bfs(&el, 48, 2, 0, Direction::Pull);
        assert!(
            pull.relaxations < push.relaxations,
            "pull {} vs push {}",
            pull.relaxations,
            push.relaxations
        );
    }
}
