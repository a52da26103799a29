//! Distributed Bellman-Ford: the naive distributed SSSP baseline.
//!
//! One superstep per relaxation round: every rank relaxes the out-edges of
//! its active vertices, ships `(target, dist, parent)` updates to the
//! targets' owners in a single all-to-all, applies what it receives, and
//! repeats until a global reduction says no distance changed. No buckets,
//! no priorities — every improvement propagates immediately, so deep light
//! paths are re-relaxed many times and the superstep count equals the
//! weighted-hop diameter. This is the comparison point that makes the
//! optimized delta-stepping kernel's wins legible (experiment F9).

use g500_graph::VertexId;
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use simnet::RankCtx;

/// Per-relaxation update record: (global target, new distance, parent).
type Update = (u64, f32, u64);

/// Run distributed Bellman-Ford from `root`. Must be called collectively;
/// returns this rank's slice of the result plus the superstep count.
pub fn distributed_bellman_ford<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
) -> (DistShortestPaths, u64) {
    let part = graph.part().clone();
    let me = ctx.rank();
    let p = ctx.size();
    let n_local = graph.local_vertices();
    let mut sp = DistShortestPaths::unreached(n_local);

    let mut frontier: Vec<usize> = Vec::new();
    if part.owner(root) == me {
        let l = part.to_local(root);
        sp.dist[l] = 0.0;
        sp.parent[l] = root;
        frontier.push(l);
    }

    let mut supersteps = 0u64;
    loop {
        // Relax the local frontier, bucketing updates by target owner.
        let mut out: Vec<Vec<Update>> = vec![Vec::new(); p];
        let mut relaxed = 0u64;
        for &l in &frontier {
            let du = sp.dist[l];
            let u_global = part.to_global(me, l);
            for (v, w) in graph.arcs(l) {
                out[part.owner(v)].push((v, du + w, u_global));
                relaxed += 1;
            }
        }
        ctx.charge_compute(relaxed);

        // Global termination check on the *intended* sends: if no rank has
        // anything to relax, we are done.
        let outgoing: u64 = out.iter().map(|b| b.len() as u64).sum();
        if ctx.allreduce_sum(outgoing) == 0 {
            break;
        }

        let incoming = ctx.alltoallv(out);

        // Apply updates; improved vertices form the next frontier.
        frontier.clear();
        let mut in_frontier = vec![false; n_local];
        let mut applied = 0u64;
        for block in incoming {
            for (v, nd, parent) in block {
                debug_assert_eq!(part.owner(v), me, "misrouted update");
                let l = part.to_local(v);
                if nd < sp.dist[l] {
                    sp.dist[l] = nd;
                    sp.parent[l] = parent;
                    if !in_frontier[l] {
                        in_frontier[l] = true;
                        frontier.push(l);
                    }
                }
                applied += 1;
            }
        }
        ctx.charge_compute(applied);
        supersteps += 1;
    }
    (sp, supersteps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use g500_graph::{Csr, Directedness, EdgeList};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    fn run_distributed(
        el: &EdgeList,
        n: u64,
        p: usize,
        root: u64,
    ) -> Vec<(g500_graph::ShortestPaths, u64)> {
        Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let part = Block1D::new(n, p);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (sp, steps) = distributed_bellman_ford(ctx, &g, root);
                (sp.gather(ctx, g.part()), steps)
            })
            .results
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        let el = g500_gen::simple::erdos_renyi(48, 200, 21);
        let csr = Csr::from_edges(48, &el, Directedness::Undirected);
        let exact = dijkstra(&csr, 5);
        for p in [1, 3, 4] {
            let results = run_distributed(&el, 48, p, 5);
            assert!(results[0].0.distances_match(&exact, 1e-4), "p={p}");
        }
    }

    #[test]
    fn superstep_count_tracks_path_depth() {
        // a 16-vertex path needs ~15 rounds — the weakness of the baseline
        let el = g500_gen::simple::path(16, 1.0);
        let results = run_distributed(&el, 16, 4, 0);
        let (_, steps) = &results[0];
        assert!(
            *steps >= 15,
            "path of 16 should take >= 15 supersteps, took {steps}"
        );
    }

    #[test]
    fn star_resolves_in_two_supersteps() {
        let el = g500_gen::simple::star(32, 0.5);
        let results = run_distributed(&el, 32, 4, 0);
        let (sp, steps) = &results[0];
        assert_eq!(sp.reached_count(), 32);
        assert!(*steps <= 2, "star took {steps} supersteps");
    }

    #[test]
    fn root_on_any_rank() {
        let el = g500_gen::simple::cycle(12, 1.0);
        let csr = Csr::from_edges(12, &el, Directedness::Undirected);
        for root in [0u64, 5, 11] {
            let exact = dijkstra(&csr, root);
            let results = run_distributed(&el, 12, 3, root);
            assert!(results[0].0.distances_match(&exact, 1e-5), "root {root}");
        }
    }
}
