//! Sequential Bellman-Ford relaxation.
//!
//! The "just relax everything until it stops changing" extreme of the SSSP
//! design space: no priority structure at all, so it wastes relaxations on
//! vertices whose distances are not final — the inefficiency delta-stepping's
//! buckets exist to avoid. Experiment F5 quantifies the gap.

use g500_graph::{Csr, ShortestPaths, VertexId};

/// Frontier-based sequential Bellman-Ford (a.k.a. SPFA without the queue
/// tricks): each round relaxes the out-edges of vertices whose distance
/// changed last round.
pub fn bellman_ford(graph: &Csr, root: VertexId) -> ShortestPaths {
    let n = graph.num_vertices();
    let mut sp = ShortestPaths::with_root(n, root);
    let mut frontier = vec![root as usize];
    let mut next = Vec::new();
    let mut in_next = vec![false; n];

    while !frontier.is_empty() {
        next.clear();
        in_next.iter_mut().for_each(|b| *b = false);
        for &u in &frontier {
            let du = sp.dist[u];
            for (v, w) in graph.arcs(u) {
                let v = v as usize;
                let nd = du + w;
                if nd < sp.dist[v] {
                    sp.dist[v] = nd;
                    sp.parent[v] = u as u64;
                    if !in_next[v] {
                        in_next[v] = true;
                        next.push(v);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    sp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use g500_graph::{Directedness, EdgeList};

    fn random_graph(seed: u64) -> Csr {
        let el = g500_gen::simple::erdos_renyi(60, 240, seed);
        Csr::from_edges(60, &el, Directedness::Undirected)
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(seed);
            let exact = dijkstra(&g, 0);
            let bf = bellman_ford(&g, 0);
            assert!(bf.distances_match(&exact, 1e-5), "seed {seed}");
        }
    }

    #[test]
    fn empty_frontier_terminates_immediately() {
        let g = Csr::from_edges(3, &EdgeList::new(), Directedness::Directed);
        let sp = bellman_ford(&g, 1);
        assert_eq!(sp.reached_count(), 1);
    }

    #[test]
    fn parent_tree_consistent() {
        let g = random_graph(9);
        let sp = bellman_ford(&g, 0);
        for v in 0..60 {
            if sp.dist[v].is_finite() && v != 0 {
                let p = sp.parent[v] as usize;
                assert!(sp.dist[p].is_finite());
                assert!(sp.dist[p] <= sp.dist[v] + 1e-6);
            }
        }
    }
}
