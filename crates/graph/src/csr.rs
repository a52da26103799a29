//! Compressed sparse row adjacency.
//!
//! [`Csr`] is the workhorse structure every kernel traverses. Construction is
//! a two-pass counting sort (degree count → prefix sum → scatter); the count
//! pass is parallel, the scatter pass is sequential per the single-writer
//! discipline (on the target machines each rank builds its own local CSR, so
//! intra-build parallelism matters less than avoiding atomics in the
//! scatter).

use crate::edgelist::EdgeList;
use crate::types::{VertexId, WEdge, Weight};

/// Whether an edge list already contains both directions of each edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Directedness {
    /// Insert each listed edge exactly as given.
    Directed,
    /// Insert each listed edge in both directions (Graph500 graphs are
    /// undirected but generated with one record per edge).
    Undirected,
}

/// Compressed sparse row adjacency with optional weights.
#[derive(Clone, Debug)]
pub struct Csr {
    n: usize,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Csr {
    /// Build a CSR over `n` vertices from an edge list.
    ///
    /// Self-loops are kept (the Graph500 validator tolerates them; SSSP
    /// relaxation over a self-loop is a no-op). Endpoints must be `< n`.
    pub fn from_edges(n: usize, edges: &EdgeList, dir: Directedness) -> Self {
        let m = edges.len();
        let slots = match dir {
            Directedness::Directed => m,
            Directedness::Undirected => 2 * m,
        };

        // Pass 1: per-vertex degree count (parallel chunked count + merge).
        // Each chunk allocates an n-slot scratch array, so the chunk count
        // is capped at the pool size (scratch ≤ threads × n × 4B) and
        // floored at MIN_COUNT_CHUNK edges per chunk. Work-size-aware
        // cutoff: a sub-threshold edge list is counted sequentially in one
        // pass — a thread spawn and per-chunk scratch cost more than
        // the count itself (and the pool size is never even fixed). Integer
        // degree sums are partition- and order-insensitive, so neither the
        // cutoff nor a thread-dependent chunk count can change the result
        // (see the fixed-chunk contract in `rayon`).
        const MIN_COUNT_CHUNK: usize = 1 << 15;
        let count_range = |range: std::ops::Range<usize>| -> Vec<u32> {
            let mut deg = vec![0u32; n];
            for i in range {
                let e = edges.get(i);
                debug_assert!(
                    (e.u as usize) < n && (e.v as usize) < n,
                    "edge ({}, {}) out of range for n={n}",
                    e.u,
                    e.v
                );
                deg[e.u as usize] += 1;
                if dir == Directedness::Undirected {
                    deg[e.v as usize] += 1;
                }
            }
            deg
        };
        let mut partials: Vec<Vec<u32>> = Vec::new();
        if m <= 2 * MIN_COUNT_CHUNK {
            partials.push(count_range(0..m));
        } else {
            let nchunks = rayon::current_num_threads()
                .min(m.div_ceil(MIN_COUNT_CHUNK))
                .max(1);
            rayon::map_chunks(m, m.div_ceil(nchunks), &mut partials, count_range);
        }

        let mut offsets = vec![0u64; n + 1];
        for part in &partials {
            for (v, &d) in part.iter().enumerate() {
                offsets[v + 1] += d as u64;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        debug_assert_eq!(offsets[n] as usize, slots);

        // Pass 2: scatter.
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; slots];
        let mut weights = vec![0.0 as Weight; slots];
        for e in edges.iter() {
            let c = &mut cursor[e.u as usize];
            targets[*c as usize] = e.v;
            weights[*c as usize] = e.w;
            *c += 1;
            if dir == Directedness::Undirected {
                let c = &mut cursor[e.v as usize];
                targets[*c as usize] = e.u;
                weights[*c as usize] = e.w;
                *c += 1;
            }
        }

        Csr {
            n,
            offsets,
            targets,
            weights,
        }
    }

    /// Build a *rectangular* CSR: `rows` source rows, targets unconstrained
    /// (e.g. block-local sources with global targets — the layout of a 2D
    /// edge block, whose rows and columns index different spaces).
    /// Always directed: each record is inserted exactly as given.
    pub fn from_edges_rect(rows: usize, edges: &EdgeList) -> Self {
        let m = edges.len();
        let mut offsets = vec![0u64; rows + 1];
        for i in 0..m {
            let e = edges.get(i);
            debug_assert!((e.u as usize) < rows, "source {} out of {} rows", e.u, rows);
            offsets[e.u as usize + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets[..rows].to_vec();
        let mut targets = vec![0 as VertexId; m];
        let mut weights = vec![0.0 as Weight; m];
        for e in edges.iter() {
            let c = &mut cursor[e.u as usize];
            targets[*c as usize] = e.v;
            weights[*c as usize] = e.w;
            *c += 1;
        }
        Csr {
            n: rows,
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of stored arcs (directed slots).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Neighbor ids of `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[VertexId] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Weights parallel to [`Self::neighbors`].
    #[inline]
    pub fn edge_weights(&self, u: usize) -> &[Weight] {
        &self.weights[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// `(neighbor, weight)` pairs of `u`.
    #[inline]
    pub fn arcs(&self, u: usize) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(u)
            .iter()
            .copied()
            .zip(self.edge_weights(u).iter().copied())
    }

    /// Offset array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Flat target array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Iterate over all arcs as `WEdge`s.
    pub fn iter_edges(&self) -> impl Iterator<Item = WEdge> + '_ {
        (0..self.n).flat_map(move |u| {
            self.arcs(u)
                .map(move |(v, w)| WEdge::new(u as VertexId, v, w))
        })
    }

    /// The transposed graph (in-edges become out-edges).
    ///
    /// Needed by the pull-direction relaxation kernel. For symmetric inputs
    /// the transpose equals the original, a property tests exploit.
    pub fn transpose(&self) -> Csr {
        let mut el = EdgeList::with_capacity(self.num_arcs());
        for e in self.iter_edges() {
            el.push(e.reversed());
        }
        Csr::from_edges(self.n, &el, Directedness::Directed)
    }

    /// Sum of all weights (used by tests and statistics): chunk sums, added
    /// in chunk order.
    pub fn total_weight(&self) -> f64 {
        let w = &self.weights;
        let mut sums = Vec::new();
        let chunk = rayon::fixed_chunk_size(w.len(), 1024);
        rayon::map_chunks(w.len(), chunk, &mut sums, |r| {
            w[r].iter().map(|&x| x as f64).sum::<f64>()
        });
        sums.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> EdgeList {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        EdgeList::from_edges([
            WEdge::new(0, 1, 1.0),
            WEdge::new(0, 2, 2.0),
            WEdge::new(1, 3, 3.0),
            WEdge::new(2, 3, 4.0),
        ])
    }

    #[test]
    fn directed_build_matches_input() {
        let g = Csr::from_edges(4, &diamond(), Directedness::Directed);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        let mut n0: Vec<_> = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn undirected_build_doubles_arcs() {
        let g = Csr::from_edges(4, &diamond(), Directedness::Undirected);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.degree(3), 2);
        let mut n3: Vec<_> = g.neighbors(3).to_vec();
        n3.sort_unstable();
        assert_eq!(n3, vec![1, 2]);
    }

    #[test]
    fn weights_travel_with_targets() {
        let g = Csr::from_edges(4, &diamond(), Directedness::Undirected);
        for (v, w) in g.arcs(3) {
            match v {
                1 => assert_eq!(w, 3.0),
                2 => assert_eq!(w, 4.0),
                other => panic!("unexpected neighbor {other}"),
            }
        }
    }

    #[test]
    fn transpose_of_symmetric_graph_is_identical() {
        let g = Csr::from_edges(4, &diamond(), Directedness::Undirected);
        let t = g.transpose();
        assert_eq!(g.offsets(), t.offsets());
        // the same arcs per vertex, possibly in another order
        let sorted_arcs = |c: &Csr, u: usize| {
            let mut arcs: Vec<(VertexId, u32)> = c.arcs(u).map(|(v, w)| (v, w.to_bits())).collect();
            arcs.sort_unstable();
            arcs
        };
        for u in 0..4 {
            assert_eq!(sorted_arcs(&g, u), sorted_arcs(&t, u), "vertex {u}");
        }
    }

    #[test]
    fn transpose_reverses_directed_arcs() {
        let g = Csr::from_edges(4, &diamond(), Directedness::Directed);
        let t = g.transpose();
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.degree(3), 2);
        assert_eq!(t.neighbors(1), &[0]);
    }

    #[test]
    fn iter_edges_roundtrip_counts() {
        let g = Csr::from_edges(4, &diamond(), Directedness::Undirected);
        assert_eq!(g.iter_edges().count(), 8);
        let total: f64 = g.iter_edges().map(|e| e.w as f64).sum();
        assert_eq!(total, 2.0 * (1.0 + 2.0 + 3.0 + 4.0));
        assert_eq!(total, g.total_weight());
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = Csr::from_edges(5, &EdgeList::new(), Directedness::Directed);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), 0);
        for u in 0..5 {
            assert_eq!(g.degree(u), 0);
        }
    }

    #[test]
    fn rectangular_build_allows_global_targets() {
        // 3 local rows, targets in a much larger global space
        let el = EdgeList::from_edges([
            WEdge::new(0, 1_000_000, 0.5),
            WEdge::new(2, 7, 0.25),
            WEdge::new(0, 99, 0.75),
        ]);
        let g = Csr::from_edges_rect(3, &el);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.neighbors(2), &[7]);
        let mut n0 = g.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![99, 1_000_000]);
    }

    #[test]
    fn self_loops_are_preserved() {
        let el = EdgeList::from_edges([WEdge::new(1, 1, 0.5)]);
        let g = Csr::from_edges(2, &el, Directedness::Undirected);
        assert_eq!(g.degree(1), 2); // stored once per direction
        assert_eq!(g.neighbors(1), &[1, 1]);
    }
}
