//! Distributed graph assembly: from per-rank edge blocks to per-rank CSRs.
//!
//! The benchmark's construction phase (Graph500 "kernel 0") works like the
//! record run's: every rank generates an arbitrary slice of the global edge
//! list (the counter-based generator makes the slices independent), the
//! slices are exchanged so each arc reaches the rank owning its *source*
//! vertex, and each rank builds a CSR over its local vertices whose targets
//! remain global ids. Because Graph500 graphs are undirected, each input
//! edge contributes an arc in both directions, and the local "transpose"
//! needed by pull-mode relaxation is the graph itself.
//!
//! A kernel that splits rows at a bucket width Δ reads the light prefixes
//! as [`LightRows`]: packed into flat arrays of their own, built on first
//! use and kept on the graph for the Δ last asked for.

use crate::VertexPartition;
use g500_graph::types::{bits_to_weight, weight_to_bits};
use g500_graph::{VertexId, Weight};
use simnet::RankCtx;
use std::sync::{Arc, Mutex};

/// One rank's share of the distributed graph. Every row is sorted by
/// (weight, target), so the arcs lighter than any threshold are a prefix.
#[derive(Clone, Debug)]
pub struct LocalGraph<P: VertexPartition> {
    part: P,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    /// Totals across all ranks, reduced once at assembly: arcs (2× the
    /// undirected edge count), vertices, and the sum of arc weights.
    global_arcs: u64,
    global_vertices: u64,
    global_weight: f64,
    /// The light rows of the Δ last asked for ([`LocalGraph::light_rows`]).
    light: LightMemo,
}

/// Every row's light prefix — its arcs lighter than Δ, in row order — packed
/// into one offsets array and two flat arrays, 12 bytes an arc: a sweep over
/// the light arcs of consecutive vertices reads contiguous memory and
/// nothing of the heavy suffixes between them. Derived from the graph and
/// Δ alone.
#[derive(Debug)]
pub struct LightRows {
    /// The bucket width the rows were split at: the memo's key.
    delta: Weight,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl LightRows {
    fn of<P: VertexPartition>(graph: &LocalGraph<P>, delta: Weight) -> LightRows {
        let n = graph.local_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u64;
        offsets.push(total);
        for l in 0..n {
            total += graph.edge_weights(l).partition_point(|&w| w < delta) as u64;
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total as usize);
        let mut weights = Vec::with_capacity(total as usize);
        for (l, ends) in offsets.windows(2).enumerate() {
            let light = (ends[1] - ends[0]) as usize;
            targets.extend_from_slice(&graph.neighbors(l)[..light]);
            weights.extend_from_slice(&graph.edge_weights(l)[..light]);
        }
        LightRows {
            delta,
            offsets,
            targets,
            weights,
        }
    }

    /// Light arcs on this rank.
    pub fn arcs(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Light arcs of local vertex `l`: the length of its row's light prefix.
    #[inline]
    pub fn degree(&self, l: usize) -> usize {
        (self.offsets[l + 1] - self.offsets[l]) as usize
    }

    /// Global targets of local vertex `l`'s light arcs, lightest first.
    #[inline]
    pub fn neighbors(&self, l: usize) -> &[VertexId] {
        &self.targets[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Weights of local vertex `l`'s light arcs, parallel to
    /// [`neighbors`](LightRows::neighbors).
    #[inline]
    pub fn edge_weights(&self, l: usize) -> &[Weight] {
        &self.weights[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

/// The graph's one memoised [`LightRows`]: shared with every kernel run at
/// the same Δ, replaced when a run asks for another. A clone of the graph
/// starts with the same rows.
#[derive(Debug, Default)]
struct LightMemo(Mutex<Option<Arc<LightRows>>>);

impl Clone for LightMemo {
    fn clone(&self) -> Self {
        LightMemo(Mutex::new(self.0.lock().expect("light rows memo").clone()))
    }
}

/// Wire record for one arc: (global source, global target, weight).
type ArcRec = (u64, u64, f32);

/// Exchange arcs so each rank holds the out-arcs of its own vertices, then
/// build the local CSR with weight-sorted rows. `my_edges` is this rank's
/// generated slice of the *undirected* edge list; both directions of every
/// edge are materialised here. Must be called by all ranks collectively.
pub fn assemble_local_graph<P: VertexPartition>(
    ctx: &mut RankCtx,
    my_edges: impl Iterator<Item = g500_graph::WEdge>,
    part: P,
) -> LocalGraph<P> {
    let p = ctx.size();
    assert_eq!(
        p,
        part.num_ranks(),
        "partition sized for a different machine"
    );

    // Bucket both directions of each edge by owner of the arc's source.
    let mut out: Vec<Vec<ArcRec>> = vec![Vec::new(); p];
    let mut local_edges = 0u64;
    for e in my_edges {
        out[part.owner(e.u)].push((e.u, e.v, e.w));
        out[part.owner(e.v)].push((e.v, e.u, e.w));
        local_edges += 1;
    }
    // Charge the bucketing scan (one op per generated arc).
    ctx.charge_compute(2 * local_edges);

    let received = ctx.alltoallv(out);

    // Counting sort into CSR over local indices.
    let n_local = part.local_count(ctx.rank());
    let mut degree = vec![0u64; n_local];
    let mut total = 0usize;
    for block in &received {
        for &(src, _, _) in block {
            debug_assert_eq!(part.owner(src), ctx.rank(), "misrouted arc");
            degree[part.to_local(src)] += 1;
        }
        total += block.len();
    }
    let mut offsets = vec![0u64; n_local + 1];
    for l in 0..n_local {
        offsets[l + 1] = offsets[l] + degree[l];
    }
    let mut cursor = offsets[..n_local].to_vec();
    let mut targets = vec![0 as VertexId; total];
    let mut weights = vec![0.0 as Weight; total];
    for block in &received {
        for &(src, dst, w) in block {
            let l = part.to_local(src);
            let c = &mut cursor[l];
            targets[*c as usize] = dst;
            weights[*c as usize] = w;
            *c += 1;
        }
    }
    ctx.charge_compute(2 * total as u64);

    // Sort every row by (weight, target): the kernels take a vertex's light
    // arcs as a prefix of its row and bound pull scans by weight. Charged
    // as a comparison sort, d·⌈log₂ d⌉ per row of d arcs. On the host, a
    // non-negative weight's bits and the arc's position in its row pack
    // into one u64 key (half the bytes of the pair, no comparator).
    let mut keys: Vec<u64> = Vec::new();
    let mut unsorted: Vec<VertexId> = Vec::new();
    let mut sort_ops = 0u64;
    for l in 0..n_local {
        let (lo, hi) = (offsets[l] as usize, offsets[l + 1] as usize);
        if hi - lo < 2 {
            continue;
        }
        let (ws, ts) = (&mut weights[lo..hi], &mut targets[lo..hi]);
        keys.clear();
        keys.extend(
            ws.iter()
                .enumerate()
                .map(|(i, &w)| u64::from(weight_to_bits(w)) << 32 | i as u64),
        );
        keys.sort_unstable();
        unsorted.clear();
        unsorted.extend_from_slice(ts);
        for (i, &key) in keys.iter().enumerate() {
            ws[i] = bits_to_weight((key >> 32) as u32);
            ts[i] = unsorted[key as u32 as usize];
        }
        // runs of equal weight: by target
        let mut i = 0;
        for run in ws.chunk_by(|a, b| a.to_bits() == b.to_bits()) {
            ts[i..i + run.len()].sort_unstable();
            i += run.len();
        }
        sort_ops += (hi - lo) as u64 * u64::from((hi - lo).next_power_of_two().trailing_zeros());
    }
    ctx.charge_compute(sort_ops);

    // The per-graph constants every run reads (the fused-tail trigger, Δ
    // selection) ride one allreduce. The weight sum walks the rows in
    // storage order, so it is the same `f64` at any thread count.
    let local_weight: f64 = weights.iter().map(|&w| f64::from(w)).sum();
    let (global_arcs, global_vertices, global_weight) = ctx
        .allreduce((total as u64, n_local as u64, local_weight), |a, b| {
            (a.0 + b.0, a.1 + b.1, a.2 + b.2)
        });

    LocalGraph {
        part,
        offsets,
        targets,
        weights,
        global_arcs,
        global_vertices,
        global_weight,
        light: LightMemo::default(),
    }
}

impl<P: VertexPartition> LocalGraph<P> {
    /// The ownership map this graph is distributed by.
    pub fn part(&self) -> &P {
        &self.part
    }

    /// Number of vertices owned by this rank.
    pub fn local_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arcs stored on this rank.
    pub fn local_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Total arcs over all ranks (2× the undirected edge count).
    pub fn global_arcs(&self) -> u64 {
        self.global_arcs
    }

    /// Total vertices over all ranks.
    pub fn global_vertices(&self) -> u64 {
        self.global_vertices
    }

    /// Sum of the weights of all arcs over all ranks, each rank's share
    /// summed in storage order and the shares reduced in rank order.
    pub fn global_weight(&self) -> f64 {
        self.global_weight
    }

    /// Out-degree of local vertex `l`.
    #[inline]
    pub fn degree(&self, l: usize) -> usize {
        (self.offsets[l + 1] - self.offsets[l]) as usize
    }

    /// `(global target, weight)` pairs of local vertex `l`.
    #[inline]
    pub fn arcs(&self, l: usize) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let lo = self.offsets[l] as usize;
        let hi = self.offsets[l + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Global targets of local vertex `l`.
    #[inline]
    pub fn neighbors(&self, l: usize) -> &[VertexId] {
        let lo = self.offsets[l] as usize;
        let hi = self.offsets[l + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Weights of local vertex `l`'s arcs, parallel to [`neighbors`]. The
    /// two contiguous slices let relaxation inner loops run as a single
    /// counted zip instead of an iterator chain.
    ///
    /// [`neighbors`]: LocalGraph::neighbors
    pub fn edge_weights(&self, l: usize) -> &[Weight] {
        let lo = self.offsets[l] as usize;
        let hi = self.offsets[l + 1] as usize;
        &self.weights[lo..hi]
    }

    /// The light prefixes of every row at bucket width `delta`, packed:
    /// built on the first call and on a call with another Δ than the last,
    /// otherwise the rows the last call returned.
    pub fn light_rows(&self, delta: Weight) -> Arc<LightRows> {
        let mut memo = self.light.0.lock().expect("light rows memo");
        match &*memo {
            Some(rows) if rows.delta.to_bits() == delta.to_bits() => Arc::clone(rows),
            _ => Arc::clone(memo.insert(Arc::new(LightRows::of(self, delta)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part1d::Block1D;
    use g500_graph::{EdgeList, WEdge};
    use simnet::{Machine, MachineConfig};

    /// Generator-slice helper: rank r takes edges [r·m/p, (r+1)·m/p).
    fn my_slice(el: &EdgeList, rank: usize, p: usize) -> Vec<WEdge> {
        let m = el.len();
        let lo = rank * m / p;
        let hi = (rank + 1) * m / p;
        (lo..hi).map(|i| el.get(i)).collect()
    }

    #[test]
    fn path_graph_distributes_correctly() {
        let el = g500_gen::simple::path(10, 1.0);
        let rep = Machine::new(MachineConfig::with_ranks(3)).run(|ctx| {
            let part = Block1D::new(10, 3);
            let mine = my_slice(&el, ctx.rank(), 3);
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            (g.local_vertices(), g.local_arcs(), g.global_arcs())
        });
        // 9 edges → 18 arcs globally
        assert!(rep.results.iter().all(|&(_, _, ga)| ga == 18));
        let total_arcs: usize = rep.results.iter().map(|&(_, a, _)| a).sum();
        assert_eq!(total_arcs, 18);
        let total_verts: usize = rep.results.iter().map(|&(v, _, _)| v).sum();
        assert_eq!(total_verts, 10);
    }

    #[test]
    fn assembled_rows_are_weight_sorted_and_match_sequential_csr() {
        use g500_graph::{Csr, Directedness};
        // random weights, then all weights tied (rows ordered by target)
        let inputs = [
            g500_gen::simple::erdos_renyi(40, 200, 5),
            g500_gen::simple::complete(40, 0.5),
        ];
        let p = 4;
        for el in &inputs {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let part = Block1D::new(40, p);
                let mine = my_slice(el, ctx.rank(), p);
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                // each local vertex's row, in stored order, with global ids
                (0..g.local_vertices())
                    .map(|l| (part.to_global(ctx.rank(), l), g.arcs(l).collect()))
                    .collect::<Vec<(u64, Vec<(u64, f32)>)>>()
            });
            // sequential reference
            let csr = Csr::from_edges(40, el, Directedness::Undirected);
            for (v, row) in rep.results.into_iter().flatten() {
                assert!(
                    row.windows(2).all(|a| (a[0].1, a[0].0) <= (a[1].1, a[1].0)),
                    "vertex {v}: row not sorted by (weight, target): {row:?}"
                );
                let bits = |(t, w): (u64, f32)| (t, w.to_bits());
                let mut got: Vec<(u64, u32)> = row.into_iter().map(bits).collect();
                let mut expect: Vec<(u64, u32)> = csr.arcs(v as usize).map(bits).collect();
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "vertex {v}");
            }
        }
    }

    #[test]
    fn light_rows_are_the_row_prefixes_kept_per_delta() {
        let el = g500_gen::simple::erdos_renyi(60, 400, 9);
        let rep = Machine::new(MachineConfig::with_ranks(3)).run(|ctx| {
            let mine = my_slice(&el, ctx.rank(), 3);
            let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(60, 3));
            for delta in [0.0, 0.3, 2.0] {
                let rows = g.light_rows(delta);
                let mut arcs = 0;
                for l in 0..g.local_vertices() {
                    let light = g.edge_weights(l).iter().filter(|&&w| w < delta).count();
                    assert_eq!(rows.degree(l), light);
                    assert_eq!(rows.neighbors(l), &g.neighbors(l)[..light]);
                    assert_eq!(rows.edge_weights(l), &g.edge_weights(l)[..light]);
                    arcs += light as u64;
                }
                assert_eq!(rows.arcs(), arcs);
                // the same Δ again is the memo, a clone of the graph shares it
                assert!(Arc::ptr_eq(&rows, &g.light_rows(delta)));
                assert!(Arc::ptr_eq(&rows, &g.clone().light_rows(delta)));
            }
            let last = g.light_rows(2.0);
            assert!(!Arc::ptr_eq(&last, &g.light_rows(0.3)), "a new Δ rebuilds");
            g.local_arcs()
        });
        assert!(rep.results.iter().all(|&a| a > 0));
    }

    #[test]
    fn single_rank_owns_everything() {
        let el = g500_gen::simple::star(8, 0.5);
        let rep = Machine::new(MachineConfig::with_ranks(1)).run(|ctx| {
            let part = Block1D::new(8, 1);
            let mine: Vec<WEdge> = el.iter().collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            (g.local_vertices(), g.local_arcs(), g.degree(0))
        });
        assert_eq!(rep.results[0], (8, 14, 7));
    }

    #[test]
    fn traffic_is_charged_for_remote_arcs() {
        let el = g500_gen::simple::cycle(12, 1.0);
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            let part = Block1D::new(12, 4);
            let mine = my_slice(&el, ctx.rank(), 4);
            assemble_local_graph(ctx, mine.into_iter(), part);
        });
        let stats = rep.total_stats();
        assert!(
            stats.coll_bytes > 0,
            "assembly must move arcs between ranks"
        );
    }
}
