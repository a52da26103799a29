//! Shared-memory parallel delta-stepping.
//!
//! This is the *intra-rank* kernel: on the real machine each process drives
//! hundreds of cores, and the bucket's frontier is relaxed in parallel.
//! Each wave runs in two phases:
//!
//! 1. **Scan** (parallel): the frontier's edges are scanned against a
//!    *frozen* distance array — no writes happen during the scan, so every
//!    read is stable — and improving candidates `(target, new_dist, source)`
//!    are collected in (source, arc) order via fixed-chunk `flat_map_iter`.
//! 2. **Commit** (sequential): candidates are re-checked and applied in that
//!    order, updating distances/parents and bucket insertions.
//!
//! Because the scan only reads and the commit order is fixed, the result —
//! distances, parents, and the exact bucket schedule — is bitwise identical
//! at any `G500_THREADS`, unlike an atomic `fetch_min` race which settles
//! ties (and parent choices) by scheduling. A source improved mid-bucket is
//! re-inserted and re-scanned with its better distance on the next inner
//! wave, which is the usual delta-stepping self-correction.

use crate::bucket::BucketQueue;
use g500_graph::{Csr, ShortestPaths, VertexId, Weight};
use rayon::prelude::*;

/// Shared-memory parallel delta-stepping from `root` with width `delta`.
pub fn parallel_delta_stepping(graph: &Csr, root: VertexId, delta: Weight) -> ShortestPaths {
    let n = graph.num_vertices();
    let mut dist: Vec<f32> = vec![f32::INFINITY; n];
    let mut parent: Vec<u64> = vec![u64::MAX; n];
    dist[root as usize] = 0.0;
    parent[root as usize] = root;

    let mut buckets = BucketQueue::new(delta);
    buckets.insert(root as u32, 0.0);
    let mut settled: Vec<u32> = Vec::new();
    // Wave-scratch arenas, reused across every wave of the run: the
    // frontier list and the candidate buffer would otherwise be
    // reallocated (and re-grown) once per wave.
    let mut frontier: Vec<u32> = Vec::new();
    let mut candidates: Vec<(u32, f32, u32)> = Vec::new();

    while let Some(k) = buckets.min_bucket() {
        settled.clear();
        loop {
            frontier.clear();
            frontier.extend(buckets.take_bucket(k).into_iter().filter(|&v| {
                let d = dist[v as usize];
                d.is_finite() && buckets.bucket_of(d) == k
            }));
            if frontier.is_empty() {
                break;
            }
            settled.extend_from_slice(&frontier);
            // Parallel light-edge scan over the frozen distances, then an
            // ordered sequential commit.
            scan_wave(graph, &dist, &frontier, |w| w < delta, &mut candidates);
            commit_wave(&mut dist, &mut parent, &mut buckets, &candidates);
        }
        // Heavy phase over the settled set, once per bucket.
        scan_wave(graph, &dist, &settled, |w| w >= delta, &mut candidates);
        commit_wave(&mut dist, &mut parent, &mut buckets, &candidates);
    }

    ShortestPaths { dist, parent }
}

/// Below this many frontier sources a wave is scanned sequentially: the
/// scan of a small frontier is sub-pool-overhead work, and the sequential
/// loop emits the exact same candidates in the exact same (source, arc)
/// order, so results are bitwise unaffected by which path runs.
const SEQ_SCAN_CUTOFF: usize = 1024;

/// Scan the out-edges of one source against the frozen `dist` array. The
/// two CSR accessors return contiguous slices of one adjacency range, and
/// the zip collapses to a single counted, bounds-check-free loop — the
/// branch-light inner relaxation loop both scan paths share.
#[inline]
fn scan_source(
    graph: &Csr,
    dist: &[f32],
    u: u32,
    keep: &(impl Fn(Weight) -> bool + Sync),
    out: &mut Vec<(u32, f32, u32)>,
) {
    let du = dist[u as usize];
    let vs = graph.neighbors(u as usize);
    let ws = graph.edge_weights(u as usize);
    for (&v, &w) in vs.iter().zip(ws) {
        let nd = du + w;
        if keep(w) && nd < dist[v as usize] {
            out.push((v as u32, nd, u));
        }
    }
}

/// Phase 1: scan the out-edges of `sources` (weights filtered by `keep`)
/// against the frozen `dist` array, collecting improving candidates in
/// (source, arc) order into the caller's reusable arena.
fn scan_wave(
    graph: &Csr,
    dist: &[f32],
    sources: &[u32],
    keep: impl Fn(Weight) -> bool + Sync,
    out: &mut Vec<(u32, f32, u32)>,
) {
    if sources.len() <= SEQ_SCAN_CUTOFF {
        out.clear();
        for &u in sources {
            scan_source(graph, dist, u, &keep, out);
        }
        return;
    }
    let keep = &keep;
    sources
        .par_iter()
        .with_min_len(64)
        .flat_map_iter(|&u| {
            let du = dist[u as usize];
            let vs = graph.neighbors(u as usize);
            let ws = graph.edge_weights(u as usize);
            vs.iter().zip(ws).filter_map(move |(&v, &w)| {
                let nd = du + w;
                (keep(w) && nd < dist[v as usize]).then_some((v as u32, nd, u))
            })
        })
        .collect_into_vec(out);
}

/// Phase 2: apply candidates in order. The re-check against the (now
/// mutating) distances keeps only still-improving updates; each winner
/// records its parent and bucket insertion.
fn commit_wave(
    dist: &mut [f32],
    parent: &mut [u64],
    buckets: &mut BucketQueue,
    candidates: &[(u32, f32, u32)],
) {
    for &(v, nd, u) in candidates {
        if nd < dist[v as usize] {
            dist[v as usize] = nd;
            parent[v as usize] = u as u64;
            buckets.insert(v, nd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::Directedness;

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let el = g500_gen::simple::erdos_renyi(100, 600, seed);
            let g = Csr::from_edges(100, &el, Directedness::Undirected);
            let exact = dijkstra(&g, 7);
            let par = parallel_delta_stepping(&g, 7, 0.15);
            assert!(par.distances_match(&exact, 1e-4), "seed {seed}");
        }
    }

    #[test]
    fn matches_on_kronecker() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 3));
        let el = gen.generate_all();
        let g = Csr::from_edges(512, &el, Directedness::Undirected);
        let exact = dijkstra(&g, 2);
        let par = parallel_delta_stepping(&g, 2, 0.125);
        assert!(par.distances_match(&exact, 1e-4));
    }

    #[test]
    fn parent_tree_is_usable() {
        let el = g500_gen::simple::erdos_renyi(50, 250, 1);
        let g = Csr::from_edges(50, &el, Directedness::Undirected);
        let sp = parallel_delta_stepping(&g, 0, 0.2);
        // every reached non-root vertex has a reached parent at lower-or-
        // equal distance
        for v in 0..50 {
            if v != 0 && sp.dist[v].is_finite() {
                let p = sp.parent[v];
                assert_ne!(p, u64::MAX);
                assert!(sp.dist[p as usize] <= sp.dist[v] + 1e-6);
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = Csr::from_edges(1, &g500_graph::EdgeList::new(), Directedness::Directed);
        let sp = parallel_delta_stepping(&g, 0, 0.5);
        assert_eq!(sp.dist, vec![0.0]);
        assert_eq!(sp.parent, vec![0]);
    }

    #[test]
    fn result_is_identical_across_repeated_runs() {
        // The two-phase wave is deterministic: distances AND parents must be
        // byte-identical run to run (and, via the fixed-chunk contract, at
        // any thread count).
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 5));
        let el = gen.generate_all();
        let g = Csr::from_edges(512, &el, Directedness::Undirected);
        let a = parallel_delta_stepping(&g, 2, 0.125);
        let b = parallel_delta_stepping(&g, 2, 0.125);
        let bits = |sp: &ShortestPaths| -> (Vec<u32>, Vec<u64>) {
            (
                sp.dist.iter().map(|d| d.to_bits()).collect(),
                sp.parent.clone(),
            )
        };
        assert_eq!(bits(&a), bits(&b));
    }
}
