//! Deterministic auxiliary generators.
//!
//! These produce graphs whose shortest-path structure is known in closed
//! form (paths, grids, stars) or statistically controlled (Erdős–Rényi),
//! which unit, property and integration tests use as oracles against the
//! Kronecker-driven benchmarks.

use crate::rng::CounterRng;
use g500_graph::{EdgeList, WEdge};

/// A path `0 — 1 — … — n-1` with the given constant weight.
pub fn path(n: u64, w: f32) -> EdgeList {
    let mut el = EdgeList::with_capacity(n.saturating_sub(1) as usize);
    for i in 1..n {
        el.push(WEdge::new(i - 1, i, w));
    }
    el
}

/// A cycle over `n` vertices with constant weight.
pub fn cycle(n: u64, w: f32) -> EdgeList {
    let mut el = path(n, w);
    if n > 1 {
        el.push(WEdge::new(n - 1, 0, w));
    }
    el
}

/// A star: center `0` joined to `1..n`, constant weight.
pub fn star(n: u64, w: f32) -> EdgeList {
    let mut el = EdgeList::with_capacity(n.saturating_sub(1) as usize);
    for i in 1..n {
        el.push(WEdge::new(0, i, w));
    }
    el
}

/// A complete graph on `n` vertices, constant weight.
pub fn complete(n: u64, w: f32) -> EdgeList {
    let mut el = EdgeList::new();
    for i in 0..n {
        for j in (i + 1)..n {
            el.push(WEdge::new(i, j, w));
        }
    }
    el
}

/// A `w × h` 4-neighbor grid; vertex `(x, y)` is `y * w + x`. Unit weights.
pub fn grid2d(w: u64, h: u64) -> EdgeList {
    let mut el = EdgeList::new();
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                el.push(WEdge::new(v, v + 1, 1.0));
            }
            if y + 1 < h {
                el.push(WEdge::new(v, v + w, 1.0));
            }
        }
    }
    el
}

/// `G(n, m)` Erdős–Rényi multigraph: `m` edges with independently uniform
/// endpoints and uniform `[0,1)` weights, deterministic in `seed`.
pub fn erdos_renyi(n: u64, m: u64, seed: u64) -> EdgeList {
    assert!(n > 0);
    let ends = CounterRng::new(seed, 10);
    let ws = CounterRng::new(seed, 11);
    let mut el = EdgeList::with_capacity(m as usize);
    for i in 0..m {
        el.push(WEdge::new(
            ends.below(2 * i, n),
            ends.below(2 * i + 1, n),
            ws.unit_f32(i),
        ));
    }
    el
}

/// Barabási–Albert preferential attachment: each new vertex attaches `k`
/// edges to existing vertices chosen proportionally to their current
/// degree; weights uniform `[0,1)`. Produces a connected scale-free graph
/// — the *other* standard heavy-tail model, used to check that kernels'
/// behaviour on Kronecker graphs is about the degree profile rather than
/// the Kronecker construction specifically.
///
/// Implementation uses the classic repeated-endpoints trick: sampling a
/// uniform position in the running edge-endpoint list is exactly
/// degree-proportional sampling.
pub fn barabasi_albert(n: u64, k: u64, seed: u64) -> EdgeList {
    assert!(k >= 1, "attachment count must be >= 1");
    assert!(n > k, "need more vertices than attachments");
    let rng = CounterRng::new(seed, 30);
    let ws = CounterRng::new(seed, 31);
    let mut el = EdgeList::with_capacity(((n - k - 1) * k + k) as usize);
    // endpoint multiset: each edge contributes both ends
    let mut ends: Vec<u64> = Vec::new();
    // seed clique-ish core: vertex i in 1..=k attaches to i-1
    for i in 1..=k {
        el.push(WEdge::new(i - 1, i, ws.unit_f32(i)));
        ends.push(i - 1);
        ends.push(i);
    }
    let mut ctr = 0u64;
    for v in (k + 1)..n {
        let mut chosen: Vec<u64> = Vec::with_capacity(k as usize);
        let mut attempts = 0;
        while (chosen.len() as u64) < k && attempts < 32 * k {
            let t = ends[rng.below(ctr, ends.len() as u64) as usize];
            ctr += 1;
            attempts += 1;
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for (j, t) in chosen.into_iter().enumerate() {
            el.push(WEdge::new(v, t, ws.unit_f32(n + v * k + j as u64)));
            ends.push(v);
            ends.push(t);
        }
    }
    el
}

/// A uniformly random spanning tree on `n` vertices (each vertex `i > 0`
/// attaches to a uniform earlier vertex), weights uniform `[0,1)`.
///
/// Guaranteed connected — useful for tests that need full reachability.
pub fn random_tree(n: u64, seed: u64) -> EdgeList {
    let parents = CounterRng::new(seed, 20);
    let ws = CounterRng::new(seed, 21);
    let mut el = EdgeList::with_capacity(n.saturating_sub(1) as usize);
    for i in 1..n {
        el.push(WEdge::new(parents.below(i, i), i, ws.unit_f32(i)));
    }
    el
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        let el = path(5, 2.0);
        assert_eq!(el.len(), 4);
        assert_eq!(el.get(0), WEdge::new(0, 1, 2.0));
        assert_eq!(el.get(3), WEdge::new(3, 4, 2.0));
    }

    #[test]
    fn cycle_closes() {
        let el = cycle(4, 1.0);
        assert_eq!(el.len(), 4);
        assert_eq!(el.get(3), WEdge::new(3, 0, 1.0));
        assert_eq!(cycle(1, 1.0).len(), 0);
    }

    #[test]
    fn star_degrees() {
        let el = star(6, 1.0);
        assert_eq!(el.len(), 5);
        assert!(el.iter().all(|e| e.u == 0));
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete(6, 1.0).len(), 15);
        assert_eq!(complete(1, 1.0).len(), 0);
    }

    #[test]
    fn grid_edge_count() {
        // w*h grid has w*(h-1) + h*(w-1) edges
        let el = grid2d(4, 3);
        assert_eq!(el.len(), 4 * 2 + 3 * 3);
        assert_eq!(el.iter().map(|e| e.u.max(e.v)).max(), Some(11));
    }

    #[test]
    fn erdos_renyi_deterministic_and_in_range() {
        let a = erdos_renyi(100, 500, 7);
        let b = erdos_renyi(100, 500, 7);
        assert_eq!(a.len(), 500);
        for i in 0..500 {
            assert_eq!(a.get(i), b.get(i));
            assert!(a.get(i).u < 100 && a.get(i).v < 100);
        }
    }

    #[test]
    fn barabasi_albert_is_scale_free_ish() {
        let n = 2000u64;
        let el = barabasi_albert(n, 3, 7);
        // connected by construction: every vertex > 0 has an edge
        let mut deg = vec![0u64; n as usize];
        for e in el.iter() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d > 0), "isolated vertex in BA graph");
        // heavy tail: max degree far above the mean
        let mean = 2.0 * el.len() as f64 / n as f64;
        let max = *deg.iter().max().expect("nonempty") as f64;
        assert!(max > 8.0 * mean, "max {max} vs mean {mean:.1}");
        // early vertices should be the hubs (rich get richer)
        let early_max = *deg[..20].iter().max().expect("nonempty");
        let late_max = *deg[(n as usize - 20)..].iter().max().expect("nonempty");
        assert!(early_max > late_max, "no preferential attachment signal");
    }

    #[test]
    fn barabasi_albert_deterministic() {
        let a = barabasi_albert(100, 2, 5);
        let b = barabasi_albert(100, 2, 5);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.get(i), b.get(i));
        }
    }

    #[test]
    #[should_panic(expected = "more vertices than attachments")]
    fn barabasi_albert_rejects_tiny_n() {
        barabasi_albert(3, 3, 1);
    }

    #[test]
    fn random_tree_is_connected_dag_shape() {
        let el = random_tree(50, 3);
        assert_eq!(el.len(), 49);
        // edge i connects vertex i+1 to some earlier vertex → connected
        for (k, e) in el.iter().enumerate() {
            assert_eq!(e.v, k as u64 + 1);
            assert!(e.u < e.v);
        }
    }
}
