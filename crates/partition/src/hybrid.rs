//! Degree-aware "hybrid" partitioning.
//!
//! Kronecker graphs put a large fraction of all edges on a tiny set of hub
//! vertices (experiment F7 quantifies it). Under a plain block partition
//! whole hubs land on single ranks and those ranks become hot spots — both
//! in memory and in incoming relaxation traffic. The paper's system family
//! handles this with degree-aware placement: relabel hubs to the front of
//! the id space, then stripe that hub prefix cyclically over ranks while
//! block-partitioning the low-degree tail.
//!
//! [`SparseHubRelabel`] moves the chosen hubs to the front of the id space;
//! [`HybridPartition`] is the ownership map over the relabeled ids.

use crate::part1d::{Block1D, Cyclic1D};
use crate::VertexPartition;
use g500_graph::VertexId;

/// Ownership map where ids `< hub_count` are cyclically striped and ids
/// `>= hub_count` are block-partitioned; each rank's local index space lists
/// its hubs first, then its block vertices.
#[derive(Clone, Copy, Debug)]
pub struct HybridPartition {
    hub_count: u64,
    hubs: Cyclic1D,
    tail: Block1D,
    p: usize,
    n: u64,
}

impl HybridPartition {
    /// Partition `n` relabeled vertices over `p` ranks with the first
    /// `hub_count` ids striped.
    pub fn new(n: u64, p: usize, hub_count: u64) -> Self {
        assert!(hub_count <= n, "hub prefix larger than vertex set");
        Self {
            hub_count,
            hubs: Cyclic1D::new(hub_count, p),
            tail: Block1D::new(n - hub_count, p),
            p,
            n,
        }
    }

    /// Number of hub-prefix ids.
    pub fn hub_count(&self) -> u64 {
        self.hub_count
    }

    fn hubs_on(&self, rank: usize) -> usize {
        self.hubs.local_count(rank)
    }
}

impl VertexPartition for HybridPartition {
    fn num_ranks(&self) -> usize {
        self.p
    }

    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn owner(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n);
        if v < self.hub_count {
            self.hubs.owner(v)
        } else {
            self.tail.owner(v - self.hub_count)
        }
    }

    fn to_local(&self, v: VertexId) -> usize {
        if v < self.hub_count {
            self.hubs.to_local(v)
        } else {
            let tail_owner = self.tail.owner(v - self.hub_count);
            self.hubs_on(tail_owner) + self.tail.to_local(v - self.hub_count)
        }
    }

    fn to_global(&self, rank: usize, local: usize) -> VertexId {
        let h = self.hubs_on(rank);
        if local < h {
            self.hubs.to_global(rank, local)
        } else {
            self.hub_count + self.tail.to_global(rank, local - h)
        }
    }

    fn local_count(&self, rank: usize) -> usize {
        self.hubs_on(rank) + self.tail.local_count(rank)
    }
}

/// A closed-form hub relabeling: the chosen hubs map to labels
/// `0..hubs.len()` (in the given priority order) and every other id keeps
/// its relative order, shifted past the hubs. It needs memory proportional
/// to the *hub set*, not the vertex set, so it scales to id spaces no rank
/// could hold — the regime the paper operates in.
#[derive(Clone, Debug)]
pub struct SparseHubRelabel {
    n: u64,
    /// Hubs in priority (e.g. descending-degree) order; `by_priority[i]`
    /// gets new label `i`.
    by_priority: Vec<VertexId>,
    /// The same hubs sorted by original id, for rank queries.
    by_id: Vec<VertexId>,
    /// `rank_of[h]` = position of hub `h` in `by_priority`.
    rank_of: std::collections::HashMap<VertexId, u64>,
}

impl SparseHubRelabel {
    /// Build from the hub list in priority order. Panics on duplicates or
    /// out-of-range ids.
    pub fn new(n: u64, hubs_by_priority: Vec<VertexId>) -> Self {
        let mut rank_of = std::collections::HashMap::with_capacity(hubs_by_priority.len());
        for (i, &h) in hubs_by_priority.iter().enumerate() {
            assert!(h < n, "hub {h} out of range");
            let dup = rank_of.insert(h, i as u64);
            assert!(dup.is_none(), "duplicate hub {h}");
        }
        let mut by_id = hubs_by_priority.clone();
        by_id.sort_unstable();
        Self {
            n,
            by_priority: hubs_by_priority,
            by_id,
            rank_of,
        }
    }

    /// Number of hubs (the cyclic prefix length for [`HybridPartition`]).
    pub fn hub_count(&self) -> u64 {
        self.by_priority.len() as u64
    }

    /// Hubs with original ids `< v`.
    fn hubs_below(&self, v: VertexId) -> u64 {
        self.by_id.partition_point(|&h| h < v) as u64
    }

    /// New label of original id `v`.
    pub fn apply(&self, v: VertexId) -> VertexId {
        debug_assert!(v < self.n);
        match self.rank_of.get(&v) {
            Some(&r) => r,
            None => self.hub_count() + (v - self.hubs_below(v)),
        }
    }

    /// Original id of new label `l`.
    pub fn invert(&self, l: VertexId) -> VertexId {
        debug_assert!(l < self.n);
        let h = self.hub_count();
        if l < h {
            return self.by_priority[l as usize];
        }
        // `f(x) = x − hubs_below(x)` counts non-hub ids `< x` and is
        // non-decreasing; the wanted original id is the `target`-th non-hub,
        // i.e. the `v` with `f(v) == target` and `f(v + 1) == target + 1`.
        // Binary-search the smallest `x` with `f(x) ≥ target + 1`; then
        // `v = x − 1`.
        let target = l - h;
        let (mut lo, mut hi) = (0u64, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid - self.hubs_below(mid) > target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(part: &HybridPartition) {
        let n = part.num_vertices();
        let p = part.num_ranks();
        let total: usize = (0..p).map(|r| part.local_count(r)).sum();
        assert_eq!(total as u64, n);
        for v in 0..n {
            let r = part.owner(v);
            let l = part.to_local(v);
            assert!(l < part.local_count(r));
            assert_eq!(part.to_global(r, l), v, "v={v}");
        }
    }

    #[test]
    fn bijection_various_shapes() {
        check_bijection(&HybridPartition::new(100, 4, 10));
        check_bijection(&HybridPartition::new(101, 4, 7));
        check_bijection(&HybridPartition::new(50, 7, 0)); // no hubs → pure block
        check_bijection(&HybridPartition::new(50, 7, 50)); // all hubs → pure cyclic
        check_bijection(&HybridPartition::new(5, 8, 3)); // more ranks than vertices
    }

    #[test]
    fn hubs_spread_across_ranks() {
        let part = HybridPartition::new(1000, 4, 8);
        let owners: Vec<_> = (0..8).map(|v| part.owner(v)).collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // the tail after the hub prefix is blocked: 992 ids, 248 a rank
        assert_eq!(part.owner(8), 0);
        assert_eq!(part.owner(8 + 248), 1);
    }

    #[test]
    fn local_space_lists_hubs_first() {
        let part = HybridPartition::new(100, 4, 8);
        // rank 0 owns hubs 0 and 4 → locals 0, 1
        assert_eq!(part.to_local(0), 0);
        assert_eq!(part.to_local(4), 1);
        // its first tail vertex comes after the hubs
        let first_tail = part.to_global(0, 2);
        assert!(first_tail >= 8);
    }

    #[test]
    fn sparse_relabel_is_a_bijection() {
        let n = 100u64;
        let r = SparseHubRelabel::new(n, vec![42, 7, 99, 0]);
        assert_eq!(r.hub_count(), 4);
        let mut seen = vec![false; n as usize];
        for v in 0..n {
            let l = r.apply(v);
            assert!(l < n);
            assert!(!seen[l as usize], "collision at {v}");
            seen[l as usize] = true;
            assert_eq!(r.invert(l), v, "invert failed for {v} -> {l}");
        }
    }

    #[test]
    fn sparse_relabel_hub_order_is_priority_order() {
        let r = SparseHubRelabel::new(50, vec![30, 10, 20]);
        assert_eq!(r.apply(30), 0);
        assert_eq!(r.apply(10), 1);
        assert_eq!(r.apply(20), 2);
        assert_eq!(r.invert(0), 30);
        // first non-hub (id 0) lands right after the hubs
        assert_eq!(r.apply(0), 3);
    }

    #[test]
    fn sparse_relabel_no_hubs_is_identity() {
        let r = SparseHubRelabel::new(10, vec![]);
        for v in 0..10 {
            assert_eq!(r.apply(v), v);
            assert_eq!(r.invert(v), v);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate hub")]
    fn sparse_relabel_rejects_duplicates() {
        SparseHubRelabel::new(10, vec![3, 3]);
    }
}
