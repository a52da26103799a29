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
/// its relative order, shifted past the hubs. It needs O(hubs) memory — the
/// hub set, not the vertex set, so it scales to id spaces no rank could
/// hold, the regime the paper operates in — and O(log hubs) time a label
/// either way: [`apply`](SparseHubRelabel::apply) and
/// [`invert`](SparseHubRelabel::invert) are one binary search each over
/// the hubs sorted by id.
#[derive(Clone, Debug)]
pub struct SparseHubRelabel {
    n: u64,
    /// Hubs in priority (e.g. descending-degree) order; `by_priority[i]`
    /// gets new label `i`.
    by_priority: Vec<VertexId>,
    /// The same hubs sorted by original id, and parallel to it each one's
    /// label (its position in `by_priority`).
    by_id: Vec<VertexId>,
    label_of: Vec<VertexId>,
}

impl SparseHubRelabel {
    /// Build from the hub list in priority order. Panics on duplicates or
    /// out-of-range ids.
    pub fn new(n: u64, hubs_by_priority: Vec<VertexId>) -> Self {
        let mut ranked: Vec<(VertexId, VertexId)> = (hubs_by_priority.iter())
            .enumerate()
            .map(|(i, &h)| {
                assert!(h < n, "hub {h} out of range");
                (h, i as VertexId)
            })
            .collect();
        ranked.sort_unstable();
        if let Some(w) = ranked.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("duplicate hub {}", w[0].0);
        }
        let (by_id, label_of) = ranked.into_iter().unzip();
        Self {
            n,
            by_priority: hubs_by_priority,
            by_id,
            label_of,
        }
    }

    /// Number of hubs (the cyclic prefix length for [`HybridPartition`]).
    pub fn hub_count(&self) -> u64 {
        self.by_priority.len() as u64
    }

    /// New label of original id `v`, given `below`, the number of hubs with
    /// ids under `v`: a hub's priority, or a non-hub's place among the
    /// non-hubs past the hub prefix.
    #[inline]
    fn label(&self, v: VertexId, below: usize) -> VertexId {
        match self.by_id.get(below) {
            Some(&h) if h == v => self.label_of[below],
            _ => self.hub_count() + v - below as u64,
        }
    }

    /// New label of original id `v`.
    pub fn apply(&self, v: VertexId) -> VertexId {
        debug_assert!(v < self.n);
        self.label(v, self.by_id.partition_point(|&h| h < v))
    }

    /// Every original id's new label, in id order: one pass with a cursor
    /// over the hubs sorted by id, no search.
    pub fn labels(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut below = 0;
        (0..self.n).map(move |v| {
            let l = self.label(v, below);
            below += usize::from(self.by_id.get(below) == Some(&v));
            l
        })
    }

    /// Original id of new label `l`.
    pub fn invert(&self, l: VertexId) -> VertexId {
        debug_assert!(l < self.n);
        let h = self.hub_count();
        if l < h {
            return self.by_priority[l as usize];
        }
        // The wanted id is the `target`-th non-hub. `by_id[i] − i` counts
        // the non-hubs under the i-th hub and never falls as i grows, so
        // the hubs under the wanted id are those with at most `target`
        // non-hubs under them, and each shifts it one place up.
        let target = l - h;
        let (mut lo, mut hi) = (0, self.by_id.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.by_id[mid] - mid as u64 <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        target + lo as u64
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

    /// `apply` is a bijection and `invert` its inverse over the whole id
    /// space, hubs take their priorities, non-hubs keep their order past
    /// them, and `labels` is `apply` id by id — for hub sets at the edges
    /// of the id space, in adjacent runs, everywhere and nowhere.
    #[test]
    fn sparse_relabel_is_a_bijection() {
        let shapes: [(u64, Vec<VertexId>); 9] = [
            (100, vec![42, 7, 99, 0]),
            (64, vec![]),
            (64, vec![0]),
            (64, vec![63]),
            (64, vec![63, 0]),
            (64, vec![5, 6, 7, 8, 40, 41]),
            (64, vec![63, 62, 61, 0, 1, 2, 31, 32]),
            (64, (0..64).rev().collect()),
            (64, (0..64).filter(|v| v % 2 == 1).collect()),
        ];
        for (n, hubs) in shapes {
            let r = SparseHubRelabel::new(n, hubs.clone());
            assert_eq!(r.hub_count(), hubs.len() as u64);
            let labels: Vec<VertexId> = r.labels().collect();
            assert_eq!(labels.len() as u64, n, "{hubs:?}");
            let mut seen = vec![false; n as usize];
            let mut next = hubs.len() as u64;
            for v in 0..n {
                let l = r.apply(v);
                assert!(l < n);
                assert!(!seen[l as usize], "{hubs:?}: collision at {v}");
                seen[l as usize] = true;
                assert_eq!(labels[v as usize], l, "{hubs:?}: labels() at {v}");
                assert_eq!(r.invert(l), v, "{hubs:?}: invert(apply({v}))");
                assert_eq!(r.apply(r.invert(v)), v, "{hubs:?}: apply(invert({v}))");
                match hubs.iter().position(|&h| h == v) {
                    Some(i) => assert_eq!(l, i as u64, "{hubs:?}: hub {v}"),
                    None => {
                        assert_eq!(l, next, "{hubs:?}: non-hub {v}");
                        next += 1;
                    }
                }
            }
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
