//! Weighted edge lists in struct-of-arrays layout.
//!
//! The Graph500 pipeline hands the generator's output around as a flat edge
//! list before CSR conversion; SoA keeps it cache-friendly and lets the
//! partitioner ship `(src, dst, w)` columns independently.

use crate::types::{VertexId, WEdge, Weight};
use rayon::prelude::*;

/// A weighted edge list in struct-of-arrays layout.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    src: Vec<VertexId>,
    dst: Vec<VertexId>,
    w: Vec<Weight>,
}

impl EdgeList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty list with reserved capacity for `cap` edges.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            src: Vec::with_capacity(cap),
            dst: Vec::with_capacity(cap),
            w: Vec::with_capacity(cap),
        }
    }

    /// Build from an iterator of edges.
    pub fn from_edges<I: IntoIterator<Item = WEdge>>(it: I) -> Self {
        let mut el = Self::new();
        for e in it {
            el.push(e);
        }
        el
    }

    /// Append one edge.
    #[inline]
    pub fn push(&mut self, e: WEdge) {
        self.src.push(e.u);
        self.dst.push(e.v);
        self.w.push(e.w);
    }

    /// Append the contents of another list.
    pub fn extend_from(&mut self, other: &EdgeList) {
        self.src.extend_from_slice(&other.src);
        self.dst.extend_from_slice(&other.dst);
        self.w.extend_from_slice(&other.w);
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True if no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Edge at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> WEdge {
        WEdge {
            u: self.src[i],
            v: self.dst[i],
            w: self.w[i],
        }
    }

    /// Weight column.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.w
    }

    /// Iterate over edges by value.
    pub fn iter(&self) -> impl Iterator<Item = WEdge> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Largest endpoint id + 1, i.e. the implied vertex-set size (0 if empty).
    pub fn vertex_count(&self) -> u64 {
        let ms = self.src.par_iter().copied().max().unwrap_or(0);
        let md = self.dst.par_iter().copied().max().unwrap_or(0);
        if self.is_empty() {
            0
        } else {
            ms.max(md) + 1
        }
    }

    /// Remove self-loops in place, preserving order of the remaining edges.
    pub fn remove_self_loops(&mut self) {
        let mut k = 0;
        for i in 0..self.len() {
            if self.src[i] != self.dst[i] {
                self.src[k] = self.src[i];
                self.dst[k] = self.dst[i];
                self.w[k] = self.w[i];
                k += 1;
            }
        }
        self.src.truncate(k);
        self.dst.truncate(k);
        self.w.truncate(k);
    }

    /// Return a new list containing each edge in both directions.
    ///
    /// Graph500 graphs are undirected but the generator emits each edge once;
    /// SSSP kernels work on the symmetrised list.
    pub fn symmetrized(&self) -> EdgeList {
        let n = self.len();
        let mut out = EdgeList::with_capacity(2 * n);
        out.src.extend_from_slice(&self.src);
        out.dst.extend_from_slice(&self.dst);
        out.w.extend_from_slice(&self.w);
        out.src.extend_from_slice(&self.dst);
        out.dst.extend_from_slice(&self.src);
        out.w.extend_from_slice(&self.w);
        out
    }

    /// Sort by `(src, dst)` and drop exact duplicate `(src, dst)` pairs,
    /// keeping the *minimum* weight among duplicates (the convention of the
    /// Graph500 validator: a multigraph relaxes along its cheapest parallel
    /// edge).
    pub fn canonicalize(&mut self) {
        let mut idx: Vec<u32> = (0..self.len() as u32).collect();
        idx.par_sort_unstable_by_key(|&i| (self.src[i as usize], self.dst[i as usize]));
        let mut src = Vec::with_capacity(self.len());
        let mut dst = Vec::with_capacity(self.len());
        let mut w = Vec::with_capacity(self.len());
        for &i in &idx {
            let i = i as usize;
            let (u, v, wi) = (self.src[i], self.dst[i], self.w[i]);
            if let (Some(&pu), Some(&pv)) = (src.last(), dst.last()) {
                if pu == u && pv == v {
                    let last = w.last_mut().expect("weights track endpoints");
                    if wi < *last {
                        *last = wi;
                    }
                    continue;
                }
            }
            src.push(u);
            dst.push(v);
            w.push(wi);
        }
        self.src = src;
        self.dst = dst;
        self.w = w;
    }

    /// Apply a relabeling `f` to both endpoints of every edge, in parallel.
    pub fn relabel(&mut self, f: impl Fn(VertexId) -> VertexId + Sync) {
        self.src.par_iter_mut().for_each(|u| *u = f(*u));
        self.dst.par_iter_mut().for_each(|v| *v = f(*v));
    }
}

impl FromIterator<WEdge> for EdgeList {
    fn from_iter<I: IntoIterator<Item = WEdge>>(it: I) -> Self {
        Self::from_edges(it)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::from_edges([
            WEdge::new(0, 1, 0.5),
            WEdge::new(1, 2, 0.25),
            WEdge::new(2, 2, 0.1),
            WEdge::new(0, 1, 0.75),
        ])
    }

    #[test]
    fn push_get_roundtrip() {
        let el = sample();
        assert_eq!(el.len(), 4);
        assert_eq!(el.get(1), WEdge::new(1, 2, 0.25));
        assert_eq!(el.vertex_count(), 3);
    }

    #[test]
    fn self_loop_removal() {
        let mut el = sample();
        el.remove_self_loops();
        assert_eq!(el.len(), 3);
        assert!(el.iter().all(|e| !e.is_loop()));
    }

    #[test]
    fn symmetrization_doubles_and_mirrors() {
        let el = sample().symmetrized();
        assert_eq!(el.len(), 8);
        assert_eq!(el.get(4), WEdge::new(1, 0, 0.5));
    }

    #[test]
    fn canonicalize_dedups_keeping_min_weight() {
        let mut el = sample();
        el.canonicalize();
        assert_eq!(el.len(), 3);
        // duplicate (0,1) kept the lighter 0.5
        let e = el.iter().find(|e| e.u == 0 && e.v == 1).unwrap();
        assert_eq!(e.w, 0.5);
        // sorted order
        let pairs: Vec<_> = el.iter().map(|e| (e.u, e.v)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn relabel_applies_to_both_columns() {
        let mut el = sample();
        el.relabel(|v| v + 10);
        assert_eq!(el.get(0), WEdge::new(10, 11, 0.5));
        assert_eq!(el.get(2), WEdge::new(12, 12, 0.1));
    }

    #[test]
    fn empty_list_properties() {
        let el = EdgeList::new();
        assert!(el.is_empty());
        assert_eq!(el.vertex_count(), 0);
    }
}
