//! Weighted edge lists in struct-of-arrays layout.
//!
//! The Graph500 pipeline hands the generator's output around as a flat edge
//! list before CSR conversion; SoA keeps it cache-friendly and lets the
//! partitioner ship `(src, dst, w)` columns independently.

use crate::types::{VertexId, WEdge, Weight};

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

    /// A copy of the edges at positions `range`, in order.
    pub fn copy_range(&self, range: std::ops::Range<usize>) -> EdgeList {
        Self {
            src: self.src[range.clone()].to_vec(),
            dst: self.dst[range.clone()].to_vec(),
            w: self.w[range].to_vec(),
        }
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

    /// Apply a relabeling `f` to both endpoints of every edge, in parallel.
    pub fn relabel(&mut self, f: impl Fn(VertexId) -> VertexId + Sync) {
        let chunk = rayon::fixed_chunk_size(self.len(), 1024);
        let apply = |_: usize, ids: &mut [VertexId]| ids.iter_mut().for_each(|v| *v = f(*v));
        rayon::for_each_chunk_mut(&mut self.src, chunk, apply);
        rayon::for_each_chunk_mut(&mut self.dst, chunk, apply);
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
        assert_eq!(el.len(), 0);
    }
}
