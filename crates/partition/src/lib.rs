//! # g500-partition — distributing the graph across ranks
//!
//! At 2^42 vertices nobody holds the graph; each rank owns a slice of the
//! vertex set plus the out-edges of its vertices. This crate provides the
//! ownership maps ([`VertexPartition`] implementations), the degree-aware
//! hub relabeling that tames Kronecker skew, a 2D edge-partition map for the
//! design-space comparison, and the SPMD assembly routine that turns
//! independently generated edge blocks into per-rank CSRs over `simnet`.
#![warn(missing_docs)]

pub mod assemble;
pub mod dist_result;
pub mod hybrid;
pub mod part1d;
pub mod part2d;

pub use assemble::{assemble_local_graph, LightRows, LocalGraph};
pub use dist_result::{gather_to_root, DistShortestPaths};
pub use hybrid::{HybridPartition, SparseHubRelabel};
pub use part1d::{Block1D, Cyclic1D};
pub use part2d::EdgePartition2D;

use g500_graph::VertexId;

/// An ownership map: which rank owns each global vertex, and the bijection
/// between a rank's local index space and the global id space.
///
/// Invariants every implementation upholds (property-tested):
/// * `owner(v) < num_ranks()` for all `v < num_vertices()`,
/// * `to_global(owner(v), to_local(v)) == v`,
/// * `to_local(to_global(r, l)) == l` for `l < local_count(r)`,
/// * `Σ_r local_count(r) == num_vertices()`.
pub trait VertexPartition: Clone + Send + Sync {
    /// Number of ranks the vertex set is split over.
    fn num_ranks(&self) -> usize;

    /// Global vertex count.
    fn num_vertices(&self) -> u64;

    /// Owning rank of global vertex `v`.
    fn owner(&self, v: VertexId) -> usize;

    /// Local index of `v` within its owner's slice.
    fn to_local(&self, v: VertexId) -> usize;

    /// Global id of local index `l` on rank `rank`.
    fn to_global(&self, rank: usize, local: usize) -> VertexId;

    /// Number of vertices owned by `rank`.
    fn local_count(&self, rank: usize) -> usize;
}
