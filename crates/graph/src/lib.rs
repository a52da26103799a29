//! # g500-graph — graph data structures for the Graph500 SSSP reproduction
//!
//! This crate is the foundation of the workspace: it defines the vertex/edge
//! primitive types, weighted edge lists, compressed sparse row (CSR)
//! adjacency, bitmaps, the varint primitive of the update codec, the vertex
//! scrambler and degree statistics. Every other crate (generator,
//! partitioner, SSSP kernels, validator) builds on these types.
//!
//! Design notes:
//!
//! * Vertex ids are global 64-bit integers ([`VertexId`]) because the paper's
//!   graphs reach 2^42+ vertices; local (per-rank) indices are `usize`/`u32`.
//! * Edge weights are `f32` in `[0, 1)` as the Graph500 SSSP specification
//!   prescribes; distances are `f32` as well, matching the reference code.
//! * Hot-path construction (CSR build, transpose) runs its counting pass on
//!   the in-tree pool (`crates/rayon`) and is written allocation-consciously
//!   per the Rust Performance Book: counting sort with pre-sized buffers, no
//!   per-edge allocation.
#![warn(missing_docs)]

pub mod bitmap;
pub mod cc;
pub mod compress;
pub mod csr;
pub mod degree;
pub mod edgelist;
pub mod hash;
pub mod perm;
pub mod types;

pub use bitmap::Bitmap;
pub use cc::{component_stats, ComponentStats, UnionFind};
pub use csr::{Csr, Directedness};
pub use degree::DegreeStats;
pub use edgelist::EdgeList;
pub use perm::BitMixPermutation;
pub use types::{ShortestPaths, VertexId, WEdge, Weight, INF_WEIGHT, NO_PARENT};
