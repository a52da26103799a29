//! # g500-validate — Graph500 result validation and TEPS statistics
//!
//! The Graph500 benchmark does not trust the kernel under test: every run of
//! every root is validated against the input edge list by an independent
//! checker, and only validated runs contribute to the reported TEPS
//! statistics. This crate implements that checker once, for both kernels:
//!
//! * [`sssp_check`] — the five SSSP validation rules (root distance,
//!   reachability agreement, tree well-formedness, tree-edge consistency
//!   and the edge-wise triangle inequality): passes over the vertices and
//!   one pass over the edge records, tree edges checked by certificate,
//! * [`bfs_check`] — kernel 2's levels through the same rule body, with
//!   unit edge lengths,
//! * [`teps`] — traversed-edge counting and the harmonic-mean TEPS summary
//!   block the benchmark reports.
#![warn(missing_docs)]

pub mod bfs_check;
pub mod sssp_check;
pub mod teps;

pub use bfs_check::{levels_as_dist, validate_bfs};
pub use sssp_check::{validate_sssp, SsspResult, ValidationReport};
pub use teps::{count_traversed_edges, TepsSummary};
