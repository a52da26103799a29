//! # g500-sssp — delta-stepping SSSP at (simulated) extreme scale
//!
//! This crate is the reproduction of the paper's contribution: the Graph500
//! SSSP kernel (kernel 3) as an optimized distributed delta-stepping, plus
//! the direction-optimizing distributed BFS (kernel 2) it is paired with.
//!
//! Two implementations share semantics and are cross-validated:
//!
//! * [`seq`] — textbook sequential delta-stepping (Meyer & Sanders) with
//!   light/heavy edge phases; the readable reference.
//! * [`dist`] — the headline kernel: bulk-synchronous distributed
//!   delta-stepping over `simnet` with the extreme-scale optimization stack,
//!   one search or a batch of them as lanes ([`multi`] is its batched entry
//!   point, [`serve`] the query service on top), each piece independently
//!   toggleable through [`OptConfig`] so the ablation experiments (T3, F6,
//!   F8) can isolate its effect:
//!   - **message coalescing** — per-destination aggregation of relaxation
//!     requests instead of one message per edge,
//!   - **update deduplication** ("on-chip sort") — outgoing requests are
//!     sorted by target and only the minimum per target is shipped,
//!   - **payload compression** — sorted targets are gap+varint coded,
//!   - **bucket fusion** — local cascading within a bucket plus fusing the
//!     long sparse tail of buckets into one Bellman-Ford-style phase,
//!   - **direction optimization** — push/pull chosen from a cost estimate
//!     of each side, per light iteration and per heavy phase; a light pull
//!     broadcasts the frontier, a heavy pull fetches the distances of the
//!     settled sources it needs, and both scan weight-sorted rows only up
//!     to the weight that could still improve the vertex,
//!   - **adaptive Δ** — bucket width priced from the graph's degree/weight
//!     totals and the machine's superstep and arc costs instead of a magic
//!     constant.
//!
//! Parallelism inside a rank — the paper's per-node core groups — is
//! [`dist`]'s relax and exchange waves on the process-global pool, not a
//! kernel of its own.
#![warn(missing_docs)]

pub mod bfs;
pub mod bucket;
pub mod codec;
pub mod config;
pub mod delta;
pub mod dist;
pub mod dist2d;
mod epoch;
pub mod exchange;
pub mod multi;
pub mod seq;
pub mod serve;

pub use bfs::distributed_bfs;
pub use bucket::BucketQueue;
pub use config::{Direction, OptConfig};
pub use delta::{machine_delta, suggest_delta, MIN_DELTA};
pub use dist::{distributed_delta_stepping, try_distributed_delta_stepping, SsspRunStats};
pub use dist2d::{Grid2DSssp, Sssp2DStats};
pub use multi::{try_batched_delta_stepping, BatchSpec, LaneResult};
pub use seq::delta_stepping;
pub use serve::{
    triangle_bound, LandmarkSet, Lru, Query, QueryEngine, QueryOutcome, ServeConfig, ServeStats,
};
