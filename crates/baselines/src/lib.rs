//! # g500-baselines — reference shortest-path algorithms
//!
//! The paper's contribution is an optimized distributed delta-stepping; its
//! evaluation (and any honest reproduction) needs the algorithms it is
//! measured against:
//!
//! * [`dijkstra`] — the exact sequential oracle (binary heap with lazy
//!   deletion). Every other implementation in the workspace is
//!   property-tested against it.
//! * [`bellman_ford`] — sequential round-based relaxation; the
//!   asymptotically wasteful extreme, and F5's fastest row on Kronecker.
//! * [`dist_bf`] — *distributed* Bellman-Ford over `simnet`: the naive
//!   one-frontier-superstep-per-round baseline the optimized kernel is
//!   compared to in experiment F9.
//! * [`radix_heap`] — monotone radix-heap Dijkstra over `u64` distance
//!   keys; same answers as [`dijkstra`], bucket-based extraction.
//! * [`bmssp`] — the bounded multi-source shortest path recursion of Duan
//!   et al. (arXiv:2504.17033): pivot reduction + partial-order pull
//!   structure + truncated-Dijkstra base case, `O(m log^{2/3} n)`.
//!
//! All baselines share one unreachable convention: distances are
//! [`g500_graph::INF_WEIGHT`] in the `f32` domain and [`INF_KEY`]
//! (`u64::MAX / 4`) in the key domain — `tests/cross_impl.rs` pins it.
#![warn(missing_docs)]

pub mod bellman_ford;
pub mod bmssp;
pub mod dijkstra;
pub mod dist_bf;
pub mod pull;
pub mod radix_heap;

pub use bellman_ford::bellman_ford;
pub use bmssp::bmssp;
pub use dijkstra::dijkstra;
pub use dist_bf::distributed_bellman_ford;
pub use radix_heap::{dijkstra_radix_heap, key_to_weight, weight_to_key, RadixHeap, INF_KEY};
