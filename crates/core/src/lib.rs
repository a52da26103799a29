//! # graph500 — the end-to-end benchmark facade
//!
//! One-call drivers that run the full Graph500 flow on the simulated
//! machine: generate the Kronecker graph (kernel 0 construction), sample 64
//! search keys, run SSSP (kernel 3) or BFS (kernel 2) from each, validate
//! every result against the input edge list, and report the official
//! harmonic-mean TEPS block.
//!
//! ```
//! use graph500::{run_sssp_benchmark, BenchmarkConfig};
//!
//! let cfg = BenchmarkConfig::quick(10, 2); // scale 10, 2 ranks, 4 roots
//! let report = run_sssp_benchmark(&cfg);
//! assert!(report.all_validated());
//! assert!(report.teps.harmonic_mean > 0.0);
//! ```
//!
//! The crate also re-exports the whole workspace surface so downstream code
//! can depend on `graph500` alone.
#![warn(missing_docs)]

pub mod driver;
pub mod serving;

pub use driver::{
    run_bfs_benchmark, run_sssp_benchmark, try_run_sssp_benchmark, BenchmarkConfig,
    BenchmarkReport, PartitionStrategy, RootRun,
};
pub use serving::{
    run_query_serving_benchmark, synth_queries, try_run_query_serving_benchmark, ServeBenchConfig,
    ServeReport,
};
pub use simnet::{
    CrashPlan, FaultEscalation, FaultPlan, Trace, TraceConfig, TraceSummary, TransportError,
};

// Re-export the component crates under stable names.
pub use g500_baselines as baselines;
pub use g500_gen as gen;
pub use g500_graph as graph;
pub use g500_partition as partition;
pub use g500_sssp as sssp;
pub use g500_validate as validate;
pub use rayon;
pub use simnet;
