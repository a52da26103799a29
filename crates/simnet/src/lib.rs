//! # simnet — a simulated message-passing supercomputer
//!
//! The paper's experiments ran on a real exascale machine over a proprietary
//! MPI/RMA stack. No Rust MPI binding nor 40-million-core machine is
//! available here, so this crate *is* the machine: an in-process SPMD runtime
//! in which every rank is an OS thread with typed mailboxes, and every
//! communication primitive an algorithm is built from (point-to-point sends,
//! barriers, reductions, personalized all-to-all exchanges) is implemented on
//! top of those mailboxes — exactly the layering of a real MPI.
//!
//! ## Why the substitution preserves the paper's claims
//!
//! Scaling behaviour in distributed graph processing is determined by *what
//! is communicated*: the number of messages, the bytes per message, the
//! number of communication rounds (supersteps), and the balance across
//! ranks. All of those are **measured exactly** here because every byte
//! flows through [`RankCtx::send_bytes`]. Only *time* is modeled: each rank
//! carries a virtual clock advanced by a LogGP-style cost model
//! ([`cost::LogGP`]) with a pluggable interconnect topology
//! ([`cost::Topology`]), so "simulated seconds" — and therefore TEPS and
//! scaling curves — emerge from the measured traffic rather than from the
//! host laptop's scheduler.
//!
//! ## Shape of an SPMD program
//!
//! ```
//! use simnet::{Machine, MachineConfig};
//!
//! let report = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
//!     // every rank executes this closure
//!     let me = ctx.rank() as u64;
//!     let total = ctx.allreduce_sum(me);
//!     assert_eq!(total, 0 + 1 + 2 + 3);
//!     total
//! });
//! assert_eq!(report.results, vec![6, 6, 6, 6]);
//! assert!(report.sim_time_s > 0.0);
//! ```
#![warn(missing_docs)]

pub mod collectives;
pub mod cost;
pub mod fault;
pub mod json;
pub mod machine;
pub mod rank;
pub mod recovery;
pub mod sched;
pub mod stats;
pub mod subcomm;
pub mod trace;
pub mod transport;
pub mod wire;

pub use collectives::{Header, Route};
pub use cost::{ComputeModel, LogGP, Topology};
pub use fault::{CrashPlan, FaultPlan};
pub use machine::{Machine, MachineConfig, SimReport};
pub use rank::{RankCtx, Tag};
pub use recovery::{Checkpoint, FaultEscalation, Recovery};
pub use sched::SchedMode;
pub use stats::NetStats;
pub use subcomm::SubComm;
pub use trace::{Trace, TraceBuf, TraceCode, TraceConfig, TraceEvent, TraceKind, TraceSummary};
pub use transport::TransportError;
pub use wire::Wire;
