//! The executor: one parallel region is one `std::thread::scope`.
//!
//! Only host code opens regions (the generator, the CSR count pass, the
//! degree and weight sums): a handful a run. Simulated ranks run their
//! sweeps inline, because `ComputeModel` already models the paper's
//! intra-process parallelism in virtual time. So a region spawns its
//! helpers, runs, and joins them; nothing outlives it.
//!
//! ## Execution model
//!
//! A region is `nchunks` independent chunk indices, a `Fn(usize)` body and
//! an atomic **chunk cursor**. The thread that opens it spawns up to
//! `threads − 1` named helpers in a scope; it and the helpers claim *runs*
//! of `grain` consecutive chunks from the cursor (one `fetch_add` a run)
//! until the cursor is spent, and the scope's join hands every write back
//! to the opener.
//!
//! Chunk *boundaries* are fixed up front by the caller (`lib.rs`) and never
//! depend on the number of threads; the cursor and the grain only decide
//! **who** runs a chunk and in what batch, never **what** a chunk is.
//! Per-chunk results land in the slot of their chunk index, which is what
//! keeps results bitwise reproducible (see the crate docs and DESIGN.md
//! "The pool & the determinism contract").
//!
//! ## Panics
//!
//! The first panic from any chunk is captured; later chunks of the region
//! are skipped, and the payload is re-thrown on the opening thread after
//! the join — whoever ran the chunk.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Chunk runs per thread a region is cut into; larger values smooth skew at
/// the price of more cursor traffic. Grain only groups execution — it never
/// moves a chunk boundary.
const OVERSPLIT: usize = 4;

/// Aggregated scheduler counters, for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Pool size (including the opener's own slot).
    pub threads: usize,
    /// Chunk runs executed by the thread that opened their region.
    pub local_runs: u64,
    /// Chunk runs executed by a region's helper threads (the field keeps
    /// the name the benchmark reads it by).
    pub steals: u64,
    /// Park events: always 0, since a helper lives for one region.
    pub parks: u64,
}

/// Thread count requested via [`configure_threads`] before first use;
/// 0 means "not configured".
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static THREADS: OnceLock<usize> = OnceLock::new();
// Diagnostic counters, read by `pool_stats` and never by the scheduler
// (hence `Relaxed`); added once a region, not once a run.
static OPENER_RUNS: AtomicU64 = AtomicU64::new(0);
static HELPER_RUNS: AtomicU64 = AtomicU64::new(0);

fn resolve_threads() -> usize {
    let requested = REQUESTED.load(Ordering::SeqCst);
    if requested > 0 {
        return requested;
    }
    if let Ok(s) = std::env::var("G500_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Request a pool size, overriding `G500_THREADS` and the hardware default.
/// Must be called before the first parallel operation; returns `true` if the
/// request took effect (the size was not yet fixed), `false` if the pool
/// keeps the size it was first used at.
pub fn configure_threads(n: usize) -> bool {
    REQUESTED.store(n.max(1), Ordering::SeqCst);
    THREADS.get().is_none()
}

/// Number of threads a region runs on (fixing the size on first call).
/// Chunk *boundaries* never depend on this — callers may use it only to
/// bound per-chunk scratch allocation or pick chunk counts for
/// order-insensitive merges.
pub fn current_num_threads() -> usize {
    *THREADS.get_or_init(resolve_threads)
}

/// Snapshot of the scheduler's diagnostic counters (runs by openers, runs
/// by helpers). Counters are monotonic over the process's lifetime;
/// results never depend on them.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        threads: current_num_threads(),
        local_runs: OPENER_RUNS.load(Ordering::Relaxed),
        steals: HELPER_RUNS.load(Ordering::Relaxed),
        parks: 0,
    }
}

/// Run `f(i)` for every `i in 0..nchunks`, distributing chunk runs across
/// the opener and its helpers. Returns once every helper has joined;
/// re-throws the first chunk panic.
pub(crate) fn run_parallel(nchunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let nthreads = current_num_threads();
    if nthreads == 1 || nchunks <= 1 {
        (0..nchunks).for_each(f);
        return;
    }
    let grain = (nchunks / (nthreads * OVERSPLIT)).max(1);
    // The cursor: first chunk no run has claimed yet. Atomicity alone makes
    // runs disjoint; the join publishes what they wrote.
    let next = AtomicUsize::new(0);
    // Only a hint to skip later chunks (`Relaxed`): the payload travels
    // through its mutex.
    let poisoned = AtomicBool::new(false);
    let panic = Mutex::new(None);
    // Claim and execute runs until the cursor is spent; returns the number
    // of runs this thread executed.
    let drain = || {
        let mut runs = 0;
        loop {
            let lo = next.fetch_add(grain, Ordering::Relaxed);
            if lo >= nchunks {
                return runs;
            }
            runs += 1;
            for i in lo..(lo + grain).min(nchunks) {
                if poisoned.load(Ordering::Relaxed) {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    poisoned.store(true, Ordering::Relaxed);
                    let mut slot = panic.lock().expect("panic slot lock");
                    slot.get_or_insert(payload);
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for id in 1..nthreads.min(nchunks) {
            std::thread::Builder::new()
                .name(format!("g500-pool-{id}"))
                .spawn_scoped(scope, || HELPER_RUNS.fetch_add(drain(), Ordering::Relaxed))
                .expect("spawning pool helper");
        }
        OPENER_RUNS.fetch_add(drain(), Ordering::Relaxed);
    });
    let payload = panic.into_inner().expect("panic slot lock");
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}
