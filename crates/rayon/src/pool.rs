//! The process-global chunk-cursor thread pool.
//!
//! One pool serves the whole process: simnet spawns one OS thread per
//! simulated rank, and if each rank owned a private pool the host would be
//! oversubscribed `ranks × threads`-fold. Instead every rank submits its
//! parallel regions to this single shared pool — many submitters, few
//! workers (the benchmark pins `min(2, nproc)` threads, i.e. one worker).
//!
//! ## Execution model
//!
//! A parallel region is one [`Task`]: `nchunks` independent chunk indices,
//! a `Fn(usize)` body and an atomic **chunk cursor**. The thread that opens
//! the region puts the task on the one shared open-region list and then
//! claims *runs* of `grain` consecutive chunks from the cursor (one
//! `fetch_add` a run) until the cursor is spent; persistent workers do the
//! same on whatever region is open, and park on a condvar when none is.
//! A run is retired with one atomic subtraction; the opener closes the
//! region (takes it off the list) once the cursor is spent and returns when
//! every chunk has retired.
//!
//! Chunk *boundaries* are fixed up front by the caller (`lib.rs`) and never
//! depend on the number of threads; the cursor and the grain only decide
//! **who** runs a chunk and in what batch, never **what** a chunk is.
//! Per-chunk results land in the slot of their chunk index, which is what
//! keeps results bitwise reproducible (see the crate docs and DESIGN.md
//! "The pool & the determinism contract").
//!
//! ## Nested regions and deadlock freedom
//!
//! A chunk body may itself open a region (a map inside a chunk of another
//! map). An opener drains its own cursor before it waits, so by
//! the time it blocks every outstanding chunk of its region is being run by
//! some thread; a thread running a chunk blocks only as the opener of a
//! strictly *deeper* region, for which the same holds. A waits-for chain
//! therefore only descends, the deepest region is never blocked, and the
//! system always makes progress — with or without workers. Openers publish
//! a region and workers look for one under the same lock the condvar waits
//! on, so a wake-up cannot be lost.
//!
//! ## Panics
//!
//! The first panic from any chunk is captured; remaining chunks of the
//! region are skipped (their runs still retire), and the payload is
//! re-thrown on the opening thread once the region drains — whoever ran
//! the chunk.
//!
//! ## Seeded interleavings
//!
//! Test builds put a yield point at each of the three transitions a run
//! makes — the claim, the retire, the park (and the opener's
//! publish-then-notify) — and the unit tests drive eight submitters through
//! 64 seeded schedules at two pool sizes. Release and non-test builds
//! compile none of it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Chunk runs per thread a region is cut into; larger values smooth skew at
/// the price of more cursor traffic. Grain only groups execution — it never
/// moves a chunk boundary.
const OVERSPLIT: usize = 4;

/// Aborts the process if dropped: held by a worker, whose unwinding would
/// leave a claimed run that never retires, so its opener would wait forever.
struct AbortOnUnwind(&'static str);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!("{}; aborting", self.0);
        std::process::abort();
    }
}

/// One open parallel region.
struct Task {
    /// Lifetime-erased pointer to the chunk body on the opener's stack.
    /// Valid until the opener returns from [`Pool::run`], which cannot
    /// happen before `pending` reaches zero.
    func: *const (dyn Fn(usize) + Sync),
    nchunks: usize,
    /// Chunks claimed (and retired) as one run.
    grain: usize,
    /// The chunk cursor: first chunk no run has claimed yet. Claims are
    /// `Relaxed` — atomicity alone makes runs disjoint; what a run wrote
    /// reaches the opener through `pending`.
    next: AtomicUsize,
    /// Chunks not yet retired; the region is complete at zero. Each
    /// `retire` is `AcqRel`, so the one that reaches zero has seen every
    /// earlier run's writes and hands them to the opener through `done`.
    pending: AtomicUsize,
    /// Set (`Release`) on the first panic; later chunks see it and skip.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `func` is the only field that is not already `Send + Sync`. Its
// pointee is `Sync` (callable from any thread through `&`), and it is
// dereferenced only by a thread holding a claimed, unretired run, while the
// opener provably still waits in `Pool::run` (see `drain`).
// Driven by `tests/cross_process.rs::many_submitters_run_every_chunk_exactly_once`.
unsafe impl Send for Task {}
// SAFETY: as above; every other field is a `Sync` primitive.
unsafe impl Sync for Task {}

impl Task {
    fn spent(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.nchunks
    }

    /// Claim and execute runs until the cursor is spent; returns the number
    /// of runs this thread executed.
    fn drain(&self) -> u64 {
        let mut runs = 0;
        loop {
            #[cfg(test)]
            interleave::point();
            let lo = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if lo >= self.nchunks {
                return runs;
            }
            let hi = (lo + self.grain).min(self.nchunks);
            runs += 1;
            if !self.poisoned.load(Ordering::Acquire) {
                debug_assert!(
                    self.pending.load(Ordering::Acquire) >= hi - lo,
                    "run {lo}..{hi} claimed twice or after its region retired"
                );
                // SAFETY: `fetch_add` handed chunks `lo..hi` to this thread
                // alone and they are not retired yet, so `pending > 0`: the
                // opener is still inside `Pool::run` and the body it
                // borrowed is alive.
                let body = unsafe { &*self.func };
                for i in lo..hi {
                    if self.poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                        self.poisoned.store(true, Ordering::Release);
                        let mut slot = self.panic.lock().expect("panic slot lock");
                        slot.get_or_insert(payload);
                    }
                }
            }
            self.retire(hi - lo);
        }
    }

    /// Retire `n` chunks; signals the opener when the region drains.
    fn retire(&self, n: usize) {
        #[cfg(test)]
        interleave::point();
        if self.pending.fetch_sub(n, Ordering::AcqRel) == n {
            #[cfg(test)]
            interleave::point();
            *self.done.lock().expect("done lock") = true;
            self.done_cv.notify_all();
        }
    }
}

/// The open-region list and the number of workers parked on it.
#[derive(Default)]
struct Open {
    tasks: Vec<Arc<Task>>,
    sleepers: usize,
}

#[derive(Default)]
struct Shared {
    open: Mutex<Open>,
    wake_cv: Condvar,
    // Diagnostic counters, read by `pool_stats` and never by the scheduler
    // (hence `Relaxed`); added once a region, not once a run.
    opener_runs: AtomicU64,
    worker_runs: AtomicU64,
    parks: AtomicU64,
}

/// Aggregated scheduler counters, for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Pool size (including the opener's own slot).
    pub threads: usize,
    /// Chunk runs executed by the thread that opened their region.
    pub local_runs: u64,
    /// Chunk runs executed by a pool worker (the field keeps the name the
    /// benchmark reads it by).
    pub steals: u64,
    /// Worker park events.
    pub parks: u64,
}

struct Pool {
    shared: Arc<Shared>,
    nthreads: usize,
}

impl Pool {
    fn new(nthreads: usize) -> Pool {
        // The opener of each region takes part in running it, so `nthreads`
        // total parallelism needs `nthreads - 1` workers; with one thread
        // the pool runs everything inline on the caller.
        let shared = Arc::new(Shared::default());
        for id in 1..nthreads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("g500-pool-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning pool worker");
        }
        Pool { shared, nthreads }
    }

    /// Execute `f(0..nchunks)` across the pool; returns when every chunk has
    /// retired. Re-throws the first chunk panic on this thread.
    fn run(&self, nchunks: usize, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the borrow's lifetime is erased. This function does
        // not return before `pending` is zero, and `drain` dereferences the
        // pointer only while holding unretired chunks.
        let func: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let task = Arc::new(Task {
            func,
            nchunks,
            grain: (nchunks / (self.nthreads * OVERSPLIT)).max(1),
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(nchunks),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        let shared = &*self.shared;
        let mut open = shared.open.lock().expect("open-region lock");
        open.tasks.push(Arc::clone(&task));
        let asleep = open.sleepers > 0;
        drop(open);
        #[cfg(test)]
        interleave::point();
        if asleep {
            shared.wake_cv.notify_all();
        }
        let runs = task.drain();
        shared.opener_runs.fetch_add(runs, Ordering::Relaxed);
        // The cursor is spent: close the region, then wait for the runs
        // still executing on workers.
        let mut open = shared.open.lock().expect("open-region lock");
        let at = open.tasks.iter().position(|t| Arc::ptr_eq(t, &task));
        open.tasks
            .swap_remove(at.expect("an open region is on the list"));
        drop(open);
        let mut done = task.done.lock().expect("done lock");
        while !*done {
            done = task.done_cv.wait(done).expect("done lock");
        }
        drop(done);
        debug_assert_eq!(task.pending.load(Ordering::Acquire), 0);

        let payload = task.panic.lock().expect("panic slot lock").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// A worker: run whatever open region still has chunks to claim, oldest
/// first; park when there is none.
fn worker_loop(shared: &Shared) {
    // chunk panics are caught in `drain`; anything else is a broken invariant
    let _guard = AbortOnUnwind("pool worker panicked outside a chunk body");
    let mut open = shared.open.lock().expect("open-region lock");
    loop {
        if let Some(task) = open.tasks.iter().find(|t| !t.spent()).cloned() {
            drop(open);
            let runs = task.drain();
            shared.worker_runs.fetch_add(runs, Ordering::Relaxed);
            open = shared.open.lock().expect("open-region lock");
        } else {
            #[cfg(test)]
            interleave::point();
            shared.parks.fetch_add(1, Ordering::Relaxed);
            open.sleepers += 1;
            open = shared.wake_cv.wait(open).expect("open-region lock");
            open.sleepers -= 1;
            #[cfg(test)]
            interleave::point();
        }
    }
}

/// Thread count requested via [`configure_threads`] before first pool use;
/// 0 means "not configured".
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static POOL: OnceLock<Pool> = OnceLock::new();

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

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool::new(resolve_threads()))
}

/// Request a pool size, overriding `G500_THREADS` and the hardware default.
/// Must be called before the first parallel operation; returns `true` if the
/// request took effect (the pool was not yet started), `false` if the pool
/// is already running at its original size.
pub fn configure_threads(n: usize) -> bool {
    REQUESTED.store(n.max(1), Ordering::SeqCst);
    POOL.get().is_none()
}

/// Number of threads the global pool runs with (initializing it on first
/// call). Chunk *boundaries* never depend on this — callers may use it only
/// to bound per-chunk scratch allocation or pick chunk counts for
/// order-insensitive merges.
pub fn current_num_threads() -> usize {
    pool().nthreads
}

/// Snapshot of the scheduler's diagnostic counters (runs by openers, runs
/// by workers, parks). Counters are monotonic over the pool's lifetime;
/// results never depend on them.
pub fn pool_stats() -> PoolStats {
    let p = pool();
    PoolStats {
        threads: p.nthreads,
        local_runs: p.shared.opener_runs.load(Ordering::Relaxed),
        steals: p.shared.worker_runs.load(Ordering::Relaxed),
        parks: p.shared.parks.load(Ordering::Relaxed),
    }
}

/// Run `f(i)` for every `i in 0..nchunks`, distributing chunk runs across
/// the pool. Blocks until all chunks retire; re-throws the first panic.
pub(crate) fn run_parallel(nchunks: usize, f: &(dyn Fn(usize) + Sync)) {
    let p = pool();
    if p.nthreads == 1 || nchunks <= 1 {
        (0..nchunks).for_each(f);
    } else {
        p.run(nchunks, f);
    }
}

/// Seeded yield points at the pool's three transitions — the claim, the
/// retire, the park — for the interleaving harness below. Each point spins
/// or yields for a count drawn from its thread's SplitMix64 stream, keyed by
/// `(seed, thread name)`, so a seed names one family of schedules. Off
/// (seed 0) in every test but the harness's re-exec'd child.
#[cfg(test)]
mod interleave {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static SEED: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// The seed this thread's stream was keyed with, and its state.
        static STREAM: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn point() {
        let seed = SEED.load(Ordering::Relaxed);
        if seed == 0 {
            return;
        }
        let r = STREAM.with(|stream| {
            let (keyed, mut state) = stream.get();
            if keyed != seed {
                let thread = std::thread::current();
                let name = thread.name().unwrap_or("").bytes();
                state = name.fold(seed, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3));
            }
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            stream.set((seed, state));
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        });
        match r % 4 {
            0 => {}
            1 => (0..r >> 56).for_each(|_| std::hint::spin_loop()),
            _ => (0..=r >> 62).for_each(|_| std::thread::yield_now()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{interleave, run_parallel};
    use crate::{for_each_chunk_mut, map_chunks};
    use std::io::Read;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// The seeds the harness runs. To replay a failure, narrow this to the
    /// `seed=` it printed.
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=64;
    const SUBMITTERS: usize = 8;
    const REGIONS: usize = 24;
    /// How long one chunk of a rendezvous region waits for the other. A
    /// worker is parked or busy for microseconds; this is a lost wake-up.
    const MEET_WITHIN: Duration = Duration::from_secs(2);

    /// Both chunks of a two-chunk region must run at once, each waiting for
    /// the other: the opener takes one, so a worker must hear of the region
    /// and take the other. A pool of one runs the region inline: nothing to
    /// meet.
    fn rendezvous() {
        if crate::current_num_threads() == 1 {
            return;
        }
        let met = AtomicUsize::new(0);
        run_parallel(2, &|_| {
            met.fetch_add(1, Ordering::SeqCst);
            let start = Instant::now();
            while met.load(Ordering::SeqCst) < 2 {
                assert!(start.elapsed() < MEET_WITHIN, "a chunk waited alone");
                std::thread::yield_now();
            }
        });
    }

    /// `cross_process.rs`'s eight-submitter traffic cut to a size 64 seeds
    /// run in debug, each region checked against its sequential result on
    /// the spot, plus a rendezvous region.
    fn submit(s: usize) {
        for r in 0..REGIONS {
            let n = 3 + (s * 131 + r * 37) % 300;
            let chunk = 1 + r % 5;
            match r % 6 {
                0 => {
                    let ran: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                    map_chunks(n, 1, &mut Vec::new(), |c| {
                        ran[c.start].fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(ran.iter().all(|c| c.load(Ordering::Relaxed) == 1));
                }
                1 => {
                    let mut v = vec![0u32; n];
                    for_each_chunk_mut(&mut v, chunk, |_, xs| xs.iter_mut().for_each(|x| *x += 1));
                    assert!(v.iter().all(|&x| x == 1));
                }
                2 => {
                    let f = |i: usize| ((i * 2654435761 + s) % 1000) as f64 * 1e-3;
                    // one item a chunk, so chunk order is item order
                    let mut parts = Vec::new();
                    map_chunks(n, 1, &mut parts, |c| f(c.start));
                    let par: f64 = parts.iter().sum();
                    assert_eq!(par.to_bits(), (0..n).map(f).sum::<f64>().to_bits());
                }
                3 if r == 3 => {
                    // nested: each chunk opens a region of its own
                    let mut sums: Vec<u64> = Vec::new();
                    map_chunks(3, 1, &mut sums, |c| {
                        let key =
                            |k: usize| (k as u64).wrapping_mul(2654435761) ^ (c.start + s) as u64;
                        let mut inner = Vec::new();
                        map_chunks(5000, 16, &mut inner, |r| r.map(key).sum::<u64>());
                        assert_eq!(inner.iter().sum::<u64>(), (0..5000).map(key).sum::<u64>());
                        inner.len() as u64
                    });
                    assert_eq!(sums, vec![5000u64.div_ceil(16); 3]);
                }
                3 => {
                    let mut out: Vec<Vec<u64>> = Vec::new();
                    map_chunks(n, chunk, &mut out, |c| {
                        c.map(|i| i as u64 ^ s as u64).collect()
                    });
                    let flat = out.iter().flatten().copied();
                    assert!(flat.eq((0..n as u64).map(|i| i ^ s as u64)));
                }
                4 => {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        map_chunks(n, 1, &mut Vec::new(), |c| {
                            assert!(c.start != n / 2, "submitter {s}");
                        });
                    }));
                    let payload = caught.expect_err("the region's panic reaches its opener");
                    let msg = payload.downcast_ref::<String>().map(String::as_str);
                    assert_eq!(msg, Some(format!("submitter {s}").as_str()));
                }
                _ => rendezvous(),
            }
        }
    }

    /// Child half: every seed over eight named submitters, released
    /// together. Prints `seed=` before each, so a hang names its seed too.
    #[test]
    #[ignore = "re-exec'd by seeded_interleavings_keep_regions_exact_and_live"]
    fn interleavings_child() {
        use std::io::Write;
        // the one expected panic a submitter makes is not worth a report
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info.payload().downcast_ref::<String>();
            if !msg.is_some_and(|m| m.starts_with("submitter ")) {
                report(info)
            }
        }));
        for seed in SEEDS {
            println!("seed={seed}");
            std::io::stdout().flush().expect("flush");
            interleave::SEED.store(seed, Ordering::Relaxed);
            let start = Barrier::new(SUBMITTERS);
            let failed = std::thread::scope(|scope| {
                let spawn = |s: usize| {
                    let start = &start;
                    std::thread::Builder::new()
                        .name(format!("submitter-{s}"))
                        .spawn_scoped(scope, move || {
                            start.wait();
                            submit(s)
                        })
                        .expect("spawn submitter")
                };
                let handles: Vec<_> = (0..SUBMITTERS).map(spawn).collect();
                handles.into_iter().filter_map(|h| h.join().err()).count()
            });
            assert_eq!(failed, 0, "seed={seed}: {failed} submitter(s) failed");
        }
        interleave::SEED.store(0, Ordering::Relaxed);
    }

    /// The seeded permutation harness: [`SEEDS`] over the eight-submitter
    /// shape, re-exec'd at `G500_THREADS` 2 and 4 (the pool is fixed at
    /// first use). Every chunk exactly once, every sum in chunk order,
    /// every panic on its own submitter — and live: a rendezvous that waits
    /// past [`MEET_WITHIN`], or a child that does not finish, fails with
    /// the seed it was on.
    #[test]
    fn seeded_interleavings_keep_regions_exact_and_live() {
        let exe = std::env::current_exe().expect("test exe path");
        // read a pipe to its end beside the child, so it never blocks on one
        fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
            std::thread::spawn(move || {
                let mut text = String::new();
                pipe.read_to_string(&mut text)
                    .expect("child output is utf8");
                text
            })
        }
        for threads in [2, 4] {
            let mut child = Command::new(&exe)
                .args(["--exact", "pool::tests::interleavings_child"])
                .args(["--ignored", "--nocapture"])
                .env("G500_THREADS", threads.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn child test process");
            let stdout = drain(child.stdout.take().expect("piped stdout"));
            let stderr = drain(child.stderr.take().expect("piped stderr"));
            let deadline = Instant::now() + Duration::from_secs(120);
            let status = loop {
                if let Some(status) = child.try_wait().expect("poll child") {
                    break Some(status);
                }
                if Instant::now() > deadline {
                    child.kill().expect("kill hung child");
                    break None;
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            let stdout = stdout.join().expect("stdout reader");
            let last = stdout.lines().rfind(|l| l.contains("seed="));
            assert!(
                status.is_some_and(|s| s.success()) && stdout.contains("1 passed"),
                "G500_THREADS={threads}: {} at {}\n{}",
                if status.is_some() { "failed" } else { "hung" },
                last.unwrap_or("no seed"),
                stderr.join().expect("stderr reader")
            );
        }
    }
}
