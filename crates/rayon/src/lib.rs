//! The workspace's host thread pool, as two calls over fixed chunks.
//!
//! The build environment is fully offline, so the workspace compiles from
//! std alone — and this crate runs regions on real threads, not a
//! sequential shim: a region's opener and up to `threads − 1` helpers it
//! spawns in a `std::thread::scope` claim its chunks (`pool.rs`). What
//! callers see is two functions:
//!
//! * [`map_chunks`] — an indexed map over the fixed chunks of `0..len`,
//!   leaving one result a chunk, in chunk order, in the caller's `Vec`;
//! * [`for_each_chunk_mut`] — a `for_each` over disjoint `&mut` chunks of a
//!   slice, each handed out once through a slot of its own.
//!
//! Both cut their input with [`fixed_chunk_size`] or with a chunk size the
//! caller chose, and both run a region of at most two chunks inline, in
//! chunk order, without spawning a thread.
//!
//! ## Who opens regions
//!
//! Host code only: the Kronecker generator, the CSR count pass, and the
//! degree and weight sums — a handful of regions a run. Simulated ranks
//! run their sweeps inline: the paper's intra-process parallelism (the
//! Sunway CPE clusters) is modelled in virtual time by the simulator's
//! compute model, so host threads inside a rank would change no simulated
//! number. A spawn and a join a region is noise at that count, so no
//! thread outlives its region and the crate has no `unsafe`.
//!
//! ## Pool sizing
//!
//! The size is fixed at first use from, in priority order:
//! [`configure_threads`] (the `--threads` CLI flag), the `G500_THREADS`
//! environment variable, then `std::thread::available_parallelism`. With one
//! thread, every region runs inline on the caller.
//!
//! ## The fixed-chunk determinism contract
//!
//! Chunk boundaries are a pure function of the input length and the chunk
//! size, **never** of the thread count; chunks are claimed dynamically for
//! load balance, but a chunk's result lands in the slot of its index, so a
//! caller that combines [`map_chunks`]' results in order gets bitwise
//! identical results at any thread count. That keeps the
//! deterministic-replay / conformance / schedule-fuzz guarantees whether
//! `G500_THREADS` is 1 or 64. See DESIGN.md "The pool & the determinism
//! contract".
//!
//! Kernel authors: never branch on [`current_num_threads`] to decide *what*
//! to compute — only to bound scratch allocation, or to pick chunk counts
//! for merges that are provably order- and partition-insensitive (integer
//! degree counts, index-pure edge blocks).

#![forbid(unsafe_code)]

mod pool;

pub use pool::{configure_threads, current_num_threads, pool_stats, PoolStats};

use std::ops::Range;
use std::sync::Mutex;

/// Target number of chunks a region is cut into: more than any plausible
/// pool size, so dynamic claiming can balance skew, few enough that
/// per-chunk overhead stays negligible.
const TARGET_CHUNKS: usize = 64;

/// The chunk size for `len` items: a 64th of them, rounded up, and at least
/// `min_len` (below which a chunk is pure overhead). Depends only on its
/// arguments, never on the thread count.
pub fn fixed_chunk_size(len: usize, min_len: usize) -> usize {
    len.div_ceil(TARGET_CHUNKS).max(min_len).max(1)
}

/// Map each chunk of `0..len` — `chunk` indices, the last one shorter —
/// through `f`, leaving the per-chunk results in `out` in chunk order.
/// `out` is cleared first and keeps its capacity, so a caller that holds on
/// to it allocates it once.
pub fn map_chunks<T, F>(len: usize, chunk: usize, out: &mut Vec<T>, f: F)
where
    T: Send + Default,
    F: Fn(Range<usize>) -> T + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    out.clear();
    out.resize_with(len.div_ceil(chunk), T::default);
    for_each_chunk_mut(out, 1, |c, slot| {
        slot[0] = f(c * chunk..len.min((c + 1) * chunk));
    });
}

/// Run `f(lo, &mut items[lo..hi])` on each chunk of `items` — `chunk`
/// items, the last one shorter — where `lo` is the chunk's first index.
/// Chunks run concurrently, each exactly once; the first chunk panic is
/// re-thrown here once the region's helpers have joined.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if items.len() <= 2 * chunk {
        // The chunks a parallel run would run, on the caller: only the
        // executing thread differs, and no thread is spawned.
        for (c, part) in items.chunks_mut(chunk).enumerate() {
            f(c * chunk, part);
        }
        return;
    }
    // One slot a chunk. A region runs each chunk index once, so a slot's
    // lock is never contended, and `take` hands its `&mut` out at most once.
    let slots: Vec<Mutex<Option<&mut [T]>>> = items
        .chunks_mut(chunk)
        .map(|part| Mutex::new(Some(part)))
        .collect();
    pool::run_parallel(slots.len(), &|c| {
        let part = slots[c].lock().expect("chunk slot lock").take();
        let part = part.unwrap_or_else(|| panic!("chunk {c} ran twice"));
        f(c * chunk, part);
    });
}

#[cfg(test)]
mod tests {
    use super::{fixed_chunk_size, for_each_chunk_mut, map_chunks};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Sum `xs` a chunk at a time, the chunk sums in chunk order.
    fn chunked_sum(xs: &[f64], chunk: usize) -> f64 {
        let mut parts = Vec::new();
        map_chunks(xs.len(), chunk, &mut parts, |r| xs[r].iter().sum::<f64>());
        parts.iter().sum()
    }

    #[test]
    fn chunks_cover_range_exactly() {
        let mut chunks: Vec<Vec<usize>> = Vec::new();
        map_chunks(10, 4, &mut chunks, |r| r.collect());
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        map_chunks(0, 4, &mut chunks, |r| r.collect());
        assert!(chunks.is_empty(), "no items, no chunks");
    }

    #[test]
    fn slice_ops_match_std() {
        let v = vec![3u64, 1, 2];
        let mut sums = Vec::new();
        map_chunks(v.len(), 2, &mut sums, |r| v[r].iter().sum::<u64>());
        assert_eq!(sums, vec![4, 2]);
        let mut w = v.clone();
        for_each_chunk_mut(&mut w, 2, |lo, xs| {
            for (i, x) in (lo..).zip(xs) {
                *x += i as u64;
            }
        });
        assert_eq!(w, vec![3, 2, 4]);
    }

    #[test]
    fn collect_preserves_order_across_many_chunks() {
        // Many chunks, so parallel execution actually reorders work.
        let mut parts: Vec<Vec<usize>> = Vec::new();
        map_chunks(100_000, 64, &mut parts, |r| r.map(|i| i * 2).collect());
        assert!(parts
            .iter()
            .flatten()
            .copied()
            .eq((0..100_000).map(|i| i * 2)));
    }

    #[test]
    fn max_matches_sequential() {
        let v: Vec<u64> = (0..9999u64).map(|i| (i * 2654435761) % 100_000).collect();
        let chunked_max = |v: &[u64]| {
            let mut parts = Vec::new();
            let chunk = fixed_chunk_size(v.len(), 1024);
            map_chunks(v.len(), chunk, &mut parts, |r| v[r].iter().copied().max());
            parts.into_iter().flatten().max()
        };
        assert_eq!(chunked_max(&v), v.iter().copied().max());
        assert_eq!(chunked_max(&[]), None);
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let mut v = vec![0u32; 70_000];
        let chunk = fixed_chunk_size(v.len(), 1024);
        for_each_chunk_mut(&mut v, chunk, |_, xs| xs.fill(1));
        assert_eq!(v.iter().map(|&x| x as u64).sum::<u64>(), 70_000);
    }

    #[test]
    fn par_chunks_sees_all_windows() {
        let v: Vec<u32> = (0..10_000).collect();
        let mut sums: Vec<u64> = Vec::new();
        map_chunks(v.len(), 256, &mut sums, |r| {
            v[r].iter().map(|&x| x as u64).sum()
        });
        assert_eq!(sums.len(), 10_000usize.div_ceil(256));
        assert_eq!(sums.iter().sum::<u64>(), (0..10_000u64).sum());
    }

    #[test]
    fn for_each_panic_propagates_from_worker_chunk() {
        let caught = std::panic::catch_unwind(|| {
            for_each_chunk_mut(&mut vec![0u8; 100_000], 64, |lo, xs| {
                if (lo..lo + xs.len()).contains(&31_337) {
                    panic!("chunk body panicked");
                }
            });
        });
        assert!(caught.is_err());
        // the pool must remain usable after a poisoned region
        let ones = vec![1.0; 1000];
        assert_eq!(chunked_sum(&ones, 16), 1000.0);
    }

    /// Spin for `spins` steps of an LCG, for chunks of uneven weight.
    fn spin(spins: u64) {
        let mut acc = 0u64;
        for k in 0..spins {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn skewed_workload_completes_with_balanced_claiming() {
        // One chunk is ~1000x heavier than the rest; dynamic claiming must
        // still run everything (and, with >1 thread, helpers claim the
        // light chunks while the heavy one runs).
        let done = AtomicUsize::new(0);
        map_chunks(256, 1, &mut Vec::new(), |r| {
            spin(if r.start == 0 { 200_000 } else { 200 });
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(done.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn collect_into_vec_reuses_capacity_and_matches_collect() {
        let mut arena: Vec<u64> = Vec::new();
        for round in 0..3u64 {
            map_chunks(50_000, 1, &mut arena, |r| r.start as u64 * 3 + round);
            let expect: Vec<u64> = (0..50_000u64).map(|i| i * 3 + round).collect();
            assert_eq!(arena, expect);
        }
        let cap = arena.capacity();
        map_chunks(10, 1, &mut arena, |r| r.start as u64);
        assert_eq!(arena, (0..10u64).collect::<Vec<_>>());
        assert_eq!(arena.capacity(), cap, "arena capacity must be retained");
    }

    #[test]
    fn steal_heavy_skewed_workload_balances() {
        // A geometric skew: every 64th chunk dwarfs the rest. With >1
        // thread whoever is free claims the next run off the cursor while a
        // heavy chunk executes; at 1 thread everything runs inline. Either
        // way the sum is exact.
        let total = AtomicU64::new(0);
        map_chunks(512, 1, &mut Vec::new(), |r| {
            spin(if r.start % 64 == 0 { 100_000 } else { 50 });
            total.fetch_add(r.start as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..512u64).sum());
    }

    #[test]
    fn nested_join_inside_stolen_chunks() {
        // Each outer chunk opens a region of its own, so chunks a helper
        // claimed open regions from helper threads, each with helpers of
        // its own.
        let mut outs: Vec<Vec<u64>> = Vec::new();
        map_chunks(32, 1, &mut outs, |outer| {
            let mut inner = Vec::new();
            map_chunks(20_000, 64, &mut inner, |r| {
                r.map(|k| (k as u64).wrapping_mul(2654435761) ^ outer.start as u64)
                    .sum::<u64>()
            });
            inner
        });
        for (i, sums) in outs.iter().enumerate() {
            let expect = (0..20_000u64).map(|k| k.wrapping_mul(2654435761) ^ i as u64);
            assert_eq!(sums.iter().sum::<u64>(), expect.sum::<u64>());
        }
    }

    #[test]
    fn panic_in_stolen_chunk_propagates_and_pool_survives() {
        // Many tiny chunks, so with >1 thread the panicking chunk may well
        // run on a helper; the payload must still surface on the opening
        // thread.
        for round in 0..4 {
            let caught = std::panic::catch_unwind(|| {
                map_chunks(4096, 1, &mut Vec::new(), |r| {
                    if r.start == 2048 + round {
                        panic!("stolen chunk panicked");
                    }
                });
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "stolen chunk panicked");
            // pool stays healthy between rounds
            let ones = vec![1.0; 1000];
            assert_eq!(chunked_sum(&ones, 16), 1000.0);
        }
    }

    #[test]
    fn pool_stats_are_monotonic() {
        let before = crate::pool_stats();
        assert!(before.threads >= 1);
        let ones = vec![1.0; 100_000];
        assert_eq!(chunked_sum(&ones, 64), 100_000.0);
        let after = crate::pool_stats();
        assert!(after.local_runs >= before.local_runs);
        assert!(after.steals >= before.steals);
        assert!(after.parks >= before.parks);
    }

    #[test]
    fn auto_sequential_cutoff_matches_parallel_results() {
        // A two-chunk region takes the inline path; forcing more chunks
        // takes the threaded path. Same chunk geometry rules, same results.
        let v: Vec<f64> = (0..4096).map(|i| (i % 97) as f32 as f64 * 0.125).collect();
        let small = chunked_sum(&v[..2000], fixed_chunk_size(2000, 1024));
        let seq: f64 = v[..2000].iter().sum();
        assert_eq!(small.to_bits(), seq.to_bits());
        assert_eq!(
            chunked_sum(&v, 16).to_bits(),
            v.iter().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn sum_is_identical_regardless_of_claim_order() {
        // f64 chunk sums are combined sequentially in chunk order, so two
        // runs (with arbitrary thread interleavings) must agree bitwise.
        let v: Vec<f64> = (0..200_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 as f64 * 1e-3)
            .collect();
        let chunk = fixed_chunk_size(v.len(), 1024);
        let a = chunked_sum(&v, chunk);
        let b = chunked_sum(&v, chunk);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
