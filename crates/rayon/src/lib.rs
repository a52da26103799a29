//! Std-only drop-in for the subset of `rayon` this workspace uses.
//!
//! The build environment is fully offline (no crates.io mirror), so the
//! workspace compiles from std alone — and this crate is a *real* thread
//! pool, not a sequential shim: `par_iter`, `par_iter_mut`, `par_chunks`,
//! range `into_par_iter`, `par_sort_unstable*` and `join` all execute on a
//! lazily-started, process-global pool. The surface is cut to the calls the
//! workspace makes (`map` and `copied` are the only adapters, so every
//! iterator emits one item per index); the scheduler is the smallest one
//! that serves the traffic the product makes — 4 to 16 rank threads opening
//! regions at once on a pool of one or a few workers: a region is one
//! atomic chunk cursor on a shared open-region list, which its opener and
//! the persistent workers claim runs of chunks from. See `pool.rs` and
//! DESIGN.md "The pool & the determinism contract".
//!
//! ## Pool sizing
//!
//! One pool serves the whole process (simnet runs one OS thread per rank;
//! per-rank pools would oversubscribe the host `ranks × threads`-fold). The
//! size is chosen at first use from, in priority order:
//! [`configure_threads`] (the `--threads` CLI flag), the `G500_THREADS`
//! environment variable, then `std::thread::available_parallelism`. With one
//! thread, every operation runs inline on the caller.
//!
//! ## The fixed-chunk determinism contract
//!
//! Work is split into chunks whose boundaries are a pure function of the
//! input length (and `with_min_len`/`with_max_len`), **never** of the thread
//! count; chunks are claimed dynamically for load balance, but per-chunk
//! results are combined sequentially in chunk order. `par_sort_unstable*` is
//! a fixed-midpoint merge sort with a left-preferential merge. Net effect:
//! every operation returns bitwise identical results at any thread count,
//! so the deterministic-replay / conformance / schedule-fuzz guarantees
//! hold unchanged whether `G500_THREADS` is 1 or 64. See `iter.rs` for the
//! rules kernel authors must follow to keep this true.
//!
//! The trait and function names match upstream `rayon`, so the calls the
//! workspace makes compile against it unchanged.

mod iter;
mod pool;
mod sort;

pub use iter::{
    Copied, FromParallelIterator, IntoParallelIterator, Map, ParallelIterator, ParallelSlice,
    ParallelSliceMut, RangeIter, SliceChunks, SliceIter, SliceIterMut, WithHints,
};
pub use pool::{configure_threads, current_num_threads, join, pool_stats, PoolStats};

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_range_exactly() {
        let v: Vec<usize> = (0..10).collect();
        let chunks: Vec<Vec<usize>> = v.par_chunks(4).map(<[usize]>::to_vec).collect();
        assert_eq!(chunks, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
    }

    #[test]
    fn slice_ops_match_std() {
        let v = vec![3u64, 1, 2];
        let total: u64 = v.par_iter().copied().sum();
        assert_eq!(total, 6);
        let mut s = v.clone();
        s.par_sort_unstable();
        assert_eq!(s, vec![1, 2, 3]);
        let mut by_key = v.clone();
        by_key.par_sort_unstable_by_key(|&x| std::cmp::Reverse(x));
        assert_eq!(by_key, vec![3, 2, 1]);
    }

    #[test]
    fn collect_preserves_order_across_many_chunks() {
        // Force many chunks so parallel execution actually reorders work.
        let out: Vec<usize> = (0..100_000usize)
            .into_par_iter()
            .with_max_len(64)
            .map(|i| i * 2)
            .collect();
        assert!(out.iter().copied().eq((0..100_000).map(|i| i * 2)));
    }

    #[test]
    fn max_matches_sequential() {
        let v: Vec<u64> = (0..9999u64).map(|i| (i * 2654435761) % 100_000).collect();
        assert_eq!(v.par_iter().copied().max(), v.iter().copied().max());
        let empty: Vec<u64> = Vec::new();
        assert_eq!(empty.par_iter().copied().max(), None);
    }

    #[test]
    fn par_iter_mut_writes_every_slot() {
        let mut v = vec![0u32; 70_000];
        v.par_iter_mut().for_each(|x| *x = 1);
        assert_eq!(v.iter().map(|&x| x as u64).sum::<u64>(), 70_000);
    }

    #[test]
    fn par_chunks_sees_all_windows() {
        let v: Vec<u32> = (0..10_000).collect();
        let sums: Vec<u64> = v
            .par_chunks(256)
            .map(|c| c.iter().map(|&x| x as u64).sum())
            .collect();
        assert_eq!(sums.len(), 10_000usize.div_ceil(256));
        assert_eq!(sums.iter().sum::<u64>(), (0..10_000u64).sum());
    }

    #[test]
    fn sort_matches_std_on_large_random_input() {
        // xorshift for a deterministic "random" input larger than the leaf
        // cutoff, so the parallel merge path actually runs.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut v: Vec<u64> = (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        v.par_sort_unstable();
        assert_eq!(v, expect);
    }

    #[test]
    fn sort_by_key_handles_duplicate_keys_deterministically() {
        let input: Vec<(u32, u32)> = (0..50_000u32).map(|i| (i % 16, i)).collect();
        let mut a = input.clone();
        a.par_sort_unstable_by_key(|&(k, _)| k);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        // same multiset as the input
        let mut expect = input.clone();
        expect.sort_unstable();
        let mut got = a.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
        // deterministic: a second run permutes equal keys identically
        let mut b = input;
        b.par_sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(a, b);
    }

    #[test]
    fn join_returns_results_in_position() {
        let (a, b) = crate::join(|| 1 + 1, || "right");
        assert_eq!(a, 2);
        assert_eq!(b, "right");
    }

    #[test]
    fn join_nests() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = crate::join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(16), 987);
    }

    #[test]
    fn join_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            crate::join(|| 7, || panic!("right side exploded"));
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "right side exploded");
    }

    #[test]
    fn for_each_panic_propagates_from_worker_chunk() {
        let caught = std::panic::catch_unwind(|| {
            (0..100_000usize)
                .into_par_iter()
                .with_max_len(64)
                .for_each(|i| {
                    if i == 31_337 {
                        panic!("chunk body panicked");
                    }
                });
        });
        assert!(caught.is_err());
        // the pool must remain usable after a poisoned task
        let s: u64 = (0..1000u64).into_par_iter().sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn skewed_workload_completes_with_balanced_claiming() {
        // One chunk is ~1000x heavier than the rest; dynamic claiming must
        // still retire everything (and, with >1 thread, workers claim the
        // light chunks while the heavy one runs).
        let done = AtomicUsize::new(0);
        (0..256usize).into_par_iter().with_max_len(1).for_each(|i| {
            let spins = if i == 0 { 200_000 } else { 200 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(done.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn collect_into_vec_reuses_capacity_and_matches_collect() {
        let mut arena: Vec<u64> = Vec::new();
        for round in 0..3u64 {
            (0..50_000u64)
                .into_par_iter()
                .with_max_len(128)
                .map(|i| i * 3 + round)
                .collect_into_vec(&mut arena);
            let expect: Vec<u64> = (0..50_000u64).map(|i| i * 3 + round).collect();
            assert_eq!(arena, expect);
        }
        let cap = arena.capacity();
        (0..10u64).into_par_iter().collect_into_vec(&mut arena);
        assert_eq!(arena, (0..10u64).collect::<Vec<_>>());
        assert_eq!(arena.capacity(), cap, "arena capacity must be retained");
    }

    #[test]
    fn steal_heavy_skewed_workload_balances() {
        // A geometric skew: every 64th chunk dwarfs the rest. With >1
        // thread whoever is free claims the next run off the cursor while a
        // heavy chunk executes; at 1 thread everything runs inline. Either
        // way the sum is exact.
        let total = std::sync::atomic::AtomicU64::new(0);
        (0..512usize).into_par_iter().with_max_len(1).for_each(|i| {
            let spins = if i % 64 == 0 { 100_000u64 } else { 50 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..512u64).sum());
    }

    #[test]
    fn nested_join_inside_stolen_chunks() {
        // Each outer chunk opens nested joins (a recursive sort), so chunks
        // a worker claimed open regions from worker threads; an opener
        // drains its own cursor before it waits, which keeps every level
        // live without deadlock.
        let outs: Vec<Vec<u32>> = (0..32usize)
            .into_par_iter()
            .with_max_len(1)
            .map(|i| {
                let mut v: Vec<u32> = (0..20_000u32)
                    .map(|k| k.wrapping_mul(2654435761) ^ i as u32)
                    .collect();
                v.par_sort_unstable();
                v
            })
            .collect();
        for v in outs {
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn panic_in_stolen_chunk_propagates_and_pool_survives() {
        // Many tiny chunks, so with >1 thread the panicking chunk may well
        // run on a worker; the payload must still surface on the opening
        // thread.
        for round in 0..4 {
            let caught = std::panic::catch_unwind(|| {
                (0..4096usize)
                    .into_par_iter()
                    .with_max_len(1)
                    .for_each(|i| {
                        if i == 2048 + round {
                            panic!("stolen chunk panicked");
                        }
                    });
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "stolen chunk panicked");
            // pool stays healthy between rounds
            let s: u64 = (0..1000u64).into_par_iter().with_max_len(16).sum();
            assert_eq!(s, 499_500);
        }
    }

    #[test]
    fn pool_stats_are_monotonic() {
        let before = crate::pool_stats();
        assert!(before.threads >= 1);
        let _: u64 = (0..100_000u64).into_par_iter().with_max_len(64).sum();
        let after = crate::pool_stats();
        assert!(after.local_runs >= before.local_runs);
        assert!(after.steals >= before.steals);
        assert!(after.parks >= before.parks);
    }

    #[test]
    fn auto_sequential_cutoff_matches_parallel_results() {
        // A two-chunk region takes the inline path; forcing more chunks
        // takes the pool path. Same chunk geometry rules, same results.
        let v: Vec<f32> = (0..4096).map(|i| (i % 97) as f32 * 0.125).collect();
        let small: f64 = v[..2000].par_iter().map(|&x| x as f64).sum();
        let seq: f64 = v[..2000].iter().map(|&x| x as f64).sum();
        assert_eq!(small.to_bits(), seq.to_bits());
    }

    #[test]
    fn sum_is_identical_regardless_of_claim_order() {
        // f64 chunk sums are combined sequentially in chunk order, so two
        // runs (with arbitrary thread interleavings) must agree bitwise.
        let v: Vec<f32> = (0..200_000)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 * 1e-3)
            .collect();
        let run = || -> f64 { v.par_iter().map(|&w| w as f64).sum() };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
