//! Parallel iterators over fixed, thread-count-independent chunks.
//!
//! ## The determinism contract
//!
//! Every iterator here is a *chunk producer*: it knows its base length and
//! can emit the items of any index range `[lo, hi)` in order. Terminal
//! operations split `0..len` into chunks whose boundaries are a pure
//! function of `len` and the `with_min_len`/`with_max_len` hints — never of
//! the pool size — run the chunks on the pool in any order, and combine the
//! per-chunk results **sequentially in chunk order**. Consequently every
//! terminal (`collect`, `sum`, `max`, ...) returns bitwise identical
//! results at any thread count, which is what lets the PR-1
//! deterministic-replay and conformance guarantees survive real parallelism.
//!
//! Kernel authors: never branch on `current_num_threads()` to decide *what*
//! to compute — only to bound scratch allocation, or to pick chunk counts
//! for merges that are provably order- and partition-insensitive (integer
//! degree counts, index-pure edge blocks).

use crate::pool::run_parallel;
use std::iter::Sum;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default target number of chunks per parallel region. Larger than any
/// plausible pool size so dynamic claiming can balance skew, small enough
/// that per-chunk overhead stays negligible.
const DEFAULT_TARGET_CHUNKS: usize = 64;
/// Default minimum items per chunk; below this, spawning is pure overhead.
const DEFAULT_MIN_CHUNK: usize = 1024;

/// The fixed chunk size for a region of `len` items: depends only on `len`
/// and the hints, never on the thread count.
fn fixed_chunk_size(len: usize, min_len: usize, max_len: usize) -> usize {
    len.div_ceil(DEFAULT_TARGET_CHUNKS)
        .max(min_len)
        .min(max_len)
        .max(1)
}

/// A parallel iterator: a producer that can emit the items of any index
/// range of its base domain, in order. See the module docs for the
/// determinism contract.
///
/// `Sync` is required because terminals share `&self` across pool threads.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Length of the base index domain: every iterator emits exactly one
    /// item per base index.
    fn base_len(&self) -> usize;

    /// Emit the items of base range `[lo, hi)`, in order, into `sink` — one
    /// per index. Terminals ask for disjoint ranges, each at most once.
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(Self::Item));

    /// Minimum and maximum items per chunk (see `with_min_len`,
    /// `with_max_len`).
    fn chunk_hints(&self) -> (usize, usize) {
        (DEFAULT_MIN_CHUNK, usize::MAX)
    }

    // ---- adapters -------------------------------------------------------

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Copy out of `&T` items (mirrors `Iterator::copied`).
    fn copied<'a, T>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Copy + Send + Sync + 'a,
    {
        Copied { base: self }
    }

    /// Set the minimum number of items a chunk may hold. Part of the fixed
    /// chunk geometry: affects results of non-associative combines (e.g.
    /// float sums) identically at every thread count.
    fn with_min_len(self, n: usize) -> WithHints<Self> {
        let (_, max) = self.chunk_hints();
        WithHints {
            base: self,
            min: n.max(1),
            max,
        }
    }

    /// Set the maximum number of items a chunk may hold.
    fn with_max_len(self, n: usize) -> WithHints<Self> {
        let (min, _) = self.chunk_hints();
        WithHints {
            base: self,
            min,
            max: n.max(1),
        }
    }

    // ---- terminals ------------------------------------------------------

    /// Run `f` on every item. Chunks run concurrently; items within a chunk
    /// run in order.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        drive_chunks(&self, |it, lo, hi| it.for_chunk(lo, hi, &mut |x| f(x)));
    }

    /// Collect into a container; per-chunk buffers are concatenated in chunk
    /// order, so the result order matches sequential execution.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Collect into a caller-owned `Vec`, reusing its capacity: the vector
    /// is cleared, then per-chunk buffers are appended in chunk order. The
    /// contents end up identical to [`collect`](Self::collect); hot kernels
    /// use this to keep one scratch arena alive across waves instead of
    /// reallocating every wave.
    fn collect_into_vec(self, out: &mut Vec<Self::Item>) {
        out.clear();
        let parts = drive_chunks(&self, |it, lo, hi| {
            let mut buf: Vec<Self::Item> = Vec::with_capacity(hi - lo);
            it.for_chunk(lo, hi, &mut |x| buf.push(x));
            buf
        });
        let total = parts.iter().map(Vec::len).sum();
        out.reserve(total);
        for mut p in parts {
            out.append(&mut p);
        }
    }

    /// Sum the items: each chunk is summed in order, then the per-chunk sums
    /// are summed sequentially in chunk order.
    fn sum<S>(self) -> S
    where
        S: Sum<Self::Item> + Sum<S> + Send,
    {
        let partials = drive_chunks(&self, |it, lo, hi| {
            let mut buf: Vec<Self::Item> = Vec::with_capacity(hi - lo);
            it.for_chunk(lo, hi, &mut |x| buf.push(x));
            buf.into_iter().sum::<S>()
        });
        partials.into_iter().sum()
    }

    /// Maximum item, or `None` if empty. Ties resolve toward the later
    /// chunk / later item, matching `Iterator::max`.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let partials = drive_chunks(&self, |it, lo, hi| {
            let mut best: Option<Self::Item> = None;
            it.for_chunk(lo, hi, &mut |x| {
                best = match best.take() {
                    None => Some(x),
                    Some(b) => Some(std::cmp::max(b, x)),
                };
            });
            best
        });
        partials.into_iter().flatten().reduce(std::cmp::max)
    }
}

/// Drive a parallel iterator: split its base domain into fixed chunks, run
/// `per_chunk` on each across the pool, and return the results in chunk
/// order.
///
/// Auto-sequential cutoff: a region of at most two chunks runs inline on
/// the caller, in chunk order, without touching the pool. The chunks (and
/// therefore all results) are exactly the ones pooled execution would
/// produce — only the executing thread changes — so the cutoff is free to
/// exist without weakening the determinism contract, and sub-threshold
/// waves never pay scheduler overhead.
fn drive_chunks<I, T, F>(it: &I, per_chunk: F) -> Vec<T>
where
    I: ParallelIterator,
    T: Send,
    F: Fn(&I, usize, usize) -> T + Sync,
{
    let len = it.base_len();
    if len == 0 {
        return Vec::new();
    }
    let (min_len, max_len) = it.chunk_hints();
    let cs = fixed_chunk_size(len, min_len, max_len);
    let nchunks = len.div_ceil(cs);
    if nchunks <= 2 {
        return (0..nchunks)
            .map(|i| per_chunk(it, i * cs, ((i + 1) * cs).min(len)))
            .collect();
    }
    // One write-once slot a chunk. The pool runs each chunk index exactly
    // once, so a slot's lock is never contended; it is what lets the slots
    // be shared without raw cells.
    let slots: Vec<Mutex<Option<T>>> = (0..nchunks).map(|_| Mutex::new(None)).collect();
    run_parallel(nchunks, &|i| {
        let v = per_chunk(it, i * cs, ((i + 1) * cs).min(len));
        let prev = slots[i].lock().expect("chunk slot lock").replace(v);
        debug_assert!(prev.is_none(), "chunk {i} ran twice");
    });
    let filled = |s: Mutex<Option<T>>| {
        let v = s.into_inner().expect("chunk slot lock");
        v.expect("every chunk index runs before the region returns")
    };
    slots.into_iter().map(filled).collect()
}

/// Conversion from a parallel iterator (rayon's `FromParallelIterator`).
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Vec<T> {
        let mut out = Vec::new();
        it.collect_into_vec(&mut out);
        out
    }
}

// ---- adapters -----------------------------------------------------------

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;
    fn base_len(&self) -> usize {
        self.base.base_len()
    }
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(R)) {
        self.base.for_chunk(lo, hi, &mut |x| sink((self.f)(x)));
    }
    fn chunk_hints(&self) -> (usize, usize) {
        self.base.chunk_hints()
    }
}

pub struct Copied<I> {
    base: I,
}

impl<'a, I, T> ParallelIterator for Copied<I>
where
    I: ParallelIterator<Item = &'a T>,
    T: Copy + Send + Sync + 'a,
{
    type Item = T;
    fn base_len(&self) -> usize {
        self.base.base_len()
    }
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(T)) {
        self.base.for_chunk(lo, hi, &mut |x| sink(*x));
    }
    fn chunk_hints(&self) -> (usize, usize) {
        self.base.chunk_hints()
    }
}

pub struct WithHints<I> {
    base: I,
    min: usize,
    max: usize,
}

impl<I: ParallelIterator> ParallelIterator for WithHints<I> {
    type Item = I::Item;
    fn base_len(&self) -> usize {
        self.base.base_len()
    }
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(I::Item)) {
        self.base.for_chunk(lo, hi, sink);
    }
    fn chunk_hints(&self) -> (usize, usize) {
        (self.min, self.max)
    }
}

// ---- sources ------------------------------------------------------------

/// Conversion into a parallel iterator (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel iterator over an integer range.
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

macro_rules! range_source {
    ($t:ty) => {
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            fn base_len(&self) -> usize {
                self.len
            }
            fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut($t)) {
                for i in lo..hi {
                    sink(self.start + i as $t);
                }
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = RangeIter<$t>;
            fn into_par_iter(self) -> RangeIter<$t> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                RangeIter {
                    start: self.start,
                    len,
                }
            }
        }
    };
}

range_source!(usize);
range_source!(u64);

/// Borrowing parallel iterator over a slice.
pub struct SliceIter<'a, T> {
    s: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn base_len(&self) -> usize {
        self.s.len()
    }
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(&'a T)) {
        for x in &self.s[lo..hi] {
            sink(x);
        }
    }
}

/// Parallel iterator over `&[T]` windows of up to `n` items.
pub struct SliceChunks<'a, T> {
    s: &'a [T],
    n: usize,
}

impl<'a, T: Sync> ParallelIterator for SliceChunks<'a, T> {
    type Item = &'a [T];
    fn base_len(&self) -> usize {
        self.s.len().div_ceil(self.n)
    }
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(&'a [T])) {
        for g in lo..hi {
            let b_lo = g * self.n;
            let b_hi = ((g + 1) * self.n).min(self.s.len());
            sink(&self.s[b_lo..b_hi]);
        }
    }
    fn chunk_hints(&self) -> (usize, usize) {
        (1, usize::MAX)
    }
}

/// Mutably-borrowing parallel iterator over a slice. Disjoint chunk ranges
/// hand out non-aliasing `&mut` references.
pub struct SliceIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Debug builds mark every index handed out (one flag an element; empty
    /// in release), to assert the exactly-once condition `for_chunk` needs.
    handed: Vec<AtomicBool>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: sharing the iterator shares only `ptr`, and `for_chunk` turns
// each element into a `&mut` at most once (below), on whichever thread
// claimed its chunk; `T: Send` makes that hand-off sound.
// Driven by `tests/cross_process.rs::many_submitters_run_every_chunk_exactly_once`.
unsafe impl<'a, T: Send> Sync for SliceIterMut<'a, T> {}

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    fn base_len(&self) -> usize {
        self.len
    }
    fn for_chunk(&self, lo: usize, hi: usize, sink: &mut dyn FnMut(&'a mut T)) {
        assert!(hi <= self.len, "chunk {lo}..{hi} of {}", self.len);
        for i in lo..hi {
            debug_assert!(
                !self.handed[i].swap(true, Ordering::Relaxed),
                "element {i} handed out twice"
            );
            // SAFETY: `i < len` is in bounds of the slice this iterator
            // mutably borrows for `'a`, and terminals ask for disjoint
            // ranges, each once (`drive_chunks`: one range a chunk index,
            // one run a chunk index), so no other `&mut` to element `i`
            // exists.
            sink(unsafe { &mut *self.ptr.add(i) });
        }
    }
}

/// Shared-slice views (`par_iter`, `par_chunks`).
pub trait ParallelSlice<T: Sync> {
    fn par_iter(&self) -> SliceIter<'_, T>;
    fn par_chunks(&self, n: usize) -> SliceChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceIter<'_, T> {
        SliceIter { s: self }
    }
    fn par_chunks(&self, n: usize) -> SliceChunks<'_, T> {
        assert!(n > 0, "chunk size must be positive");
        SliceChunks { s: self, n }
    }
}

/// Mutable-slice operations (`par_iter_mut`, `par_sort_unstable`,
/// `par_sort_unstable_by_key`).
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T>;
    fn par_sort_unstable(&mut self)
    where
        T: Ord;
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceIterMut<'_, T> {
        let flags = if cfg!(debug_assertions) {
            self.len()
        } else {
            0
        };
        SliceIterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            handed: (0..flags).map(|_| AtomicBool::new(false)).collect(),
            _marker: PhantomData,
        }
    }
    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        crate::sort::par_merge_sort_by(self, &T::cmp);
    }
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord,
        F: Fn(&T) -> K + Sync,
    {
        crate::sort::par_merge_sort_by(self, &|a: &T, b: &T| key(a).cmp(&key(b)));
    }
}
