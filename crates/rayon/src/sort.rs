//! Join-based parallel merge sort backing `par_sort_unstable*`.
//!
//! Determinism: the recursion splits at the fixed midpoint, leaves below a
//! fixed cutoff use `slice::sort_unstable_by`, and the merge prefers the
//! left run on ties — so the output is a pure function of the input,
//! identical at any thread count (and identical to running the same
//! algorithm sequentially). Equal elements may still be permuted relative
//! to the input (the leaves are unstable), but *how* they are permuted is
//! fixed by the input alone.

use crate::pool::{join, AbortOnUnwind};
use std::cmp::Ordering;
use std::mem::MaybeUninit;
use std::ptr;

/// Below this length a leaf is sorted sequentially; fixed (not derived from
/// the thread count) so leaf boundaries are reproducible.
const SORT_CUTOFF: usize = 4096;

pub(crate) fn par_merge_sort_by<T, F>(v: &mut [T], cmp: &F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync + ?Sized,
{
    if v.len() <= SORT_CUTOFF {
        v.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }
    // Scratch that is never read before it is written and never dropped:
    // the spare capacity of an empty `Vec`.
    let mut buf: Vec<T> = Vec::with_capacity(v.len());
    let n = v.len();
    sort_rec(v, &mut buf.spare_capacity_mut()[..n], cmp);
}

fn sort_rec<T, F>(v: &mut [T], buf: &mut [MaybeUninit<T>], cmp: &F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync + ?Sized,
{
    if v.len() <= SORT_CUTOFF {
        v.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }
    let mid = v.len() / 2;
    let (vl, vr) = v.split_at_mut(mid);
    let (bl, br) = buf.split_at_mut(mid);
    join(|| sort_rec(vl, bl, cmp), || sort_rec(vr, br, cmp));
    // Skip the merge when the halves are already in order (common for
    // nearly-sorted inputs). The check is a pure function of the sorted
    // halves — themselves pure functions of the input — so taking it or
    // not is identical at every thread count; and since `!= Greater` is
    // exactly the condition under which the left-preferential merge would
    // copy all of the left half first, skipping changes nothing.
    if cmp(&v[mid - 1], &v[mid]) != Ordering::Greater {
        return;
    }
    merge(v, buf, mid, cmp);
}

/// Merge the sorted halves `v[..mid]` and `v[mid..]` through `buf`.
/// Left-preferential on ties (`!= Greater` takes left), which both fixes the
/// tie order deterministically and yields stability.
fn merge<T, F>(v: &mut [T], buf: &mut [MaybeUninit<T>], mid: usize, cmp: &F)
where
    F: Fn(&T, &T) -> Ordering + Sync + ?Sized,
{
    let n = v.len();
    assert!(
        buf.len() == n && mid <= n,
        "scratch and split fit the slice"
    );
    let guard = AbortOnUnwind("comparator panicked during parallel merge");
    // SAFETY: `buf` is exactly as long as `v` (asserted) and disjoint from
    // it (two `&mut`), so every copy below stays in bounds of both.
    // Everything shuffles bitwise copies between `v` and the scratch; every
    // element ends up in `v` exactly once (asserted below), and the scratch
    // never drops. A comparator panic would leave duplicates, which the
    // guard converts to an abort.
    // Driven by `tests/cross_process.rs::many_submitters_run_every_chunk_exactly_once`
    // (sorts nested in eight submitters' regions at once).
    unsafe {
        ptr::copy_nonoverlapping(v.as_ptr(), buf.as_mut_ptr() as *mut T, n);
        let b = buf.as_ptr() as *const T;
        let out = v.as_mut_ptr();
        let (mut i, mut j, mut k) = (0usize, mid, 0usize);
        while i < mid && j < n {
            let src = if cmp(&*b.add(i), &*b.add(j)) != Ordering::Greater {
                let s = i;
                i += 1;
                s
            } else {
                let s = j;
                j += 1;
                s
            };
            ptr::copy_nonoverlapping(b.add(src), out.add(k), 1);
            k += 1;
        }
        // the merged prefix took `i` from the left run and `j - mid` from
        // the right; the two tails fill the rest of `v` exactly
        debug_assert_eq!(k, i + (j - mid));
        debug_assert_eq!(k + (mid - i) + (n - j), n);
        if i < mid {
            ptr::copy_nonoverlapping(b.add(i), out.add(k), mid - i);
        }
        if j < n {
            ptr::copy_nonoverlapping(b.add(j), out.add(k), n - j);
        }
    }
    std::mem::forget(guard);
}
