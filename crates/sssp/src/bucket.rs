//! The bucket priority structure of delta-stepping.
//!
//! Distances are binned into buckets of width Δ; bucket `k` holds vertices
//! with tentative distance in `[kΔ, (k+1)Δ)`. Entries are *lazy*: a vertex
//! whose distance improves is simply inserted again into its new bucket, and
//! stale entries are filtered at pop time by re-checking the vertex's
//! current bucket — the standard trick that avoids a decrease-key.
//!
//! # Radix layout
//!
//! Finding the next non-empty bucket used to be a linear cursor scan —
//! `O(#buckets)` per epoch, which dominates on long-diameter graphs where
//! most buckets are empty (road networks, `almost_line` adversaries). The
//! queue now keeps a multi-level occupancy bitmap over the bucket lanes:
//! level 0 has one bit per bucket, and each level above summarizes 64 words
//! of the level below, so `min_bucket` is a masked-word scan plus one
//! descent — `O(64 · levels)` with `levels = ⌈log₆₄ #buckets⌉` (3 levels
//! covers 16M buckets). The lanes themselves are unchanged `Vec<u32>`s in
//! insertion order, so every drain returns bitwise-identical contents in
//! the identical order as the linear-scan layout — the shared-memory
//! delta-stepping determinism contract does not see the index at all.

use g500_graph::Weight;

/// A lazy bucket queue over local vertex indices, indexed by a multi-level
/// occupancy bitmap.
#[derive(Clone, Debug)]
pub struct BucketQueue {
    delta: Weight,
    /// `buckets[k]` holds (possibly stale) vertices for bucket index `k`,
    /// in insertion order. Length is kept a multiple of the bitmap fanout.
    buckets: Vec<Vec<u32>>,
    /// Occupancy bitmaps: `levels[0]` has one bit per bucket (bit set ⇔
    /// lane non-empty); `levels[l][w]` bit `b` is set ⇔ word
    /// `levels[l-1][w·64 + b]` is non-zero. The top level is one word.
    levels: Vec<Vec<u64>>,
    /// Index of the lowest bucket that may be non-empty.
    cursor: usize,
    /// Number of live entries (upper bound; staleness makes it approximate,
    /// exact emptiness is checked against the occupancy index).
    entries: usize,
}

impl BucketQueue {
    /// New queue with bucket width `delta`.
    pub fn new(delta: Weight) -> Self {
        assert!(
            delta > 0.0 && delta.is_finite(),
            "delta must be positive and finite"
        );
        Self {
            delta,
            buckets: Vec::new(),
            levels: Vec::new(),
            cursor: 0,
            entries: 0,
        }
    }

    /// Bucket width.
    #[inline]
    pub fn delta(&self) -> Weight {
        self.delta
    }

    /// Bucket index of distance `d`.
    #[inline]
    pub fn bucket_of(&self, d: Weight) -> usize {
        debug_assert!(d.is_finite() && d >= 0.0);
        (d / self.delta) as usize
    }

    /// Grow the lane array (geometrically) and rebuild the bitmap pyramid
    /// so bucket `k` is addressable. Amortized O(1) per insert; the
    /// rebuild touches only `#buckets / 64` words.
    fn ensure_bucket(&mut self, k: usize) {
        if k < self.buckets.len() {
            return;
        }
        let new_len = (k + 1).next_power_of_two().max(64);
        self.buckets.resize_with(new_len, Vec::new);
        // Rebuild the pyramid bottom-up; existing occupancy is preserved
        // because lanes were only extended with empties.
        self.rebuild_index();
    }

    /// Set bucket `k`'s occupancy bit, propagating up the pyramid.
    #[inline]
    fn mark(&mut self, k: usize) {
        let mut idx = k;
        for level in &mut self.levels {
            let bit = 1u64 << (idx & 63);
            let word = &mut level[idx >> 6];
            if *word & bit != 0 {
                return; // ancestors already set
            }
            *word |= bit;
            idx >>= 6;
        }
    }

    /// Clear bucket `k`'s occupancy bit, clearing summary bits whose whole
    /// word drained.
    #[inline]
    fn unmark(&mut self, k: usize) {
        let mut idx = k;
        for level in &mut self.levels {
            let word = &mut level[idx >> 6];
            *word &= !(1u64 << (idx & 63));
            if *word != 0 {
                return; // word still occupied: summaries stay set
            }
            idx >>= 6;
        }
    }

    /// First occupied bucket `≥ from`, via masked-word ascent then descent.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        if self.levels.is_empty() || from >= self.buckets.len() {
            return None;
        }
        let mut level = 0;
        let mut idx = from;
        loop {
            let (w, b) = (idx >> 6, idx & 63);
            let word = self.levels[level].get(w).map_or(0, |&x| x & (!0u64 << b));
            if word != 0 {
                idx = (w << 6) + word.trailing_zeros() as usize;
                while level > 0 {
                    level -= 1;
                    let w = self.levels[level][idx];
                    debug_assert!(w != 0, "summary bit set over empty word");
                    idx = (idx << 6) + w.trailing_zeros() as usize;
                }
                return Some(idx);
            }
            // this word is clear at and above `b`: resume one level up,
            // strictly after the word we just exhausted
            level += 1;
            if level >= self.levels.len() {
                return None;
            }
            idx = w + 1;
        }
    }

    /// Insert vertex `v` with tentative distance `d` (lazy; duplicates OK).
    pub fn insert(&mut self, v: u32, d: Weight) {
        let k = self.bucket_of(d);
        self.ensure_bucket(k);
        self.buckets[k].push(v);
        self.mark(k);
        self.entries += 1;
        if k < self.cursor {
            self.cursor = k;
        }
    }

    /// Lowest bucket index that currently has entries, advancing the cursor
    /// past drained buckets. `None` when the queue is empty.
    pub fn min_bucket(&mut self) -> Option<usize> {
        let found = self.first_occupied_from(self.cursor);
        self.cursor = found.unwrap_or(self.buckets.len());
        found
    }

    /// Remove and return the raw (possibly stale) contents of bucket `k`.
    /// Callers must filter entries against the current distance array.
    pub fn take_bucket(&mut self, k: usize) -> Vec<u32> {
        if k >= self.buckets.len() {
            return Vec::new();
        }
        let v = std::mem::take(&mut self.buckets[k]);
        if !v.is_empty() {
            self.unmark(k);
        }
        self.entries -= v.len();
        v
    }

    /// The raw (possibly stale) contents of bucket `k`, left in place.
    pub fn bucket(&self, k: usize) -> &[u32] {
        self.buckets.get(k).map_or(&[], Vec::as_slice)
    }

    /// Raw size of bucket `k` including stale entries.
    pub fn bucket_len(&self, k: usize) -> usize {
        self.buckets.get(k).map_or(0, Vec::len)
    }

    /// Remove and return *all* remaining entries of *all* buckets (used by
    /// tail fusion, which stops caring about bucket order). Order is
    /// ascending bucket index, insertion order within a bucket — identical
    /// to the pre-radix linear sweep.
    pub fn drain_all(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.entries);
        let mut k = self.cursor;
        while let Some(next) = self.first_occupied_from(k) {
            out.append(&mut self.buckets[next]);
            self.unmark(next);
            k = next + 1;
        }
        self.entries = 0;
        out
    }

    /// Total entries across buckets, counting stale duplicates.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no entries remain (stale or otherwise).
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Rebuild the occupancy pyramid from the current lane contents.
    fn rebuild_index(&mut self) {
        if self.buckets.is_empty() {
            self.levels.clear();
            return;
        }
        let mut words = self.buckets.len().div_ceil(64);
        let mut fresh: Vec<Vec<u64>> = Vec::new();
        loop {
            fresh.push(vec![0u64; words]);
            if words <= 1 {
                break;
            }
            words = words.div_ceil(64);
        }
        for (k, lane) in self.buckets.iter().enumerate() {
            if !lane.is_empty() {
                fresh[0][k >> 6] |= 1u64 << (k & 63);
            }
        }
        for l in 1..fresh.len() {
            for w in 0..fresh[l - 1].len() {
                if fresh[l - 1][w] != 0 {
                    fresh[l][w >> 6] |= 1u64 << (w & 63);
                }
            }
        }
        self.levels = fresh;
    }

    /// Append an exact snapshot to `out`: lane-array length, cursor, and
    /// every non-empty lane verbatim. Stale entries are included on
    /// purpose — rollback determinism is defined as bitwise equality with
    /// the fault-free run, and staleness is part of the queue's behavior.
    pub fn save(&self, out: &mut Vec<u8>) {
        use simnet::recovery::codec;
        codec::put(out, self.delta.to_bits() as u64);
        codec::put(out, self.buckets.len() as u64);
        codec::put(out, self.cursor as u64);
        let occupied = self.buckets.iter().filter(|l| !l.is_empty()).count();
        codec::put(out, occupied as u64);
        for (k, lane) in self.buckets.iter().enumerate() {
            if !lane.is_empty() {
                codec::put(out, k as u64);
                codec::put_slice(out, lane);
            }
        }
    }

    /// Restore from a snapshot written by [`BucketQueue::save`] at `*pos`,
    /// advancing it. The queue must have been constructed with the same
    /// `delta` the snapshot was taken under.
    pub fn load(&mut self, buf: &[u8], pos: &mut usize) {
        use simnet::recovery::codec;
        let delta_bits = codec::get::<u64>(buf, pos) as u32;
        assert_eq!(
            delta_bits,
            self.delta.to_bits(),
            "checkpoint bucket width does not match the live queue"
        );
        let len = codec::get::<u64>(buf, pos) as usize;
        self.buckets.clear();
        self.buckets.resize_with(len, Vec::new);
        self.cursor = codec::get::<u64>(buf, pos) as usize;
        self.entries = 0;
        let occupied = codec::get::<u64>(buf, pos) as usize;
        for _ in 0..occupied {
            let k = codec::get::<u64>(buf, pos) as usize;
            let lane = codec::get_vec::<u32>(buf, pos);
            self.entries += lane.len();
            self.buckets[k] = lane;
        }
        self.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        let q = BucketQueue::new(0.5);
        assert_eq!(q.bucket_of(0.0), 0);
        assert_eq!(q.bucket_of(0.49), 0);
        assert_eq!(q.bucket_of(0.5), 1);
        assert_eq!(q.bucket_of(2.75), 5);
    }

    #[test]
    fn insert_and_take_in_order() {
        let mut q = BucketQueue::new(1.0);
        q.insert(10, 2.5);
        q.insert(20, 0.5);
        q.insert(30, 2.9);
        assert_eq!(q.min_bucket(), Some(0));
        assert_eq!(q.take_bucket(0), vec![20]);
        assert_eq!(q.min_bucket(), Some(2));
        let mut b2 = q.take_bucket(2);
        b2.sort_unstable();
        assert_eq!(b2, vec![10, 30]);
        assert_eq!(q.min_bucket(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn reinsertion_moves_cursor_back() {
        let mut q = BucketQueue::new(1.0);
        q.insert(1, 5.0);
        assert_eq!(q.min_bucket(), Some(5));
        // an improvement re-inserts at a lower bucket
        q.insert(1, 0.5);
        assert_eq!(q.min_bucket(), Some(0));
    }

    #[test]
    fn drain_all_empties_everything() {
        let mut q = BucketQueue::new(0.25);
        for i in 0..10u32 {
            q.insert(i, i as f32 * 0.3);
        }
        assert_eq!(q.len(), 10);
        let mut all = q.drain_all();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u32>>());
        assert!(q.is_empty());
        assert_eq!(q.min_bucket(), None);
    }

    #[test]
    fn take_out_of_range_is_empty() {
        let mut q = BucketQueue::new(1.0);
        assert_eq!(q.take_bucket(99), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn bad_delta_rejected() {
        BucketQueue::new(0.0);
    }

    #[test]
    fn sparse_far_bucket_crosses_bitmap_words() {
        // bucket 100_000 needs 2 pyramid levels; the scan must skip ~1.5k
        // empty level-0 words without visiting them
        let mut q = BucketQueue::new(0.001);
        let k = q.bucket_of(100.0); // ~100_000 (f32 division is inexact)
        assert!(k > 64 * 64, "must exceed one summary word of buckets");
        q.insert(7, 100.0);
        assert_eq!(q.min_bucket(), Some(k));
        assert_eq!(q.take_bucket(k), vec![7]);
        assert_eq!(q.min_bucket(), None);
        // cursor is far right; a fresh low insert must pull it back
        q.insert(8, 0.0);
        assert_eq!(q.min_bucket(), Some(0));
    }

    #[test]
    fn summary_bits_clear_only_when_word_drains() {
        let mut q = BucketQueue::new(1.0);
        // two occupied buckets inside the same level-0 word
        q.insert(1, 3.0);
        q.insert(2, 7.0);
        assert_eq!(q.take_bucket(3), vec![1]);
        // word still occupied through bucket 7
        assert_eq!(q.min_bucket(), Some(7));
        assert_eq!(q.take_bucket(7), vec![2]);
        assert_eq!(q.min_bucket(), None);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut q = BucketQueue::new(0.5);
        for i in 0..200u32 {
            q.insert(i, (i % 37) as f32 * 0.21);
        }
        // drain a couple of buckets so cursor and stale structure are
        // mid-flight, then improve one vertex to create a stale duplicate
        let k = q.min_bucket().unwrap();
        q.take_bucket(k);
        q.insert(140, 0.1);
        let mut snap = Vec::new();
        q.save(&mut snap);
        let mut r = BucketQueue::new(0.5);
        let mut pos = 0;
        r.load(&snap, &mut pos);
        assert_eq!(pos, snap.len());
        assert_eq!(r.len(), q.len());
        // the restored queue must drain identically to the original
        loop {
            let (a, b) = (q.min_bucket(), r.min_bucket());
            assert_eq!(a, b);
            match a {
                Some(k) => assert_eq!(q.take_bucket(k), r.take_bucket(k)),
                None => break,
            }
        }
        // and a second snapshot of the restored queue is byte-identical
        let mut q2 = BucketQueue::new(0.5);
        let mut r2 = BucketQueue::new(0.5);
        let mut pos = 0;
        q2.load(&snap, &mut pos);
        let mut pos = 0;
        r2.load(&snap, &mut pos);
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        q2.save(&mut s1);
        r2.save(&mut s2);
        assert_eq!(s1, s2);
        assert_eq!(s1, snap);
    }

    #[test]
    #[should_panic(expected = "bucket width does not match")]
    fn snapshot_delta_mismatch_rejected() {
        let mut q = BucketQueue::new(0.5);
        q.insert(1, 0.1);
        let mut snap = Vec::new();
        q.save(&mut snap);
        let mut r = BucketQueue::new(0.25);
        r.load(&snap, &mut 0);
    }

    #[test]
    fn interleaved_ops_match_naive_model() {
        // deterministic pseudo-random op stream checked against a plain
        // Vec<Vec<u32>> + linear-scan model
        let mut q = BucketQueue::new(0.5);
        let mut model: Vec<Vec<u32>> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..2000u32 {
            let d = (rng() % 700) as f32 * 0.07;
            q.insert(i, d);
            let k = (d / 0.5) as usize;
            if k >= model.len() {
                model.resize_with(k + 1, Vec::new);
            }
            model[k].push(i);
            if rng() % 3 == 0 {
                let got = q.min_bucket();
                let want = model.iter().position(|b| !b.is_empty());
                assert_eq!(got, want);
                if let Some(k) = got {
                    assert_eq!(q.bucket_len(k), model[k].len());
                    assert_eq!(q.take_bucket(k), std::mem::take(&mut model[k]));
                }
            }
        }
        let drained = q.drain_all();
        let expect: Vec<u32> = model.iter().flatten().copied().collect();
        assert_eq!(drained, expect);
        assert!(q.is_empty());
    }
}
