//! The bucket priority structure of delta-stepping.
//!
//! Distances are binned into buckets of width Δ; bucket `k` holds vertices
//! with tentative distance in `[kΔ, (k+1)Δ)`. Entries are *lazy*: a vertex
//! whose distance improves is simply inserted again into its new bucket, and
//! stale entries are filtered at pop time by re-checking the vertex's
//! current bucket — the standard trick that avoids a decrease-key.
//!
//! # Layout
//!
//! One `Vec<u32>` lane a bucket, in insertion order, and a cursor at the
//! lowest lane that may be non-empty: an insert below it pulls it back, and
//! `min_bucket` walks it forward over empty lanes to the next occupied one.
//! A lane is walked again only after an insert lands below the cursor. The
//! walk is short where it runs: about one empty lane a call that finds a
//! bucket on the benchmark's Kronecker configurations, 1.1–7.9 on the
//! `almost_line` and `grid_swirl` adversaries. A 64-way occupancy bitmap
//! over the lanes was slower than this walk on the perf gate's own drain
//! loop, so the queue keeps none. Every drain returns its lane verbatim:
//! the kernels see insertion order within a bucket, ascending bucket index
//! across them.

use g500_graph::Weight;

/// A lazy bucket queue over local vertex indices.
#[derive(Clone, Debug)]
pub struct BucketQueue {
    delta: Weight,
    /// `buckets[k]` holds (possibly stale) vertices for bucket index `k`,
    /// in insertion order.
    buckets: Vec<Vec<u32>>,
    /// Index of the lowest bucket that may be non-empty.
    cursor: usize,
    /// Number of entries across lanes, stale duplicates included.
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

    /// Insert vertex `v` with tentative distance `d` (lazy; duplicates OK).
    /// The lane array grows geometrically (at least 64 lanes, a power of
    /// two), which the snapshot's lane count records.
    pub fn insert(&mut self, v: u32, d: Weight) {
        let k = self.bucket_of(d);
        if k >= self.buckets.len() {
            let new_len = (k + 1).next_power_of_two().max(64);
            self.buckets.resize_with(new_len, Vec::new);
        }
        self.buckets[k].push(v);
        self.entries += 1;
        self.cursor = self.cursor.min(k);
    }

    /// Lowest bucket index that currently has entries, advancing the cursor
    /// past drained buckets. `None` when the queue is empty.
    pub fn min_bucket(&mut self) -> Option<usize> {
        let ahead = &self.buckets[self.cursor..];
        let skip = ahead.iter().position(|lane| !lane.is_empty());
        self.cursor += skip.unwrap_or(ahead.len());
        skip.map(|_| self.cursor)
    }

    /// Remove and return the raw (possibly stale) contents of bucket `k`.
    /// Callers must filter entries against the current distance array.
    pub fn take_bucket(&mut self, k: usize) -> Vec<u32> {
        let Some(lane) = self.buckets.get_mut(k) else {
            return Vec::new();
        };
        let v = std::mem::take(lane);
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
    /// tail fusion, which stops caring about bucket order): ascending bucket
    /// index from the cursor, insertion order within a bucket.
    pub fn drain_all(&mut self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.entries);
        for lane in &mut self.buckets[self.cursor..] {
            out.append(lane);
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
    fn sparse_far_bucket_is_found_past_empty_lanes() {
        // bucket ~100_000 lies past ~100k empty lanes, every one of which
        // the cursor walks over
        let mut q = BucketQueue::new(0.001);
        let k = q.bucket_of(100.0); // ~100_000 (f32 division is inexact)
        assert!(k > 64 * 64, "far past the first lanes");
        q.insert(7, 100.0);
        assert_eq!(q.min_bucket(), Some(k));
        assert_eq!(q.take_bucket(k), vec![7]);
        assert_eq!(q.min_bucket(), None);
        // cursor is far right; a fresh low insert must pull it back
        q.insert(8, 0.0);
        assert_eq!(q.min_bucket(), Some(0));
    }

    #[test]
    fn cursor_stops_at_each_occupied_lane() {
        let mut q = BucketQueue::new(1.0);
        // two occupied buckets with empty lanes between them
        q.insert(1, 3.0);
        q.insert(2, 7.0);
        assert_eq!(q.take_bucket(3), vec![1]);
        // the cursor walks from 0 past the drained lane 3 to lane 7
        assert_eq!(q.min_bucket(), Some(7));
        assert_eq!(q.take_bucket(7), vec![2]);
        assert_eq!(q.min_bucket(), None);
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // Bucket 80 grows the lane array to 128 lanes (at least 64, a power
        // of two): the lane count and the cursor are saved, so a change to
        // either policy moves checkpoint bytes and fails here.
        let mut q = BucketQueue::new(0.5);
        q.insert(3, 0.2);
        q.insert(9, 40.0);
        q.insert(4, 0.3);
        q.insert(9, 40.2);
        assert_eq!(q.min_bucket(), Some(0));
        assert_eq!(q.take_bucket(0), vec![3, 4]);
        assert_eq!(q.min_bucket(), Some(80));
        let mut snap = Vec::new();
        q.save(&mut snap);
        let words: [u64; 6] = [0.5f32.to_bits() as u64, 128, 80, 1, 80, 2];
        let mut want: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        want.extend([9u32, 9].iter().flat_map(|v| v.to_le_bytes()));
        assert_eq!(snap, want);
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
        // Vec<Vec<u32>> + scan-from-zero model
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
