//! The relaxation-update records and their message codec.
//!
//! An update is `(target vertex, new distance, parent)` — 20 raw bytes. At
//! benchmark scale the exchange volume is the dominant network load, so the
//! optimized kernel ships updates sorted by target with gap+varint coded
//! ids and varint parents (distances stay raw `f32`: Graph500 weights are
//! uniform random, there is no entropy to remove). Sortedness comes for
//! free from the dedup ("on-chip sort") stage. Experiment F6 measures the
//! achieved ratio.
//!
//! There are two record types — the solo kernel's [`Update`] and the batched
//! kernel's lane-tagged [`TaggedUpdate`] — and one of everything else: one
//! trait ([`Record`]) says what the exchange and the kernel need of a record,
//! one comparator orders both by `(lane, target, distance, parent)` with the
//! solo record in lane 0, and one [`dedup_min`] and one sort-before-encode
//! use it. So what a lane ships and the order it arrives in are functions of
//! its update *set* — independent of the emission interleave and of which
//! record type carries it — and a one-lane batch is its solo run to the bit.
//! Only the two wire formats differ: a solo message is one gap+varint block,
//! a batched one a lane-grouped sequence of them.

use g500_graph::compress::{read_varint, write_varint};
use simnet::Wire;
use std::borrow::Cow;
use std::cmp::Ordering;

/// One relaxation request: (global target, tentative distance, global parent).
pub type Update = (u64, f32, u64);

/// One lane-tagged relaxation request of the batched kernel:
/// (lane index, global target, tentative distance, global parent).
pub type TaggedUpdate = (u32, u64, f32, u64);

/// A relaxation record the exchange can ship and the kernel can stage: an
/// [`Update`] behind a lane tag. The solo record's tag is `()`, lane 0 in no
/// bytes — a solo run's bytes, charges and pinned goldens know nothing of
/// lanes; the batched record's is the `u32` in front of a [`TaggedUpdate`].
/// A light pull's frontier entries `(tag, vertex, dist)` and a heavy fetch's
/// requests `(tag, id)` carry the tag the same way.
pub trait Record: Wire + Copy + Send + Sync {
    /// The lane tag as it travels.
    type Tag: Wire + Copy + Ord + Send + Sync;
    /// Message tag of the non-coalesced one-record messages.
    const SINGLE_TAG: u64;
    /// Second argument of the exchange's trace events.
    const TRACE_FLAVOR: u64;
    /// Lane `lane`'s tag.
    fn tag(lane: u32) -> Self::Tag;
    /// The lane a tag names.
    fn lane(tag: Self::Tag) -> u32;
    /// `update`, as lane `lane`'s.
    fn pack(lane: u32, update: Update) -> Self;
    /// The record's lane and update.
    fn unpack(self) -> (u32, Update);
    /// Compress `records`; `sorted` promises they are already in canonical
    /// order.
    fn encode(records: &[Self], sorted: bool) -> Vec<u8>;
    /// Inverse of [`encode`](Self::encode); `None` on malformed input.
    fn decode(buf: &[u8]) -> Option<Vec<Self>>;
}

impl Record for Update {
    type Tag = ();
    const SINGLE_TAG: u64 = 0x5550;
    const TRACE_FLAVOR: u64 = 0;
    fn tag(_: u32) {}
    fn lane(_: ()) -> u32 {
        0
    }
    fn pack(_: u32, update: Update) -> Update {
        update
    }
    fn unpack(self) -> (u32, Update) {
        (0, self)
    }
    fn encode(records: &[Self], sorted: bool) -> Vec<u8> {
        encode_updates(records, sorted)
    }
    fn decode(buf: &[u8]) -> Option<Vec<Self>> {
        decode_updates(buf)
    }
}

impl Record for TaggedUpdate {
    type Tag = u32;
    const SINGLE_TAG: u64 = 0x5551;
    const TRACE_FLAVOR: u64 = 1;
    fn tag(lane: u32) -> u32 {
        lane
    }
    fn lane(tag: u32) -> u32 {
        tag
    }
    fn pack(lane: u32, (v, d, parent): Update) -> TaggedUpdate {
        (lane, v, d, parent)
    }
    fn unpack(self) -> (u32, Update) {
        (self.0, (self.1, self.2, self.3))
    }
    fn encode(records: &[Self], sorted: bool) -> Vec<u8> {
        encode_tagged(records, sorted)
    }
    fn decode(buf: &[u8]) -> Option<Vec<Self>> {
        decode_tagged(buf)
    }
}

/// The canonical total order of records: lane, then target, then distance,
/// then parent. Dedup and both compressed wire formats sort by this *full*
/// key, so the bytes shipped (and the post-dedup apply order) are a pure
/// function of the update set.
fn canonical<R: Record>(a: &R, b: &R) -> Ordering {
    let ((la, (ta, da, pa)), (lb, (tb, db, pb))) = (a.unpack(), b.unpack());
    (la, ta)
        .cmp(&(lb, tb))
        .then(da.total_cmp(&db))
        .then(pa.cmp(&pb))
}

/// Sort canonically and keep the minimum (distance, parent) per (lane,
/// target) — the "on-chip sort" dedup stage. Returns the number of records
/// eliminated.
pub fn dedup_min<R: Record>(records: &mut Vec<R>) -> usize {
    records.sort_unstable_by(canonical);
    let before = records.len();
    records.dedup_by_key(|r| {
        let (lane, (target, ..)) = r.unpack();
        (lane, target)
    }); // keeps the first = min
    before - records.len()
}

/// `records` in canonical order, which both wire formats require: as given
/// when `sorted` promises it or one linear pass finds it, else a sorted copy.
fn in_wire_order<R: Record>(records: &[R], sorted: bool) -> Cow<'_, [R]> {
    if sorted || records.is_sorted_by(|a, b| canonical(a, b).is_le()) {
        return Cow::Borrowed(records);
    }
    let mut copy = records.to_vec();
    copy.sort_unstable_by(canonical);
    Cow::Owned(copy)
}

/// Encode updates. If `sorted` is false and the slice is not in canonical
/// order it is copied and sorted first.
pub fn encode_updates(updates: &[Update], sorted: bool) -> Vec<u8> {
    let updates = in_wire_order(updates, sorted);
    let mut out = Vec::with_capacity(4 + updates.len() * 10);
    write_block(&mut out, &updates);
    out
}

/// Append one gap+varint block — the unit both wire formats are made of:
/// record count, target gaps, raw `f32` distances, varint parents. The
/// records must be of one lane, in non-decreasing target order.
fn write_block<R: Record>(out: &mut Vec<u8>, records: &[R]) {
    let fields = |r: &R| r.unpack().1;
    write_varint(out, records.len() as u64);
    let mut prev = 0u64;
    for r in records {
        let t = fields(r).0;
        write_varint(out, t - prev);
        prev = t;
    }
    for r in records {
        out.extend_from_slice(&fields(r).1.to_le_bytes());
    }
    for r in records {
        write_varint(out, fields(r).2);
    }
}

/// Decode one block written by [`write_block`] onto the end of `out`:
/// `new(target)` makes each record and `slots` exposes its (distance,
/// parent) fields, which the later columns fill in place. `None` on
/// malformed input.
fn read_block<R>(
    buf: &[u8],
    pos: &mut usize,
    out: &mut Vec<R>,
    new: impl Fn(u64) -> R,
    slots: impl Fn(&mut R) -> (&mut f32, &mut u64),
) -> Option<()> {
    let n = read_varint(buf, pos)? as usize;
    let base = out.len();
    // every record takes at least one byte, which bounds a hostile count
    out.reserve(n.min(buf.len() - *pos));
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.checked_add(read_varint(buf, pos)?)?;
        out.push(new(prev));
    }
    for r in &mut out[base..] {
        let end = pos.checked_add(4)?;
        *slots(r).0 = f32::from_le_bytes(buf.get(*pos..end)?.try_into().ok()?);
        *pos = end;
    }
    for r in &mut out[base..] {
        *slots(r).1 = read_varint(buf, pos)?;
    }
    Some(())
}

/// Decode a buffer produced by [`encode_updates`]. `None` on malformed
/// input.
pub fn decode_updates(buf: &[u8]) -> Option<Vec<Update>> {
    let mut pos = 0;
    let mut out = Vec::new();
    read_block(
        buf,
        &mut pos,
        &mut out,
        |t| (t, 0.0, 0),
        |r| (&mut r.1, &mut r.2),
    )?;
    (pos == buf.len()).then_some(out)
}

/// Encode tagged updates: lane-grouped, each group a gap+varint target
/// block exactly like [`encode_updates`]. If `sorted` is false and the slice
/// is not in canonical order it is copied and sorted first.
pub fn encode_tagged(updates: &[TaggedUpdate], sorted: bool) -> Vec<u8> {
    let updates = in_wire_order(updates, sorted);
    let mut out = Vec::with_capacity(8 + updates.len() * 11);
    // count the lane groups first (one linear pass over the lane column)
    let groups = updates
        .iter()
        .enumerate()
        .filter(|(i, u)| *i == 0 || updates[i - 1].0 != u.0)
        .count();
    write_varint(&mut out, groups as u64);
    let mut i = 0usize;
    while i < updates.len() {
        let lane = updates[i].0;
        let j = updates[i..]
            .iter()
            .position(|u| u.0 != lane)
            .map_or(updates.len(), |off| i + off);
        write_varint(&mut out, lane as u64);
        write_block(&mut out, &updates[i..j]);
        i = j;
    }
    out
}

/// Decode a buffer produced by [`encode_tagged`]. `None` on malformed
/// input.
pub fn decode_tagged(buf: &[u8]) -> Option<Vec<TaggedUpdate>> {
    let mut pos = 0;
    let groups = read_varint(buf, &mut pos)?;
    let mut out = Vec::new();
    for _ in 0..groups {
        let lane = u32::try_from(read_varint(buf, &mut pos)?).ok()?;
        read_block(
            buf,
            &mut pos,
            &mut out,
            |t| (lane, t, 0.0, 0),
            |r| (&mut r.2, &mut r.3),
        )?;
    }
    (pos == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Update> {
        vec![(5, 0.5, 100), (7, 0.25, 2), (7, 0.75, 3), (1000, 1.5, 999)]
    }

    #[test]
    fn roundtrip_sorted() {
        let u = sample();
        let enc = encode_updates(&u, true);
        assert_eq!(decode_updates(&enc), Some(u));
    }

    #[test]
    fn roundtrip_unsorted_gets_sorted() {
        let mut u = sample();
        u.reverse();
        let enc = encode_updates(&u, false);
        let dec = decode_updates(&enc).unwrap();
        assert!(dec.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(dec.len(), 4);
    }

    #[test]
    fn empty_roundtrip() {
        let enc = encode_updates(&[], true);
        assert_eq!(decode_updates(&enc), Some(vec![]));
    }

    #[test]
    fn compression_beats_raw_on_clustered_targets() {
        // targets in one rank's contiguous range — the realistic case
        let updates: Vec<Update> = (0..1000u64)
            .map(|i| (100_000 + i * 3, 0.5, 77_000 + i))
            .collect();
        let enc = encode_updates(&updates, true);
        let raw = updates.len() * 20;
        assert!(
            enc.len() * 3 < raw * 2,
            "ratio only {:.2}",
            raw as f64 / enc.len() as f64
        );
    }

    #[test]
    fn truncated_rejected() {
        let enc = encode_updates(&sample(), true);
        assert_eq!(decode_updates(&enc[..enc.len() - 1]), None);
        assert_eq!(decode_updates(&[]), None);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = encode_updates(&sample(), true);
        enc.push(0);
        assert_eq!(decode_updates(&enc), None);
    }

    #[test]
    fn dedup_keeps_min_per_target() {
        let mut u = vec![
            (7u64, 0.75f32, 3u64),
            (5, 0.5, 100),
            (7, 0.25, 2),
            (7, 0.9, 4),
        ];
        let removed = dedup_min(&mut u);
        assert_eq!(removed, 2);
        assert_eq!(u, vec![(5, 0.5, 100), (7, 0.25, 2)]);
    }

    #[test]
    fn dedup_noop_on_unique_targets() {
        let mut u = vec![(1u64, 0.1f32, 0u64), (2, 0.2, 0)];
        assert_eq!(dedup_min(&mut u), 0);
        assert_eq!(u.len(), 2);
    }

    fn tagged_sample() -> Vec<TaggedUpdate> {
        vec![
            (0, 5, 0.5, 100),
            (0, 900, 1.5, 3),
            (2, 5, 0.25, 7),
            (2, 6, 0.75, 7),
            (7, 0, 0.0, 0),
        ]
    }

    #[test]
    fn tagged_roundtrip_sorted() {
        let u = tagged_sample();
        let enc = encode_tagged(&u, true);
        assert_eq!(decode_tagged(&enc), Some(u));
    }

    #[test]
    fn tagged_roundtrip_unsorted_gets_canonical() {
        let mut u = tagged_sample();
        u.reverse();
        let enc = encode_tagged(&u, false);
        assert_eq!(decode_tagged(&enc), Some(tagged_sample()));
    }

    #[test]
    fn tagged_empty_and_truncated() {
        let enc = encode_tagged(&[], true);
        assert_eq!(decode_tagged(&enc), Some(vec![]));
        let enc = encode_tagged(&tagged_sample(), true);
        assert_eq!(decode_tagged(&enc[..enc.len() - 1]), None);
        let mut garbled = enc.clone();
        garbled.push(0);
        assert_eq!(decode_tagged(&garbled), None);
    }

    #[test]
    fn dedup_is_input_order_independent() {
        // same multiset, two emission orders: identical survivor list, for
        // either record type — the solo record is the tagged one in lane 0,
        // down to which parent wins an exact (target, distance) tie
        fn survivors<R: Record + PartialEq + std::fmt::Debug>(emitted: &[TaggedUpdate]) -> Vec<R> {
            let pack = |&(lane, t, d, p): &TaggedUpdate| R::pack(lane, (t, d, p));
            let mut a: Vec<R> = emitted.iter().map(pack).collect();
            let mut b: Vec<R> = emitted.iter().rev().map(pack).collect();
            assert_eq!(dedup_min(&mut a), dedup_min(&mut b));
            assert_eq!(a, b);
            a
        }
        let emitted = [
            (1u32, 9u64, 0.5f32, 4u64),
            (1, 9, 0.5, 2),
            (0, 9, 0.5, 8),
            (1, 9, 0.25, 6),
            (0, 9, 0.5, 3),
        ];
        let tagged = survivors::<TaggedUpdate>(&emitted);
        assert_eq!(tagged, vec![(0, 9, 0.5, 3), (1, 9, 0.25, 6)]);
        for lane in [0, 1] {
            let of_lane: Vec<TaggedUpdate> =
                emitted.iter().filter(|u| u.0 == lane).copied().collect();
            let solo = survivors::<Update>(&of_lane);
            let same: Vec<Update> = tagged
                .iter()
                .filter(|u| u.0 == lane)
                .map(|u| u.unpack().1)
                .collect();
            assert_eq!(solo, same, "lane {lane}");
        }
    }

    #[test]
    fn unsorted_input_is_encoded_in_canonical_order() {
        // sorted by target but not by the full key: the solo encoder used
        // to ship such a slice as given, so a tie's arrival order depended
        // on the emission interleave
        let tied = vec![(7u64, 0.5f32, 9u64), (7, 0.5, 2), (7, 0.25, 4)];
        let canonical = vec![(7, 0.25, 4), (7, 0.5, 2), (7, 0.5, 9)];
        assert_eq!(
            decode_updates(&encode_updates(&tied, false)),
            Some(canonical)
        );
    }

    #[test]
    fn tagged_grouping_compresses_shared_lanes() {
        let updates: Vec<TaggedUpdate> = (0..1000u64)
            .map(|i| ((i % 4) as u32, 100_000 + (i / 4) * 3, 0.5, 77_000 + i))
            .collect();
        let mut sorted = updates.clone();
        sorted.sort_unstable_by(canonical);
        let enc = encode_tagged(&sorted, true);
        let raw = updates.len() * 24;
        assert!(
            enc.len() * 3 < raw * 2,
            "ratio only {:.2}",
            raw as f64 / enc.len() as f64
        );
    }
}
