//! Collective operations built from point-to-point messages.
//!
//! Every collective is implemented as an explicit message schedule over
//! [`RankCtx`] sends/receives — the same layering as a real MPI — so its
//! virtual-time cost *emerges* from the LogGP model rather than being a
//! formula: an allreduce (and so a barrier) on 64 ranks costs log₂ 64 = 6
//! pairwise-exchange rounds of `2·overhead + latency + bytes·per_byte`
//! because that is what [`allreduce_schedule`] actually does; a ragged rank
//! count adds one fold-in and one fold-out round.
//!
//! Every schedule is written once, as a free function over a communicator
//! seen as three things: the caller's index and the member count `(me, p)`,
//! a member → machine-rank map, and a round → tag map. The world
//! ([`RankCtx`]: member `i` is rank `i`) and every
//! [`SubComm`](crate::SubComm) (its membership table) call the same
//! [`allreduce_schedule`], [`allgatherv_schedule`] and
//! [`alltoallv_schedule`]; they differ only in those maps and in whose
//! sequence counter and trace ids an invocation bumps. A gather into rank 0
//! ([`RankCtx::gatherv`]) is the world's alone: one direct round, `P − 1`
//! messages, which no subgroup calls.
//!
//! Why the allgather is one round. A sender pays `overhead` per message and
//! nothing else: `per_byte` delays a payload's *arrival* and no rank's sends
//! are serialised against each other (`cost.rs`). So a ring pays `P − 1`
//! dependent rounds and carries `P − 1` blocks one after another, a Bruck or
//! recursive-doubling schedule still carries them one after another over
//! `log₂ P` rounds, and the direct schedule — every member sends its one
//! block to every other — pays `2(P − 1)` overheads, one latency and the
//! bytes of one block. All three send the same messages and bytes in total.
//!
//! Routes. A personalised all-to-all and an allgather have two each
//! ([`Route`]). *Direct* is the schedule over the world: `P − 1` sends and
//! `P − 1` receives a rank, full or empty. *Grouped* is that same schedule
//! run twice over the `G × S` exchange grid
//! ([`Topology::exchange_group`](crate::Topology::exchange_group); rank
//! `(g, i)` is `g·S + i`), first over the rank's column `(·, i)`, then over
//! its row `(g, ·)` — `G + S − 2` sends and as many receives a rank:
//!
//! - an all-to-all's column hop sends each `(g′, i)` one message holding the
//!   `S` blocks bound for group `g′`; its row hop forwards each `(g, j)` one
//!   message holding the `G` blocks this rank now has for `j`;
//! - an allgather's column hop leaves this rank the `G` blocks of `(·, i)`;
//!   its row hop sends them to every `(g, j)` as one bundle, so each block
//!   moves once a hop, never as copies bound for several members.
//!
//! A forwarder moves blocks as the bytes they arrived as, between length
//! prefixes: no decode, no merge, no compute charge; and the receiver still
//! leaves with one block per source rank, in source order, so nothing above
//! the collective can tell the routes apart except by the clock.
//! [`RankCtx::alltoallv_seconds`] and [`RankCtx::allgatherv_seconds`] price
//! a route from the LogGP parameters, and [`RankCtx::alltoallv_route`] and
//! [`RankCtx::allgatherv_route`] name the cheaper one for the bytes at hand —
//! callers decide per call, from numbers every rank agrees on, the way a
//! kernel decides push against pull. [`RankCtx::allreduce_seconds`] prices
//! an allreduce the same way, so a kernel can price a whole superstep.
//!
//! Tag discipline: each collective invocation claims a fresh sequence number
//! from its communicator's rank-local counter. SPMD programs call collectives
//! in the same order on every rank, so sequence numbers agree globally and
//! back-to-back collectives can never confuse each other's messages even
//! when some ranks run far ahead.
//!
//! Counting: every collective bumps [`NetStats::collectives`] once. An
//! allreduce is one collective; a barrier is one allreduce that also bumps
//! [`NetStats::barriers`]. A grouped route is its two hops: two subgroup
//! collectives of its kind, in two spans of its trace code.
//!
//! [`NetStats::collectives`]: crate::NetStats::collectives
//! [`NetStats::barriers`]: crate::NetStats::barriers

use crate::cost::Topology;
use crate::rank::{RankCtx, Tag, TrafficClass, TAG_COLLECTIVE_BASE};
use crate::recovery::FaultEscalation;
use crate::subcomm::{SubComm, GRID_COL_ID, GRID_ROW_ID};
use crate::trace::TraceCode;
use crate::transport::TransportError;
use crate::wire::{decode_vec_checked, encode_slice, Wire};

/// The allreduce message schedule, written once for the world and for every
/// [`SubComm`](crate::SubComm): recursive doubling over the member indices
/// `0..p`, of which the caller is `me`. `global(i)` is member `i`'s machine
/// rank and `tag(round)` the communicator's tag for one round of this
/// invocation. It reduces a slice, `combine` element by element; every
/// member must bring the same number of elements (a partner's payload of
/// another count is the typed decode error of `recv_coll_checked`), and
/// the scalar [`RankCtx::allreduce`] is the one-element case, message for
/// message and byte for byte.
///
/// With `q` the largest power of two `≤ p`: a fold-in round pairs the first
/// `2(p − q)` members as neighbours (the odd one hands its values to the even
/// one below it and sits out), the `q` members left run log₂ q rounds of
/// pairwise exchange with the partner whose position differs in one bit, and
/// a fold-out round hands the result back to those that sat out. The members
/// left after the fold keep their rank order, so at every step the two
/// partners hold the reductions of two adjacent rank ranges and each
/// computes `combine(lower range, upper range)`: the same expression on the
/// same bits. Hence every member returns the bitwise-same values even when
/// `combine` is not associative (`f32`/`f64` sums); each is
/// `v₀ ⊕ v₁ ⊕ … ⊕ v_{p−1}` in rank order, so `combine` need not commute;
/// and at a power-of-two `p` its parenthesisation is the balanced pairwise
/// tree `((v₀ ⊕ v₁) ⊕ (v₂ ⊕ v₃)) ⊕ …`.
///
/// The round in a tag is a function of `p` alone (0 fold-in, `1..=log₂ q`
/// doubling, `log₂ q + 1` fold-out): the members that sat out skipped the
/// doubling rounds, so a running counter would disagree and deadlock.
pub(crate) fn allreduce_schedule<T: Wire + Clone>(
    ctx: &mut RankCtx,
    (me, p): (usize, usize),
    global: impl Fn(usize) -> usize,
    tag: impl Fn(u64) -> Tag,
    values: Vec<T>,
    combine: impl Fn(&T, &T) -> T,
) -> Vec<T> {
    let q = 1usize << p.ilog2();
    let folded = 2 * (p - q);
    let fold_out = tag(1 + u64::from(q.trailing_zeros()));
    let n = values.len();
    // `acc ← acc ⊕ other` or `other ⊕ acc`, element by element, in place.
    let fold = |acc: &mut [T], other: &[T], acc_is_lower: bool| {
        for (a, b) in acc.iter_mut().zip(other) {
            *a = if acc_is_lower {
                combine(a, b)
            } else {
                combine(b, a)
            };
        }
    };
    let mut acc = values;
    if me < folded {
        if me % 2 == 1 {
            ctx.send_coll(global(me - 1), tag(0), &acc);
            return ctx.recv_coll_checked(global(me - 1), fold_out, Some(n));
        }
        let upper: Vec<T> = ctx.recv_coll_checked(global(me + 1), tag(0), Some(n));
        fold(&mut acc, &upper, true);
    }
    // Positions 0..q of the members still in, in rank order, and back.
    let pos = if me < folded { me / 2 } else { me - folded / 2 };
    let member = |i: usize| {
        if i < folded / 2 {
            2 * i
        } else {
            i + folded / 2
        }
    };
    let (mut step, mut round) = (1usize, 1u64);
    while step < q {
        let partner = member(pos ^ step);
        ctx.send_coll(global(partner), tag(round), &acc);
        let other: Vec<T> = ctx.recv_coll_checked(global(partner), tag(round), Some(n));
        fold(&mut acc, &other, me < partner);
        step <<= 1;
        round += 1;
    }
    if me < folded {
        ctx.send_coll(global(me + 1), fold_out, &acc);
    }
    acc
}

/// The allgather schedule, written once like [`allreduce_schedule`] and
/// over the same maps: one round. A member encodes its block once, sends
/// those bytes to every other member and takes one block from each (module
/// docs: why not a ring or Bruck). Returns all blocks indexed by member.
pub(crate) fn allgatherv_schedule<T: Wire + Clone>(
    ctx: &mut RankCtx,
    (me, p): (usize, usize),
    global: impl Fn(usize) -> usize,
    tag: impl Fn(u64) -> Tag,
    mine: &[T],
) -> Vec<Vec<T>> {
    let bytes = encode_slice(mine);
    for d in (0..p).filter(|&d| d != me) {
        ctx.send_bytes_class(global(d), tag(0), bytes.clone(), TrafficClass::Collective);
    }
    let from = |s| {
        if s == me {
            mine.to_vec()
        } else {
            ctx.recv_coll(global(s), tag(0))
        }
    };
    (0..p).map(from).collect()
}

/// The personalised all-to-all schedule, written once over the same maps:
/// `out[d]` goes to member `d` directly, one message each (the member's own
/// block is moved across, free of network charge). Returns the blocks
/// received, indexed by source member.
pub(crate) fn alltoallv_schedule<T: Wire>(
    ctx: &mut RankCtx,
    (me, p): (usize, usize),
    global: impl Fn(usize) -> usize,
    tag: impl Fn(u64) -> Tag,
    out: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    assert_eq!(out.len(), p, "alltoallv needs one buffer per member");
    let mut own = None;
    for (d, buf) in out.into_iter().enumerate() {
        if d == me {
            own = Some(buf);
        } else {
            ctx.send_coll(global(d), tag(0), &buf);
        }
    }
    let from = |s| {
        if s == me {
            own.take().expect("own block set above")
        } else {
            ctx.recv_coll(global(s), tag(0))
        }
    };
    (0..p).map(from).collect()
}

/// Which way the blocks of an all-to-all or an allgather travel (module
/// docs, "Routes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// One message to every rank.
    Direct,
    /// One message to every rank of the column, then one to every rank of
    /// the row. On a machine with no exchange grid (a prime rank count) this
    /// is the direct route.
    Grouped,
}

/// Bytes of the length prefix [`frame`] puts before each block.
const FRAME_PREFIX: usize = <u32 as Wire>::SIZE;

/// This rank's place in the `G × S` exchange grid, and what the grid costs.
pub(crate) struct Grid {
    /// The `G` ranks `(g′, i)` at this rank's position in every group.
    col: SubComm,
    /// The `S` ranks `(g, j)` of this rank's own group.
    row: SubComm,
    /// Worst hop count of a column message plus that of a row message.
    hops: u32,
}

/// Worst hop count from rank 0 to `peers`. Priced from rank 0 on every rank:
/// a route's price must be the same number everywhere.
pub(crate) fn worst_hops(topo: &Topology, peers: impl Iterator<Item = usize>) -> u32 {
    peers.map(|d| topo.hops(0, d)).max().unwrap_or(0)
}

impl Grid {
    /// The grid as rank `rank` of `p` sees it; `None` when `p` has none. A
    /// pure function of `(rank, p, topology)`: forming it sends nothing.
    pub(crate) fn new(rank: usize, p: usize, topo: &Topology) -> Option<Box<Grid>> {
        let s = topo.exchange_group(p);
        let g = p / s;
        if s == 1 || g == 1 {
            return None;
        }
        let (group, pos) = (rank / s, rank % s);
        Some(Box::new(Grid {
            col: SubComm::strided(rank, (pos, s, g), GRID_COL_ID),
            row: SubComm::strided(rank, (group * s, 1, s), GRID_ROW_ID),
            hops: worst_hops(topo, (1..g).map(|g| g * s)) + worst_hops(topo, 1..s),
        }))
    }

    /// The grouped route of `out`, one block a rank: hop 1 over the column,
    /// the regrouping of opaque bytes, hop 2 over the row.
    fn exchange<T: Wire + Clone>(&mut self, ctx: &mut RankCtx, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let s_n = self.row.size();
        assert_eq!(
            out.len(),
            self.col.size() * s_n,
            "alltoallv needs one buffer per rank"
        );
        let bundles: Vec<Vec<u8>> = out
            .chunks(s_n)
            .map(|group| frame(group.iter().map(|block| encode_slice(block))))
            .collect();
        let held = self.col.alltoallv(ctx, bundles);
        let forwards = self.regroup(ctx, &held);
        self.deliver(ctx, forwards)
    }

    /// Between the hops: `held[g]` is the bundle `(g, i)` sent this rank, its
    /// `S` blocks bound for this group's members. The bundle for member `j`
    /// is the `G` blocks held for it, source groups in order — bytes moved
    /// between length prefixes, never read.
    fn regroup(&self, ctx: &RankCtx, held: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let parts: Vec<Vec<&[u8]>> = held
            .iter()
            .enumerate()
            .map(|(g, bundle)| unbundle(ctx, self.col.global_rank(g), bundle, self.row.size()))
            .collect();
        (0..self.row.size())
            .map(|j| frame(parts.iter().map(|from_group| from_group[j])))
            .collect()
    }

    /// Hop 2: forward the regrouped bundles over the row, then
    /// [`unpack`](Self::unpack) what arrived.
    fn deliver<T: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        forwards: Vec<Vec<u8>>,
    ) -> Vec<Vec<T>> {
        let got = self.row.alltoallv(ctx, forwards);
        self.unpack(ctx, &got)
    }

    /// The grouped route of an allgather: the direct schedule over the
    /// column leaves this rank the `G` blocks of its position in every group,
    /// and the same schedule over the row hands them on as one bundle.
    fn gather<T: Wire + Clone>(&mut self, ctx: &mut RankCtx, mine: &[T]) -> Vec<Vec<T>> {
        let held = self.col.allgatherv(ctx, &encode_slice(mine));
        let got = self.row.allgatherv(ctx, &frame(held.iter()));
        self.unpack(ctx, &got)
    }

    /// One block per source rank, in source order, from the `S` bundles a
    /// row hop brought: member `i`'s holds the blocks of `(g, i)` for every
    /// `g`. A bundle or block that does not decode is the typed error naming
    /// the member that sent it.
    fn unpack<T: Wire + Clone>(&self, ctx: &RankCtx, got: &[Vec<u8>]) -> Vec<Vec<T>> {
        let (g_n, s_n) = (self.col.size(), self.row.size());
        let mut blocks: Vec<Vec<T>> = vec![Vec::new(); g_n * s_n];
        for (i, bundle) in got.iter().enumerate() {
            let src = self.row.global_rank(i);
            for (g, bytes) in unbundle(ctx, src, bundle, g_n).into_iter().enumerate() {
                blocks[g * s_n + i] = decode_vec_checked(bytes)
                    .unwrap_or_else(|e| ctx.decode_failure(src, e.len, e.elem_size));
            }
        }
        blocks
    }
}

/// `blocks` back to back, each behind its byte length as a `u32`.
fn frame<B: AsRef<[u8]>>(blocks: impl Iterator<Item = B>) -> Vec<u8> {
    let mut out = Vec::new();
    for block in blocks {
        let block = block.as_ref();
        let len = u32::try_from(block.len()).expect("a block of a grouped exchange is under 4 GiB");
        len.write(&mut out);
        out.extend_from_slice(block);
    }
    out
}

/// [`unframe`] of a bundle the hop just finished brought from `src`, or the
/// typed decode error.
fn unbundle<'a>(ctx: &RankCtx, src: usize, bundle: &'a [u8], n: usize) -> Vec<&'a [u8]> {
    unframe(bundle, n).unwrap_or_else(|| ctx.decode_failure(src, bundle.len(), FRAME_PREFIX))
}

/// The `n` blocks of a [`frame`]; `None` unless the prefixes add up to
/// exactly the bundle.
fn unframe(bundle: &[u8], n: usize) -> Option<Vec<&[u8]>> {
    let mut pos = 0;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let len = u32::read(bundle, &mut pos)? as usize;
        let end = pos.checked_add(len)?;
        blocks.push(bundle.get(pos..end)?);
        pos = end;
    }
    (pos == bundle.len()).then_some(blocks)
}

impl RankCtx {
    /// One invocation of a world collective: its span, `schedule` over the
    /// world's maps — member `i` is rank `i`, a tag is the sequence number
    /// and the round — then the sequence number claimed and the collective
    /// counted. [`SubComm`](crate::SubComm) has the same function over its
    /// own maps, counter and trace ids; the schedules are shared.
    fn collective<R>(
        &mut self,
        code: TraceCode,
        schedule: impl FnOnce(&mut RankCtx, (usize, usize), &dyn Fn(u64) -> Tag) -> R,
    ) -> R {
        let seq = self.coll_seq;
        self.trace_begin(code, seq, 0);
        let tag = move |round| TAG_COLLECTIVE_BASE | (seq << 12) | round;
        let out = schedule(self, (self.rank(), self.size()), &tag);
        self.coll_seq += 1;
        self.bump_collective();
        self.trace_end(code, self.coll_seq, 0);
        out
    }

    /// Send `items` to machine rank `dest` as collective-class traffic.
    pub(crate) fn send_coll<T: Wire>(&mut self, dest: usize, tag: Tag, items: &[T]) {
        self.send_bytes_class(dest, tag, encode_slice(items), TrafficClass::Collective);
    }

    /// Receive a collective payload from machine rank `src`; `expect` is
    /// the element count the schedule requires, when it requires one. A
    /// payload that does not decode as `T`s, or decodes to another count —
    /// ranks disagreeing about the element type of one collective — leaves
    /// as a typed [`FaultEscalation::Transport`] panic payload, which
    /// [`Machine::try_run`](crate::Machine::try_run) returns as `Err`, the
    /// way `send_bytes_class` raises an exhausted retry budget.
    pub(crate) fn recv_coll_checked<T: Wire>(
        &mut self,
        src: usize,
        tag: Tag,
        expect: Option<usize>,
    ) -> Vec<T> {
        let buf = self.recv_bytes_class(src, tag);
        match decode_vec_checked(&buf) {
            Ok(items) if expect.is_none_or(|n| items.len() == n) => items,
            _ => self.decode_failure(src, buf.len(), T::SIZE),
        }
    }

    /// Leave with the typed decode error: `len` bytes that `src` sent in the
    /// collective this rank received from last are not `elem_size`-byte
    /// records (or, for a layer above whose blocks are a format of its own,
    /// do not decode as that). The error names the tag of the last message
    /// received, which every message of that collective travelled under.
    pub fn decode_failure(&self, src: usize, len: usize, elem_size: usize) -> ! {
        // an unwind, not a panic: `Machine::try_run` reports it once, and
        // the panic hook prints nothing per rank thread
        std::panic::resume_unwind(Box::new(FaultEscalation::Transport(
            TransportError::Decode {
                src,
                dst: self.rank(),
                tag: self.last_recv_tag,
                len,
                elem_size,
            },
        )))
    }

    /// Receive a collective payload of any length from machine rank `src`.
    pub(crate) fn recv_coll<T: Wire>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        self.recv_coll_checked(src, tag, None)
    }

    /// Receive a collective payload of exactly one record.
    pub(crate) fn recv_one_coll<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        let mut v = self.recv_coll_checked(src, tag, Some(1));
        v.pop().expect("length checked")
    }

    /// Broadcast `value` from rank 0 to everyone via a binomial tree.
    pub fn bcast<T: Wire + Clone>(&mut self, value: Option<T>) -> T {
        self.collective(TraceCode::Bcast, |ctx, (me, p), tag| {
            let mut have =
                (me == 0).then(|| value.expect("rank 0 must supply the broadcast value"));
            // Highest power of two covering p, halved every round.
            let mut step = p.next_power_of_two();
            let mut round = 0u64;
            while step >= 1 {
                if let Some(v) = &have {
                    if me.is_multiple_of(step * 2) && me + step < p {
                        ctx.send_coll(me + step, tag(round), std::slice::from_ref(v));
                    }
                } else if me % (step * 2) == step {
                    have = Some(ctx.recv_one_coll(me - step, tag(round)));
                }
                step >>= 1;
                round += 1;
            }
            have.expect("broadcast tree reached every rank")
        })
    }

    /// Allreduce: combine every rank's `value`; every rank gets the result,
    /// bitwise the same one, reduced in rank order
    /// ([`allreduce_schedule`]).
    pub fn allreduce<T: Wire + Clone>(&mut self, value: T, combine: impl Fn(&T, &T) -> T) -> T {
        let mut out = self.allreduce_slice(vec![value], combine);
        out.pop().expect("one element in, one out")
    }

    /// Allreduce of a slice, element by element: one collective, one
    /// message a round however many elements. Every rank must bring the
    /// same number of them.
    pub fn allreduce_slice<T: Wire + Clone>(
        &mut self,
        values: Vec<T>,
        combine: impl Fn(&T, &T) -> T,
    ) -> Vec<T> {
        self.collective(TraceCode::Allreduce, |ctx, who, tag| {
            allreduce_schedule(ctx, who, |i| i, tag, values, combine)
        })
    }

    /// Allreduce sum of `u64`.
    pub fn allreduce_sum(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// Barrier: no payload, everyone leaves only after everyone entered —
    /// an allreduce of one byte nobody reads, in a span of its own (so
    /// summary totals are *inclusive* virtual time) and counted twice, as
    /// the collective it is and as a barrier.
    pub fn barrier(&mut self) {
        self.trace_begin(TraceCode::Barrier, self.coll_seq, 0);
        self.allreduce(0u8, |_, _| 0u8);
        self.bump_barrier();
        self.trace_end(TraceCode::Barrier, self.coll_seq, 0);
    }

    /// Allgather of variably-sized blocks, indexed by rank
    /// ([`allgatherv_schedule`]).
    pub fn allgatherv<T: Wire + Clone>(&mut self, mine: &[T]) -> Vec<Vec<T>> {
        self.collective(TraceCode::Allgatherv, |ctx, who, tag| {
            allgatherv_schedule(ctx, who, |i| i, tag, mine)
        })
    }

    /// Gather of variably-sized blocks into rank 0, in one direct round:
    /// every other rank sends its block once, and rank 0 returns all `P`
    /// blocks indexed by rank. Every other rank returns none. A block that
    /// is not whole `T`s is the typed decode error of
    /// [`recv_coll_checked`](Self::recv_coll_checked).
    pub fn gatherv<T: Wire + Clone>(&mut self, mine: &[T]) -> Vec<Vec<T>> {
        self.collective(TraceCode::Gatherv, |ctx, (me, p), tag| {
            if me == 0 {
                let others = (1..p).map(|s| ctx.recv_coll(s, tag(0)));
                return std::iter::once(mine.to_vec()).chain(others).collect();
            }
            ctx.send_coll(0, tag(0), mine);
            Vec::new()
        })
    }

    /// Personalised all-to-all: `out[d]` is delivered to rank `d`; returns
    /// the blocks received, indexed by source rank
    /// ([`alltoallv_schedule`]).
    pub fn alltoallv<T: Wire + Clone>(&mut self, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.collective(TraceCode::Alltoallv, |ctx, who, tag| {
            alltoallv_schedule(ctx, who, |i| i, tag, out)
        })
    }

    /// [`alltoallv`](Self::alltoallv) by `route`: the same blocks by source
    /// rank either way. Collective — every rank must name the same route. A
    /// forwarded bundle whose length prefixes do not add up, or a block that
    /// is not whole `T`s, leaves as the typed decode error of
    /// [`recv_coll_checked`](Self::recv_coll_checked).
    pub fn alltoallv_routed<T: Wire + Clone>(
        &mut self,
        route: Route,
        out: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        self.on_grid(route, out, Grid::exchange, RankCtx::alltoallv)
    }

    /// [`allgatherv`](Self::allgatherv) by `route`: every rank's block, in
    /// rank order, either way. Collective — every rank must name the same
    /// route. A bundle whose length prefixes do not add up, or a block that
    /// is not whole `T`s, leaves as the typed decode error of
    /// [`recv_coll_checked`](Self::recv_coll_checked).
    pub fn allgatherv_routed<T: Wire + Clone>(&mut self, route: Route, mine: &[T]) -> Vec<Vec<T>> {
        self.on_grid(route, mine, Grid::gather, RankCtx::allgatherv)
    }

    /// `grouped` of `arg` over this rank's exchange grid when `route` is
    /// grouped and the machine has a grid, `direct` of `arg` otherwise.
    fn on_grid<A, R>(
        &mut self,
        route: Route,
        arg: A,
        grouped: impl FnOnce(&mut Grid, &mut RankCtx, A) -> R,
        direct: impl FnOnce(&mut RankCtx, A) -> R,
    ) -> R {
        match (route, self.grid.take()) {
            (Route::Grouped, Some(mut grid)) => {
                let out = grouped(&mut grid, self, arg);
                self.grid = Some(grid);
                out
            }
            (_, grid) => {
                self.grid = grid;
                direct(self, arg)
            }
        }
    }

    /// What `route` costs before its payload: messages a rank sends and
    /// worst-case hops end to end; and the grid `(G, S)` it runs over,
    /// `None` for the direct route.
    fn route_terms(&self, route: Route) -> (f64, f64, Option<(f64, f64)>) {
        match (route, &self.grid) {
            (Route::Grouped, Some(grid)) => {
                let (g, s) = (grid.col.size() as f64, grid.row.size() as f64);
                (g + s - 2.0, f64::from(grid.hops), Some((g, s)))
            }
            _ => (self.size() as f64 - 1.0, f64::from(self.direct_hops), None),
        }
    }

    /// The share of a rank's shipped bytes an all-to-all's largest message
    /// carries on a route over `grid`: `1/P` direct, `1/G + 1/S` grouped.
    fn alltoallv_share(&self, grid: Option<(f64, f64)>) -> f64 {
        grid.map_or(1.0 / self.size() as f64, |(g, s)| 1.0 / g + 1.0 / s)
    }

    /// Modeled seconds a rank spends posting one collective by `route`, an
    /// all-to-all or an allgather alike: `overhead` for every message it
    /// sends and every one it receives, before any flight.
    pub fn posting_seconds(&self, route: Route) -> f64 {
        2.0 * self.route_terms(route).0 * self.loggp().overhead
    }

    /// Modeled seconds of one all-to-all by `route` in which every rank ships
    /// about `bytes`, entered by all ranks at once: its
    /// [posting](Self::posting_seconds), the last message flying its hops,
    /// and that message's payload — `bytes / P` direct, `bytes / G` then
    /// `bytes / S` grouped — at `per_byte`.
    pub fn alltoallv_seconds(&self, route: Route, bytes: f64) -> f64 {
        let (_, hops, grid) = self.route_terms(route);
        let net = self.loggp();
        self.posting_seconds(route)
            + net.latency * hops
            + bytes * self.alltoallv_share(grid) * net.per_byte
    }

    /// Modeled seconds of one allreduce of about `bytes` a rank, entered by
    /// all ranks at once: the rounds of [`allreduce_schedule`] — `log₂ P`,
    /// and a fold-in and a fold-out round more on a ragged `P` — each a
    /// send, the flight of `bytes` over the worst hop count, and a receive.
    pub fn allreduce_seconds(&self, bytes: f64) -> f64 {
        let p = self.size();
        let rounds = p.ilog2() + if p.is_power_of_two() { 0 } else { 2 };
        let net = self.loggp();
        let round =
            2.0 * net.overhead + net.latency * f64::from(self.direct_hops) + bytes * net.per_byte;
        f64::from(rounds) * round
    }

    /// The cheaper route for an all-to-all in which every rank ships about
    /// `bytes`: grouped when the posting it saves outweighs the extra hop
    /// and the second copy of the bytes, direct otherwise and on a tie. A
    /// pure function of the machine and `bytes`, so ranks that agree on
    /// `bytes` agree on the route.
    pub fn alltoallv_route(&self, bytes: f64) -> Route {
        let (direct, grouped) = (
            self.route_terms(Route::Direct),
            self.route_terms(Route::Grouped),
        );
        let net = self.loggp();
        let saved = 2.0 * (direct.0 - grouped.0) * net.overhead;
        let share = self.alltoallv_share(grouped.2) - self.alltoallv_share(direct.2);
        let added = net.latency * (grouped.1 - direct.1) + bytes * share * net.per_byte;
        if saved > added {
            Route::Grouped
        } else {
            Route::Direct
        }
    }

    /// Modeled seconds of one allgather by `route` whose blocks are about
    /// `block` bytes each, entered by all ranks at once: the posting and hops
    /// of the same route's all-to-all, and the payload of the messages on
    /// the critical path — one block direct; one block, then a bundle of `G`
    /// blocks behind their length prefixes, grouped. No block waits for
    /// another (module docs), so the bytes of the other `P − 2` are not on
    /// the path.
    pub fn allgatherv_seconds(&self, route: Route, block: f64) -> f64 {
        let (_, hops, grid) = self.route_terms(route);
        let bytes = grid.map_or(block, |(g, _)| block + g * (block + FRAME_PREFIX as f64));
        let net = self.loggp();
        self.posting_seconds(route) + net.latency * hops + bytes * net.per_byte
    }

    /// The cheaper route for an allgather of blocks of about `block` bytes,
    /// by [`allgatherv_seconds`](Self::allgatherv_seconds); direct on a tie
    /// and on a machine with no grid. A pure function of the machine and
    /// `block`, so ranks that agree on `block` agree on the route.
    pub fn allgatherv_route(&self, block: f64) -> Route {
        let grouped = self.allgatherv_seconds(Route::Grouped, block);
        if grouped < self.allgatherv_seconds(Route::Direct, block) {
            Route::Grouped
        } else {
            Route::Direct
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, MachineConfig};
    use crate::recovery::FaultEscalation;
    use crate::transport::TransportError;

    /// Every collective is exercised at power-of-two and ragged rank
    /// counts — recursive doubling folds a different number of ranks in at
    /// each of 3, 5, 6, 7 and 12, and the exchange grid is missing (1, 2, 3,
    /// 5, 7), lopsided (6, 8, 12) or square (16).
    const SIZES: [usize; 9] = [1, 2, 3, 5, 6, 7, 8, 12, 16];

    #[test]
    fn allreduce_sum_and_min_max() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                (
                    ctx.allreduce_sum(me + 1),
                    ctx.allreduce(me + 10, |a, b| *a.min(b)),
                    ctx.allreduce(me + 10, |a, b| *a.max(b)),
                )
            });
            let expect_sum: u64 = (1..=p as u64).sum();
            for r in rep.results {
                assert_eq!(r, (expect_sum, 10, 9 + p as u64), "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_f64() {
        let rep = Machine::new(MachineConfig::with_ranks(5))
            .run(|ctx| ctx.allreduce(0.5 * (ctx.rank() as f64 + 1.0), |a, b| a + b));
        for r in rep.results {
            assert!((r - 7.5).abs() < 1e-12);
        }
    }

    /// Sixteen addends spanning 1e16 … 1e-3 with mixed signs: every
    /// parenthesisation of their sum rounds differently.
    const ADDENDS: [f64; 16] = [
        1e16, 1.0, -1e16, 1e-3, 3.7e8, -2.5e-2, 7.0e15, 0.1, -3.0e15, 4.4e4, 9.9e-3, -1.0e12,
        6.0e1, 2.2e15, -8.8e7, 5.5e-1,
    ];

    /// `((v0 + v1) + (v2 + v3)) + …` over a power-of-two slice.
    fn pairwise_tree(v: &[f64]) -> f64 {
        match v {
            [x] => *x,
            _ => pairwise_tree(&v[..v.len() / 2]) + pairwise_tree(&v[v.len() / 2..]),
        }
    }

    #[test]
    fn allreduce_is_bitwise_identical_on_every_rank() {
        assert_ne!(
            pairwise_tree(&ADDENDS).to_bits(),
            ADDENDS.iter().sum::<f64>().to_bits(),
            "the addends must make association visible"
        );
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| ctx.allreduce(ADDENDS[ctx.rank()], |a, b| a + b).to_bits());
            assert!(
                rep.results.iter().all(|&b| b == rep.results[0]),
                "p={p}: ranks disagree: {:x?}",
                rep.results
            );
            if p.is_power_of_two() {
                assert_eq!(
                    rep.results[0],
                    pairwise_tree(&ADDENDS[..p]).to_bits(),
                    "p={p}"
                );
            }
        }
    }

    #[test]
    fn allreduce_reduces_in_rank_order() {
        // 2x2 matrix product: associative, non-commutative — the result is
        // the in-order product only if every round keeps the lower rank
        // range on the left, fold rounds included
        type M = (u64, u64, u64, u64);
        fn mul(a: &M, b: &M) -> M {
            (
                a.0 * b.0 + a.1 * b.2,
                a.0 * b.1 + a.1 * b.3,
                a.2 * b.0 + a.3 * b.2,
                a.2 * b.1 + a.3 * b.3,
            )
        }
        let mine = |r: usize| -> M { (1, r as u64 + 1, r as u64 % 3, 1) };
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| ctx.allreduce(mine(ctx.rank()), mul));
            let expect = (1..p).fold(mine(0), |acc, r| mul(&acc, &mine(r)));
            assert!(rep.results.iter().all(|m| *m == expect), "p={p}");
        }
    }

    #[test]
    fn allreduce_costs_log_rounds() {
        // default crossbar, every rank entering at t = 0: one round of
        // pairwise exchange is a send, the flight of 8 bytes and a receive
        let net = crate::cost::LogGP::default();
        let round = 2.0 * net.overhead + net.latency + 8.0 * net.per_byte;
        // (p, rounds, messages, slowest rank's finish in ns). Power of two:
        // every rank finishes after exactly log2 p rounds. Ragged: the
        // fold-in and fold-out rounds join the critical path, but a member
        // that was not folded has its first message waiting when a folded
        // partner turns up, so the slowest rank can beat rounds x round
        // (it does not at p = 7, where six of seven ranks fold). Recorded
        // from the schedule, like `kernel_checkpoint_sizes_are_pinned`.
        let pinned: [(usize, u32, u64, f64); 10] = [
            (1, 0, 0, 0.0),
            (2, 1, 2, 2000.8),
            (4, 2, 8, 4001.6),
            (8, 3, 24, 6002.4),
            (16, 4, 64, 8003.2),
            (3, 3, 4, 5001.6),
            (5, 4, 10, 6002.4),
            (6, 4, 12, 7002.4),
            (7, 4, 14, 8003.2),
            (12, 5, 32, 9003.2),
        ];
        for (p, rounds, msgs, slowest_ns) in pinned {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let priced = ctx.allreduce_seconds(8.0);
                ctx.allreduce_sum(ctx.rank() as u64);
                (ctx.now(), priced)
            });
            let total = rep.total_stats();
            assert_eq!(total.coll_msgs, msgs, "p={p}");
            assert_eq!(total.coll_bytes, 8 * msgs, "p={p}");
            assert_eq!(total.collectives, p as u64, "one collective a rank, p={p}");
            let bound = f64::from(rounds) * round;
            for &(now, priced) in &rep.results {
                // the price is the schedule's rounds: the bound every rank keeps
                assert!((priced - bound).abs() < 1e-15, "p={p}: priced {priced}");
                if p.is_power_of_two() {
                    assert!((now - bound).abs() < 1e-12, "p={p}: {now} vs {bound}");
                }
            }
            assert!(rep.sim_time_s <= bound + 1e-12, "p={p}");
            assert!(
                (rep.sim_time_s * 1e9 - slowest_ns).abs() < 1e-3,
                "p={p}: slowest rank {} ns",
                rep.sim_time_s * 1e9
            );
        }
    }

    #[test]
    fn mismatched_allreduce_types_are_a_typed_error() {
        // rank 1 reduces pairs where the others reduce scalars: 16 bytes
        // decode as two u64s (wrong count), 8 bytes as no (u64, u64)
        let res = Machine::new(MachineConfig::with_ranks(4)).try_run(|ctx| {
            if ctx.rank() == 1 {
                ctx.allreduce((1u64, 1u64), |a, b| (a.0 + b.0, a.1 + b.1)).0
            } else {
                ctx.allreduce_sum(1)
            }
        });
        match res {
            Err(FaultEscalation::Transport(TransportError::Decode { len, elem_size, .. })) => {
                assert!(
                    (len, elem_size) == (16, 8) || (len, elem_size) == (8, 16),
                    "{len} bytes against {elem_size}-byte records"
                );
            }
            other => panic!(
                "expected a typed decode error, got {:?}",
                other.map(|r| r.results)
            ),
        }
    }

    #[test]
    fn allreduce_slice_is_elementwise_in_one_collective() {
        // element i reduced by the slice call carries the bits the scalar
        // call gives it alone, at the message count of one scalar call
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let mine: Vec<f64> = (0..3).map(|i| ADDENDS[(ctx.rank() + 5 * i) % 16]).collect();
                let msgs = ctx.stats().coll_msgs;
                let together = ctx.allreduce_slice(mine.clone(), |a, b| a + b);
                let slice_msgs = ctx.stats().coll_msgs - msgs;
                let apart: Vec<f64> = mine
                    .iter()
                    .map(|&v| ctx.allreduce(v, |a, b| a + b))
                    .collect();
                let scalar_msgs = ctx.stats().coll_msgs - msgs - slice_msgs;
                assert_eq!(scalar_msgs, 3 * slice_msgs, "p={p}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (bits(&together), bits(&apart))
            });
            for (together, apart) in rep.results {
                assert_eq!(together, apart, "p={p}");
            }
        }
    }

    #[test]
    fn mismatched_allreduce_slice_lengths_are_a_typed_error() {
        let res = Machine::new(MachineConfig::with_ranks(4)).try_run(|ctx| {
            let n = if ctx.rank() == 2 { 3 } else { 2 };
            ctx.allreduce_slice(vec![1u64; n], |a, b| a + b).len()
        });
        match res {
            Err(FaultEscalation::Transport(TransportError::Decode { len, elem_size, .. })) => {
                assert!((len, elem_size) == (24, 8) || (len, elem_size) == (16, 8));
            }
            other => panic!(
                "expected a typed decode error, got {:?}",
                other.map(|r| r.results)
            ),
        }
    }

    #[test]
    fn bcast_from_root() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let v = if ctx.rank() == 0 { Some(1234u64) } else { None };
                ctx.bcast(v)
            });
            assert!(rep.results.iter().all(|&v| v == 1234), "p={p}");
        }
    }

    #[test]
    fn allgatherv_variable_blocks() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                // rank r contributes r+1 copies of r
                let mine: Vec<u64> = vec![me; ctx.rank() + 1];
                ctx.allgatherv(&mine)
            });
            for blocks in rep.results {
                assert_eq!(blocks.len(), p);
                for (r, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![r as u64; r + 1], "p={p} block {r}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_personalized_exchange() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                // message to rank d encodes (me, d)
                let out: Vec<Vec<(u64, u64)>> =
                    (0..ctx.size()).map(|d| vec![(me, d as u64)]).collect();
                ctx.alltoallv(out)
            });
            for (r, blocks) in rep.results.iter().enumerate() {
                for (s, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![(s as u64, r as u64)], "p={p}");
                }
            }
        }
    }

    use super::Route;
    use crate::cost::{LogGP, Topology};
    use crate::RankCtx;

    /// The exchange grid's shape `(G, S)`; `(P, 1)` when the machine has
    /// none and both routes are the direct one.
    fn exchange_grid(ctx: &RankCtx) -> (usize, usize) {
        match &ctx.grid {
            Some(grid) => (grid.col.size(), grid.row.size()),
            None => (ctx.size(), 1),
        }
    }

    /// Rank `me`'s block for rank `d`, `p` ranks: ragged, some empty, and
    /// telling of both ends.
    fn ragged(me: usize, d: usize, p: usize) -> Vec<(u32, u64)> {
        let n = (3 * me + 5 * d) % 4 + usize::from((me + d) % p == 1) * 9;
        (0..n).map(|k| (me as u32, (d * 100 + k) as u64)).collect()
    }

    #[test]
    fn grouped_and_direct_deliver_the_same_blocks_by_source() {
        // (ranks, G, S) on a crossbar: the squarest grid; a prime has none
        let shapes = [
            (4, 2, 2),
            (6, 3, 2),
            (8, 4, 2),
            (12, 4, 3),
            (16, 4, 4),
            (7, 7, 1),
        ];
        for (p, g, s) in shapes {
            for empty in [false, true] {
                let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                    assert_eq!(exchange_grid(ctx), (g, s), "p={p}");
                    let me = ctx.rank();
                    let out: Vec<Vec<(u32, u64)>> = (0..p)
                        .map(|d| if empty { Vec::new() } else { ragged(me, d, p) })
                        .collect();
                    let sent = |ctx: &RankCtx| ctx.stats().coll_msgs;
                    let m0 = sent(ctx);
                    let direct = ctx.alltoallv_routed(Route::Direct, out.clone());
                    let m1 = sent(ctx);
                    let grouped = ctx.alltoallv_routed(Route::Grouped, out);
                    (direct, grouped, m1 - m0, sent(ctx) - m1)
                });
                for (me, (direct, grouped, direct_msgs, grouped_msgs)) in
                    rep.results.iter().enumerate()
                {
                    assert_eq!(grouped, direct, "p={p} rank {me}");
                    for (src, block) in direct.iter().enumerate() {
                        let expect = if empty {
                            Vec::new()
                        } else {
                            ragged(src, me, p)
                        };
                        assert_eq!(block, &expect, "p={p} rank {me} from {src}");
                    }
                    assert_eq!(*direct_msgs, p as u64 - 1, "p={p}");
                    // a prime rank count degenerates to the direct route
                    let hops = if s == 1 { p - 1 } else { g + s - 2 };
                    assert_eq!(*grouped_msgs, hops as u64, "p={p}");
                }
            }
        }
    }

    #[test]
    fn grouped_shape_follows_the_wiring() {
        let wired = [
            (Topology::Dragonfly { group: 8 }, 32, (4, 8)),
            (Topology::FatTree { radix: 4 }, 32, (8, 4)),
            (Topology::Torus2D { w: 6, h: 6 }, 32, (8, 4)),
            (Topology::Dragonfly { group: 8 }, 8, (4, 2)),
        ];
        for (topo, p, shape) in wired {
            let rep = Machine::new(MachineConfig::with_ranks(p).topology(topo)).run(|ctx| {
                let out: Vec<Vec<u64>> =
                    (0..p).map(|d| vec![(ctx.rank() * p + d) as u64]).collect();
                (
                    exchange_grid(ctx),
                    ctx.alltoallv_routed(Route::Grouped, out),
                )
            });
            for (me, (grid, blocks)) in rep.results.iter().enumerate() {
                assert_eq!(*grid, shape, "{topo:?}");
                let expect: Vec<Vec<u64>> = (0..p).map(|s| vec![(s * p + me) as u64]).collect();
                assert_eq!(blocks, &expect, "{topo:?} rank {me}");
            }
        }
    }

    #[test]
    fn grouped_empty_exchange_costs_the_priced_formula() {
        // every rank enters at t = 0 with nothing to say: the slowest rank
        // leaves when the formula says, plus the flight of the length
        // prefixes (S of them out, G of them on) — and so does the direct
        // route, with no prefixes
        let net = LogGP::default();
        let cases = [
            (Topology::Crossbar, 16),
            (Topology::Crossbar, 12),
            (Topology::Dragonfly { group: 4 }, 16),
            (Topology::FatTree { radix: 4 }, 16),
        ];
        for (topo, p) in cases {
            for route in [Route::Direct, Route::Grouped] {
                let rep = Machine::new(MachineConfig::with_ranks(p).topology(topo)).run(|ctx| {
                    ctx.alltoallv_routed(route, vec![Vec::<u64>::new(); p]);
                    (ctx.alltoallv_seconds(route, 0.0), exchange_grid(ctx))
                });
                let (priced, (g, s)) = rep.results[0];
                let prefixes = match route {
                    Route::Direct => 0.0,
                    Route::Grouped => 4.0 * (g + s) as f64 * net.per_byte,
                };
                assert!(
                    (rep.sim_time_s - (priced + prefixes)).abs() < 1e-12,
                    "{topo:?} p={p} {route:?}: took {} priced {priced}",
                    rep.sim_time_s
                );
            }
        }
        // 16 ranks on a crossbar, spelled out: 2(G+S-2) against 2(P-1)
        // overheads, two latencies against one
        let rep = Machine::new(MachineConfig::with_ranks(16))
            .run(|ctx| [Route::Direct, Route::Grouped].map(|r| ctx.alltoallv_seconds(r, 0.0)));
        let [direct, grouped] = rep.results[0];
        assert!((direct - (30.0 * net.overhead + net.latency)).abs() < 1e-15);
        assert!((grouped - (12.0 * net.overhead + 2.0 * net.latency)).abs() < 1e-15);
    }

    #[test]
    fn grouped_route_is_priced_by_bytes_and_ties_go_direct() {
        let route_at = |p: usize, bytes: f64| {
            Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| ctx.alltoallv_route(bytes))
                .results[0]
        };
        // 4 ranks: one overhead pair saved, one latency added — a tie at
        // best, so never grouped; a prime has no grid
        assert_eq!(route_at(4, 0.0), Route::Direct);
        assert_eq!(route_at(7, 0.0), Route::Direct);
        // 16 ranks: 9 us of posting saved against 1 us of latency and
        // 7/16 of the bytes a second time at 10 GB/s — break-even near 183 kB
        assert_eq!(route_at(16, 0.0), Route::Grouped);
        assert_eq!(route_at(16, 150e3), Route::Grouped);
        assert_eq!(route_at(16, 200e3), Route::Direct);
        // 8 ranks: 2 us net saving against 5/8 of the bytes — near 32 kB
        assert_eq!(route_at(8, 30e3), Route::Grouped);
        assert_eq!(route_at(8, 33e3), Route::Direct);
        // the route named is the cheaper by `alltoallv_seconds`
        let rep = Machine::new(MachineConfig::with_ranks(16)).run(|ctx| {
            [0.0, 1e3, 1e5, 1.8e5, 1.9e5, 1e6].map(|b| {
                let cheaper = ctx.alltoallv_seconds(Route::Grouped, b)
                    < ctx.alltoallv_seconds(Route::Direct, b);
                (ctx.alltoallv_route(b) == Route::Grouped) == cheaper
            })
        });
        assert_eq!(rep.results[0], [true; 6]);
    }

    #[test]
    fn grouped_corrupt_forward_is_a_typed_error() {
        // Rank `bad` of a 3 x 2 grid forwards its row partner a bundle that
        // is cut short (the prefixes no longer add up) or whose last block
        // lost a byte to the one before it (the prefixes do, the records do
        // not). Whichever rank does it, and although only its partner reads
        // the bundle, the whole run is the typed error, never a panic.
        for bad in 0..6 {
            for cut_short in [true, false] {
                let res = Machine::new(MachineConfig::with_ranks(6)).try_run(|ctx| {
                    let out: Vec<Vec<u64>> = (0..6).map(|d| vec![d as u64; 2]).collect();
                    if ctx.rank() != bad {
                        return ctx.alltoallv_routed(Route::Grouped, out).len();
                    }
                    let mut grid = ctx.grid.take().expect("6 ranks have a grid");
                    let bundles = out.chunks(2).map(|group| {
                        super::frame(group.iter().map(|b| crate::wire::encode_slice(b)))
                    });
                    let held = grid.col.alltoallv(ctx, bundles.collect());
                    let mut forwards = grid.regroup(ctx, &held);
                    let partner = &mut forwards[1 - bad % 2];
                    if cut_short {
                        partner.pop();
                    } else {
                        // the same 60 bytes, but the middle block took a
                        // byte from the last
                        let sizes = [16usize, 17, 15];
                        *partner = super::frame(sizes.iter().map(|&n| vec![0u8; n]));
                    }
                    grid.deliver::<u64>(ctx, forwards).len()
                });
                match res {
                    Err(FaultEscalation::Transport(TransportError::Decode {
                        src,
                        dst,
                        len,
                        elem_size,
                        ..
                    })) => {
                        assert_eq!((src, dst), (bad, bad ^ 1), "cut_short {cut_short}");
                        let expect = if cut_short { (59, 4) } else { (17, 8) };
                        assert_eq!((len, elem_size), expect, "bad {bad}");
                    }
                    other => panic!(
                        "bad {bad}: expected a typed decode error, got {:?}",
                        other.map(|r| r.results)
                    ),
                }
            }
        }
    }

    /// Rank `me`'s allgather block: ragged (rank 1 brings none), telling of
    /// its source, or empty everywhere.
    fn gather_block(me: usize, empty: bool) -> Vec<(u32, u64)> {
        let n = if empty || me == 1 {
            0
        } else {
            (5 * me) % 7 + 1
        };
        (0..n).map(|k| (me as u32, (me * 100 + k) as u64)).collect()
    }

    /// The machines the gather tests run on: every size of [`SIZES`] on a
    /// crossbar, and the two wired grids at 32 ranks.
    fn gather_machines() -> Vec<(Topology, usize)> {
        let mut machines: Vec<_> = SIZES.iter().map(|&p| (Topology::Crossbar, p)).collect();
        machines.push((Topology::Dragonfly { group: 8 }, 32));
        machines.push((Topology::FatTree { radix: 4 }, 32));
        machines
    }

    #[test]
    fn grouped_allgatherv_delivers_every_block_in_rank_order() {
        for (topo, p) in gather_machines() {
            for empty in [false, true] {
                let rep = Machine::new(MachineConfig::with_ranks(p).topology(topo)).run(|ctx| {
                    let mine = gather_block(ctx.rank(), empty);
                    let sent = |ctx: &RankCtx| ctx.stats().coll_msgs;
                    let m0 = sent(ctx);
                    let direct = ctx.allgatherv_routed(Route::Direct, &mine);
                    let m1 = sent(ctx);
                    let grouped = ctx.allgatherv_routed(Route::Grouped, &mine);
                    (direct, grouped, m1 - m0, sent(ctx) - m1, exchange_grid(ctx))
                });
                let expect: Vec<_> = (0..p).map(|r| gather_block(r, empty)).collect();
                for (me, (direct, grouped, direct_msgs, grouped_msgs, (g, s))) in
                    rep.results.iter().enumerate()
                {
                    assert_eq!(direct, &expect, "{topo:?} p={p} rank {me}");
                    assert_eq!(grouped, &expect, "{topo:?} p={p} rank {me}");
                    assert_eq!(*direct_msgs, p as u64 - 1, "{topo:?} p={p}");
                    // no grid (1, 2, 3, 5, 7): the grouped route is direct
                    let hops = if *s == 1 { p - 1 } else { g + s - 2 };
                    assert_eq!(*grouped_msgs, hops as u64, "{topo:?} p={p}");
                }
            }
        }
    }

    #[test]
    fn grouped_allgatherv_costs_the_priced_formula() {
        // every rank enters at t = 0 with a block of the same size: the
        // slowest rank leaves when `allgatherv_seconds` says, on either route
        let cases = [
            (Topology::Crossbar, 16),
            (Topology::Crossbar, 12),
            (Topology::Crossbar, 8),
            (Topology::Crossbar, 7),
            (Topology::Dragonfly { group: 4 }, 16),
            (Topology::FatTree { radix: 4 }, 16),
            (Topology::Dragonfly { group: 8 }, 32),
        ];
        for (topo, p) in cases {
            for len in [0usize, 1, 40] {
                for route in [Route::Direct, Route::Grouped] {
                    let cfg = MachineConfig::with_ranks(p).topology(topo);
                    let rep = Machine::new(cfg).run(|ctx| {
                        ctx.allgatherv_routed(route, &vec![ctx.rank() as u64; len]);
                        ctx.allgatherv_seconds(route, (8 * len) as f64)
                    });
                    let priced = rep.results[0];
                    assert!(
                        (rep.sim_time_s - priced).abs() < 1e-12,
                        "{topo:?} p={p} {len} u64s {route:?}: took {} priced {priced}",
                        rep.sim_time_s
                    );
                }
            }
        }
        // 16 ranks on a crossbar, spelled out: 2(P-1) overheads, a latency
        // and one block, against 2(G+S-2) overheads, two latencies, one block
        // and then four of them behind their prefixes
        let net = LogGP::default();
        let rep = Machine::new(MachineConfig::with_ranks(16))
            .run(|ctx| [Route::Direct, Route::Grouped].map(|r| ctx.allgatherv_seconds(r, 100.0)));
        let [direct, grouped] = rep.results[0];
        let direct_by_hand = 30.0 * net.overhead + net.latency + 100.0 * net.per_byte;
        let grouped_by_hand = 12.0 * net.overhead + 2.0 * net.latency + 516.0 * net.per_byte;
        assert!((direct - direct_by_hand).abs() < 1e-15);
        assert!((grouped - grouped_by_hand).abs() < 1e-15);
    }

    #[test]
    fn grouped_allgatherv_route_is_priced_by_block_bytes() {
        let route_at = |p: usize, block: f64| {
            Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| ctx.allgatherv_route(block))
                .results[0]
        };
        // 4 ranks: one overhead pair saved, one latency and G more blocks
        // added — never grouped; a prime has no grid
        assert_eq!(route_at(4, 0.0), Route::Direct);
        assert_eq!(route_at(7, 0.0), Route::Direct);
        // 16 ranks: 9 us of posting saved against 1 us of latency and four
        // more blocks at 10 GB/s — break-even near 20 kB a block
        assert_eq!(route_at(16, 0.0), Route::Grouped);
        assert_eq!(route_at(16, 19e3), Route::Grouped);
        assert_eq!(route_at(16, 21e3), Route::Direct);
        // the route named is the cheaper by `allgatherv_seconds`
        let rep = Machine::new(MachineConfig::with_ranks(16)).run(|ctx| {
            [0.0, 1e3, 1e4, 1.99e4, 2.01e4, 1e6].map(|b| {
                let cheaper = ctx.allgatherv_seconds(Route::Grouped, b)
                    < ctx.allgatherv_seconds(Route::Direct, b);
                (ctx.allgatherv_route(b) == Route::Grouped) == cheaper
            })
        });
        assert_eq!(rep.results[0], [true; 6]);
    }

    #[test]
    fn grouped_allgatherv_is_schedule_and_loss_invariant() {
        // the same blocks in the same order under a seeded delivery
        // schedule and over a lossy network, on a lopsided and a square grid
        let lossy = crate::FaultPlan::lossy(7, 0.1, 0.05, 0.05);
        for p in [12, 16] {
            let expect: Vec<_> = (0..p).map(|r| gather_block(r, false)).collect();
            let configs = [
                MachineConfig::with_ranks(p).deterministic(3),
                MachineConfig::with_ranks(p).deterministic(11),
                MachineConfig::with_ranks(p).faults(lossy),
            ];
            for cfg in configs {
                let rep = Machine::new(cfg).run(|ctx| {
                    let mine = gather_block(ctx.rank(), false);
                    [Route::Direct, Route::Grouped].map(|r| ctx.allgatherv_routed(r, &mine))
                });
                for (me, [direct, grouped]) in rep.results.iter().enumerate() {
                    assert_eq!(direct, &expect, "p={p} rank {me}");
                    assert_eq!(grouped, &expect, "p={p} rank {me}");
                }
            }
        }
    }

    #[test]
    fn grouped_allgatherv_corrupt_bundle_is_a_typed_error() {
        // Rank `bad` of a 3 x 2 grid hands its row a bundle that is cut
        // short (the prefixes no longer add up) or whose last block lost a
        // byte to the one before it (the prefixes do, the records do not).
        // Every member of the row decodes it, `bad` included; the run is the
        // typed error naming `bad`, never a panic.
        for bad in 0..6 {
            for cut_short in [true, false] {
                let res = Machine::new(MachineConfig::with_ranks(6)).try_run(|ctx| {
                    let mine = vec![ctx.rank() as u64; 2];
                    if ctx.rank() != bad {
                        return ctx.allgatherv_routed(Route::Grouped, &mine).len();
                    }
                    let mut grid = ctx.grid.take().expect("6 ranks have a grid");
                    let held = grid.col.allgatherv(ctx, &crate::wire::encode_slice(&mine));
                    let mut bundle = super::frame(held.iter());
                    if cut_short {
                        bundle.pop();
                    } else {
                        // the same 60 bytes, but the middle block took a
                        // byte from the last
                        let sizes = [16usize, 17, 15];
                        bundle = super::frame(sizes.iter().map(|&n| vec![0u8; n]));
                    }
                    let got = grid.row.allgatherv(ctx, &bundle);
                    grid.unpack::<u64>(ctx, &got).len()
                });
                match res {
                    Err(FaultEscalation::Transport(TransportError::Decode {
                        src,
                        dst,
                        len,
                        elem_size,
                        ..
                    })) => {
                        assert_eq!(src, bad, "cut_short {cut_short}");
                        assert!(dst == bad || dst == bad ^ 1, "bad {bad}: dst {dst}");
                        let expect = if cut_short { (59, 4) } else { (17, 8) };
                        assert_eq!((len, elem_size), expect, "bad {bad}");
                    }
                    other => panic!(
                        "bad {bad}: expected a typed decode error, got {:?}",
                        other.map(|r| r.results)
                    ),
                }
            }
        }
    }

    #[test]
    fn gatherv_delivers_blocks_in_rank_order_to_rank_0_only() {
        // P − 1 messages carrying the other ranks' block bytes, all of
        // them collective traffic and one collective on every rank
        for (topo, p) in gather_machines() {
            for empty in [false, true] {
                let rep = Machine::new(MachineConfig::with_ranks(p).topology(topo))
                    .run(|ctx| ctx.gatherv(&gather_block(ctx.rank(), empty)));
                let expect: Vec<_> = (0..p).map(|r| gather_block(r, empty)).collect();
                assert_eq!(rep.results[0], expect, "{topo:?} p={p}");
                assert!(rep.results[1..].iter().all(Vec::is_empty), "p={p}");
                let net = rep.total_stats();
                let bytes: usize = expect[1..].iter().map(|b| 12 * b.len()).sum();
                assert_eq!(net.coll_msgs, p as u64 - 1, "p={p}");
                assert_eq!(net.coll_bytes, bytes as u64, "p={p}");
                assert_eq!((net.user_msgs, net.collectives), (0, p as u64), "p={p}");
            }
        }
    }

    #[test]
    fn gatherv_is_schedule_and_loss_invariant() {
        let lossy = crate::FaultPlan::lossy(7, 0.1, 0.05, 0.05);
        for p in [7, 16] {
            let expect: Vec<_> = (0..p).map(|r| gather_block(r, false)).collect();
            let configs = [
                MachineConfig::with_ranks(p).deterministic(3),
                MachineConfig::with_ranks(p).deterministic(11),
                MachineConfig::with_ranks(p).faults(lossy),
            ];
            for cfg in configs {
                let rep = Machine::new(cfg).run(|ctx| {
                    let mine = gather_block(ctx.rank(), false);
                    [ctx.gatherv(&mine), ctx.gatherv(&mine)]
                });
                assert_eq!(rep.results[0], [expect.clone(), expect.clone()], "p={p}");
                assert!(rep.results[1..].iter().flatten().all(Vec::is_empty));
            }
        }
    }

    #[test]
    fn gatherv_malformed_block_is_a_typed_error() {
        // rank 2 sends pairs where the others send scalars: rank 0 cannot
        // read 16 bytes as one (u32, u64) record of 12
        let res = Machine::new(MachineConfig::with_ranks(4)).try_run(|ctx| {
            if ctx.rank() == 2 {
                ctx.gatherv(&[(1u64, 2u64)]).len()
            } else {
                ctx.gatherv(&gather_block(ctx.rank(), false)).len()
            }
        });
        match res {
            Err(FaultEscalation::Transport(TransportError::Decode {
                src,
                dst,
                len,
                elem_size,
                ..
            })) => assert_eq!((src, dst, len, elem_size), (2, 0, 16, 12)),
            other => panic!(
                "expected a typed decode error, got {:?}",
                other.map(|r| r.results)
            ),
        }
    }

    #[test]
    fn barrier_counts_and_back_to_back_collectives() {
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            // back-to-back collectives with skewed ranks must not cross-talk
            if ctx.rank() == 0 {
                ctx.charge_compute(5_000_000);
            }
            let a = ctx.allreduce_sum(1);
            ctx.barrier();
            let b = ctx.allreduce_sum(2);
            (a, b)
        });
        for r in &rep.results {
            assert_eq!(*r, (4, 8));
        }
        assert!(rep.stats.iter().all(|s| s.barriers == 1));
    }

    #[test]
    fn collective_traffic_is_metered() {
        let rep = Machine::new(MachineConfig::with_ranks(8)).run(|ctx| ctx.allreduce_sum(1));
        let total = rep.total_stats();
        assert!(total.coll_msgs > 0);
        assert!(total.coll_bytes > 0);
        assert_eq!(total.user_msgs, 0);
        // sim time should reflect at least a couple of message latencies
        assert!(rep.sim_time_s > 1e-6);
    }
}
