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
//! sequence counter and trace ids an invocation bumps. A change of schedule
//! — a Bruck allgather, a two-hop exchange — is a change to one function.
//!
//! Tag discipline: each collective invocation claims a fresh sequence number
//! from its communicator's rank-local counter. SPMD programs call collectives
//! in the same order on every rank, so sequence numbers agree globally and
//! back-to-back collectives can never confuse each other's messages even
//! when some ranks run far ahead.
//!
//! Counting: every collective bumps [`NetStats::collectives`] once. An
//! allreduce is one collective; a barrier is one allreduce that also bumps
//! [`NetStats::barriers`].
//!
//! [`NetStats::collectives`]: crate::NetStats::collectives
//! [`NetStats::barriers`]: crate::NetStats::barriers

use crate::rank::{RankCtx, Tag, TrafficClass, TAG_COLLECTIVE_BASE};
use crate::recovery::FaultEscalation;
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
/// over the same maps: a ring. Every member contributes a variably-sized
/// block; in each of `p − 1` rounds it forwards to the member above it the
/// block it received from the member below the round before — the classic
/// bandwidth-optimal schedule. Returns all blocks indexed by member.
pub(crate) fn allgatherv_schedule<T: Wire + Clone>(
    ctx: &mut RankCtx,
    (me, p): (usize, usize),
    global: impl Fn(usize) -> usize,
    tag: impl Fn(u64) -> Tag,
    mine: &[T],
) -> Vec<Vec<T>> {
    let mut blocks: Vec<Option<Vec<T>>> = vec![None; p];
    blocks[me] = Some(mine.to_vec());
    let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
    for step in 0..p - 1 {
        let forwarded = blocks[(me + p - step) % p].as_deref();
        ctx.send_coll(
            global(next),
            tag(step as u64),
            forwarded.expect("received the round before"),
        );
        blocks[(prev + p - step) % p] = Some(ctx.recv_coll(global(prev), tag(step as u64)));
    }
    blocks
        .into_iter()
        .map(|b| b.expect("ring covered all members"))
        .collect()
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
            _ => std::panic::panic_any(FaultEscalation::Transport(TransportError::Decode {
                src,
                dst: self.rank(),
                tag,
                len: buf.len(),
                elem_size: T::SIZE,
            })),
        }
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

    /// Allreduce min of `u64`.
    pub fn allreduce_min(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| *a.min(b))
    }

    /// Allreduce logical-and (consensus "everyone done?" check).
    pub fn allreduce_and(&mut self, v: bool) -> bool {
        self.allreduce(v as u64, |a, b| a & b) == 1
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

    /// Personalised all-to-all: `out[d]` is delivered to rank `d`; returns
    /// the blocks received, indexed by source rank
    /// ([`alltoallv_schedule`]).
    pub fn alltoallv<T: Wire + Clone>(&mut self, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.collective(TraceCode::Alltoallv, |ctx, who, tag| {
            alltoallv_schedule(ctx, who, |i| i, tag, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, MachineConfig};
    use crate::recovery::FaultEscalation;
    use crate::transport::TransportError;

    /// Every collective is exercised at power-of-two and ragged rank
    /// counts — recursive doubling folds a different number of ranks in at
    /// each of 3, 5, 6, 7 and 12, and the ring has its own edge cases.
    const SIZES: [usize; 9] = [1, 2, 3, 5, 6, 7, 8, 12, 16];

    #[test]
    fn allreduce_sum_and_min_max() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                (
                    ctx.allreduce_sum(me + 1),
                    ctx.allreduce_min(me + 10),
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
    fn allreduce_and_consensus() {
        let rep = Machine::new(MachineConfig::with_ranks(4))
            .run(|ctx| (ctx.allreduce_and(true), ctx.allreduce_and(ctx.rank() != 2)));
        for r in rep.results {
            assert_eq!(r, (true, false));
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
                ctx.allreduce_sum(ctx.rank() as u64);
                ctx.now()
            });
            let total = rep.total_stats();
            assert_eq!(total.coll_msgs, msgs, "p={p}");
            assert_eq!(total.coll_bytes, 8 * msgs, "p={p}");
            assert_eq!(total.collectives, p as u64, "one collective a rank, p={p}");
            let bound = f64::from(rounds) * round;
            if p.is_power_of_two() {
                for now in &rep.results {
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
