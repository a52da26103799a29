//! Sub-communicators (the `MPI_Comm_split` of the simulated machine).
//!
//! 2D-partitioned graph kernels communicate within process-grid *rows* and
//! *columns*; that requires collectives scoped to a subset of ranks. A
//! [`SubComm`] is created collectively by [`RankCtx::split`]: ranks passing
//! the same `color` form one group, ordered by `(key, global rank)`.
//!
//! Collectives on a subgroup are not copies of the global ones: they are the
//! very functions the world calls (`collectives::allreduce_schedule`,
//! `allgatherv_schedule`, `alltoallv_schedule`), handed this communicator's
//! maps — sub-ranks translated through the membership table, tags drawn from
//! a per-communicator namespace so concurrent subgroups never collide. This
//! module holds no message loop; what is a subgroup's own is the split, the
//! tag namespace, and the sequence counter and trace ids an invocation bumps.
//!
//! Not every subgroup is born of a split. The columns and rows of the two-hop
//! exchange grid (`collectives.rs`, "routes") are regular — member `i` is
//! rank `first + i·stride` — so every rank writes its own down from
//! `(rank, P, S)` alone ([`SubComm::strided`]): no collective, no virtual
//! time, and two reserved namespace ids no split can hand out.

use crate::collectives::{allgatherv_schedule, allreduce_schedule, alltoallv_schedule, Header};
use crate::rank::{RankCtx, Tag};
use crate::trace::TraceCode;
use crate::wire::Wire;

/// Tags at or above this value are reserved for sub-communicator traffic
/// (disjoint from both user tags and global-collective tags).
const TAG_SUBCOMM_BASE: Tag = 1 << 52;

/// Namespace ids of the exchange grid's columns (hop 1) and rows (hop 2),
/// from the top of the 20 bits a tag has for one: [`RankCtx::split`] counts
/// up from zero. All columns share one id and all rows the other, as groups
/// born of one split do — their member sets are disjoint.
pub(crate) const GRID_COL_ID: u64 = (1 << 20) - 1;
pub(crate) const GRID_ROW_ID: u64 = (1 << 20) - 2;

/// A subgroup of ranks with its own rank numbering and collective tag space.
#[derive(Clone, Debug)]
pub struct SubComm {
    /// Global rank of each member, ordered by (key, global rank).
    members: Vec<usize>,
    /// This rank's index within `members`.
    me: usize,
    /// Namespace id, identical on all members of this communicator.
    comm_id: u64,
    /// Per-communicator collective sequence counter.
    seq: u64,
}

impl RankCtx {
    /// Collectively split the job into subgroups by `color`; within a
    /// group, ranks are ordered by `(key, global rank)`. Every rank must
    /// call; returns this rank's group.
    pub fn split(&mut self, color: u64, key: u64) -> SubComm {
        let me = self.rank();
        let triples = self.allgatherv(&[(color, key, me as u64)]);
        let comm_id = self.next_subcomm_id();
        let mut mine: Vec<(u64, u64)> = Vec::new();
        for block in triples {
            for (c, k, r) in block {
                if c == color {
                    mine.push((k, r));
                }
            }
        }
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|&(_, r)| r as usize).collect();
        let my_index = members
            .iter()
            .position(|&r| r == me)
            .expect("caller is a member of its own color group");
        // Groups born from the same split share a namespace safely: their
        // member sets are disjoint, so their messages can never meet.
        SubComm {
            members,
            me: my_index,
            comm_id,
            seq: 0,
        }
    }
}

impl SubComm {
    /// The regular subgroup `first, first + stride, …` of `len` ranks, seen
    /// by its member of machine rank `rank`, in namespace `comm_id`. Every
    /// member must build it with the same arguments but `rank`.
    pub(crate) fn strided(
        rank: usize,
        (first, stride, len): (usize, usize, usize),
        comm_id: u64,
    ) -> SubComm {
        let members: Vec<usize> = (0..len).map(|i| first + i * stride).collect();
        let me = (rank - first) / stride;
        assert_eq!(members.get(me), Some(&rank), "not a member of its subgroup");
        SubComm {
            members,
            me,
            comm_id,
            seq: 0,
        }
    }

    /// This rank's index within the subgroup.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Subgroup size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of subgroup member `i`.
    pub fn global_rank(&self, i: usize) -> usize {
        self.members[i]
    }

    fn tag(&self, round: u64) -> Tag {
        debug_assert!(round < 1 << 16, "collective round overflow");
        // seq wraps at 2^16: safe because rank skew within one communicator
        // is bounded by a single collective, so a wrapped tag can never
        // still be in flight.
        TAG_SUBCOMM_BASE | (self.comm_id << 32) | ((self.seq & 0xFFFF) << 16) | round
    }

    /// One invocation of a subgroup collective — `RankCtx::collective` over
    /// this communicator's maps, counter and trace ids: its span, `schedule`
    /// with members translated through the membership table and tags from
    /// the communicator's namespace, then the sequence number claimed and
    /// the collective counted.
    fn collective<R>(
        &mut self,
        ctx: &mut RankCtx,
        code: TraceCode,
        schedule: impl FnOnce(
            &mut RankCtx,
            (usize, usize),
            &dyn Fn(usize) -> usize,
            &dyn Fn(u64) -> Tag,
        ) -> R,
    ) -> R {
        ctx.trace_begin(code, self.seq, self.comm_id);
        let (global, tag) = (|i| self.members[i], |round| self.tag(round));
        let out = schedule(ctx, (self.me, self.size()), &global, &tag);
        self.seq += 1;
        ctx.bump_collective();
        ctx.trace_end(code, self.seq, self.comm_id);
        out
    }

    /// Allreduce within the subgroup: the world's schedule over the
    /// membership table, with the world's guarantees.
    pub fn allreduce<T: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        value: T,
        combine: impl Fn(&T, &T) -> T,
    ) -> T {
        let mut out = self.collective(ctx, TraceCode::Allreduce, |ctx, who, global, tag| {
            allreduce_schedule(ctx, who, global, tag, vec![value], combine)
        });
        out.pop().expect("one element in, one out")
    }

    /// Subgroup sum of `u64`.
    pub fn allreduce_sum(&mut self, ctx: &mut RankCtx, v: u64) -> u64 {
        self.allreduce(ctx, v, |a, b| a + b)
    }

    /// Subgroup barrier: the world's, an allreduce of one byte nobody reads
    /// in a span of its own.
    pub fn barrier(&mut self, ctx: &mut RankCtx) {
        ctx.trace_begin(TraceCode::Barrier, self.seq, self.comm_id);
        self.allreduce(ctx, 0u8, |_, _| 0u8);
        ctx.bump_barrier();
        ctx.trace_end(TraceCode::Barrier, self.seq, self.comm_id);
    }

    /// Allgather within the subgroup, indexed by sub-rank: the world's
    /// one-round schedule.
    pub fn allgatherv<T: Wire + Clone>(&mut self, ctx: &mut RankCtx, mine: &[T]) -> Vec<Vec<T>> {
        self.allgatherv_with(ctx, mine, &Header::none()).0
    }

    /// [`allgatherv`](Self::allgatherv) carrying `header`, folded in member
    /// order: a grouped route's hop.
    pub(crate) fn allgatherv_with<T: Wire + Clone, H: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        mine: &[T],
        header: &Header<H>,
    ) -> (Vec<Vec<T>>, Vec<H>) {
        self.collective(ctx, TraceCode::Allgatherv, |ctx, who, global, tag| {
            allgatherv_schedule(ctx, who, global, tag, mine, header)
        })
    }

    /// Personalised all-to-all within the subgroup: the world's direct
    /// exchange.
    pub fn alltoallv<T: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        out: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        self.alltoallv_with(ctx, out, &Header::none()).0
    }

    /// [`alltoallv`](Self::alltoallv) carrying `header`, folded in member
    /// order: a grouped route's hop.
    pub(crate) fn alltoallv_with<T: Wire + Clone, H: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        out: Vec<Vec<T>>,
        header: &Header<H>,
    ) -> (Vec<Vec<T>>, Vec<H>) {
        self.collective(ctx, TraceCode::Alltoallv, |ctx, who, global, tag| {
            alltoallv_schedule(ctx, who, global, tag, out, header)
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn split_forms_correct_groups() {
        let rep = Machine::new(MachineConfig::with_ranks(6)).run(|ctx| {
            // rows of a 2x3 grid: color = rank / 3
            let row = ctx.split(ctx.rank() as u64 / 3, ctx.rank() as u64);
            (row.rank(), row.size(), row.global_rank(0))
        });
        assert_eq!(rep.results[0], (0, 3, 0));
        assert_eq!(rep.results[2], (2, 3, 0));
        assert_eq!(rep.results[3], (0, 3, 3));
        assert_eq!(rep.results[5], (2, 3, 3));
    }

    #[test]
    fn key_controls_ordering() {
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            // reverse order by key
            let g = ctx.split(0, 100 - ctx.rank() as u64);
            g.rank()
        });
        assert_eq!(rep.results, vec![3, 2, 1, 0]);
    }

    #[test]
    fn subgroup_allreduce_is_scoped() {
        let rep = Machine::new(MachineConfig::with_ranks(6)).run(|ctx| {
            let color = (ctx.rank() % 2) as u64; // evens vs odds
            let mut g = ctx.split(color, ctx.rank() as u64);
            g.allreduce_sum(ctx, ctx.rank() as u64)
        });
        // evens: 0+2+4 = 6; odds: 1+3+5 = 9
        assert_eq!(rep.results, vec![6, 9, 6, 9, 6, 9]);
    }

    #[test]
    fn subgroup_allreduce_is_the_world_schedule() {
        // 12 ranks as three groups of 4 and as four ragged groups of 3,
        // interleaved so sub-ranks are not machine ranks. Rounds, messages
        // and the bitwise rank-order result are the world allreduce's
        // (`collectives::tests`): 2 rounds and 8 messages per group of 4;
        // 4 messages and the fold-round finish, 2 rounds + 2 overheads,
        // per group of 3.
        let net = crate::cost::LogGP::default();
        let round = 2.0 * net.overhead + net.latency + 8.0 * net.per_byte;
        let addend = |r: usize| [1e16, 1.0, -1e16, 1e-3][r % 4] * (r / 4 + 1) as f64;
        for (groups, msgs, slowest) in [(3, 8, 2.0 * round), (4, 4, 2.0 * round + 1e-6)] {
            let rep = Machine::new(MachineConfig::with_ranks(12)).run(|ctx| {
                let mut g = ctx.split((ctx.rank() % groups) as u64, ctx.rank() as u64);
                // the split's gather leaves the clocks skewed; charge every
                // rank up to one common instant so the group enters together
                let skew = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b }) + 1e-3;
                ctx.charge_seconds(skew - ctx.now());
                let (t0, m0) = (ctx.now(), ctx.stats().coll_msgs);
                let sum = g.allreduce(ctx, addend(ctx.rank()), |a, b| a + b);
                (sum.to_bits(), ctx.now() - t0, ctx.stats().coll_msgs - m0)
            });
            for color in 0..groups {
                let members: Vec<usize> = (0..12).filter(|r| r % groups == color).collect();
                let vals: Vec<f64> = members.iter().map(|&r| addend(r)).collect();
                let expect = if vals.len() == 4 {
                    (vals[0] + vals[1]) + (vals[2] + vals[3])
                } else {
                    (vals[0] + vals[1]) + vals[2]
                };
                let sent: u64 = members.iter().map(|&r| rep.results[r].2).sum();
                assert_eq!(sent, msgs, "{groups} groups, color {color}");
                let mut last = 0.0f64;
                for &r in &members {
                    assert_eq!(rep.results[r].0, expect.to_bits(), "rank {r}");
                    last = last.max(rep.results[r].1);
                }
                assert!((last - slowest).abs() < 1e-12, "{groups} groups: {last}");
            }
        }
        // The gather and the direct exchange are the world's too: a subgroup
        // spanning the world delivers the world's blocks in the world's
        // message count and, entered at one common instant, finishes when
        // the world's does, on every rank.
        for p in [1, 3, 4, 7, 8] {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank();
                let mut g = ctx.split(0, me as u64);
                let mine = vec![me as u64; me + 1];
                let out: Vec<Vec<u64>> =
                    (0..p).map(|d| vec![(me * 10 + d) as u64; d + 1]).collect();
                [false, true].map(|sub| {
                    let mut cost = Vec::new();
                    let mut entered = |ctx: &mut crate::RankCtx| {
                        cost.push((ctx.now(), ctx.stats().coll_msgs));
                        let skew = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b });
                        ctx.charge_seconds(skew + 1e-3 - ctx.now());
                        cost.push((ctx.now(), ctx.stats().coll_msgs));
                    };
                    entered(ctx);
                    let gathered = match sub {
                        true => g.allgatherv(ctx, &mine),
                        false => ctx.allgatherv(&mine),
                    };
                    entered(ctx);
                    let exchanged = match sub {
                        true => g.alltoallv(ctx, out.clone()),
                        false => ctx.alltoallv(out.clone()),
                    };
                    entered(ctx);
                    // (seconds, messages) of the gather, then of the exchange
                    let spent = |i: usize| (cost[i + 1].0 - cost[i].0, cost[i + 1].1 - cost[i].1);
                    (gathered, exchanged, spent(1), spent(3))
                })
            });
            for (rank, [world, sub]) in rep.results.iter().enumerate() {
                assert_eq!((&sub.0, &sub.1), (&world.0, &world.1), "p={p} rank {rank}");
                for (s, w) in [(sub.2, world.2), (sub.3, world.3)] {
                    assert_eq!(s.1, w.1, "p={p} rank {rank}: messages");
                    assert!((s.0 - w.0).abs() < 1e-12, "p={p} rank {rank}: {s:?} {w:?}");
                }
            }
            let sent: u64 = rep.results.iter().map(|[_, sub]| sub.2 .1 + sub.3 .1).sum();
            assert_eq!(sent, 2 * (p * (p - 1)) as u64, "p={p}");
        }
    }

    #[test]
    fn concurrent_subgroup_collectives_do_not_cross() {
        // rows and columns of a 2x2 grid, used alternately
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            let r = ctx.rank();
            let mut row = ctx.split((r / 2) as u64, r as u64);
            let mut col = ctx.split((r % 2) as u64, r as u64);
            let a = row.allreduce_sum(ctx, r as u64 + 1);
            let b = col.allreduce_sum(ctx, r as u64 + 1);
            let c = row.allreduce_sum(ctx, 10);
            (a, b, c)
        });
        // rows {0,1} {2,3}: sums 3, 7; cols {0,2} {1,3}: sums 4, 6
        assert_eq!(
            rep.results,
            vec![(3, 4, 20), (3, 6, 20), (7, 4, 20), (7, 6, 20)]
        );
    }

    #[test]
    fn subgroup_allgatherv_and_alltoallv() {
        let rep = Machine::new(MachineConfig::with_ranks(6)).run(|ctx| {
            let color = (ctx.rank() / 3) as u64;
            let mut g = ctx.split(color, ctx.rank() as u64);
            let gathered = g.allgatherv(ctx, &[ctx.rank() as u64]);
            let out: Vec<Vec<u64>> = (0..g.size())
                .map(|d| vec![(ctx.rank() * 10 + d) as u64])
                .collect();
            let exchanged = g.alltoallv(ctx, out);
            (gathered, exchanged)
        });
        let (gathered, exchanged) = &rep.results[4]; // rank 4 = group 1, sub-rank 1
        assert_eq!(gathered.concat(), vec![3, 4, 5]);
        assert_eq!(exchanged.concat(), vec![31, 41, 51]);
    }

    #[test]
    fn singleton_groups_work() {
        let rep = Machine::new(MachineConfig::with_ranks(3)).run(|ctx| {
            let mut g = ctx.split(ctx.rank() as u64, 0); // everyone alone
            assert_eq!(g.size(), 1);
            g.barrier(ctx);
            g.allreduce_sum(ctx, 42)
        });
        assert_eq!(rep.results, vec![42, 42, 42]);
    }
}
