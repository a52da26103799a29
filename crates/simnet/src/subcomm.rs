//! Sub-communicators (the `MPI_Comm_split` of the simulated machine).
//!
//! 2D-partitioned graph kernels communicate within process-grid *rows* and
//! *columns*; that requires collectives scoped to a subset of ranks. A
//! [`SubComm`] is created collectively by [`RankCtx::split`]: ranks passing
//! the same `color` form one group, ordered by `(key, global rank)`.
//!
//! Collectives on a subgroup are the same explicit message schedules as the
//! global ones (recursive-doubling allreduce — the very function the world
//! calls, `collectives::allreduce_schedule` — ring allgather, direct
//! all-to-all), with sub-ranks translated through the membership table and
//! tags drawn from a per-communicator namespace so concurrent subgroups
//! never collide.

use crate::collectives::allreduce_schedule;
use crate::rank::{RankCtx, Tag};
use crate::trace::TraceCode;
use crate::wire::Wire;

/// Tags at or above this value are reserved for sub-communicator traffic
/// (disjoint from both user tags and global-collective tags).
const TAG_SUBCOMM_BASE: Tag = 1 << 52;

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

    fn next(&mut self) {
        self.seq += 1;
    }

    fn send<T: Wire>(&self, ctx: &mut RankCtx, dest: usize, tag: Tag, items: &[T]) {
        ctx.send_coll(self.members[dest], tag, items);
    }

    fn recv<T: Wire>(&self, ctx: &mut RankCtx, src: usize, tag: Tag) -> Vec<T> {
        ctx.recv_coll(self.members[src], tag)
    }

    /// Allreduce within the subgroup: the world's schedule over the
    /// membership table, with the world's guarantees.
    pub fn allreduce<T: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        value: T,
        combine: impl Fn(&T, &T) -> T,
    ) -> T {
        ctx.trace_begin(TraceCode::Allreduce, self.seq, self.comm_id);
        let who = (self.me, self.size());
        let (global, tag) = (|i| self.members[i], |round| self.tag(round));
        let mut out = allreduce_schedule(ctx, who, global, tag, vec![value], combine);
        self.next();
        ctx.bump_collective();
        ctx.trace_end(TraceCode::Allreduce, self.seq, self.comm_id);
        out.pop().expect("one element in, one out")
    }

    /// Subgroup sum of `u64`.
    pub fn allreduce_sum(&mut self, ctx: &mut RankCtx, v: u64) -> u64 {
        self.allreduce(ctx, v, |a, b| a + b)
    }

    /// Subgroup barrier.
    pub fn barrier(&mut self, ctx: &mut RankCtx) {
        ctx.trace_begin(TraceCode::Barrier, self.seq, self.comm_id);
        self.allreduce(ctx, 0u8, |_, _| 0u8);
        ctx.bump_barrier();
        ctx.trace_end(TraceCode::Barrier, self.seq, self.comm_id);
    }

    /// Ring allgather within the subgroup.
    pub fn allgatherv<T: Wire + Clone>(&mut self, ctx: &mut RankCtx, mine: &[T]) -> Vec<Vec<T>> {
        let p = self.size();
        let me = self.me;
        ctx.trace_begin(TraceCode::Allgatherv, self.seq, self.comm_id);
        let mut blocks: Vec<Option<Vec<T>>> = vec![None; p];
        blocks[me] = Some(mine.to_vec());
        if p > 1 {
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            for step in 0..p - 1 {
                let tag = self.tag(step as u64);
                let send_idx = (me + p - step) % p;
                let to_send = blocks[send_idx].clone().expect("ring schedule");
                self.send(ctx, next, tag, &to_send);
                let recv_idx = (prev + p - step) % p;
                blocks[recv_idx] = Some(self.recv(ctx, prev, tag));
            }
        }
        self.next();
        ctx.bump_collective();
        ctx.trace_end(TraceCode::Allgatherv, self.seq, self.comm_id);
        blocks
            .into_iter()
            .map(|b| b.expect("ring covered group"))
            .collect()
    }

    /// Personalised all-to-all within the subgroup.
    pub fn alltoallv<T: Wire + Clone>(
        &mut self,
        ctx: &mut RankCtx,
        out: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let p = self.size();
        let me = self.me;
        assert_eq!(out.len(), p, "one buffer per subgroup member");
        ctx.trace_begin(TraceCode::Alltoallv, self.seq, self.comm_id);
        let tag = self.tag(0);
        let mut own = None;
        for (d, buf) in out.into_iter().enumerate() {
            if d == me {
                own = Some(buf);
            } else {
                self.send(ctx, d, tag, &buf);
            }
        }
        let mut result = Vec::with_capacity(p);
        for s in 0..p {
            if s == me {
                result.push(own.take().expect("own block set"));
            } else {
                result.push(self.recv(ctx, s, tag));
            }
        }
        self.next();
        ctx.bump_collective();
        ctx.trace_end(TraceCode::Alltoallv, self.seq, self.comm_id);
        result
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
                // the split's ring leaves the clocks skewed; charge every
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
