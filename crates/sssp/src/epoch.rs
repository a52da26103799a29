//! The bucket-epoch driver: the one bulk-synchronous delta-stepping
//! skeleton under the 1D kernel (one lane or a batch of them), the 2D
//! kernel and BFS (`crate::bfs`, a level a bucket).
//!
//! ```text
//! epoch-0 checkpoint
//! loop:
//!     bucket boundary: crash probe + periodic checkpoint   (restore → loop)
//!     agreed ← agree(each lane's own minimum bucket and offer)
//!     k ← the lowest bucket any lane named                 (none → done)
//!     open bucket k with `agreed`        (false → done: fused tail, retired)
//!     while some lane drained something, by `agreed`:
//!         crash probe                          (restore → abandon k, loop)
//!         agreed ← one light-edge superstep of k, reading `agreed`
//!     close bucket k: the heavy pass and per-bucket accounting
//! ```
//!
//! The driver owns the loop shape, the boundary's agreement allreduce and
//! every [`Recovery`] hook, so all of them sit at the same collective points
//! in every kernel. What a superstep *does* — its exchange, its relaxation
//! order, its trace events, and how it comes by the agreement its successor
//! reads — stays in the kernel behind [`BucketKernel`].
//!
//! An agreement is one `(k, offer)` per lane from every rank, merged lane by
//! lane ([`merge_agreed`]). The lower `k` wins; what two offers say about a
//! bucket merges only when both speak of the same one (the lower one's
//! stands otherwise), what they say about the whole queue always. At a
//! boundary it is one slice-valued allreduce, which stands in for three
//! (tail trigger, minimum, first frontier sums) and is the first light
//! step's. Inside a bucket the 1D kernel makes none: each light step sends
//! every rank's offer as the *header* of an all-to-all and gets them back
//! merged (`simnet/collectives.rs`, "Headers") — on its update exchange when
//! every lane pushes, on an empty exchange it opens with when one would
//! pull — so the step's successor reads what the step drained, and the
//! bucket closes on the one step whose frontiers were globally empty. The
//! 2D kernel's row and column collectives do not reach every rank, so its
//! light step ends with [`agree`]. Either way a run makes `buckets + 1`
//! agreement allreduces in the 1D kernel, `supersteps + 1` in the 2D and
//! `levels + 1` in BFS, whose level needs no second step. A
//! rank whose minimum loses must be left as it was, so a boundary's offer
//! summarises without draining; and a lane whose bucket is not the lowest
//! sits the open bucket out, its boundary sums unread. (DESIGN.md,
//! "Bucket-epoch driver".)

use simnet::recovery::{Checkpoint, FaultEscalation, Recovery};
use simnet::{RankCtx, TraceCode, Wire};
use std::cmp::Ordering;

/// What a rank contributes to one agreement besides the bucket index.
pub(crate) trait Offer: Wire + Clone {
    /// `buckets` compares the bucket `self` speaks of with `other`'s: the
    /// per-bucket part merges on `Equal` and is the lower side's otherwise;
    /// a whole-queue part merges regardless.
    fn merge(&self, other: &Self, buckets: Ordering) -> Self;

    /// Whether, merged, the offer says its lane drained no frontier: the
    /// lane has no light step left in the open bucket.
    fn drained_nothing(&self) -> bool;
}

/// The offer of a kernel that agrees on the frontier's size alone.
impl Offer for u64 {
    fn merge(&self, other: &u64, buckets: Ordering) -> u64 {
        match buckets {
            Ordering::Less => *self,
            Ordering::Greater => *other,
            Ordering::Equal => self + other,
        }
    }

    fn drained_nothing(&self) -> bool {
        *self == 0
    }
}

/// One lane's side of an agreement: the bucket it speaks of (`u64::MAX`:
/// none) and what it says.
pub(crate) type Agreed<O> = (u64, O);

/// Two sides of one lane's agreement merged: the lower bucket, and the
/// offers merged by which bucket each speaks of. An allreduce's combine and
/// a light step's header merge alike.
pub(crate) fn merge_agreed<O: Offer>(a: &Agreed<O>, b: &Agreed<O>) -> Agreed<O> {
    (a.0.min(b.0), a.1.merge(&b.1, a.0.cmp(&b.0)))
}

/// What the driver needs from a kernel. The [`Checkpoint`] supertrait
/// covers everything that lives across a superstep boundary; scratch that
/// is rewritten before it is read stays out of it.
pub(crate) trait BucketKernel: Checkpoint {
    type Offer: Offer;

    /// This rank's contribution to a boundary's agreement, one entry a lane
    /// (the same number on every rank): of the lane's own minimum bucket,
    /// which it leaves alone.
    fn offer(&mut self) -> Vec<Agreed<Self::Offer>>;

    /// Start bucket `k`, the lowest any lane named, leaving in `agreed` what
    /// the first light step must read — a lane that sits the bucket out
    /// drained nothing. `false` ends the run here (the fused tail finished
    /// it; every lane has retired; a BFS level's frontier is empty).
    fn open_bucket(
        &mut self,
        ctx: &mut RankCtx,
        k: u64,
        agreed: &mut [Agreed<Self::Offer>],
    ) -> bool;

    /// One light-edge superstep of bucket `k` over the frontiers drained for
    /// it, `agreed` the agreement its predecessor (or the boundary) left;
    /// returns the agreement on what it drained, which its successor reads.
    /// Called only while `agreed` says some lane drained something.
    fn light_step(
        &mut self,
        ctx: &mut RankCtx,
        k: u64,
        agreed: &[Agreed<Self::Offer>],
    ) -> Vec<Agreed<Self::Offer>>;

    /// Bucket `k` reached its light-edge fixpoint: run the heavy pass and
    /// whatever per-bucket accounting follows it.
    fn close_bucket(&mut self, ctx: &mut RankCtx, k: u64);

    /// A crash rolled the state back to before bucket `k` was opened:
    /// close whatever trace span [`open_bucket`](Self::open_bucket) left
    /// open. State needs no undoing — the restore replaced it.
    fn abandon_bucket(&mut self, ctx: &mut RankCtx, k: u64);
}

/// One agreement allreduce: every rank leaves with, for each lane, the
/// lowest offered bucket and the merged offer, bitwise the same everywhere.
pub(crate) fn agree<O: Offer>(ctx: &mut RankCtx, offers: Vec<Agreed<O>>) -> Vec<Agreed<O>> {
    ctx.allreduce_slice(offers, merge_agreed)
}

/// Drive `kernel` to completion. Collective. On a fault-free machine
/// [`Recovery::begin`] yields `None` and the hooks cost nothing; under a
/// crash plan an unrecoverable schedule comes back as the identical `Err`
/// on every rank, from the same collective point.
pub(crate) fn run_bucket_epochs<K: BucketKernel>(
    ctx: &mut RankCtx,
    kernel: &mut K,
) -> Result<(), FaultEscalation> {
    // The epoch-0 checkpoint captures the source insertion the kernel did
    // before calling in, so a rollback all the way back restarts the
    // search rather than losing it.
    let mut rec = Recovery::begin(ctx, kernel);
    'outer: loop {
        if let Some(r) = rec.as_mut() {
            // On a restore the rolled-back state re-enters the loop here.
            if r.bucket_boundary(ctx, kernel)? {
                continue 'outer;
            }
        }
        let mut agreed = agree(ctx, kernel.offer());
        let k = agreed.iter().map(|a| a.0).min().unwrap_or(u64::MAX);
        if k == u64::MAX || !kernel.open_bucket(ctx, k, &mut agreed) {
            break;
        }
        while !agreed.iter().all(|(_, offer)| offer.drained_nothing()) {
            if let Some(r) = rec.as_mut() {
                // A mid-bucket crash rolls back to the last bucket-boundary
                // checkpoint; the bucket counter rewound with the state.
                if r.probe(ctx, kernel)? {
                    kernel.abandon_bucket(ctx, k);
                    continue 'outer;
                }
            }
            agreed = kernel.light_step(ctx, k, &agreed);
        }
        kernel.close_bucket(ctx, k);
    }
    if let Some(r) = rec {
        r.finish(ctx);
    }
    Ok(())
}

/// One traced `Superstep` span with its compute/comm/relaxation deltas.
/// `flavor`: 0 light, 1 heavy, 2 fused tail. The counters are snapshotted
/// only when tracing is on, so untraced runs skip the reads too.
pub(crate) struct SuperstepSpan {
    flavor: u64,
    snap: Option<(f64, f64, u64)>,
}

impl SuperstepSpan {
    /// Open the span under superstep number `index`; `relaxations` is the
    /// kernel's running relaxation count.
    pub(crate) fn open(ctx: &mut RankCtx, index: u64, flavor: u64, relaxations: u64) -> Self {
        let snap = ctx
            .trace_enabled()
            .then(|| (ctx.stats().compute_s, ctx.stats().comm_s, relaxations));
        ctx.trace_begin(TraceCode::Superstep, index, flavor);
        SuperstepSpan { flavor, snap }
    }

    /// Close the span and emit the deltas since [`open`](Self::open). The
    /// caller chooses the closing `index`: the 1D kernel closes with the
    /// already-incremented superstep count, the 2D kernel with the number
    /// it opened under, and the golden traces pin both.
    pub(crate) fn close(self, ctx: &mut RankCtx, index: u64, relaxations: u64) {
        ctx.trace_end(TraceCode::Superstep, index, self.flavor);
        if let Some((c0, m0, r0)) = self.snap {
            let dc = ctx.stats().compute_s - c0;
            let dm = ctx.stats().comm_s - m0;
            ctx.trace_count_f64(TraceCode::SuperstepCompute, dc, self.flavor);
            ctx.trace_count_f64(TraceCode::SuperstepComm, dm, self.flavor);
            ctx.trace_count(TraceCode::Relaxations, relaxations - r0, self.flavor);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::codec::Update;
    use crate::dist::run_kernel;
    use crate::multi::{try_batched_delta_stepping, BatchSpec};
    use crate::{
        distributed_bfs, try_distributed_delta_stepping, Direction, Grid2DSssp, OptConfig,
    };
    use g500_graph::WEdge;
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{CrashPlan, Machine, MachineConfig, RankCtx, TraceCode, TraceKind};

    /// This rank's quarter of the scale-9 Kronecker edge list.
    fn kron9_slice(ctx: &RankCtx) -> Vec<WEdge> {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 4));
        let el = gen.generate_all();
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
        (lo..hi).map(|i| el.get(i)).collect()
    }

    /// Where a run's allreduces sit — between buckets (an agreement, or the
    /// batch's `finished_at` maximum), inside a bucket span, inside a fused
    /// tail round — and how many bucket spans and tail rounds it opened.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Placed {
        between: u64,
        in_bucket: u64,
        in_tail: u64,
        buckets: u64,
        tail_rounds: u64,
    }

    /// Run `kernel` on a traced 4-rank machine between two marker events and
    /// return what it returns (rank 0's) with where the allreduces each rank
    /// made in between sit — the same on every rank, or the run would have
    /// deadlocked, but asserted.
    fn allreduces_of<R: Send>(kernel: impl Fn(&mut RankCtx) -> R + Sync) -> (R, Placed) {
        let mut rep = Machine::new(MachineConfig::with_ranks(4).traced(true)).run(|ctx| {
            let out = kernel(ctx);
            ctx.trace_end(TraceCode::RootRun, 0, 0);
            out
        });
        let placed: Vec<Placed> = rep
            .traces
            .iter()
            .map(|buf| {
                let run = buf
                    .events
                    .iter()
                    .skip_while(|e| e.code != TraceCode::RootRun)
                    .take_while(|e| !(e.code == TraceCode::RootRun && e.kind == TraceKind::End));
                let (mut placed, mut bucket, mut tail) = (Placed::default(), false, false);
                for e in run {
                    let open = e.kind == TraceKind::Begin;
                    match e.code {
                        TraceCode::Bucket if e.kind != TraceKind::Count => {
                            bucket = open;
                            placed.buckets += u64::from(open);
                        }
                        TraceCode::Superstep if e.b == 2 => {
                            tail = open;
                            placed.tail_rounds += u64::from(open);
                        }
                        TraceCode::Allreduce if open => {
                            let slot = match (bucket, tail) {
                                (true, _) => &mut placed.in_bucket,
                                (_, true) => &mut placed.in_tail,
                                _ => &mut placed.between,
                            };
                            *slot += 1;
                        }
                        _ => {}
                    }
                }
                placed
            })
            .collect();
        assert!(placed.iter().all(|&p| p == placed[0]), "{placed:?}");
        (rep.results.swap_remove(0), placed[0])
    }

    /// The invariant the agreement protocol buys: one allreduce a bucket,
    /// at its boundary, and one to end the run or decide its tail — no
    /// light step makes one of its own, because each carries the next
    /// agreement as its exchange's header. A fused tail's round makes its
    /// own (it sits between buckets), and a batch makes the one maximum that
    /// stamps `finished_at` on the lanes still running. A batch is the same
    /// kernel, so the same count, however many lanes share an agreement and
    /// whether the run ends on an empty queue or on the last retirement.
    /// BFS opens a bucket a level and its one light step ends the level
    /// without a collective: `levels + 1`, none inside a level. The 2D
    /// kernel's light steps agree by allreduce: `supersteps + 1`.
    #[test]
    fn agreement_count_is_buckets_plus_one() {
        for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
            for tail in [true, false] {
                let opts = OptConfig::all_on().with_direction(dir);
                let (stats, placed) = allreduces_of(|ctx| {
                    let part = Block1D::new(512, 4);
                    let g = assemble_local_graph(ctx, kron9_slice(ctx).into_iter(), part);
                    ctx.trace_begin(TraceCode::RootRun, 0, 0);
                    let lane = [BatchSpec::full(0)];
                    let k = run_kernel::<_, Update>(ctx, &g, &lane, &opts, tail, true).expect("ok");
                    k.stats
                });
                assert_eq!(stats.tail_fused, tail, "{dir:?}");
                assert!(tail || stats.buckets > 1, "{stats:?}");
                assert_eq!(
                    (placed.buckets, tail),
                    (stats.buckets, placed.tail_rounds > 0)
                );
                let want = Placed {
                    between: stats.buckets + 1,
                    in_bucket: 0,
                    in_tail: placed.tail_rounds,
                    ..placed
                };
                assert_eq!(placed, want, "{dir:?} tail {tail}");
            }

            let mixed = [
                BatchSpec::full(0),
                BatchSpec::p2p(3, 21),
                BatchSpec::full(21),
                BatchSpec::p2p(0, 3).with_bound(0.9),
            ];
            for specs in [&mixed[..], &mixed[1..2]] {
                let ((lanes, _), placed) = allreduces_of(|ctx| {
                    let part = Block1D::new(512, 4);
                    let g = assemble_local_graph(ctx, kron9_slice(ctx).into_iter(), part);
                    ctx.trace_begin(TraceCode::RootRun, 0, 0);
                    let opts = OptConfig::all_on().with_direction(dir);
                    try_batched_delta_stepping(ctx, &g, specs, &opts).expect("ok")
                });
                let retired = lanes.iter().any(|lane| lane.early_exit);
                assert!(retired, "{dir:?}: no lane retired");
                let want = Placed {
                    between: placed.buckets + 1 + 1,
                    in_bucket: 0,
                    in_tail: 0,
                    ..placed
                };
                assert_eq!(placed, want, "{dir:?} batch of {}", specs.len());
            }

            let (stats, placed) = allreduces_of(|ctx| {
                let part = Block1D::new(512, 4);
                let g = assemble_local_graph(ctx, kron9_slice(ctx).into_iter(), part);
                ctx.trace_begin(TraceCode::RootRun, 0, 0);
                distributed_bfs(ctx, &g, 0, dir).expect("ok").1
            });
            assert!(stats.buckets > 1, "{stats:?}");
            let want = Placed {
                between: stats.buckets + 1,
                in_bucket: 0,
                in_tail: 0,
                buckets: stats.buckets,
                tail_rounds: 0,
            };
            assert_eq!(placed, want, "BFS {dir:?}");
        }

        let (stats, placed) = allreduces_of(|ctx| {
            let mut g = Grid2DSssp::build(ctx, 512, kron9_slice(ctx).into_iter(), 0.125);
            ctx.trace_begin(TraceCode::RootRun, 0, 0);
            g.try_run(ctx, 0).expect("ok")
        });
        assert_eq!(
            placed.between + placed.in_bucket,
            stats.supersteps + 1,
            "2D"
        );
    }

    /// Per-rank size of the one checkpoint `run` takes: the crash plan is
    /// armed (a forced crash at a probe no run reaches) with an interval no
    /// run reaches either, so only the driver's epoch-0 checkpoint happens.
    fn epoch0_checkpoint_bytes(run: impl Fn(&mut RankCtx) + Sync) -> Vec<u64> {
        let plan = CrashPlan::none()
            .with_forced(0, u32::MAX - 1)
            .with_checkpoint_interval(u64::MAX);
        Machine::new(MachineConfig::with_ranks(4).crashes(plan))
            .run(|ctx| {
                run(ctx);
                assert_eq!(ctx.stats().checkpoints, 1);
                ctx.stats().checkpoint_bytes
            })
            .results
    }

    /// Checkpoint length is simulated time — `take_checkpoint` charges
    /// compute per byte and ships the buffer — so the encoded size of each
    /// kernel's state is part of every crash run's reported numbers. The
    /// expected sizes were recorded at the commit before the kernels moved
    /// onto the shared driver and the `Wire`-generic codec; the 1D kernel's
    /// moved twice since. First by −8 bytes a rank on these 16-vertex
    /// slices: `unsettled_mark` (8-byte count + one byte a vertex) left,
    /// `unsettled_heavy` and `SsspRunStats::heavy_pulls` (8 each) came.
    /// Then by −8 again, with the batched row: `SsspRunStats` lost the
    /// always-empty per-bucket phase list and its 8-byte count.
    ///
    /// The batched row moved when a batch became that kernel over lanes
    /// ([802, 798, 778, 778] before), and by the same −8 with the phase
    /// list. It is the 1D layout lane by lane: three lanes of 544 bytes on
    /// an empty queue (a 16-vertex `dist`, `parent`, `frontier_seen` and
    /// `settled_seen`, each behind an 8-byte count — 72 + 136 + 136 + 136 —
    /// the two epochs, the two unsettled counters and 32 bytes of empty
    /// `BucketQueue`), +20 where a lane's source sits in bucket 0 (ranks 0
    /// twice, 1 once); 21 for the p2p lane's retirement record (`live`,
    /// `finished_at`, the target's `(f32, u64)`); and one `SsspRunStats` of
    /// 96 for the run. No lane count, no `pruned` for a lane without a
    /// bound. What it gained over the old layout is the stamps and counters
    /// the solo kernel already carried per search.
    ///
    /// The BFS row is its two 16-vertex result arrays (136 bytes each), the
    /// frontier (the root's 4 bytes on rank 0, behind an 8-byte count), the
    /// unexplored-arc count and one `SsspRunStats` of 96.
    #[test]
    fn kernel_checkpoint_sizes_are_pinned() {
        let el = g500_gen::simple::erdos_renyi(64, 320, 13);
        let slice = |ctx: &RankCtx| -> Vec<WEdge> {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
            (lo..hi).map(|i| el.get(i)).collect()
        };
        let kernel = epoch0_checkpoint_bytes(|ctx| {
            let g = assemble_local_graph(ctx, slice(ctx).into_iter(), Block1D::new(64, 4));
            try_distributed_delta_stepping(ctx, &g, 3, &OptConfig::all_on()).expect("no crash");
        });
        assert_eq!(kernel, [660, 640, 640, 640], "1D kernel");

        let batch = epoch0_checkpoint_bytes(|ctx| {
            let g = assemble_local_graph(ctx, slice(ctx).into_iter(), Block1D::new(64, 4));
            let specs = [
                BatchSpec::full(0),
                BatchSpec::p2p(3, 40),
                BatchSpec::full(21),
            ];
            let opts = OptConfig::all_on().with_delta(0.2);
            try_batched_delta_stepping(ctx, &g, &specs, &opts).expect("no crash");
        });
        assert_eq!(batch, [1789, 1769, 1749, 1749], "batched kernel");

        let grid = epoch0_checkpoint_bytes(|ctx| {
            let mut g = Grid2DSssp::build(ctx, 64, slice(ctx).into_iter(), 0.2);
            g.try_run(ctx, 3).expect("no crash");
        });
        assert_eq!(grid, [484, 80, 80, 464], "2D kernel");

        let bfs = epoch0_checkpoint_bytes(|ctx| {
            let g = assemble_local_graph(ctx, slice(ctx).into_iter(), Block1D::new(64, 4));
            distributed_bfs(ctx, &g, 3, Direction::Hybrid).expect("no crash");
        });
        assert_eq!(bfs, [388, 384, 384, 384], "BFS");
    }
}
