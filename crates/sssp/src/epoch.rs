//! The bucket-epoch driver: the one bulk-synchronous delta-stepping
//! skeleton under the 1D, 2D and batched kernels.
//!
//! ```text
//! epoch-0 checkpoint
//! loop:
//!     bucket boundary: crash probe + periodic checkpoint   (restore → loop)
//!     k ← allreduce-min of every rank's minimum bucket     (none → done)
//!     open bucket k                                        (false → done)
//!     loop:
//!         crash probe                          (restore → abandon k, loop)
//!         one light-edge superstep of k        (globally empty → break)
//!     close bucket k: the heavy pass and per-bucket accounting
//! ```
//!
//! The driver owns the loop shape, the minimum-bucket agreement and every
//! [`Recovery`] hook, so checkpoints and crash probes sit at the same
//! collective points in all three kernels. What a superstep *does* — its
//! collectives, its relaxation order, its trace events — stays in the
//! kernel behind [`BucketKernel`].

use simnet::recovery::{Checkpoint, FaultEscalation, Recovery};
use simnet::{RankCtx, TraceCode};

/// What the driver needs from a kernel. The [`Checkpoint`] supertrait
/// covers everything that lives across a superstep boundary; scratch that
/// is rewritten before it is read stays out of it.
pub(crate) trait BucketKernel: Checkpoint {
    /// This rank's minimum non-empty bucket, `u64::MAX` when it has none.
    /// (`&mut`: the bucket queue advances its cursor as it looks.)
    fn min_bucket(&mut self) -> u64;

    /// Start the globally agreed bucket `k`. `false` ends the run here
    /// (the batched kernel, once every lane has retired).
    fn open_bucket(&mut self, ctx: &mut RankCtx, k: u64) -> bool;

    /// One light-edge superstep of bucket `k`. `false` once the bucket's
    /// frontier is globally empty (that round does no relaxation work).
    fn light_step(&mut self, ctx: &mut RankCtx, k: u64) -> bool;

    /// Bucket `k` reached its light-edge fixpoint: run the heavy pass and
    /// whatever per-bucket accounting follows it.
    fn close_bucket(&mut self, ctx: &mut RankCtx, k: u64);

    /// A crash rolled the state back to before bucket `k` was opened:
    /// close whatever trace span [`open_bucket`](Self::open_bucket) left
    /// open. State needs no undoing — the restore replaced it.
    fn abandon_bucket(&mut self, ctx: &mut RankCtx, k: u64);
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
        let k = ctx.allreduce_min(kernel.min_bucket());
        if k == u64::MAX || !kernel.open_bucket(ctx, k) {
            break;
        }
        loop {
            if let Some(r) = rec.as_mut() {
                // A mid-bucket crash rolls back to the last bucket-boundary
                // checkpoint; the bucket counter rewound with the state.
                if r.probe(ctx, kernel)? {
                    kernel.abandon_bucket(ctx, k);
                    continue 'outer;
                }
            }
            if !kernel.light_step(ctx, k) {
                break;
            }
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
    use crate::multi::{try_batched_delta_stepping, BatchSpec};
    use crate::{try_distributed_delta_stepping, Grid2DSssp, OptConfig};
    use g500_graph::WEdge;
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{CrashPlan, Machine, MachineConfig, RankCtx};

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
    /// expected sizes were recorded at the commit before the three kernels
    /// moved onto the shared driver and the `Wire`-generic codec; the 1D
    /// kernel's moved once since, by −8 bytes a rank on these 16-vertex
    /// slices: `unsettled_mark` (8-byte count + one byte a vertex) left,
    /// `unsettled_heavy` and `SsspRunStats::heavy_pulls` (8 each) came.
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
        assert_eq!(kernel, [668, 648, 648, 648], "1D kernel");

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
        assert_eq!(batch, [802, 798, 778, 778], "batched kernel");

        let grid = epoch0_checkpoint_bytes(|ctx| {
            let mut g = Grid2DSssp::build(ctx, 64, slice(ctx).into_iter(), 0.2);
            g.try_run(ctx, 3).expect("no crash");
        });
        assert_eq!(grid, [484, 80, 80, 464], "2D kernel");
    }
}
