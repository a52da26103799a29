//! Batched multi-source SSSP — the entry point under the query-serving
//! layer (and the "64 roots" workload done right).
//!
//! The Graph500 harness runs 64 independent searches back-to-back. At
//! extreme scale, the *tail* of each search — many near-empty supersteps —
//! dominates, and the machine idles through 64 tails in sequence. Batching
//! runs `B` sources concurrently: each superstep carries the union of all
//! sources' traffic, so per-superstep fixed costs (latency, allreduce
//! fan-in) are amortized B ways.
//!
//! There is no batched kernel. A batch is [`crate::dist`]'s kernel over one
//! lane per [`BatchSpec`], shipping lane-tagged records: every lane gets the
//! weight-sorted row split, the bounded pull and fetch scans, the in-bucket
//! cascade and the per-step direction choice of the solo search, because it
//! *is* the solo search. This module holds what is left: the spec, and what
//! a finished lane hands its caller — its own result, moved out of the
//! kernel, with its retirement record; the run's counters are the solo
//! kernel's [`SsspRunStats`].
//!
//! # Determinism and width-invariance
//!
//! Lanes never read each other's state, and a lane decides push or pull,
//! push or fetch from its own agreed sums, so inside a width-`B` batch it
//! follows the trajectory it follows in a width-1 batch: buckets other
//! lanes open it sits out, dedup and the compressed wire format order
//! records by the canonical (lane, target, dist, parent) key, and applies
//! are strict-`<` in received order. Batched distances *and parents* are
//! therefore bitwise identical to per-source runs, at any `G500_THREADS`.
//! The one thing a batch switches off is the fused tail (`run_kernel`'s
//! `tail` argument): it takes the whole machine out of bucket discipline on
//! a trigger summed over lanes, which neither width-invariance nor
//! retirement at bucket boundaries survives.
//!
//! # Point-to-point lanes
//!
//! A lane with a target retires as soon as the target is settled: once the
//! global bucket epoch `k` exceeds the target's tentative bucket, any
//! future improvement would need `nd ≥ kΔ >` tentative — impossible — so
//! the distance and parent are final. Target owners allgather live-target
//! tentatives each epoch and every rank applies the identical retirement
//! rule. A retired lane drops its queue and sits every later bucket out,
//! shrinking live-batch width as the batch drains. Lanes may also carry an
//! upper `bound` (e.g. a landmark triangle-inequality bound from the
//! serving layer): it is one more ceiling on the kernel's relaxation test —
//! a pushed arc beyond it is skipped, a pull scan stops at it — which
//! cannot change any distance ≤ bound, in particular the target's.

use crate::codec::TaggedUpdate;
use crate::config::OptConfig;
use crate::dist::{run_kernel, Lane, SsspRunStats};
use g500_graph::{VertexId, Weight, INF_WEIGHT};
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use simnet::recovery::FaultEscalation;
use simnet::RankCtx;

/// One lane of a batch: a source, an optional point-to-point target, and
/// an optional upper bound on useful path lengths.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    /// Global source vertex.
    pub source: VertexId,
    /// Optional target: the lane retires once this vertex settles.
    pub target: Option<VertexId>,
    /// Prune relaxations whose tentative distance exceeds this bound
    /// (`INF_WEIGHT` = unbounded). Must be ≥ the true source→target
    /// distance for the target's result to be exact.
    pub bound: Weight,
}

impl BatchSpec {
    /// A full single-source lane.
    pub fn full(source: VertexId) -> Self {
        BatchSpec {
            source,
            target: None,
            bound: INF_WEIGHT,
        }
    }

    /// A point-to-point lane.
    pub fn p2p(source: VertexId, target: VertexId) -> Self {
        BatchSpec {
            source,
            target: Some(target),
            bound: INF_WEIGHT,
        }
    }

    /// Attach an upper bound for relaxation pruning.
    pub fn with_bound(mut self, bound: Weight) -> Self {
        self.bound = bound;
        self
    }
}

/// One finished lane of a batch, as this rank holds it.
#[derive(Clone, Debug)]
pub struct LaneResult {
    /// This rank's slice of the lane's distances and parents. A retired
    /// point-to-point lane's slice is frozen at retirement (only its
    /// target entries are final).
    pub paths: DistShortestPaths,
    /// Virtual time the lane finished (retirement for an early exit, batch
    /// end otherwise).
    pub finished_at: f64,
    /// True for a point-to-point lane that retired before the batch ended.
    pub early_exit: bool,
    /// The target's settled `(distance, parent)`: `(INF_WEIGHT, NO_PARENT)`
    /// for a full lane and an unreachable target. Identical on every rank.
    pub target: (Weight, u64),
    /// Arcs the lane's bound kept a push from relaxing. (A pull scan that
    /// stops at the bound does not count what it never examined.)
    pub pruned: u64,
}

/// Run one batch of lanes through shared delta-stepping supersteps.
/// Collective: every rank must call with identical `specs` and `opts`.
/// Honors every field of `opts` as the solo kernel does — Δ adaptive when
/// `opts.delta` is `None` — but the fused tail, which a batch never takes.
/// Returns the lanes in spec order and the run's counters, summed over
/// lanes (`supersteps` is identical on every rank). When a crash plan is
/// active and recovery cannot complete (budget exhausted, checkpoint
/// lost), every rank returns the identical `Err` from the same collective
/// point.
pub fn try_batched_delta_stepping<P: VertexPartition + Sync>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    specs: &[BatchSpec],
    opts: &OptConfig,
) -> Result<(Vec<LaneResult>, SsspRunStats), FaultEscalation> {
    assert!(!specs.is_empty(), "empty batch");
    let mut k = run_kernel::<P, TaggedUpdate>(ctx, graph, specs, opts, false, true)?;
    // Lanes still live at batch end — unreachable targets, targets settled
    // in the last bucket — publish their results once more; nobody retires.
    k.retire(ctx, 0);
    let t_end = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b });
    let finish = |lane: Lane| LaneResult {
        finished_at: if lane.live { t_end } else { lane.finished_at },
        early_exit: !lane.live,
        target: lane.answer,
        pruned: lane.pruned,
        paths: lane.sp,
    };
    Ok((k.lanes.into_iter().map(finish).collect(), k.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    /// A batch on a machine without a crash plan.
    fn batch<P: VertexPartition + Sync>(
        ctx: &mut RankCtx,
        g: &LocalGraph<P>,
        specs: &[BatchSpec],
        opts: &OptConfig,
    ) -> (Vec<LaneResult>, SsspRunStats) {
        try_batched_delta_stepping(ctx, g, specs, opts).expect("no crash plan")
    }

    /// Full single-source lanes from `roots` at a fixed Δ, all
    /// optimizations on.
    fn full_lanes<P: VertexPartition + Sync>(
        ctx: &mut RankCtx,
        g: &LocalGraph<P>,
        roots: &[VertexId],
        delta: Weight,
    ) -> (Vec<LaneResult>, SsspRunStats) {
        let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
        batch(ctx, g, &specs, &OptConfig::all_on().with_delta(delta))
    }

    #[test]
    fn batched_matches_dijkstra_per_source() {
        let el = g500_gen::simple::erdos_renyi(48, 220, 31);
        let csr = Csr::from_edges(48, &el, Directedness::Undirected);
        let roots = [0u64, 7, 13, 40];
        let p = 3;
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(48, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (lanes, _) = full_lanes(ctx, &g, &roots, 0.2);
            (lanes.iter())
                .map(|lane| lane.paths.gather(ctx, g.part()))
                .collect::<Vec<_>>()
        });
        for (s, &root) in roots.iter().enumerate() {
            let oracle = dijkstra(&csr, root);
            assert!(
                rep.results[0][s].distances_match(&oracle, 1e-4),
                "source {s} (root {root})"
            );
        }
    }

    #[test]
    fn batching_amortizes_supersteps() {
        // B sequential runs pay ~B× the supersteps of one batched run
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 8));
        let el = gen.generate_all();
        let n = 512u64;
        let roots = [1u64, 3, 5, 7, 11, 13, 17, 19];
        let p = 4;
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);

            let (_, batched) = full_lanes(ctx, &g, &roots, 0.125);

            let mut sequential_steps = 0u64;
            for &r in &roots {
                let (_, s) = full_lanes(ctx, &g, &[r], 0.125);
                sequential_steps += s.supersteps;
            }
            (batched.supersteps, sequential_steps)
        });
        let (batched, sequential) = rep.results[0];
        assert!(
            batched * 2 < sequential,
            "batched {batched} supersteps vs sequential {sequential}"
        );
    }

    #[test]
    fn single_source_batch_is_just_sssp() {
        let el = g500_gen::simple::path(12, 0.3);
        let csr = Csr::from_edges(12, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            let part = Block1D::new(12, 2);
            let mine: Vec<_> = if ctx.rank() == 0 {
                el.iter().collect()
            } else {
                Vec::new()
            };
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (lanes, _) = full_lanes(ctx, &g, &[0], 0.5);
            lanes[0].paths.gather(ctx, g.part())
        });
        assert!(rep.results[0].distances_match(&oracle, 1e-5));
    }

    #[test]
    fn p2p_lane_retires_with_exact_answer() {
        // a long path graph: the far end settles late, a near target
        // settles early — its lane must retire with the full-run answer
        let el = g500_gen::simple::path(60, 0.3);
        let csr = Csr::from_edges(60, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let p = 3;
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(60, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let specs = [BatchSpec::p2p(0, 5), BatchSpec::full(0)];
            let (lanes, _) = batch(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.5));
            let retired = lanes.iter().filter(|lane| lane.early_exit).count();
            (lanes[0].early_exit, lanes[0].target, retired)
        });
        let (early, (d, par), retired) = rep.results[0];
        assert!(early, "near target must retire before the path drains");
        assert_eq!(retired, 1);
        assert_eq!(d.to_bits(), oracle.dist[5].to_bits());
        assert_eq!(par, oracle.parent[5]);
    }

    #[test]
    fn crash_recovery_is_byte_identical_to_fault_free() {
        // mixed batch (full + p2p + bounded) under a random crash
        // schedule: distances, parents, target results, retirement flags,
        // and all structural counters must match the fault-free run
        // bitwise; only `finished_at` (virtual time) may move.
        let el = g500_gen::simple::erdos_renyi(56, 260, 17);
        let run = |crash: Option<simnet::CrashPlan>| {
            let mut cfg = MachineConfig::with_ranks(4);
            if let Some(plan) = crash {
                cfg = cfg.crashes(plan);
            }
            let el = &el;
            Machine::new(cfg).run(move |ctx| {
                let part = Block1D::new(56, 4);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let specs = [
                    BatchSpec::full(0),
                    BatchSpec::p2p(3, 40),
                    BatchSpec::p2p(7, 9).with_bound(4.0),
                    BatchSpec::full(21),
                ];
                try_batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.2))
                    .expect("in-budget crashes must be recovered")
            })
        };
        let clean = run(None);
        let plan = simnet::CrashPlan::random(0xBA7C, 0.01).with_checkpoint_interval(2);
        let crashed = run(Some(plan));
        assert!(
            crashed.total_stats().saw_crashes(),
            "the schedule must actually crash someone: {:?}",
            crashed.total_stats()
        );
        let work = |stats: &SsspRunStats| SsspRunStats {
            sim_time_s: 0.0,
            compute_s: 0.0,
            comm_s: 0.0,
            ..stats.clone()
        };
        for ((clean, cst), (crashed, fst)) in clean.results.iter().zip(&crashed.results) {
            for (c, f) in clean.iter().zip(crashed) {
                let cbits: Vec<u32> = c.paths.dist.iter().map(|d| d.to_bits()).collect();
                let fbits: Vec<u32> = f.paths.dist.iter().map(|d| d.to_bits()).collect();
                assert_eq!(cbits, fbits, "distances must be byte-identical");
                assert_eq!(
                    c.paths.parent, f.paths.parent,
                    "parents must be byte-identical"
                );
                let bits = |(d, parent): (Weight, u64)| (d.to_bits(), parent);
                assert_eq!(
                    bits(c.target),
                    bits(f.target),
                    "target must be byte-identical"
                );
                assert_eq!((c.early_exit, c.pruned), (f.early_exit, f.pruned));
            }
            assert_eq!(
                work(cst),
                work(fst),
                "structural counters must be identical"
            );
        }
    }

    #[test]
    fn pruned_count_does_not_depend_on_wave_size() {
        // Sixteen bounded lanes in one batch — wide waves, hundreds of
        // frontier vertices a lane in the mid buckets — against the same
        // sixteen one at a time. Lanes are independent: each pushes, pulls
        // and fetches as it does alone, so the batch must prune exactly
        // what its lanes prune alone.
        let el = g500_gen::simple::erdos_renyi(2048, 16384, 5);
        let roots: Vec<u64> = (0..16).map(|i| i * 128 + 5).collect();
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / 2, (ctx.rank() + 1) * m / 2);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(2048, 2));
            let specs: Vec<BatchSpec> = roots
                .iter()
                .map(|&r| BatchSpec::full(r).with_bound(0.45))
                .collect();
            let opts = OptConfig::all_on().with_delta(0.125);
            let pruned = |lanes: Vec<LaneResult>| lanes.iter().map(|l| l.pruned).sum::<u64>();
            let together = pruned(batch(ctx, &g, &specs, &opts).0);
            let solo: u64 = specs
                .iter()
                .map(|&spec| pruned(batch(ctx, &g, &[spec], &opts).0))
                .sum();
            (together, solo)
        });
        for (rank, &(together, solo)) in rep.results.iter().enumerate() {
            assert!(solo > 0, "rank {rank}: the bound must prune something");
            assert_eq!(together, solo, "rank {rank}: batch vs sum of solo lanes");
        }
    }

    #[test]
    fn unreachable_target_resolves_to_inf() {
        // vertex 11 is isolated when the path stops at 10
        let el = g500_gen::simple::path(11, 0.3);
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            let part = Block1D::new(12, 2);
            let mine: Vec<_> = if ctx.rank() == 0 {
                el.iter().collect()
            } else {
                Vec::new()
            };
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let specs = [BatchSpec::p2p(0, 11)];
            let (lanes, _) = batch(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.5));
            (lanes[0].early_exit, lanes[0].target.0)
        });
        let (early, d) = rep.results[0];
        assert!(!early);
        assert!(d.is_infinite());
    }
}
