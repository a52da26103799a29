//! 2D-partitioned distributed delta-stepping — the design-space rival.
//!
//! The Graph500 BFS lineage distributes the adjacency *matrix* over an
//! `s × s` process grid: the edge block `(u, v)` with `u` in vertex-block
//! `i` and `v` in vertex-block `j` lives on grid rank `(i, j)`; vertex
//! *state* (distances, buckets) lives on the diagonal rank `(b, b)` of its
//! block. One relaxation superstep then decomposes into
//!
//! 1. **row broadcast** — diagonal ranks broadcast their frontier
//!    `(vertex, dist)` pairs along their grid row (√p ranks),
//! 2. **local relax** — every rank relaxes its stored edges against the
//!    received frontier, keeping only the min candidate per target,
//! 3. **column reduce** — candidates flow down each grid column to the
//!    target's diagonal rank, pre-aggregated per column,
//!
//! so no vertex ever talks to more than `√p + √p` ranks — the fan-out cap
//! that experiment F13 shows analytically and F14 measures. The price is
//! that every frontier datum is replicated √p ways even when its edges
//! touch two ranks, which is why the 1D layout (the paper family's choice
//! for SSSP, whose bucket state is per-vertex and cheap to route exactly)
//! wins on low-degree frontiers. This kernel exists to make that trade-off
//! measurable rather than asserted.
//!
//! Always push-mode with coalescing + per-target dedup; bucket semantics
//! (light inner loop to fixpoint, heavy pass once) match the 1D kernel, so
//! results are directly comparable and equally validatable.

use crate::bucket::BucketQueue;
use crate::epoch::{agree, run_bucket_epochs, Agreed, BucketKernel, SuperstepSpan};
use g500_graph::{Csr, EdgeList, ShortestPaths, VertexId, WEdge, Weight, INF_WEIGHT};
use g500_partition::{gather_to_root, Block1D, VertexPartition};
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::{RankCtx, SubComm, TraceCode};
use std::collections::HashMap;

/// Per-chunk result of the parallel local relax scan: relaxation count and
/// the improving candidates `(target_global, new_dist, parent_global)` in
/// (source, arc) order.
type RelaxScan = (u64, Vec<(u64, f32, u64)>);

/// Counters from one 2D run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Sssp2DStats {
    /// Communication rounds (row broadcast + column reduce pairs).
    pub supersteps: u64,
    /// Local edge relaxations.
    pub relaxations: u64,
    /// Frontier records broadcast along rows.
    pub frontier_records: u64,
    /// Candidate records reduced down columns (post-dedup).
    pub update_records: u64,
}

/// The per-rank state of the 2D kernel.
pub struct Grid2DSssp {
    /// Grid side (ranks = side²).
    side: usize,
    /// My grid row / column.
    row: usize,
    col: usize,
    /// Vertex blocks (side blocks over n vertices).
    blocks: Block1D,
    /// My edge block as a CSR over *global* source ids of block `row`,
    /// targets restricted to block `col`. Stored as map src → (targets,
    /// weights) ranges via a local CSR on block-local indices.
    local: Csr,
    /// Row and column communicators.
    row_comm: SubComm,
    col_comm: SubComm,
    /// Diagonal state (only on ranks with row == col): dist/parent over the
    /// block's local indices.
    dist: Vec<Weight>,
    parent: Vec<u64>,
    buckets: BucketQueue,
    /// Counters of the run in progress.
    stats: Sssp2DStats,
    /// Round-scratch arenas reused across every superstep of a run: the
    /// flattened row-broadcast frontier and the parallel relax-scan output.
    active_scratch: Vec<(u64, f32)>,
    relax_scratch: Vec<RelaxScan>,
    /// The frontier the last offer counted: drained from its bucket (not by
    /// a boundary's offer) for the light step it was agreed for.
    frontier: Vec<u32>,
    /// Open-bucket scratch, reset by `open_bucket`: the bucket's frontiers
    /// (the heavy pass's sources, deduplicated there), the global frontier
    /// size summed over its light steps, and — when tracing — the
    /// compute/comm clocks at its start.
    settled: Vec<u32>,
    bucket_frontier: u64,
    bucket_snap: Option<(f64, f64)>,
}

/// The per-run state: diagonal vertex state plus the run counters (the
/// scratch is overwritten before every read and stays out). Off-diagonal
/// ranks snapshot their (empty) state too, keeping every collective
/// aligned.
impl Checkpoint for Grid2DSssp {
    fn save(&self, out: &mut Vec<u8>) {
        codec::put_slice(out, &self.dist);
        codec::put_slice(out, &self.parent);
        self.buckets.save(out);
        codec::put(out, self.stats.supersteps);
        codec::put(out, self.stats.relaxations);
        codec::put(out, self.stats.frontier_records);
        codec::put(out, self.stats.update_records);
    }

    fn load(&mut self, buf: &[u8]) {
        let pos = &mut 0;
        self.dist = codec::get_vec(buf, pos);
        self.parent = codec::get_vec(buf, pos);
        self.buckets.load(buf, pos);
        self.stats.supersteps = codec::get(buf, pos);
        self.stats.relaxations = codec::get(buf, pos);
        self.stats.frontier_records = codec::get(buf, pos);
        self.stats.update_records = codec::get(buf, pos);
        assert_eq!(*pos, buf.len(), "trailing bytes in 2D kernel checkpoint");
    }
}

impl BucketKernel for Grid2DSssp {
    /// The size of the frontier of the bucket spoken of.
    type Offer = u64;

    /// Off-diagonal ranks hold no vertex state, so their queue is empty:
    /// they name no bucket, but take part in every agreement. One search,
    /// so one entry.
    fn offer(&mut self) -> Vec<Agreed<u64>> {
        let Some(k) = self.buckets.min_bucket() else {
            return vec![(u64::MAX, 0)];
        };
        self.collect_frontier(k, false);
        vec![(k as u64, self.frontier.len() as u64)]
    }

    fn open_bucket(&mut self, ctx: &mut RankCtx, k: u64, _agreed: &mut [Agreed<u64>]) -> bool {
        ctx.trace_begin(TraceCode::Bucket, k, 0);
        self.bucket_snap = ctx
            .trace_enabled()
            .then(|| (ctx.stats().compute_s, ctx.stats().comm_s));
        self.bucket_frontier = 0;
        self.settled.clear();
        self.collect_frontier(k as usize, true);
        true
    }

    /// The superstep, then — its row and column collectives reach no rank
    /// outside them — one agreement on the next frontier, drained for it.
    fn light_step(
        &mut self,
        ctx: &mut RankCtx,
        k: u64,
        agreed: &[Agreed<u64>],
    ) -> Vec<Agreed<u64>> {
        let frontier = std::mem::take(&mut self.frontier);
        self.bucket_frontier += agreed[0].1;
        self.settled.extend_from_slice(&frontier);
        let delta = self.buckets.delta();
        self.relax_round(ctx, &frontier, |w| w < delta, 0);
        self.collect_frontier(k as usize, true);
        agree(ctx, vec![(k, self.frontier.len() as u64)])
    }

    /// The heavy pass over everything the bucket settled, then the
    /// per-bucket trace counters.
    fn close_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        let mut settled = std::mem::take(&mut self.settled);
        settled.sort_unstable();
        settled.dedup();
        ctx.trace_count(TraceCode::Settled, settled.len() as u64, k);
        let delta = self.buckets.delta();
        self.relax_round(ctx, &settled, |w| w >= delta, 1);
        self.settled = settled;
        if let Some((c0, m0)) = self.bucket_snap {
            let dc = ctx.stats().compute_s - c0;
            let dm = ctx.stats().comm_s - m0;
            ctx.trace_count(TraceCode::BucketFrontier, self.bucket_frontier, k);
            ctx.trace_count_f64(TraceCode::BucketCompute, dc, k);
            ctx.trace_count_f64(TraceCode::BucketComm, dm, k);
        }
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }

    fn abandon_bucket(&mut self, ctx: &mut RankCtx, k: u64) {
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }
}

impl Grid2DSssp {
    /// Collectively build the 2D-distributed graph. `ranks` must be a
    /// perfect square. Each rank passes its generated slice of the global
    /// edge list.
    pub fn build(
        ctx: &mut RankCtx,
        n: u64,
        my_edges: impl Iterator<Item = WEdge>,
        delta: Weight,
    ) -> Self {
        let p = ctx.size();
        let side = (p as f64).sqrt().round() as usize;
        assert_eq!(side * side, p, "2D kernel needs a square rank count");
        let me = ctx.rank();
        let (row, col) = (me / side, me % side);
        let blocks = Block1D::new(n, side);

        // Route both directions of each edge to grid rank
        // (block(src), block(dst)).
        let mut out: Vec<Vec<(u64, u64, f32)>> = vec![Vec::new(); p];
        let mut generated = 0u64;
        for e in my_edges {
            let a = (blocks.owner(e.u), blocks.owner(e.v));
            out[a.0 * side + a.1].push((e.u, e.v, e.w));
            let b = (blocks.owner(e.v), blocks.owner(e.u));
            out[b.0 * side + b.1].push((e.v, e.u, e.w));
            generated += 1;
        }
        ctx.charge_compute(2 * generated);
        let received = ctx.alltoallv(out);

        // Local CSR over block-local source indices; targets stay global.
        let n_block = blocks.local_count(row);
        let mut el = EdgeList::new();
        for block in received {
            for (u, v, w) in block {
                debug_assert_eq!(blocks.owner(u), row, "misrouted edge row");
                debug_assert_eq!(blocks.owner(v), col, "misrouted edge col");
                el.push(WEdge::new(blocks.to_local(u) as u64, v, w));
            }
        }
        ctx.charge_compute(el.len() as u64);
        let local = Csr::from_edges_rect(n_block.max(1), &el);

        let row_comm = ctx.split(row as u64, col as u64);
        let col_comm = ctx.split(side as u64 + col as u64, row as u64);

        // Diagonal ranks own the state of their block.
        let state_n = if row == col {
            blocks.local_count(row)
        } else {
            0
        };
        Grid2DSssp {
            side,
            row,
            col,
            blocks,
            local,
            row_comm,
            col_comm,
            dist: vec![f32::INFINITY; state_n],
            parent: vec![u64::MAX; state_n],
            buckets: BucketQueue::new(delta),
            stats: Sssp2DStats::default(),
            active_scratch: Vec::new(),
            relax_scratch: Vec::new(),
            frontier: Vec::new(),
            settled: Vec::new(),
            bucket_frontier: 0,
            bucket_snap: None,
        }
    }

    fn is_diag(&self) -> bool {
        self.row == self.col
    }

    /// Run SSSP from `root`; returns the stats. Distances stay distributed;
    /// use [`Self::gather`] afterwards.
    ///
    /// Panics on an unmasked fault; [`Grid2DSssp::try_run`] is the
    /// typed-error variant for crash-injected machines.
    pub fn run(&mut self, ctx: &mut RankCtx, root: VertexId) -> Sssp2DStats {
        match self.try_run(ctx, root) {
            Ok(stats) => stats,
            Err(e) => panic!("rank {}: {e}", ctx.rank()),
        }
    }

    /// [`Grid2DSssp::run`] with crash recovery surfaced as a typed error:
    /// checkpoints at bucket boundaries, probes every superstep, rolls
    /// back and replays on an agreed verdict.
    pub fn try_run(
        &mut self,
        ctx: &mut RankCtx,
        root: VertexId,
    ) -> Result<Sssp2DStats, FaultEscalation> {
        // reset state between runs
        self.stats = Sssp2DStats::default();
        self.dist.fill(f32::INFINITY);
        self.parent.fill(u64::MAX);
        self.buckets = BucketQueue::new(self.buckets.delta());
        if self.is_diag() && self.blocks.owner(root) == self.row {
            let l = self.blocks.to_local(root);
            self.dist[l] = 0.0;
            self.parent[l] = root;
            self.buckets.insert(l as u32, 0.0);
        }
        run_bucket_epochs(ctx, self)?;
        Ok(self.stats.clone())
    }

    /// The live frontier of bucket `k`, sorted and deduplicated, into
    /// `self.frontier` (empty off the diagonal); `drain` empties the bucket.
    fn collect_frontier(&mut self, k: usize, drain: bool) {
        self.frontier.clear();
        for &v in self.buckets.bucket(k) {
            let d = self.dist[v as usize];
            if d.is_finite() && self.buckets.bucket_of(d) == k {
                self.frontier.push(v);
            }
        }
        self.frontier.sort_unstable();
        self.frontier.dedup();
        if drain {
            self.buckets.take_bucket(k);
        }
    }

    /// One 2D superstep: row-broadcast the frontier, relax matching edges,
    /// column-reduce candidates to the diagonal, apply.
    fn relax_round(
        &mut self,
        ctx: &mut RankCtx,
        frontier: &[u32],
        class: impl Fn(Weight) -> bool + Sync,
        flavor: u64,
    ) {
        let ss = self.stats.supersteps;
        let span = SuperstepSpan::open(ctx, ss, flavor, self.stats.relaxations);
        // 1. row broadcast: only the diagonal member contributes
        let mine: Vec<(u64, f32)> = if self.is_diag() {
            frontier
                .iter()
                .map(|&l| (l as u64, self.dist[l as usize]))
                .collect()
        } else {
            Vec::new()
        };
        self.stats.frontier_records += mine.len() as u64 * (self.side as u64 - 1);
        let mut blocks_in = self.row_comm.allgatherv(ctx, &mine);
        // Flatten in the (possibly fuzzed) delivery order; relaxation below
        // min-aggregates, so the order cannot change distances.
        let order = ctx.delivery_order(blocks_in.len());
        let mut active = std::mem::take(&mut self.active_scratch);
        active.clear();
        for s in order {
            active.append(&mut blocks_in[s]);
        }

        // 2. local relax: candidates per global target, min-aggregated.
        // The edge scan (the expensive part) runs in parallel over fixed
        // chunks of the already order-fixed active list, emitting
        // candidates in (source, arc) order; the sequential fold below
        // consumes them in exactly that order, so the aggregate — values
        // and tie winners alike — is identical at any thread count.
        let nloc = self.local.num_vertices();
        let blocks = &self.blocks;
        let row = self.row;
        let local = &self.local;
        ctx.trace_begin(TraceCode::TaskWave, active.len() as u64, 4);
        let mut per_chunk = std::mem::take(&mut self.relax_scratch);
        // Chunks of whole 256-source blocks, at least 4 (1024 sources) a
        // chunk: rounds with ≤ 2048 active sources run inline via the
        // ≤ 2-chunk cutoff, and bigger waves amortize the hand-off.
        let chunk = 256 * rayon::fixed_chunk_size(active.len().div_ceil(256), 4);
        rayon::map_chunks(active.len(), chunk, &mut per_chunk, |sources| {
            let mut relaxed = 0u64;
            let mut cands: Vec<(u64, f32, u64)> = Vec::new();
            for &(src_local, du) in &active[sources] {
                let u_global = blocks.to_global(row, src_local as usize);
                if (src_local as usize) < nloc {
                    let vs = local.neighbors(src_local as usize);
                    let ws = local.edge_weights(src_local as usize);
                    for (&v, &w) in vs.iter().zip(ws) {
                        if !class(w) {
                            continue;
                        }
                        relaxed += 1;
                        cands.push((v, du + w, u_global));
                    }
                }
            }
            (relaxed, cands)
        });

        let mut best: HashMap<u64, (f32, u64)> = HashMap::new();
        let mut relaxed = 0u64;
        for (r, cands) in per_chunk.iter_mut() {
            relaxed += *r;
            for (v, nd, u_global) in cands.drain(..) {
                let e = best.entry(v).or_insert((f32::INFINITY, u64::MAX));
                if nd < e.0 {
                    *e = (nd, u_global);
                }
            }
        }
        self.stats.relaxations += relaxed;
        ctx.charge_compute(relaxed);
        ctx.trace_end(TraceCode::TaskWave, active.len() as u64, 4);
        self.relax_scratch = per_chunk;
        self.active_scratch = active;

        // 3. column reduce: ship candidates to the diagonal rank of my
        // column (sub-rank == col index within the column communicator)
        let mut col_out: Vec<Vec<(u64, f32, u64)>> = vec![Vec::new(); self.col_comm.size()];
        let diag_sub = self.col; // in column c, the diagonal is grid row c
        col_out[diag_sub] = best.into_iter().map(|(v, (d, par))| (v, d, par)).collect();
        self.stats.update_records += col_out[diag_sub].len() as u64;
        let incoming = self.col_comm.alltoallv(ctx, col_out);
        self.stats.supersteps += 1;

        // 4. apply on the diagonal
        if self.is_diag() {
            let mut incoming = incoming;
            let order = ctx.delivery_order(incoming.len());
            let mut applied = 0u64;
            for block in order.into_iter().map(|s| std::mem::take(&mut incoming[s])) {
                for (v, nd, par) in block {
                    applied += 1;
                    let l = self.blocks.to_local(v);
                    if nd < self.dist[l] {
                        self.dist[l] = nd;
                        self.parent[l] = par;
                        self.buckets.insert(l as u32, nd);
                    }
                }
            }
            ctx.charge_compute(applied);
        }

        span.close(ctx, ss, self.stats.relaxations);
    }

    /// Collectively gather the global result into rank 0
    /// ([`gather_to_root`]) from the diagonal members, the only ranks that
    /// hold vertex state; every other rank gets an empty result.
    pub fn gather(&self, ctx: &mut RankCtx) -> ShortestPaths {
        let local = (&self.dist[..], &self.parent[..]);
        let n = self.blocks.num_vertices() as usize;
        let global = |l| self.blocks.to_global(self.row, l);
        let (dist, parent) = gather_to_root(ctx, n, INF_WEIGHT, local, global);
        ShortestPaths { dist, parent }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use simnet::{Machine, MachineConfig};

    fn run_2d(
        el: &EdgeList,
        n: u64,
        p: usize,
        root: u64,
        delta: f32,
    ) -> (ShortestPaths, Sssp2DStats) {
        Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let mut g = Grid2DSssp::build(ctx, n, mine.into_iter(), delta);
                let stats = g.run(ctx, root);
                (g.gather(ctx), stats)
            })
            .results
            .swap_remove(0)
    }

    fn oracle(el: &EdgeList, n: usize, root: u64) -> ShortestPaths {
        let csr = Csr::from_edges(n, el, g500_graph::Directedness::Undirected);
        dijkstra(&csr, root)
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in [2u64, 9] {
            let el = g500_gen::simple::erdos_renyi(50, 220, seed);
            let exact = oracle(&el, 50, 3);
            for p in [1usize, 4, 9] {
                let (sp, _) = run_2d(&el, 50, p, 3, 0.2);
                assert!(sp.distances_match(&exact, 1e-4), "seed {seed} p={p}");
            }
        }
    }

    #[test]
    fn matches_on_kronecker() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(8, 6));
        let el = gen.generate_all();
        let exact = oracle(&el, 256, 1);
        let (sp, stats) = run_2d(&el, 256, 4, 1, 0.125);
        assert!(sp.distances_match(&exact, 1e-4));
        assert!(stats.supersteps > 0 && stats.relaxations > 0);
    }

    #[test]
    fn various_deltas_exact() {
        let el = g500_gen::simple::erdos_renyi(36, 150, 4);
        let exact = oracle(&el, 36, 0);
        for delta in [0.05f32, 0.5, 10.0] {
            let (sp, _) = run_2d(&el, 36, 4, 0, delta);
            assert!(sp.distances_match(&exact, 1e-4), "delta {delta}");
        }
    }

    #[test]
    fn disconnected_graph() {
        let el = g500_gen::simple::path(6, 0.4); // vertices 6..9 isolated
        let (sp, _) = run_2d(&el, 10, 4, 0, 0.3);
        assert_eq!(sp.reached_count(), 6);
        assert!(sp.dist[8].is_infinite());
    }

    #[test]
    #[should_panic(expected = "square rank count")]
    fn non_square_grid_rejected() {
        let el = g500_gen::simple::path(4, 1.0);
        run_2d(&el, 4, 3, 0, 0.5);
    }

    #[test]
    fn crash_recovery_is_byte_identical_to_fault_free() {
        let el = g500_gen::simple::erdos_renyi(50, 220, 9);
        let run = |crash: Option<simnet::CrashPlan>| {
            let mut cfg = MachineConfig::with_ranks(4);
            if let Some(plan) = crash {
                cfg = cfg.crashes(plan);
            }
            let el = &el;
            Machine::new(cfg).run(move |ctx| {
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let mut g = Grid2DSssp::build(ctx, 50, mine.into_iter(), 0.2);
                let stats = g.try_run(ctx, 3).expect("in-budget crashes recover");
                (g.gather(ctx), stats)
            })
        };
        let clean = run(None);
        let plan = simnet::CrashPlan::random(0x2D, 0.01).with_checkpoint_interval(2);
        let crashed = run(Some(plan));
        assert!(crashed.total_stats().saw_crashes(), "schedule must crash");
        for (c, f) in clean.results.iter().zip(crashed.results.iter()) {
            let cbits: Vec<u32> = c.0.dist.iter().map(|d| d.to_bits()).collect();
            let fbits: Vec<u32> = f.0.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(cbits, fbits);
            assert_eq!(c.0.parent, f.0.parent);
            assert_eq!(c.1, f.1, "2D run counters have no time fields");
        }
    }
}
