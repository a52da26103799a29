//! Batched multi-source SSSP — the shared-superstep engine under the
//! query-serving layer (and the "64 roots" workload done right).
//!
//! The Graph500 harness runs 64 independent searches back-to-back. At
//! extreme scale, the *tail* of each search — many near-empty supersteps —
//! dominates, and the machine idles through 64 tails in sequence. Batching
//! runs `B` sources concurrently: each superstep carries the union of all
//! sources' traffic, so per-superstep fixed costs (latency, allreduce
//! fan-in) are amortized B ways.
//!
//! # Layout
//!
//! Per-lane state is a flat structure-of-arrays: `dist[lane * n_local + l]`
//! and likewise for parents, so a lane's slice is contiguous and the relax
//! inner loop is a single-zip sweep over one adjacency range — no
//! `Vec<Vec>` pointer chase. The bucket queue stores the *packed key*
//! `lane * n_local + l` directly as its `u32` element, which doubles as
//! the SoA index: pop, re-check, and scan all address the same flat array.
//!
//! # Determinism and width-invariance
//!
//! Lanes never read each other's state. A lane inside a width-`B` batch
//! sees exactly the per-wave state it would see in a width-1 batch: extra
//! bucket epochs contributed by other lanes scan an empty frontier for it,
//! dedup and the compressed wire format order records by the canonical
//! (lane, target, dist, parent) key, and the commit applies strict-`<`
//! improvements in received order. Batched distances *and parents* are
//! therefore bitwise identical to per-source runs, at any `G500_THREADS`
//! (the scan runs under the fixed-chunk contract, the commit is
//! sequential in scan order).
//!
//! # Point-to-point lanes
//!
//! A lane with a target retires as soon as the target is settled: once the
//! global bucket epoch `k` exceeds the target's tentative bucket, any
//! future improvement would need `nd ≥ kΔ >` tentative — impossible — so
//! the distance and parent are final. Target owners allgather live-target
//! tentatives each epoch and every rank applies the identical retirement
//! rule. A retired lane stops scanning and stops accepting updates,
//! shrinking live-batch width as the batch drains. Lanes may also carry an
//! upper `bound` (e.g. a landmark triangle-inequality bound from the
//! serving layer): relaxations that exceed it are pruned, which cannot
//! change any distance ≤ bound — in particular the target's.

use crate::bucket::BucketQueue;
use crate::codec::TaggedUpdate;
use crate::config::OptConfig;
use crate::epoch::{run_bucket_epochs, BucketKernel};
use crate::exchange::{exchange_into, ExchangeBufs};
use g500_graph::{VertexId, Weight, INF_WEIGHT, NO_PARENT};
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use rayon::prelude::*;
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::{RankCtx, TraceCode};

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

/// Per-rank result of a batched run, lane-major SoA.
#[derive(Clone, Debug)]
pub struct MultiDist {
    /// Number of lanes in the batch.
    pub lanes: usize,
    /// Local vertices per lane (the SoA stride).
    pub n_local: usize,
    /// `dist[s * n_local + l]`: distance from lane `s`'s source to local
    /// vertex `l`. A retired point-to-point lane's slice is frozen at
    /// retirement (only its target entries are final).
    pub dist: Vec<Weight>,
    /// `parent[s * n_local + l]`: global parent in lane `s`'s tree.
    pub parent: Vec<u64>,
    /// Virtual time each lane finished (retirement for early-exit lanes,
    /// batch end otherwise).
    pub finished_at: Vec<f64>,
    /// True for point-to-point lanes that retired before the batch ended.
    pub early_exit: Vec<bool>,
    /// Per lane: the target's settled distance (`INF_WEIGHT` for full
    /// lanes and unreachable targets). Identical on every rank.
    pub target_dist: Vec<Weight>,
    /// Per lane: the target's parent (`NO_PARENT` when absent). Identical
    /// on every rank.
    pub target_parent: Vec<u64>,
}

impl MultiDist {
    /// Lane `s`'s local distance slice.
    pub fn lane_dist(&self, s: usize) -> &[Weight] {
        &self.dist[s * self.n_local..(s + 1) * self.n_local]
    }

    /// Lane `s`'s local parent slice.
    pub fn lane_parent(&self, s: usize) -> &[u64] {
        &self.parent[s * self.n_local..(s + 1) * self.n_local]
    }

    /// Lane `s` as an owned [`DistShortestPaths`] (for gathers).
    pub fn lane_paths(&self, s: usize) -> DistShortestPaths {
        DistShortestPaths {
            dist: self.lane_dist(s).to_vec(),
            parent: self.lane_parent(s).to_vec(),
        }
    }
}

/// Counters from one batched run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiStats {
    /// Global communication rounds for the whole batch.
    pub supersteps: u64,
    /// Update emissions after bound pruning, for the whole batch.
    pub relaxations: u64,
    /// Update records shipped (post-dedup).
    pub updates_sent: u64,
    /// Relaxations pruned by lane bounds.
    pub pruned: u64,
    /// Point-to-point lanes that retired before the batch ended.
    pub retired: u64,
}

/// Default Δ when `opts.delta` is `None`: the batched kernel has no
/// per-run weight profile to adapt from, so it uses the same fixed width
/// the F-series experiments use.
const DEFAULT_DELTA: Weight = 0.125;

/// Below this many frontier elements a wave is scanned sequentially; the
/// sequential loop emits the same candidates in the same (element, arc)
/// order, so results are bitwise unaffected by which path runs.
const SEQ_SCAN_CUTOFF: usize = 1024;

/// Per-chunk result of the parallel wave scan: bound-prune count and the
/// improving candidates in (element, arc) order.
type WaveScan = (u64, Vec<TaggedUpdate>);

/// One batch in flight: the lanes' SoA state plus the scratch its
/// supersteps reuse.
struct Batch<'a, P: VertexPartition> {
    graph: &'a LocalGraph<P>,
    specs: &'a [BatchSpec],
    opts: &'a OptConfig,
    /// The lanes' result arrays, filled in place as the batch runs.
    out: MultiDist,
    /// Lanes still running (a retired p2p lane is frozen).
    live: Vec<bool>,
    /// Live p2p lanes, globally — identical on every rank.
    live_p2p: usize,
    /// The lanes whose target this rank owns, as `(lane, local index)`:
    /// its contributions to the retirement allgathers.
    my_targets: Vec<(u32, usize)>,
    buckets: BucketQueue,
    stats: MultiStats,
    /// Superstep scratch, each fully overwritten before it is read: the
    /// exchange buffers, the current frontier and the bucket's settled
    /// set (packed lane keys), the scan's candidates, the raw bucket
    /// drain and the parallel scan's per-chunk results.
    bufs: ExchangeBufs<TaggedUpdate>,
    frontier: Vec<u32>,
    settled: Vec<u32>,
    candidates: Vec<TaggedUpdate>,
    raw: Vec<u32>,
    scan_scratch: Vec<WaveScan>,
}

/// The batch's complete mutable kernel state, snapshotted at bucket
/// boundaries when a [`CrashPlan`](simnet::CrashPlan) is active; the
/// scratch stays out. `finished_at` carries virtual timestamps and is
/// checkpointed so rollback restores the exact pre-crash record, but it
/// legitimately differs from a fault-free run (recovery stretches virtual
/// time).
impl<P: VertexPartition + Sync> Checkpoint for Batch<'_, P> {
    fn save(&self, out: &mut Vec<u8>) {
        codec::put_slice(out, &self.out.dist);
        codec::put_slice(out, &self.out.parent);
        codec::put_slice(out, &self.out.finished_at);
        codec::put_slice(out, &self.out.early_exit);
        codec::put_slice(out, &self.out.target_dist);
        codec::put_slice(out, &self.out.target_parent);
        codec::put_slice(out, &self.live);
        codec::put(out, self.live_p2p as u64);
        self.buckets.save(out);
        codec::put(out, self.stats.supersteps);
        codec::put(out, self.stats.relaxations);
        codec::put(out, self.stats.updates_sent);
        codec::put(out, self.stats.pruned);
        codec::put(out, self.stats.retired);
    }

    fn load(&mut self, buf: &[u8]) {
        let pos = &mut 0;
        self.out.dist = codec::get_vec(buf, pos);
        self.out.parent = codec::get_vec(buf, pos);
        self.out.finished_at = codec::get_vec(buf, pos);
        self.out.early_exit = codec::get_vec(buf, pos);
        self.out.target_dist = codec::get_vec(buf, pos);
        self.out.target_parent = codec::get_vec(buf, pos);
        self.live = codec::get_vec(buf, pos);
        self.live_p2p = codec::get::<u64>(buf, pos) as usize;
        self.buckets.load(buf, pos);
        self.stats.supersteps = codec::get(buf, pos);
        self.stats.relaxations = codec::get(buf, pos);
        self.stats.updates_sent = codec::get(buf, pos);
        self.stats.pruned = codec::get(buf, pos);
        self.stats.retired = codec::get(buf, pos);
        assert_eq!(*pos, buf.len(), "trailing bytes in batch checkpoint");
    }
}

/// Run one batch of lanes through shared delta-stepping supersteps.
/// Collective: every rank must call with identical `specs` and `opts`.
/// Honors `opts.coalescing`, `opts.dedup`, `opts.compression`, and
/// `opts.delta`; the batched kernel always pushes (multi-source pull
/// would broadcast one frontier per lane, defeating the amortization) and
/// never fuses the tail (retirement needs the per-bucket epoch boundary).
///
/// Panics on fault escalation; use [`try_batched_delta_stepping`] to
/// handle crash-recovery exhaustion as a typed error.
pub fn batched_delta_stepping<P: VertexPartition + Sync>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    specs: &[BatchSpec],
    opts: &OptConfig,
) -> (MultiDist, MultiStats) {
    match try_batched_delta_stepping(ctx, graph, specs, opts) {
        Ok(out) => out,
        Err(e) => panic!("rank {}: {e}", ctx.rank()),
    }
}

/// [`batched_delta_stepping`] with typed fault escalation: when a crash
/// plan is active and recovery cannot complete (budget exhausted,
/// checkpoint lost), every rank returns the identical `Err` from the same
/// collective point instead of panicking.
pub fn try_batched_delta_stepping<P: VertexPartition + Sync>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    specs: &[BatchSpec],
    opts: &OptConfig,
) -> Result<(MultiDist, MultiStats), FaultEscalation> {
    let part = graph.part();
    let me = ctx.rank();
    let n_local = graph.local_vertices();
    let lanes = specs.len();
    assert!(lanes > 0, "empty batch");
    assert!(
        (lanes as u64).saturating_mul(n_local.max(1) as u64) <= u32::MAX as u64,
        "batch state exceeds packed u32 keys: {lanes} lanes x {n_local} local vertices"
    );
    let delta = opts.delta.unwrap_or(DEFAULT_DELTA);

    let mut b = Batch {
        graph,
        specs,
        opts,
        out: MultiDist {
            lanes,
            n_local,
            dist: vec![INF_WEIGHT; lanes * n_local],
            parent: vec![NO_PARENT; lanes * n_local],
            finished_at: vec![0.0; lanes],
            early_exit: vec![false; lanes],
            target_dist: vec![INF_WEIGHT; lanes],
            target_parent: vec![NO_PARENT; lanes],
        },
        live: vec![true; lanes],
        live_p2p: specs.iter().filter(|s| s.target.is_some()).count(),
        my_targets: specs
            .iter()
            .enumerate()
            .filter_map(|(s, spec)| {
                let t = spec.target?;
                (part.owner(t) == me).then(|| (s as u32, part.to_local(t)))
            })
            .collect(),
        buckets: BucketQueue::new(delta),
        stats: MultiStats::default(),
        bufs: ExchangeBufs::new(ctx.size()),
        frontier: Vec::new(),
        settled: Vec::new(),
        candidates: Vec::new(),
        raw: Vec::new(),
        scan_scratch: Vec::new(),
    };
    // Sources go in before the driver takes its epoch-0 checkpoint, so a
    // restore can always rewind to a state that already holds the roots.
    for (s, spec) in specs.iter().enumerate() {
        if part.owner(spec.source) == me {
            let idx = s * n_local + part.to_local(spec.source);
            b.out.dist[idx] = 0.0;
            b.out.parent[idx] = spec.source;
            b.buckets.insert(idx as u32, 0.0);
        }
    }

    run_bucket_epochs(ctx, &mut b)?;

    // Lanes still live at batch end: full lanes, unreachable targets, and
    // targets that settled in the final bucket. Resolve remaining p2p
    // results with one last allgather so every rank returns identical
    // target values.
    if b.live_p2p > 0 {
        for block in ctx.allgatherv(&b.live_target_tentatives()) {
            for (s, _t, d, par) in block {
                b.out.target_dist[s as usize] = d;
                b.out.target_parent[s as usize] = par;
            }
        }
    }
    let t_end = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b });
    for s in 0..lanes {
        if b.live[s] {
            b.out.finished_at[s] = t_end;
        }
    }
    Ok((b.out, b.stats))
}

impl<P: VertexPartition + Sync> BucketKernel for Batch<'_, P> {
    /// The size of the frontier of the bucket spoken of.
    type Offer = u64;
    /// `open_bucket` retires lanes as a function of the agreed `k`, which
    /// empties the frontier of their entries: a boundary cannot count it, so
    /// it offers `k` alone and the first light step agrees like the rest.
    const BOUNDARY_AGREES_FIRST_STEP: bool = false;

    fn offer(&mut self, open: Option<u64>) -> (u64, u64) {
        let Some(k) = open else {
            return (self.buckets.min_bucket().map_or(u64::MAX, |k| k as u64), 0);
        };
        let (dist, live, buckets) = (&self.out.dist, &self.live, &mut self.buckets);
        let n_local = self.out.n_local;
        self.raw.clear();
        buckets.drain_bucket_into(k as usize, &mut self.raw);
        self.frontier.clear();
        self.frontier.extend(self.raw.iter().copied().filter(|&e| {
            let d = dist[e as usize];
            live[e as usize / n_local] && d.is_finite() && buckets.bucket_of(d) == k as usize
        }));
        (k, self.frontier.len() as u64)
    }

    /// Retirement epoch: target owners publish live tentatives; every rank
    /// applies the identical "settled below bucket k" rule, so the
    /// retirement set — and thus the whole batch schedule — is a pure
    /// function of the agreed bucket index and the lane states.
    fn open_bucket(&mut self, ctx: &mut RankCtx, k: u64, _agreed: &mut u64) -> bool {
        if self.live_p2p > 0 {
            for block in ctx.allgatherv(&self.live_target_tentatives()) {
                for (s, _t, d, par) in block {
                    let s = s as usize;
                    if d.is_finite() && self.buckets.bucket_of(d) < k as usize {
                        self.live[s] = false;
                        self.live_p2p -= 1;
                        self.out.early_exit[s] = true;
                        self.out.finished_at[s] = ctx.now();
                        self.out.target_dist[s] = d;
                        self.out.target_parent[s] = par;
                        self.stats.retired += 1;
                        ctx.trace_count(TraceCode::QueryRetired, s as u64, k);
                    }
                }
            }
            if self.live.iter().all(|&l| !l) {
                return false; // every lane was p2p and has retired
            }
        }
        self.settled.clear();
        true
    }

    fn light_step(&mut self, ctx: &mut RankCtx, _k: u64, &total: &u64) -> bool {
        if total == 0 {
            return false;
        }
        self.settled.extend_from_slice(&self.frontier);
        let delta = self.buckets.delta();
        self.wave(ctx, false, |w| w < delta);
        true
    }

    /// The heavy phase for everything this bucket settled.
    fn close_bucket(&mut self, ctx: &mut RankCtx, _k: u64) {
        let delta = self.buckets.delta();
        self.wave(ctx, true, |w| w >= delta);
    }

    /// This kernel opens no `Bucket` span, so a rollback leaves nothing to
    /// close.
    fn abandon_bucket(&mut self, _ctx: &mut RankCtx, _k: u64) {}
}

/// The frozen view one wave scans against. Lanes never read each other's
/// state, so the scan of one element depends on its own lane only.
struct WaveView<'a, P: VertexPartition, K> {
    graph: &'a LocalGraph<P>,
    specs: &'a [BatchSpec],
    dist: &'a [Weight],
    n_local: usize,
    me: usize,
    /// Which weight class this wave relaxes (light or heavy).
    keep: K,
}

impl<P: VertexPartition, K: Fn(Weight) -> bool> WaveView<'_, P, K> {
    /// Scan the out-arcs of the packed frontier elements in `chunk`,
    /// appending improving candidates to `out` in (element, arc) order;
    /// returns the relaxations the lanes' bounds pruned. The one scan body
    /// of both the sequential and the parallel path, so their emission
    /// order and their prune count are identical.
    fn scan(&self, chunk: &[u32], out: &mut Vec<TaggedUpdate>) -> u64 {
        let part = self.graph.part();
        let mut pruned = 0u64;
        for &e in chunk {
            let lane = e as usize / self.n_local;
            let l = e as usize % self.n_local;
            let du = self.dist[e as usize];
            let bound = self.specs[lane].bound;
            let u_global = part.to_global(self.me, l);
            let vs = self.graph.neighbors(l);
            let ws = self.graph.edge_weights(l);
            for (&v, &w) in vs.iter().zip(ws) {
                if !(self.keep)(w) {
                    continue;
                }
                let nd = du + w;
                if nd > bound {
                    pruned += 1;
                    continue;
                }
                // frozen-read prefilter for locally-owned targets: identical
                // per lane at any batch width, so width-invariance is
                // preserved
                if part.owner(v) == self.me
                    && nd >= self.dist[lane * self.n_local + part.to_local(v)]
                {
                    continue;
                }
                out.push((lane as u32, v, nd, u_global));
            }
        }
        pruned
    }
}

impl<P: VertexPartition + Sync> Batch<'_, P> {
    /// The `(lane, target, dist, parent)` tentatives of the live p2p lanes
    /// whose target this rank owns.
    fn live_target_tentatives(&self) -> Vec<TaggedUpdate> {
        self.my_targets
            .iter()
            .filter(|&&(s, _)| self.live[s as usize])
            .map(|&(s, l)| {
                let idx = s as usize * self.out.n_local + l;
                let target = self.specs[s as usize].target.expect("a p2p lane");
                (s, target, self.out.dist[idx], self.out.parent[idx])
            })
            .collect()
    }

    /// One superstep: scan the frontier (or, for the heavy pass, the
    /// settled set) against the frozen state, route the candidates into
    /// per-destination buckets, exchange them under `opts`, and apply the
    /// incoming stream in order (strict-`<` improvements; retired lanes
    /// are frozen).
    fn wave(&mut self, ctx: &mut RankCtx, heavy: bool, keep: impl Fn(Weight) -> bool + Sync) {
        let part = self.graph.part();
        let n_local = self.out.n_local;
        let sources = if heavy { &self.settled } else { &self.frontier };
        let view = WaveView {
            graph: self.graph,
            specs: self.specs,
            dist: &self.out.dist,
            n_local,
            me: ctx.rank(),
            keep,
        };
        let scanned: u64 = sources
            .iter()
            .map(|&e| self.graph.neighbors(e as usize % n_local).len() as u64)
            .sum();
        // Candidates in (element, arc) order — sequentially below the
        // cutoff, else in fixed 64-element chunks on the pool, combined in
        // chunk order.
        self.candidates.clear();
        if sources.len() <= SEQ_SCAN_CUTOFF {
            self.stats.pruned += view.scan(sources, &mut self.candidates);
        } else {
            ctx.trace_begin(TraceCode::TaskWave, sources.len() as u64, 4);
            sources
                .par_chunks(64)
                .map(|chunk| {
                    let mut cands = Vec::new();
                    (view.scan(chunk, &mut cands), cands)
                })
                .collect_into_vec(&mut self.scan_scratch);
            for (pruned, cands) in self.scan_scratch.iter_mut() {
                self.stats.pruned += *pruned;
                self.candidates.append(cands);
            }
            ctx.trace_end(TraceCode::TaskWave, sources.len() as u64, 4);
        }
        self.stats.relaxations += self.candidates.len() as u64;
        ctx.charge_compute(scanned);

        for &c in &self.candidates {
            self.bufs.bucket_mut(part.owner(c.1)).push(c);
        }
        let outcome = exchange_into(ctx, &mut self.bufs, self.opts);
        self.stats.supersteps += 1;
        self.stats.updates_sent += outcome.records_sent;
        ctx.charge_compute(outcome.records_received);
        for &(s, v, nd, par) in self.bufs.incoming() {
            let s = s as usize;
            if !self.live[s] {
                continue;
            }
            let idx = s * n_local + part.to_local(v);
            if nd < self.out.dist[idx] {
                self.out.dist[idx] = nd;
                self.out.parent[idx] = par;
                self.buckets.insert(idx as u32, nd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    /// Full single-source lanes from `roots` at a fixed Δ, all
    /// optimizations on.
    fn full_lanes<P: VertexPartition + Sync>(
        ctx: &mut RankCtx,
        g: &LocalGraph<P>,
        roots: &[VertexId],
        delta: Weight,
    ) -> (MultiDist, MultiStats) {
        let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
        batched_delta_stepping(ctx, g, &specs, &OptConfig::all_on().with_delta(delta))
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
            let (md, _) = full_lanes(ctx, &g, &roots, 0.2);
            (0..roots.len())
                .map(|s| md.lane_paths(s).gather_to_all(ctx, g.part()))
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
            let (md, _) = full_lanes(ctx, &g, &[0], 0.5);
            md.lane_paths(0).gather_to_all(ctx, g.part())
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
            let (md, stats) =
                batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.5));
            (
                md.early_exit[0],
                md.target_dist[0],
                md.target_parent[0],
                stats.retired,
            )
        });
        let (early, d, par, retired) = rep.results[0];
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
                let (md, stats) = try_batched_delta_stepping(
                    ctx,
                    &g,
                    &specs,
                    &OptConfig::all_on().with_delta(0.2),
                )
                .expect("in-budget crashes must be recovered");
                (md, stats)
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
        for (c, f) in clean.results.iter().zip(crashed.results.iter()) {
            let (cmd, cst) = c;
            let (fmd, fst) = f;
            let cbits: Vec<u32> = cmd.dist.iter().map(|d| d.to_bits()).collect();
            let fbits: Vec<u32> = fmd.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(cbits, fbits, "distances must be byte-identical");
            assert_eq!(cmd.parent, fmd.parent, "parents must be byte-identical");
            let ctb: Vec<u32> = cmd.target_dist.iter().map(|d| d.to_bits()).collect();
            let ftb: Vec<u32> = fmd.target_dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(ctb, ftb, "target distances must be byte-identical");
            assert_eq!(cmd.target_parent, fmd.target_parent);
            assert_eq!(cmd.early_exit, fmd.early_exit);
            assert_eq!(cst, fst, "structural counters must be identical");
        }
    }

    #[test]
    fn pruned_count_does_not_depend_on_wave_size() {
        // 1024 local vertices per rank: a solo lane's waves never exceed
        // the sequential-scan cutoff, while the 16-lane batch's do (its
        // mid buckets hold a few hundred elements per lane), so the batch
        // scans on the pool. Lanes are independent, so the batch must
        // prune exactly what its lanes prune alone.
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
            let (_, batch) = batched_delta_stepping(ctx, &g, &specs, &opts);
            let solo: u64 = specs
                .iter()
                .map(|&spec| batched_delta_stepping(ctx, &g, &[spec], &opts).1.pruned)
                .sum();
            (batch.pruned, solo)
        });
        for (rank, &(batch, solo)) in rep.results.iter().enumerate() {
            assert!(solo > 0, "rank {rank}: the bound must prune something");
            assert_eq!(batch, solo, "rank {rank}: batch vs sum of solo lanes");
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
            let (md, _) =
                batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.5));
            (md.early_exit[0], md.target_dist[0])
        });
        let (early, d) = rep.results[0];
        assert!(!early);
        assert!(d.is_infinite());
    }
}
