//! Multi-tenant SSSP query serving over a resident graph.
//!
//! The Graph500 benchmark answers 64 fixed roots and exits; a production
//! path service answers an *open stream* of queries — some full
//! single-source, some point-to-point — against a graph that stays
//! resident. This module turns batches — the 1D kernel over one lane per
//! query ([`crate::multi`], [`crate::dist`]) — into that service:
//!
//! * **Admission windows** — queries are admitted in windows of
//!   `batch_width` and executed as one batch through shared delta-stepping
//!   supersteps, amortizing per-superstep fixed costs across tenants. Each
//!   lane is the solo search — same row split, bounded scans, cascade and
//!   per-step direction choice — so a window of one is the sequential
//!   kernel (less its fused tail).
//! * **Landmark cache** — `k` high-degree landmarks are precomputed (as one
//!   batch of full lanes); a point-to-point query gets the
//!   triangle-inequality upper bound `min_j dist(L_j,s) + dist(L_j,t)`
//!   attached to its lane, one more ceiling on the kernel's relaxation
//!   test: pushes beyond it are skipped, pull scans stop at it. Sound for
//!   undirected graphs (all graphs here are).
//! * **Result LRU** — full single-source results are cached; a repeat
//!   full query is answered without running a lane, and a point-to-point
//!   query whose source is cached is answered by the target's owner from
//!   the cached slice.
//!
//! # Determinism
//!
//! Every control decision — window composition, cache hit/miss, lane
//! assignment, landmark bounds, retirement — is a pure function of the
//! query stream and allreduced values, taken identically on every rank:
//! the LRU key order is replicated (values are per-rank local slices),
//! and admission data moves through one allgather whose record order is
//! fixed. Batched answers are bitwise identical to per-source runs at any
//! `G500_THREADS` (see [`crate::multi`]).

use crate::config::OptConfig;
use crate::multi::{try_batched_delta_stepping, BatchSpec};
use g500_graph::{VertexId, Weight, INF_WEIGHT, NO_PARENT};
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use simnet::recovery::FaultEscalation;
use simnet::{Header, RankCtx, TraceCode, Wire};

/// One query against the resident graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    /// Global source vertex.
    pub source: VertexId,
    /// `None` = full single-source query; `Some(t)` = point-to-point.
    pub target: Option<VertexId>,
}

impl Query {
    /// A full single-source query.
    pub fn full(source: VertexId) -> Self {
        Query {
            source,
            target: None,
        }
    }

    /// A point-to-point query.
    pub fn p2p(source: VertexId, target: VertexId) -> Self {
        Query {
            source,
            target: Some(target),
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission window: queries per shared batch.
    pub batch_width: usize,
    /// Kernel optimization stack (including Δ) for every batch.
    pub opts: OptConfig,
    /// Landmarks to precompute (0 disables triangle-inequality bounds).
    pub num_landmarks: usize,
    /// Full-result LRU capacity in entries (0 disables the cache).
    pub lru_capacity: usize,
    /// Attach the local distance/parent slices to full-query outcomes.
    pub keep_paths: bool,
    /// Per-query latency deadline in virtual seconds; lane-run queries
    /// whose answer arrives later are marked [`QueryOutcome::shed`]
    /// (`f64::INFINITY` = no deadline). The answer itself is still exact —
    /// shedding is an SLO verdict, not a correctness one.
    pub deadline_s: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_width: 16,
            opts: OptConfig::all_on(),
            num_landmarks: 4,
            lru_capacity: 8,
            keep_paths: false,
            deadline_s: f64::INFINITY,
        }
    }
}

/// The answer to one query, in stream order.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The query as submitted.
    pub query: Query,
    /// Point-to-point answer (`INF_WEIGHT` = unreachable); `None` for
    /// full queries (their answer is the tree, see `paths`).
    pub dist: Option<Weight>,
    /// Point-to-point tree parent of the target (`NO_PARENT` if none).
    pub parent: Option<u64>,
    /// Answered from the LRU without running a lane.
    pub cache_hit: bool,
    /// The lane retired before its batch finished.
    pub early_exit: bool,
    /// Landmark upper bound attached to the lane (`INF_WEIGHT` = none).
    pub bound: Weight,
    /// Virtual seconds from window admission to answer.
    pub latency_s: f64,
    /// The query was shed: its window's kernel failed twice under crash
    /// faults (no answer: `dist`/`paths` empty) or its answer blew the
    /// configured deadline (answer present but late).
    pub shed: bool,
    /// Local result slice for full queries when `keep_paths` is set.
    pub paths: Option<DistShortestPaths>,
}

/// Aggregate serving counters (per rank; control counters are identical
/// on every rank).
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Queries answered.
    pub queries: u64,
    /// Admission windows executed.
    pub batches: u64,
    /// Queries answered from the LRU.
    pub cache_hits: u64,
    /// Point-to-point lanes that retired early.
    pub early_exits: u64,
    /// Lanes actually run through the kernel.
    pub lanes_run: u64,
    /// Kernel supersteps across all batches.
    pub supersteps: u64,
    /// Arcs examined across all batches and lanes (pruned arcs included).
    pub relaxations: u64,
    /// Update records shipped across all batches.
    pub updates_sent: u64,
    /// Arcs a landmark bound kept a push from relaxing.
    pub pruned: u64,
    /// Supersteps spent precomputing landmarks.
    pub precompute_supersteps: u64,
    /// Queries shed (kernel failed twice under crash faults, or the
    /// answer blew the deadline).
    pub queries_shed: u64,
    /// Lane-run queries re-admitted after their window's kernel crashed
    /// beyond its recovery budget once.
    pub queries_retried: u64,
}

/// Precomputed landmark distances: `k` high-degree vertices and this
/// rank's local distance slice per landmark.
#[derive(Clone, Debug)]
pub struct LandmarkSet {
    /// Landmark vertex ids, highest degree first (ties by id).
    pub ids: Vec<VertexId>,
    /// Per landmark, the local distances its lane left.
    dist: Vec<Vec<Weight>>,
}

impl LandmarkSet {
    /// `dist(L_j, v)` for local vertex `l`.
    pub fn local_dist(&self, j: usize, l: usize) -> Weight {
        self.dist[j][l]
    }
}

/// Triangle-inequality upper bound on `dist(s, t)` from per-landmark
/// distances `ls[j] = dist(L_j, s)` and `lt[j] = dist(L_j, t)`. The sum is
/// inflated by `1e-5` relative so `f32` rounding can never push the bound
/// below the true distance. `INF_WEIGHT` when no landmark reaches both.
pub fn triangle_bound(ls: &[Weight], lt: &[Weight]) -> Weight {
    let mut best = INF_WEIGHT;
    for (&a, &b) in ls.iter().zip(lt) {
        if a.is_finite() && b.is_finite() {
            let ub = (a + b) * (1.0 + 1e-5);
            if ub < best {
                best = ub;
            }
        }
    }
    best
}

/// A small deterministic LRU: recency is a pure function of the key
/// stream (`get`/`insert` order), so replicas driving it with the same
/// stream stay in lockstep even though their values differ.
#[derive(Clone, Debug)]
pub struct Lru<K: PartialEq + Clone, V> {
    cap: usize,
    entries: Vec<(K, V)>, // most recently used last
}

impl<K: PartialEq + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Lru {
            cap,
            entries: Vec::new(),
        }
    }

    /// Look up `k`, marking it most recently used on hit.
    pub fn get(&mut self, k: &K) -> Option<&V> {
        let i = self.entries.iter().position(|(ek, _)| ek == k)?;
        let e = self.entries.remove(i);
        self.entries.push(e);
        self.entries.last().map(|(_, v)| v)
    }

    /// Insert (or refresh) `k`, evicting the least recently used entry
    /// when over capacity.
    pub fn insert(&mut self, k: K, v: V) {
        if self.cap == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(ek, _)| *ek == k) {
            self.entries.remove(i);
        }
        self.entries.push((k, v));
        if self.entries.len() > self.cap {
            self.entries.remove(0);
        }
    }

    /// Cached keys, least recently used first.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How one window query gets its answer.
enum Plan {
    /// Full query answered from the LRU.
    FullHit,
    /// Point-to-point query answered from a cached source slice.
    P2pHit,
    /// Runs as lane `i` of the window batch (shared by duplicates).
    Lane(usize),
}

/// The serving engine: a resident partitioned graph plus landmark and
/// result caches. Collective: every rank drives its engine with the same
/// query stream.
pub struct QueryEngine<'g, P: VertexPartition + Sync> {
    graph: &'g LocalGraph<P>,
    cfg: ServeConfig,
    landmarks: Option<LandmarkSet>,
    lru: Lru<VertexId, DistShortestPaths>,
    stats: ServeStats,
}

impl<'g, P: VertexPartition + Sync> QueryEngine<'g, P> {
    /// Build an engine, precomputing landmarks as one batch of full lanes.
    /// Collective. Landmark precompute runs before any query exists to
    /// degrade onto, so a crash it cannot recover from surfaces as the
    /// kernel's `Err` — identical on every rank.
    pub fn try_new(
        ctx: &mut RankCtx,
        graph: &'g LocalGraph<P>,
        cfg: ServeConfig,
    ) -> Result<Self, FaultEscalation> {
        let mut stats = ServeStats::default();
        let landmarks = if cfg.num_landmarks > 0 {
            precompute_landmarks(ctx, graph, cfg.num_landmarks, &cfg.opts, &mut stats)?
        } else {
            None
        };
        let lru = Lru::new(cfg.lru_capacity);
        Ok(QueryEngine {
            graph,
            cfg,
            landmarks,
            lru,
            stats,
        })
    }

    /// Serving counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Landmarks the engine holds: the `num_landmarks` requested, or fewer
    /// when the graph has fewer vertices.
    pub fn landmarks(&self) -> usize {
        self.landmarks.as_ref().map_or(0, |l| l.ids.len())
    }

    /// Answer a query stream: admit in windows of `batch_width`, run each
    /// window as one shared batch. Returns outcomes in stream order.
    /// Collective.
    ///
    /// Under crash faults the engine degrades instead of failing: a
    /// window whose kernel exhausts its recovery budget is retried once
    /// (the crash lottery has moved on, so the retry draws fresh
    /// windows), and if the retry fails too, the window's lane-run
    /// queries are shed — answered with [`QueryOutcome::shed`] set and no
    /// result — while cache hits are still served. This never panics and
    /// never returns an error: the degradation policy absorbs every
    /// recovery failure.
    pub fn serve(&mut self, ctx: &mut RankCtx, queries: &[Query]) -> Vec<QueryOutcome> {
        let mut out = Vec::with_capacity(queries.len());
        let width = self.cfg.batch_width.max(1);
        for window in queries.chunks(width) {
            self.serve_window(ctx, window, &mut out);
        }
        out
    }

    fn serve_window(&mut self, ctx: &mut RankCtx, window: &[Query], out: &mut Vec<QueryOutcome>) {
        let part = self.graph.part();
        let me = ctx.rank();
        let k = self.landmarks();
        // admission record key space: slot 0 = cached p2p answer from the
        // target's owner, slots 1..=k = dist(L_j, source) from the
        // source's owner, k+1..=2k = dist(L_j, target) from the target's
        // owner; key = query index * slots + slot
        let slots = (2 * k + 1) as u32;
        let batch_ord = self.stats.batches;
        let ord0 = self.stats.queries;
        ctx.trace_begin(TraceCode::QueryBatch, batch_ord, window.len() as u64);
        let t0 = ctx.now();

        let mut plans: Vec<Plan> = Vec::with_capacity(window.len());
        let mut specs: Vec<BatchSpec> = Vec::new();
        // the query each lane answers (window duplicates share a lane)
        let mut lane_query: Vec<Query> = Vec::new();
        let mut contrib: Vec<(u32, f32, u64)> = Vec::new();
        // records `contrib` holds machine-wide: the plans are replicated
        let mut published = 0usize;

        for (qi, q) in window.iter().enumerate() {
            let ordinal = self.stats.queries;
            self.stats.queries += 1;
            let cached = self.cfg.lru_capacity > 0 && {
                // replicated recency update; owner reads the value below
                self.lru.get(&q.source).is_some()
            };
            let plan = match (q.target, cached) {
                (None, true) => {
                    self.stats.cache_hits += 1;
                    Plan::FullHit
                }
                (Some(t), true) => {
                    self.stats.cache_hits += 1;
                    published += 1;
                    if part.owner(t) == me {
                        let paths = self.lru.get(&q.source).expect("just hit");
                        let l = part.to_local(t);
                        contrib.push((qi as u32 * slots, paths.dist[l], paths.parent[l]));
                    }
                    Plan::P2pHit
                }
                (target, false) => {
                    if let Some(lane) = lane_query.iter().position(|oq| oq == q) {
                        Plan::Lane(lane)
                    } else {
                        let lane = specs.len();
                        specs.push(match target {
                            None => BatchSpec::full(q.source),
                            Some(t) => BatchSpec::p2p(q.source, t),
                        });
                        lane_query.push(*q);
                        if let (Some(t), Some(lm)) = (target, self.landmarks.as_ref()) {
                            published += 2 * k;
                            for (side, v) in [(0u32, q.source), (1, t)] {
                                if part.owner(v) == me {
                                    let l = part.to_local(v);
                                    for j in 0..k {
                                        let key =
                                            qi as u32 * slots + 1 + side * k as u32 + j as u32;
                                        contrib.push((key, lm.local_dist(j, l), 0));
                                    }
                                }
                            }
                        }
                        Plan::Lane(lane)
                    }
                }
            };
            ctx.trace_count(
                TraceCode::QueryAdmitted,
                ordinal,
                matches!(plan, Plan::FullHit | Plan::P2pHit) as u64,
            );
            plans.push(plan);
        }

        // one admission allgather resolves cached p2p answers and both
        // halves of every landmark bound, by the route priced for a rank's
        // share of the records
        let mut hit_answer = vec![(INF_WEIGHT, NO_PARENT); window.len()];
        let mut ls = vec![INF_WEIGHT; window.len() * k.max(1)];
        let mut lt = vec![INF_WEIGHT; window.len() * k.max(1)];
        let entry = <(u32, f32, u64) as Wire>::SIZE;
        let bytes = (published * entry) as f64 / ctx.size() as f64;
        for block in ctx
            .allgatherv_routed(ctx.allgatherv_route(bytes), &contrib, Header::none())
            .0
        {
            for (key, d, aux) in block {
                let qi = (key / slots) as usize;
                let slot = key % slots;
                if slot == 0 {
                    hit_answer[qi] = (d, aux);
                } else if (slot as usize) <= k {
                    ls[qi * k + slot as usize - 1] = d;
                } else {
                    lt[qi * k + slot as usize - 1 - k] = d;
                }
            }
        }
        for (qi, plan) in plans.iter().enumerate() {
            if let Plan::Lane(lane) = plan {
                if specs[*lane].target.is_some() && k > 0 && specs[*lane].bound.is_infinite() {
                    specs[*lane].bound =
                        triangle_bound(&ls[qi * k..(qi + 1) * k], &lt[qi * k..(qi + 1) * k]);
                }
            }
        }
        let t_admit = ctx.now();

        // Run the window batch. A kernel `Err` is agreement-backed —
        // identical on every rank from the same collective point — so the
        // retry and shed decisions below stay in lockstep without any
        // extra coordination.
        let lane_queries = plans.iter().filter(|p| matches!(p, Plan::Lane(_))).count() as u64;
        let batch = if specs.is_empty() {
            None
        } else {
            let mut attempt = try_batched_delta_stepping(ctx, self.graph, &specs, &self.cfg.opts);
            if attempt.is_err() {
                // one re-admission: the crash lottery's draw counter is
                // monotone, so the retry faces fresh crash windows rather
                // than replaying the fatal schedule
                self.stats.queries_retried += lane_queries;
                attempt = try_batched_delta_stepping(ctx, self.graph, &specs, &self.cfg.opts);
            }
            match attempt {
                Ok((lanes, st)) => {
                    self.stats.lanes_run += specs.len() as u64;
                    self.stats.supersteps += st.supersteps;
                    self.stats.relaxations += st.relaxations;
                    self.stats.updates_sent += st.updates_sent;
                    self.stats.pruned += lanes.iter().map(|lane| lane.pruned).sum::<u64>();
                    Some(lanes)
                }
                Err(_) => None, // twice unrecoverable: shed the window's lanes
            }
        };
        let batch_failed = batch.is_none() && !specs.is_empty();

        for (qi, (q, plan)) in window.iter().zip(&plans).enumerate() {
            let base = QueryOutcome {
                query: *q,
                dist: None,
                parent: None,
                cache_hit: false,
                early_exit: false,
                bound: INF_WEIGHT,
                latency_s: t_admit - t0,
                shed: false,
                paths: None,
            };
            out.push(match plan {
                Plan::FullHit => QueryOutcome {
                    cache_hit: true,
                    paths: self
                        .cfg
                        .keep_paths
                        .then(|| self.lru.get(&q.source).expect("hit").clone()),
                    ..base
                },
                Plan::P2pHit => QueryOutcome {
                    dist: Some(hit_answer[qi].0),
                    parent: Some(hit_answer[qi].1),
                    cache_hit: true,
                    ..base
                },
                Plan::Lane(_) if batch_failed => {
                    // the window's kernel failed twice: no answer exists,
                    // hand back a counted shed verdict instead of dying
                    self.stats.queries_shed += 1;
                    ctx.trace_count(TraceCode::QueryShed, ord0 + qi as u64, 0);
                    QueryOutcome {
                        latency_s: ctx.now() - t0,
                        shed: true,
                        ..base
                    }
                }
                Plan::Lane(lane) => {
                    let ran = &batch.as_ref().expect("lane implies batch")[*lane];
                    if ran.early_exit {
                        self.stats.early_exits += 1;
                    }
                    let latency_s = ran.finished_at - t0;
                    let shed = latency_s > self.cfg.deadline_s;
                    if shed {
                        self.stats.queries_shed += 1;
                        ctx.trace_count(TraceCode::QueryShed, ord0 + qi as u64, 1);
                    }
                    QueryOutcome {
                        dist: q.target.map(|_| ran.target.0),
                        parent: q.target.map(|_| ran.target.1),
                        early_exit: ran.early_exit,
                        bound: specs[*lane].bound,
                        latency_s,
                        shed,
                        paths: (self.cfg.keep_paths && q.target.is_none())
                            .then(|| ran.paths.clone()),
                        ..base
                    }
                }
            });
        }

        // cache full results, in window order (replicated key stream)
        for (q, lane) in lane_query.iter().zip(batch.into_iter().flatten()) {
            if q.target.is_none() {
                self.lru.insert(q.source, lane.paths);
            }
        }
        self.stats.batches += 1;
        ctx.trace_end(TraceCode::QueryBatch, batch_ord, specs.len() as u64);
    }
}

/// Pick the `k` highest-degree vertices (ties by id) as landmarks and run
/// one batched full SSSP from all of them; `None` on a graph without
/// vertices.
fn precompute_landmarks<P: VertexPartition + Sync>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    k: usize,
    opts: &OptConfig,
    stats: &mut ServeStats,
) -> Result<Option<LandmarkSet>, FaultEscalation> {
    let part = graph.part();
    let me = ctx.rank();
    let n_local = graph.local_vertices();
    let mut cand: Vec<(u64, u64)> = (0..n_local)
        .map(|l| (graph.neighbors(l).len() as u64, part.to_global(me, l)))
        .collect();
    cand.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    cand.truncate(k);
    // every rank brings its `k` best (fewer only if it holds fewer vertices)
    let bytes = (k * <(u64, u64) as Wire>::SIZE) as f64;
    let gathered = ctx
        .allgatherv_routed(ctx.allgatherv_route(bytes), &cand, Header::none())
        .0;
    let mut merged: Vec<(u64, u64)> = gathered.into_iter().flatten().collect();
    merged.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    merged.truncate(k);
    let ids: Vec<VertexId> = merged.into_iter().map(|(_, v)| v).collect();
    if ids.is_empty() {
        return Ok(None);
    }

    let specs: Vec<BatchSpec> = ids.iter().map(|&v| BatchSpec::full(v)).collect();
    let (lanes, st) = try_batched_delta_stepping(ctx, graph, &specs, opts)?;
    stats.precompute_supersteps += st.supersteps;
    let dist = lanes.into_iter().map(|lane| lane.paths.dist).collect();
    Ok(Some(LandmarkSet { ids, dist }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    #[test]
    fn lru_evicts_least_recent_and_refreshes_on_get() {
        let mut lru: Lru<u64, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(&10)); // 1 now most recent
        lru.insert(3, 30); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_zero_capacity_caches_nothing() {
        let mut lru: Lru<u64, u32> = Lru::new(0);
        lru.insert(1, 10);
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn triangle_bound_skips_unreachable_landmarks() {
        assert!(triangle_bound(&[INF_WEIGHT], &[0.5]).is_infinite());
        assert!(triangle_bound(&[], &[]).is_infinite());
        let b = triangle_bound(&[INF_WEIGHT, 1.0], &[0.25, 2.0]);
        assert!((b - 3.0).abs() < 1e-3 && b >= 3.0);
    }

    #[test]
    fn engine_answers_match_dijkstra_and_cache_is_exact() {
        let el = g500_gen::simple::erdos_renyi(64, 300, 77);
        let csr = Csr::from_edges(64, &el, Directedness::Undirected);
        let p = 3;
        let queries = vec![
            Query::full(3),
            Query::p2p(3, 40), // same window as the full query: own lane
            Query::p2p(11, 62),
            Query::full(3),     // second window: LRU hit
            Query::p2p(3, 40),  // LRU hit answered by target owner
            Query::p2p(11, 62), // miss again (p2p results are not cached)
        ];
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(64, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let cfg = ServeConfig {
                batch_width: 3,
                num_landmarks: 3,
                lru_capacity: 4,
                ..ServeConfig::default()
            };
            let mut engine = QueryEngine::try_new(ctx, &g, cfg).expect("no crash plan");
            let outcomes = engine.serve(ctx, &queries);
            let stats = engine.stats().clone();
            (outcomes, stats)
        });
        let (outcomes, stats) = &rep.results[0];
        let d3 = dijkstra(&csr, 3);
        let d11 = dijkstra(&csr, 11);
        assert_eq!(outcomes.len(), 6);
        assert_eq!(outcomes[1].dist.unwrap().to_bits(), d3.dist[40].to_bits());
        assert_eq!(outcomes[2].dist.unwrap().to_bits(), d11.dist[62].to_bits());
        assert!(outcomes[3].cache_hit, "repeat full query must hit");
        assert!(outcomes[4].cache_hit, "p2p over cached source must hit");
        assert_eq!(outcomes[4].dist.unwrap().to_bits(), d3.dist[40].to_bits());
        assert_eq!(outcomes[5].dist.unwrap().to_bits(), d11.dist[62].to_bits());
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.batches, 2);
        assert!(stats.queries == 6);
        for o in outcomes {
            assert!(o.latency_s >= 0.0);
        }
    }

    #[test]
    fn serving_survives_crashes_with_exact_answers() {
        // in-budget crashes are recovered inside the kernel: the serving
        // layer sees successful batches, answers stay exact, nothing is
        // shed or retried
        let el = g500_gen::simple::erdos_renyi(64, 300, 77);
        let csr = Csr::from_edges(64, &el, Directedness::Undirected);
        let p = 3;
        let queries = vec![
            Query::full(3),
            Query::p2p(3, 40),
            Query::p2p(11, 62),
            Query::full(21),
        ];
        let plan = simnet::CrashPlan::random(0x5E13, 0.01).with_checkpoint_interval(2);
        let rep = Machine::new(MachineConfig::with_ranks(p).crashes(plan)).run(|ctx| {
            let part = Block1D::new(64, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            // narrow buckets: supersteps enough for the lottery to strike
            let cfg = ServeConfig {
                batch_width: 2,
                opts: OptConfig::all_on().with_delta(0.125),
                num_landmarks: 3,
                lru_capacity: 4,
                ..ServeConfig::default()
            };
            let mut engine =
                QueryEngine::try_new(ctx, &g, cfg).expect("in-budget crashes are recovered");
            let outcomes = engine.serve(ctx, &queries);
            (outcomes, engine.stats().clone())
        });
        assert!(
            rep.total_stats().saw_crashes(),
            "the schedule must actually crash someone: {:?}",
            rep.total_stats()
        );
        let (outcomes, stats) = &rep.results[0];
        let d3 = dijkstra(&csr, 3);
        let d11 = dijkstra(&csr, 11);
        assert_eq!(outcomes[1].dist.unwrap().to_bits(), d3.dist[40].to_bits());
        assert_eq!(outcomes[2].dist.unwrap().to_bits(), d11.dist[62].to_bits());
        assert!(outcomes.iter().all(|o| !o.shed));
        assert_eq!(stats.queries_shed, 0);
        assert_eq!(stats.queries_retried, 0);
    }

    #[test]
    fn unrecoverable_windows_shed_instead_of_failing() {
        // crash rate 1.0: every rank dies at every probe, so every window
        // batch loses its checkpoints twice — the engine must retry once,
        // then shed the window's lane queries without panicking
        let el = g500_gen::simple::erdos_renyi(48, 220, 31);
        let p = 2;
        let queries = vec![
            Query::full(3),
            Query::p2p(3, 40),
            Query::full(7),
            Query::p2p(11, 20),
        ];
        let plan = simnet::CrashPlan::random(0xDEAD, 1.0).with_checkpoint_interval(2);
        let rep = Machine::new(MachineConfig::with_ranks(p).crashes(plan)).run(|ctx| {
            let part = Block1D::new(48, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let cfg = ServeConfig {
                batch_width: 2,
                num_landmarks: 0, // precompute has no stream to degrade onto
                lru_capacity: 0,
                ..ServeConfig::default()
            };
            let mut engine =
                QueryEngine::try_new(ctx, &g, cfg).expect("no landmarks to precompute");
            let outcomes = engine.serve(ctx, &queries);
            (outcomes, engine.stats().clone())
        });
        let (outcomes, stats) = &rep.results[0];
        assert_eq!(outcomes.len(), 4);
        for o in outcomes {
            assert!(o.shed, "query {:?} must be shed", o.query);
            assert!(o.dist.is_none() && o.paths.is_none());
        }
        assert_eq!(stats.queries_shed, 4);
        assert_eq!(stats.queries_retried, 4);
    }

    #[test]
    fn zero_deadline_sheds_late_answers_but_keeps_them_exact() {
        let el = g500_gen::simple::erdos_renyi(48, 220, 31);
        let csr = Csr::from_edges(48, &el, Directedness::Undirected);
        let p = 2;
        let queries = vec![Query::p2p(3, 40), Query::p2p(3, 40)];
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(48, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let cfg = ServeConfig {
                batch_width: 2,
                num_landmarks: 0,
                lru_capacity: 0,
                deadline_s: 0.0,
                ..ServeConfig::default()
            };
            let mut engine = QueryEngine::try_new(ctx, &g, cfg).expect("no crash plan");
            let outcomes = engine.serve(ctx, &queries);
            (outcomes, engine.stats().clone())
        });
        let (outcomes, stats) = &rep.results[0];
        let d3 = dijkstra(&csr, 3);
        // a deadline shed is an SLO verdict: the answer is still exact
        for o in outcomes {
            assert!(o.shed);
            assert_eq!(o.dist.unwrap().to_bits(), d3.dist[40].to_bits());
        }
        assert_eq!(stats.queries_shed, 2);
        assert_eq!(stats.queries_retried, 0);
    }

    #[test]
    fn landmark_bound_is_attached_and_sound() {
        let el = g500_gen::simple::erdos_renyi(96, 500, 5);
        let csr = Csr::from_edges(96, &el, Directedness::Undirected);
        let p = 2;
        let queries: Vec<Query> = (0..8).map(|i| Query::p2p(i * 7, i * 11 + 1)).collect();
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(96, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let cfg = ServeConfig {
                batch_width: 8,
                num_landmarks: 4,
                lru_capacity: 0,
                ..ServeConfig::default()
            };
            let mut engine = QueryEngine::try_new(ctx, &g, cfg).expect("no crash plan");
            engine.serve(ctx, &queries)
        });
        let mut bounded = 0;
        for o in &rep.results[0] {
            let oracle = dijkstra(&csr, o.query.source);
            let true_d = oracle.dist[o.query.target.unwrap() as usize];
            assert_eq!(
                o.dist.unwrap().to_bits(),
                true_d.to_bits(),
                "query {:?}",
                o.query
            );
            if o.bound.is_finite() {
                bounded += 1;
                assert!(o.bound >= true_d, "bound below true distance");
            }
        }
        assert!(bounded > 0, "no query got a landmark bound");
    }
}
