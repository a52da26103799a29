//! The query-serving benchmark driver: resident graph + closed-loop query
//! stream + latency/QPS reporting, over the simulated machine.
//!
//! Where [`crate::driver`] reproduces the official 64-root batch
//! benchmark, this driver measures the *service* regime: a deterministic
//! synthetic stream of full and point-to-point queries admitted in
//! windows and executed through the batched kernel
//! ([`g500_sssp::QueryEngine`]). Reported latencies are virtual seconds
//! from window admission to answer; QPS is queries over the virtual
//! serving span. Both are deterministic functions of the configuration.

use crate::driver::{sample_roots, slowest, Harness};
use g500_gen::CounterRng;
use g500_graph::EdgeList;
use g500_partition::Block1D;
use g500_sssp::{OptConfig, Query, QueryEngine, ServeConfig};
use simnet::{json, CrashPlan, FaultEscalation, Machine, MachineConfig, NetStats};

/// Everything a serving run needs.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex (Graph500: 16).
    pub edgefactor: u64,
    /// Generator + stream seed.
    pub seed: u64,
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Queries in the stream.
    pub num_queries: usize,
    /// Admission window width `B`.
    pub batch_width: usize,
    /// Landmarks to precompute (0 disables bounds).
    pub num_landmarks: usize,
    /// Full-result LRU capacity (0 disables the cache).
    pub lru_capacity: usize,
    /// Per-mille of queries that are point-to-point (rest are full).
    pub p2p_permille: u64,
    /// Distinct sources to draw from (0 = `max(4, num_queries/4)`;
    /// smaller pools mean more repeats, so more LRU hits).
    pub source_pool: usize,
    /// Kernel optimization stack for every batch.
    pub opts: OptConfig,
    /// Per-query latency deadline in virtual seconds (`f64::INFINITY` =
    /// none); late answers are shed (see [`g500_sssp::serve`]).
    pub deadline_s: f64,
    /// Worker threads (0 = inherit), as in the batch driver.
    pub threads: usize,
}

impl ServeBenchConfig {
    /// Defaults mirroring the batch benchmark: edgefactor 16, official
    /// seed, a mixed stream of 64 queries at window width 16.
    pub fn new(scale: u32, ranks: usize) -> Self {
        ServeBenchConfig {
            scale,
            edgefactor: 16,
            seed: 20220814,
            machine: MachineConfig::with_ranks(ranks),
            num_queries: 64,
            batch_width: 16,
            num_landmarks: 4,
            lru_capacity: 8,
            p2p_permille: 500,
            source_pool: 0,
            opts: OptConfig::all_on(),
            deadline_s: f64::INFINITY,
            threads: 0,
        }
    }

    /// Run under the deterministic scheduler (see [`simnet::SchedMode`]).
    pub fn deterministic(mut self, sched_seed: u64) -> Self {
        self.machine = self.machine.deterministic(sched_seed);
        self
    }

    /// Inject seeded rank-crash faults (see [`simnet::CrashPlan`]). The
    /// serving engine degrades rather than dying: windows whose kernel
    /// exhausts its recovery budget are retried once and then shed, and
    /// the report counts both.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.machine = self.machine.crashes(plan);
        self
    }

    /// Record a virtual-time trace of the run.
    pub fn traced(mut self, on: bool) -> Self {
        self.machine = self.machine.traced(on);
        self
    }
}

/// Synthesize the deterministic query stream: sources drawn from a fixed
/// pool of giant-component vertices (repeats exercise the LRU), a
/// configurable share upgraded to point-to-point with an independent
/// target from the same pool.
pub fn synth_queries(el: &EdgeList, n: u64, cfg: &ServeBenchConfig) -> Vec<Query> {
    let pool_size = if cfg.source_pool > 0 {
        cfg.source_pool
    } else {
        (cfg.num_queries / 4).max(4)
    };
    let pool = sample_roots(el, n, cfg.seed ^ 0x5155_4552, pool_size); // "QUER"
    assert!(!pool.is_empty(), "no connected vertex to query");
    let rng = CounterRng::new(cfg.seed ^ 0x5354_524D, 0); // "STRM"
    (0..cfg.num_queries as u64)
        .map(|i| {
            let source = pool[rng.below(3 * i, pool.len() as u64) as usize];
            if rng.below(3 * i + 1, 1000) < cfg.p2p_permille {
                let target = pool[rng.below(3 * i + 2, pool.len() as u64) as usize];
                Query::p2p(source, target)
            } else {
                Query::full(source)
            }
        })
        .collect()
}

/// The serving outcome: latency distribution, throughput, engine counters.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Problem scale.
    pub scale: u32,
    /// Vertex count.
    pub n: u64,
    /// Generated edge records.
    pub m: u64,
    /// Rank count.
    pub ranks: usize,
    /// Admission window width the run used.
    pub batch_width: usize,
    /// Queries answered.
    pub queries: u64,
    /// Of which point-to-point.
    pub p2p_queries: u64,
    /// Admission windows executed.
    pub batches: u64,
    /// Queries answered from the LRU.
    pub cache_hits: u64,
    /// Point-to-point lanes that retired early.
    pub early_exits: u64,
    /// Lanes actually run through the kernel.
    pub lanes_run: u64,
    /// Queries shed (kernel failed twice under crash faults, or the
    /// answer blew the deadline).
    pub queries_shed: u64,
    /// Lane-run queries re-admitted after a crashed window.
    pub queries_retried: u64,
    /// Kernel supersteps across all batches.
    pub supersteps: u64,
    /// Landmarks precomputed: the requested count, or every vertex when
    /// the graph has fewer.
    pub landmarks: u64,
    /// Virtual seconds spent serving (precompute excluded).
    pub serve_time_s: f64,
    /// Queries per virtual second.
    pub qps: f64,
    /// Latency percentiles, virtual milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, virtual milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, virtual milliseconds.
    pub p99_ms: f64,
    /// Worst query latency, virtual milliseconds.
    pub max_ms: f64,
    /// Traffic and fault counters of the whole run (landmark precompute
    /// included), summed over ranks.
    pub net: NetStats,
    /// The crash plan the machine ran under; [`CrashPlan::none`] when
    /// crashes were off.
    pub crash: CrashPlan,
    /// Host wall-clock seconds the simulation took.
    pub wall_time_s: f64,
    /// Worker threads the pool ran with.
    pub threads: usize,
}

/// `q`-th percentile (0..=100) of an unsorted latency sample, in ms.
fn percentile_ms(sorted_s: &[f64], q: f64) -> f64 {
    if sorted_s.is_empty() {
        return 0.0;
    }
    let idx = ((q / 100.0 * sorted_s.len() as f64).ceil() as usize).clamp(1, sorted_s.len()) - 1;
    sorted_s[idx] * 1e3
}

impl ServeReport {
    /// Render the human-readable result block.
    pub fn render(&self) -> String {
        format!(
            "SCALE:                 {}\nnum_ranks:             {}\nbatch_width:           {}\n\
             queries:               {} ({} p2p)\nbatches:               {}\ncache_hits:            {}\n\
             early_exits:           {}\nlanes_run:             {}\nqueries_shed:          {}\n\
             queries_retried:       {}\nsupersteps:            {}\n\
             landmarks:             {}\nserve_time:            {:.6e} s (simulated)\n\
             QPS (simulated):       {:.3}\nlatency_p50:           {:.3} ms\nlatency_p95:           {:.3} ms\n\
             latency_p99:           {:.3} ms\nlatency_max:           {:.3} ms\nhost_threads:          {}\n",
            self.scale,
            self.ranks,
            self.batch_width,
            self.queries,
            self.p2p_queries,
            self.batches,
            self.cache_hits,
            self.early_exits,
            self.lanes_run,
            self.queries_shed,
            self.queries_retried,
            self.supersteps,
            self.landmarks,
            self.serve_time_s,
            self.qps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
            self.threads,
        )
    }

    /// Machine-readable form, one field a line. A crash-free report
    /// mentions no crash plan, as `g500 sssp --json` does.
    pub fn to_json(&self) -> String {
        json::report(|o| {
            simnet::json_fields! { o, self:
                scale, n, m, ranks, batch_width, queries, p2p_queries, batches, cache_hits,
                early_exits, lanes_run, queries_shed, queries_retried, supersteps, landmarks,
                serve_time_s, qps, p50_ms, p95_ms, p99_ms, max_ms, net,
            }
            if self.crash.is_active() {
                o.field("crash", self.crash);
            }
            simnet::json_fields! { o, self: wall_time_s, threads }
        })
    }
}

/// Run the query-serving benchmark: build the resident graph, precompute
/// landmarks, serve the synthetic stream, report latency and QPS. Panics
/// on fault escalation; use [`try_run_query_serving_benchmark`] to handle
/// it as a typed error.
pub fn run_query_serving_benchmark(cfg: &ServeBenchConfig) -> ServeReport {
    try_run_query_serving_benchmark(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_query_serving_benchmark`] with typed fault escalation. Under
/// crash faults the serving loop itself degrades (retry once, then shed —
/// counted in the report); the only escalations left are a transport
/// retry budget blown through or a landmark precompute the recovery
/// budget cannot absorb (there is no query to shed before the stream
/// starts).
pub fn try_run_query_serving_benchmark(
    cfg: &ServeBenchConfig,
) -> Result<ServeReport, FaultEscalation> {
    let h = Harness::new(cfg.scale, cfg.edgefactor, cfg.seed, cfg.threads);
    let (n, p) = (h.n, cfg.machine.ranks);
    let queries = synth_queries(&h.edges, n, cfg);
    let p2p_queries = queries.iter().filter(|q| q.target.is_some()).count() as u64;
    let serve_cfg = ServeConfig {
        batch_width: cfg.batch_width,
        opts: cfg.opts,
        num_landmarks: cfg.num_landmarks,
        lru_capacity: cfg.lru_capacity,
        keep_paths: false,
        deadline_s: cfg.deadline_s,
    };

    let report = Machine::new(cfg.machine).try_run(|ctx| {
        // no kernel-0 time is reported, so the build makes no agreement
        let (g, _) = h.build(ctx, Block1D::new(n, p), false);
        let mut engine = QueryEngine::try_new(ctx, &g, serve_cfg.clone())?;
        let t0 = slowest(ctx, ctx.now());
        let outcomes = engine.serve(ctx, &queries);
        let t1 = slowest(ctx, ctx.now());
        let latencies: Vec<f64> = outcomes.iter().map(|o| o.latency_s).collect();
        let held = engine.landmarks() as u64;
        Ok((t1 - t0, latencies, engine.stats().clone(), held))
    })?;

    let (wall_time_s, net) = (report.wall_time_s, report.total_stats());
    let (serve_time_s, mut latencies, stats, landmarks) =
        report.results.into_iter().next().unwrap()?;
    latencies.sort_by(|a, b| a.total_cmp(b));
    let qps = if serve_time_s > 0.0 {
        stats.queries as f64 / serve_time_s
    } else {
        f64::INFINITY
    };

    Ok(ServeReport {
        scale: cfg.scale,
        n,
        m: h.m,
        ranks: p,
        batch_width: cfg.batch_width,
        queries: stats.queries,
        p2p_queries,
        batches: stats.batches,
        cache_hits: stats.cache_hits,
        early_exits: stats.early_exits,
        lanes_run: stats.lanes_run,
        queries_shed: stats.queries_shed,
        queries_retried: stats.queries_retried,
        supersteps: stats.supersteps,
        landmarks,
        serve_time_s,
        qps,
        p50_ms: percentile_ms(&latencies, 50.0),
        p95_ms: percentile_ms(&latencies, 95.0),
        p99_ms: percentile_ms(&latencies, 99.0),
        max_ms: latencies.last().copied().unwrap_or(0.0) * 1e3,
        net,
        crash: cfg.machine.crash,
        wall_time_s,
        threads: rayon::current_num_threads(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_gen::{KroneckerGenerator, KroneckerParams};

    #[test]
    fn stream_is_deterministic_and_mixed() {
        let cfg = ServeBenchConfig::new(8, 2);
        let gen = KroneckerGenerator::new(KroneckerParams {
            scale: cfg.scale,
            edgefactor: cfg.edgefactor,
            ..KroneckerParams::graph500(cfg.scale, cfg.seed)
        });
        let el = gen.generate_all();
        let a = synth_queries(&el, 256, &cfg);
        let b = synth_queries(&el, 256, &cfg);
        assert_eq!(a, b);
        assert!(a.iter().any(|q| q.target.is_some()));
        assert!(a.iter().any(|q| q.target.is_none()));
    }

    #[test]
    fn serving_benchmark_reports_sane_numbers() {
        let mut cfg = ServeBenchConfig::new(9, 2).deterministic(0);
        cfg.num_queries = 24;
        cfg.batch_width = 8;
        let rep = run_query_serving_benchmark(&cfg);
        assert_eq!(rep.queries, 24);
        assert_eq!(rep.batches, 3);
        assert!(rep.qps > 0.0);
        assert!(rep.p50_ms <= rep.p95_ms && rep.p95_ms <= rep.p99_ms);
        assert!(rep.p99_ms <= rep.max_ms + 1e-9);
        assert!(rep.serve_time_s > 0.0);
        assert!(rep.render().contains("QPS"));
        assert!(rep.to_json().contains("\"qps\""));
    }

    #[test]
    fn wider_windows_amortize_supersteps() {
        let mut narrow = ServeBenchConfig::new(9, 2).deterministic(0);
        narrow.num_queries = 16;
        narrow.batch_width = 1;
        narrow.lru_capacity = 0; // isolate batching from caching
        narrow.num_landmarks = 0;
        let mut wide = narrow.clone();
        wide.batch_width = 16;
        let rn = run_query_serving_benchmark(&narrow);
        let rw = run_query_serving_benchmark(&wide);
        assert!(
            rw.supersteps * 2 < rn.supersteps,
            "wide {} vs narrow {} supersteps",
            rw.supersteps,
            rn.supersteps
        );
        assert!(
            rw.qps > rn.qps,
            "wide {:.2} vs narrow {:.2} qps",
            rw.qps,
            rn.qps
        );
    }

    #[test]
    fn crashy_serving_run_sheds_and_reports() {
        // crash rate 1.0 with landmarks off: every window fails twice, so
        // every query is shed — the run completes with a degradation
        // report instead of dying
        let mut cfg = ServeBenchConfig::new(8, 2)
            .crashes(CrashPlan::random(0xBEEF, 1.0).with_checkpoint_interval(2));
        cfg.num_queries = 8;
        cfg.batch_width = 4;
        cfg.num_landmarks = 0;
        cfg.lru_capacity = 0;
        let rep = run_query_serving_benchmark(&cfg);
        assert_eq!(rep.queries, 8);
        assert_eq!(rep.queries_shed, 8, "{rep:?}");
        assert_eq!(rep.queries_retried, 8, "{rep:?}");
        assert!(rep.render().contains("queries_shed:"));
        assert!(rep.to_json().contains("\"queries_shed\": 8"));
    }

    #[test]
    fn crashed_landmark_precompute_is_a_typed_error() {
        // with landmarks on, the precompute runs before any query exists
        // to degrade onto — a hopeless crash schedule surfaces as the
        // typed escalation, not a panic
        let cfg = ServeBenchConfig::new(8, 2)
            .crashes(CrashPlan::random(0xBEEF, 1.0).with_checkpoint_interval(2));
        match try_run_query_serving_benchmark(&cfg) {
            Err(FaultEscalation::CheckpointLost { .. })
            | Err(FaultEscalation::RecoveryBudgetExhausted { .. }) => {}
            Ok(_) => panic!("precompute cannot survive a total-loss schedule"),
            Err(e) => panic!("unexpected escalation flavor: {e}"),
        }
    }

    #[test]
    fn report_counts_the_landmarks_held_not_requested() {
        let mut cfg = ServeBenchConfig::new(6, 2).deterministic(0);
        cfg.num_queries = 4;
        cfg.num_landmarks = 100;
        let rep = run_query_serving_benchmark(&cfg);
        assert_eq!(rep.n, 64);
        assert_eq!(rep.landmarks, 64, "a landmark a vertex, no more");
        assert!(rep.to_json().contains("\"landmarks\": 64"));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let s = vec![0.001, 0.002, 0.003, 0.004];
        assert_eq!(percentile_ms(&s, 50.0), 2.0);
        assert_eq!(percentile_ms(&s, 99.0), 4.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }
}
