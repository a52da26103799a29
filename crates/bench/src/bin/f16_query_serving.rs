//! F16 — Query serving: latency and QPS under admission batching.
//!
//! A closed-loop load generator drives the query engine with a
//! deterministic mixed stream (full single-source + point-to-point) over
//! a resident scale-18 graph, sweeping the admission window width
//! `B ∈ {1, 4, 16, 64}`. The `seq` row is the sequential baseline — every
//! query its own kernel run, caches off — and since a batch is the solo
//! kernel over lanes it is the real sequential kernel (less its fused
//! tail), not a slower second engine. The headline claim is B = 64
//! achieving ≥ 2× its QPS in virtual time; the harness also requires QPS to
//! be non-decreasing in B and every cached row to reach `seq`, and exits 1
//! otherwise. Landmark bounds and the result LRU stay on (this is the
//! *service* configuration; F11 isolates pure batching).
//!
//! The stream is 128 queries over a fixed 16-source hot pool, so the
//! widest window still sees a multi-window stream (at B = 64 a single
//! 64-query stream would be exactly one window and the LRU could never
//! fire — no real service warms its cache inside one batch).
//!
//! Overrides: `G500_SCALE` (18), `G500_RANKS` (8), `G500_QUERIES` (128),
//! `G500_POOL` (16), `G500_LANDMARKS` (4), `G500_LRU` (8),
//! `G500_P2P` (permille, 500).

use g500_bench::{banner, param, secs, Table};
use graph500::{run_query_serving_benchmark, ServeBenchConfig};

fn main() {
    let scale = param("G500_SCALE", 18) as u32;
    let ranks = param("G500_RANKS", 8) as usize;
    let queries = param("G500_QUERIES", 128) as usize;
    let pool = param("G500_POOL", 16) as usize;
    let landmarks = param("G500_LANDMARKS", 4) as usize;
    let lru = param("G500_LRU", 8) as usize;
    let p2p = param("G500_P2P", 500);
    banner(
        "F16",
        "query serving: latency/QPS vs admission width",
        &[
            ("scale", scale.to_string()),
            ("ranks", ranks.to_string()),
            ("queries", queries.to_string()),
            ("pool", pool.to_string()),
            ("landmarks", landmarks.to_string()),
            ("lru", lru.to_string()),
            ("p2p_permille", p2p.to_string()),
        ],
    );

    let t = Table::new(&[
        "B",
        "qps",
        "speedup",
        "p50",
        "p95",
        "p99",
        "hits",
        "early",
        "supersteps",
    ]);
    // The acceptance baseline: sequential back-to-back single-source
    // service — one query per batch, no LRU, no landmarks. Every sweep
    // row's speedup is against this.
    let mut base = ServeBenchConfig::new(scale, ranks).deterministic(0);
    base.num_queries = queries;
    base.source_pool = pool;
    base.batch_width = 1;
    base.num_landmarks = 0;
    base.lru_capacity = 0;
    base.p2p_permille = p2p;
    let base_rep = run_query_serving_benchmark(&base);
    let base_qps = base_rep.qps;
    t.row(&[
        "seq".to_string(),
        format!("{:.2}", base_qps),
        "1.00x".to_string(),
        secs(base_rep.p50_ms / 1e3),
        secs(base_rep.p95_ms / 1e3),
        secs(base_rep.p99_ms / 1e3),
        base_rep.cache_hits.to_string(),
        base_rep.early_exits.to_string(),
        base_rep.supersteps.to_string(),
    ]);
    let mut swept = vec![base_qps];
    for batch in [1usize, 4, 16, 64] {
        let mut cfg = ServeBenchConfig::new(scale, ranks).deterministic(0);
        cfg.num_queries = queries;
        cfg.source_pool = pool;
        cfg.batch_width = batch;
        cfg.num_landmarks = landmarks;
        cfg.lru_capacity = lru;
        cfg.p2p_permille = p2p;
        let rep = run_query_serving_benchmark(&cfg);
        swept.push(rep.qps);
        t.row(&[
            batch.to_string(),
            format!("{:.2}", rep.qps),
            format!("{:.2}x", rep.qps / base_qps),
            secs(rep.p50_ms / 1e3),
            secs(rep.p95_ms / 1e3),
            secs(rep.p99_ms / 1e3),
            rep.cache_hits.to_string(),
            rep.early_exits.to_string(),
            rep.supersteps.to_string(),
        ]);
    }
    println!(
        "\nexpected shape: QPS rises with B (shared supersteps amortize per-step fixed \
         costs, the LRU absorbs repeats, p2p lanes retire early); latency percentiles \
         rise with B because a query's result lands when its shared window drains — \
         the classic throughput/latency trade of admission batching"
    );
    let last_speedup = swept[swept.len() - 1] / base_qps;
    if last_speedup < 2.0 {
        println!("WARNING: B=64 speedup {last_speedup:.2}x below the 2x acceptance line");
        std::process::exit(1);
    }
    if swept.windows(2).any(|w| w[1] < w[0]) {
        println!("WARNING: shape broken (QPS falls from one row to the next: {swept:.2?})");
        std::process::exit(1);
    }
}
