//! F11 — Batched multi-source SSSP (the extension experiment).
//!
//! The Graph500 harness runs 64 searches; run them `B` at a time and
//! measure the superstep amortization: total supersteps, total simulated
//! time, and the effective uplift over back-to-back single-source runs.
//! Since PR 8 the batching loop *is* the query engine: the roots go in as
//! full queries and the admission window width is the batch size (caches
//! disabled, so this measures batching alone). A batch is the solo kernel
//! over lanes, so the `B = 1` row is the real sequential kernel (less its
//! fused tail) and the uplift is over it, not over a slower second engine.
//!
//! Exits 1 when the shape breaks: supersteps must fall strictly with every
//! doubling of `B`, and `B = 8` must take less simulated time than `B = 1`.
//!
//! Overrides: `G500_SCALE` (14), `G500_RANKS` (8), `G500_NROOTS` (16).

use g500_bench::{banner, param, secs, Table};
use g500_gen::{KroneckerGenerator, KroneckerParams};
use g500_partition::{assemble_local_graph, Block1D};
use g500_sssp::{OptConfig, Query, QueryEngine, ServeConfig};
use graph500::simnet::{Machine, MachineConfig};

fn main() {
    let scale = param("G500_SCALE", 14) as u32;
    let ranks = param("G500_RANKS", 8) as usize;
    let nroots = param("G500_NROOTS", 16) as usize;
    banner(
        "F11",
        "multi-source batching",
        &[
            ("scale", scale.to_string()),
            ("ranks", ranks.to_string()),
            ("roots", nroots.to_string()),
        ],
    );

    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, 5));
    let n = gen.params().num_vertices();
    let m = gen.params().num_edges();

    // deterministic roots with edges (scan a generator sample)
    let sample = gen.edge_block(0..m.min(1 << 16));
    let mut roots: Vec<u64> = Vec::new();
    for e in sample.iter() {
        if roots.len() >= nroots {
            break;
        }
        if !roots.contains(&e.u) {
            roots.push(e.u);
        }
    }
    let queries: Vec<Query> = roots.iter().map(|&r| Query::full(r)).collect();

    let t = Table::new(&["batch_size", "batches", "supersteps", "sim_time", "speedup"]);
    let mut rows: Vec<(usize, u64, f64)> = Vec::new();
    for batch in [1usize, 2, 4, 8, 16] {
        if batch > nroots {
            break;
        }
        let rep = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
            let part = Block1D::new(n, ranks);
            let (lo, hi) = (
                ctx.rank() as u64 * m / ranks as u64,
                (ctx.rank() as u64 + 1) * m / ranks as u64,
            );
            let mine = gen.edge_block(lo..hi);
            ctx.charge_compute(hi - lo);
            let g = assemble_local_graph(ctx, mine.iter(), part);
            let cfg = ServeConfig {
                batch_width: batch,
                opts: OptConfig::all_on(),
                num_landmarks: 0, // isolate batching from caching
                lru_capacity: 0,
                keep_paths: false,
                deadline_s: f64::INFINITY,
            };
            let kernel_start = ctx.now();
            let mut engine = QueryEngine::try_new(ctx, &g, cfg).expect("no crash plan");
            engine.serve(ctx, &queries);
            let elapsed =
                ctx.allreduce(ctx.now() - kernel_start, |a, b| if a > b { *a } else { *b });
            (engine.stats().supersteps, engine.stats().batches, elapsed)
        });
        let (steps, batches, time) = rep.results[0];
        rows.push((batch, steps, time));
        let base_time = rows[0].2;
        t.row(&[
            batch.to_string(),
            batches.to_string(),
            steps.to_string(),
            secs(time),
            format!("{:.2}x", base_time / time),
        ]);
    }
    println!("\nexpected shape: supersteps fall roughly like 1/batch on the tail-dominated regime; time follows until bandwidth saturates");
    let falling = rows.windows(2).all(|w| w[1].1 < w[0].1);
    let widest = rows.iter().rfind(|r| r.0 <= 8).expect("B = 1 ran");
    if !falling || (widest.0 > 1 && widest.2 >= rows[0].2) {
        println!(
            "WARNING: shape broken (supersteps not strictly falling with B, or B={} no faster than B=1)",
            widest.0
        );
        std::process::exit(1);
    }
}
