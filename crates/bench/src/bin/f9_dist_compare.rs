//! F9 — Distributed algorithm comparison.
//!
//! Optimized delta-stepping vs unoptimized delta-stepping vs distributed
//! Bellman-Ford on the same simulated machine, across scales. The gap to
//! distributed Bellman-Ford is the headline algorithmic win; the gap to
//! unoptimized delta-stepping is the engineering win.
//!
//! Overrides: `G500_MAX_SCALE` (16), `G500_RANKS` (8), `G500_ROOTS` (2).
//!
//! The expected shape is asserted (exit 1 when it breaks): the optimized
//! kernel beats its all-off form at every scale; its speedup over
//! distributed Bellman-Ford grows with every step in scale and is above 1
//! from scale [`BF_CROSSOVER_SCALE`] on. Below that, Bellman-Ford's fewer
//! supersteps win: the recorded run (`results/f9_dist_compare.txt`) reads
//! 0.81x at scale 12, 512 vertices a rank.

use g500_baselines::{bmssp, dijkstra_radix_heap, distributed_bellman_ford};
use g500_bench::{banner, param, secs, Table};
use g500_gen::{KroneckerGenerator, KroneckerParams};
use g500_graph::{Csr, Directedness};
use g500_partition::{assemble_local_graph, Block1D, LocalGraph};
use g500_sssp::{distributed_delta_stepping, OptConfig};
use graph500::simnet::{Machine, MachineConfig, RankCtx};

/// From this scale on the optimized kernel must beat distributed
/// Bellman-Ford (measured at the default 8 ranks).
const BF_CROSSOVER_SCALE: u32 = 14;

/// Host-side: roots with at least one edge, deterministic.
fn pick_roots(gen: &KroneckerGenerator, count: usize) -> Vec<u64> {
    let el = gen.generate_all();
    let n = gen.params().num_vertices() as usize;
    let mut deg = vec![false; n];
    for e in el.iter() {
        deg[e.u as usize] = true;
        deg[e.v as usize] = true;
    }
    (0..n as u64)
        .filter(|&v| deg[v as usize])
        .step_by(97)
        .take(count)
        .collect()
}

/// Host-side oracle check: the optimized distributed kernel's distances
/// must match both sequential oracles (radix-heap Dijkstra and BMSSP),
/// which in turn must agree with each other *bitwise*. Catches a bench
/// silently comparing the timings of disagreeing kernels.
fn verify_against_oracles(gen: &KroneckerGenerator, ranks: usize, root: u64, scale: u32) {
    let el = gen.generate_all();
    let n = gen.params().num_vertices();
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let radix = dijkstra_radix_heap(&csr, root);
    let bm = bmssp(&csr, root);
    for v in 0..n as usize {
        assert_eq!(
            radix.dist[v].to_bits(),
            bm.dist[v].to_bits(),
            "oracles disagree at scale {scale} vertex {v}"
        );
    }
    let m = gen.params().num_edges();
    let got = Machine::new(MachineConfig::with_ranks(ranks))
        .run(|ctx| {
            let part = Block1D::new(n, ranks);
            let (lo, hi) = (
                ctx.rank() as u64 * m / ranks as u64,
                (ctx.rank() as u64 + 1) * m / ranks as u64,
            );
            let g = assemble_local_graph(ctx, gen.edge_block(lo..hi).iter(), part);
            let (sp, _) = distributed_delta_stepping(ctx, &g, root, &OptConfig::all_on());
            sp.gather_to_all(ctx, g.part())
        })
        .results
        .pop()
        .expect("rank");
    assert!(
        got.distances_match(&radix, 1e-4),
        "distributed kernel diverged from the oracles at scale {scale}"
    );
}

/// Run `kernel` once per root on a fresh simulated machine; return the mean
/// simulated time and mean superstep count.
fn measure<K>(gen: &KroneckerGenerator, ranks: usize, roots: &[u64], kernel: K) -> (f64, u64)
where
    K: Fn(&mut RankCtx, &LocalGraph<Block1D>, u64) -> u64 + Sync,
{
    let n = gen.params().num_vertices();
    let m = gen.params().num_edges();
    let rep = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
        let part = Block1D::new(n, ranks);
        let (lo, hi) = (
            ctx.rank() as u64 * m / ranks as u64,
            (ctx.rank() as u64 + 1) * m / ranks as u64,
        );
        let mine = gen.edge_block(lo..hi);
        ctx.charge_compute(hi - lo);
        let g = assemble_local_graph(ctx, mine.iter(), part);
        let mut total_t = 0.0;
        let mut steps = 0u64;
        for &r in roots {
            let before = ctx.now();
            steps += kernel(ctx, &g, r);
            total_t += ctx.allreduce(ctx.now() - before, |a, b| if a > b { *a } else { *b });
        }
        (total_t / roots.len() as f64, steps / roots.len() as u64)
    });
    rep.results[0]
}

fn main() -> std::process::ExitCode {
    let max_scale = param("G500_MAX_SCALE", 16) as u32;
    let ranks = param("G500_RANKS", 8) as usize;
    let nroots = param("G500_ROOTS", 2) as usize;
    banner(
        "F9",
        "distributed algorithm comparison",
        &[("ranks", ranks.to_string())],
    );

    let t = Table::new(&[
        "scale",
        "algorithm",
        "mean_time",
        "supersteps",
        "speedup_vs_bf",
    ]);
    let (mut ok, mut last_speedup) = (true, 0.0);
    for scale in (12..=max_scale).step_by(2) {
        let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, 1));
        let roots = pick_roots(&gen, nroots);
        verify_against_oracles(&gen, ranks, roots[0], scale);

        let (bf_t, bf_steps) = measure(&gen, ranks, &roots, |ctx, g, r| {
            distributed_bellman_ford(ctx, g, r).1
        });
        t.row(&[
            scale.to_string(),
            "dist-bellman-ford".into(),
            secs(bf_t),
            bf_steps.to_string(),
            "1.00x".into(),
        ]);

        let plain_opts = OptConfig::all_off().with_delta(0.125);
        let (plain_t, plain_steps) = measure(&gen, ranks, &roots, |ctx, g, r| {
            distributed_delta_stepping(ctx, g, r, &plain_opts)
                .1
                .supersteps
        });
        t.row(&[
            scale.to_string(),
            "delta (unoptimized)".into(),
            secs(plain_t),
            plain_steps.to_string(),
            format!("{:.2}x", bf_t / plain_t),
        ]);

        let opt_opts = OptConfig::all_on();
        let (opt_t, opt_steps) = measure(&gen, ranks, &roots, |ctx, g, r| {
            distributed_delta_stepping(ctx, g, r, &opt_opts)
                .1
                .supersteps
        });
        let speedup = bf_t / opt_t;
        t.row(&[
            scale.to_string(),
            "delta (optimized)".into(),
            secs(opt_t),
            opt_steps.to_string(),
            format!("{speedup:.2}x"),
        ]);
        ok &= opt_t < plain_t && speedup > last_speedup;
        ok &= scale < BF_CROSSOVER_SCALE || speedup > 1.0;
        last_speedup = speedup;
    }
    println!(
        "\nexpected shape: optimized far over all-off at every scale; over distributed \
         Bellman-Ford by a factor growing with scale, above 1 from scale {BF_CROSSOVER_SCALE}. holds: {ok}"
    );
    std::process::ExitCode::from(u8::from(!ok))
}
