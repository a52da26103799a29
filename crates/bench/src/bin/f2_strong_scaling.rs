//! F2 — Strong-scaling curve: fixed graph, growing machine.
//!
//! The complementary view to F1: a scale-`G500_SCALE` graph solved on 1 →
//! `G500_MAX_RANKS` ranks. Speedup flattens once per-rank work no longer
//! amortizes the per-superstep latency floor — the regime the paper's
//! superstep-reduction optimizations (fusion, direction switching) exist
//! to push outward.
//!
//! Overrides: `G500_SCALE` (default 16), `G500_MAX_RANKS` (32), `G500_ROOTS` (4).

use g500_bench::{banner, gteps, param, secs, Table};
use graph500::{run_sssp_benchmark, BenchmarkConfig};

fn main() {
    let scale = param("G500_SCALE", 16) as u32;
    let max_ranks = param("G500_MAX_RANKS", 32) as usize;
    let roots = param("G500_ROOTS", 4) as usize;
    banner(
        "F2",
        "strong scaling",
        &[
            ("scale", scale.to_string()),
            ("max ranks", max_ranks.to_string()),
        ],
    );

    let t = Table::new(&[
        "ranks",
        "hmean_GTEPS",
        "mean_time",
        "speedup",
        "parallel_eff%",
    ]);
    let mut base_g = 0.0f64;
    let mut ranks = 1usize;
    while ranks <= max_ranks {
        let mut cfg = BenchmarkConfig::graph500(scale, ranks);
        cfg.num_roots = roots;
        cfg.validate = false;
        let rep = run_sssp_benchmark(&cfg);
        let g = rep.teps.harmonic_mean;
        if ranks == 1 {
            base_g = g;
        }
        let speedup = g / base_g;
        let mean_time = rep.runs.iter().map(|r| r.sim_time_s).sum::<f64>() / rep.runs.len() as f64;
        t.row(&[
            ranks.to_string(),
            gteps(g),
            secs(mean_time),
            format!("{speedup:.2}x"),
            format!("{:.1}", 100.0 * speedup / ranks as f64),
        ]);
        ranks *= 2;
    }
    println!("\nexpected shape: sublinear speedup flattening as communication dominates the shrinking per-rank work");
}
