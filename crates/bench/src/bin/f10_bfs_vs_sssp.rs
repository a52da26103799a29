//! F10 — BFS (kernel 2) vs SSSP (kernel 3) cost.
//!
//! The two companion record runs — 281T-edge BFS and 140T-edge SSSP — on
//! the same machine family differ by roughly the factor this experiment
//! measures: BFS has no weights, no buckets and one superstep per level,
//! while SSSP pays bucket discipline and re-relaxation. Reports harmonic-
//! mean TEPS for both kernels across scales on the same simulated machine.
//!
//! Overrides: `G500_MAX_SCALE` (16), `G500_RANKS` (8), `G500_ROOTS` (4).
//!
//! The expected shape is asserted (exit 1 when it breaks): both kernels
//! validate, and BFS is at least 3× SSSP at every scale, by a ratio that
//! rises with every step in scale. The recorded run (`results/f10_bfs_vs_sssp.txt`) reads
//! 3.23 / 4.38 / 5.91× at scales 12 / 14 / 16 on 8 ranks.

use g500_bench::{banner, gteps, param, Table};
use graph500::{run_bfs_benchmark, run_sssp_benchmark, BenchmarkConfig};

fn main() -> std::process::ExitCode {
    let max_scale = param("G500_MAX_SCALE", 16) as u32;
    let ranks = param("G500_RANKS", 8) as usize;
    let roots = param("G500_ROOTS", 4) as usize;
    banner("F10", "BFS vs SSSP", &[("ranks", ranks.to_string())]);

    let t = Table::new(&["scale", "kernel", "hmean_GTEPS", "ratio", "validated"]);
    let (mut ok, mut last) = (true, 0.0);
    for scale in (12..=max_scale).step_by(2) {
        let mut cfg = BenchmarkConfig::graph500(scale, ranks);
        cfg.num_roots = roots;
        let bfs = run_bfs_benchmark(&cfg);
        let sssp = run_sssp_benchmark(&cfg);
        let gb = bfs.teps.harmonic_mean;
        let gs = sssp.teps.harmonic_mean;
        t.row(&[
            scale.to_string(),
            "BFS (k2)".into(),
            gteps(gb),
            format!("{:.2}x", gb / gs),
            bfs.all_validated().to_string(),
        ]);
        t.row(&[
            scale.to_string(),
            "SSSP (k3)".into(),
            gteps(gs),
            "1.00x".into(),
            sssp.all_validated().to_string(),
        ]);
        ok &= bfs.all_validated() && sssp.all_validated() && gb >= 3.0 * gs && gb / gs > last;
        last = gb / gs;
    }
    println!("\nexpected shape: BFS at least 3x SSSP at every scale, by a ratio rising with scale — matching the 281T-BFS vs 140T-SSSP pairing of the companion papers. holds: {ok}");
    std::process::ExitCode::from(u8::from(!ok))
}
