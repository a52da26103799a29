//! F7 — Degree distribution of the Kronecker graph (log-log CCDF).
//!
//! The skew figure: complementary CDF of vertex degree on power-of-two
//! bins, with the fitted power-law slope and the hub concentration numbers
//! that justify degree-aware partitioning. Rendered as an ASCII log-log
//! plot plus the raw table. Exits 1 unless the top 1% of vertices carry at
//! least 10% of the arcs and the fitted slope lies in [−2, −0.5].
//!
//! Overrides: `G500_SCALE` (16), `G500_SEED` (1).

use g500_bench::{banner, param, Table};
use g500_gen::{KroneckerGenerator, KroneckerParams};
use g500_graph::degree::{ccdf_pow2, powerlaw_slope};
use g500_graph::{Csr, DegreeStats, Directedness};

fn main() {
    let scale = param("G500_SCALE", 16) as u32;
    let seed = param("G500_SEED", 1);
    banner(
        "F7",
        "Kronecker degree distribution",
        &[("scale", scale.to_string())],
    );

    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, seed));
    let el = gen.generate_all();
    let n = gen.params().num_vertices() as usize;
    let csr = Csr::from_edges(n, &el, Directedness::Undirected);
    let degrees: Vec<usize> = (0..n).map(|v| csr.degree(v)).collect();
    let stats = DegreeStats::from_degrees(&degrees);
    let ccdf = ccdf_pow2(&degrees);
    let slope = powerlaw_slope(&ccdf);

    let t = Table::new(&["degree>=", "vertices", "fraction", "loglog_bar"]);
    for &(d, c) in &ccdf {
        let frac = c as f64 / n as f64;
        let bar_len = if c > 0 {
            ((c as f64).log2().max(0.0)) as usize
        } else {
            0
        };
        t.row(&[
            d.to_string(),
            c.to_string(),
            format!("{frac:.5}"),
            "#".repeat(bar_len),
        ]);
    }
    println!("\nmax degree:        {}", stats.max);
    println!("mean degree:       {:.1}", stats.mean);
    println!("median degree:     {}", stats.median);
    println!(
        "isolated vertices: {} ({:.1}%)",
        stats.isolated,
        100.0 * stats.isolated as f64 / n as f64
    );
    println!("top-1% arc share:  {:.1}%", 100.0 * stats.top1pct_arc_share);
    println!("fitted CCDF slope: {slope:.2} (power law)");
    println!("\nexpected shape: near-straight log-log CCDF; top-1% of vertices carry a large multiple of 1% of arcs");
    let mut broken = false;
    if stats.top1pct_arc_share < 0.10 {
        broken = true;
        eprintln!("SHAPE BROKEN: F7: the top 1% of vertices carry under 10% of the arcs");
    }
    if !(-2.0..=-0.5).contains(&slope) {
        broken = true;
        eprintln!("SHAPE BROKEN: F7: CCDF slope {slope:.2} is outside [-2, -0.5]");
    }
    if broken {
        std::process::exit(1);
    }
}
