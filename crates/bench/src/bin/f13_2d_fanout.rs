//! F13 — 1D vs 2D placement: destination fan-out per relaxing vertex.
//!
//! The BFS lineage of Graph500 codes uses 2D (adjacency-matrix) process
//! grids to bound each vertex's communication partners to one grid row
//! (√p ranks) instead of up to p. Delta-stepping keeps per-vertex bucket
//! state, which favours 1D — the paper family's choice — but the trade-off
//! deserves numbers: this experiment counts, for real Kronecker frontier
//! vertices, how many *distinct destination ranks* their out-edges touch
//! under 1D block vs a √p×√p 2D grid. Exits 1 unless every 2D fan-out is
//! at most √p and the 1D mean is over twice the 2D mean.
//!
//! Overrides: `G500_SCALE` (14), `G500_RANKS` (16).

use g500_bench::{banner, param, Table};
use g500_gen::{KroneckerGenerator, KroneckerParams};
use g500_graph::{Csr, Directedness};
use g500_partition::{Block1D, EdgePartition2D, VertexPartition};
use std::collections::HashSet;

fn main() {
    let scale = param("G500_SCALE", 14) as u32;
    let ranks = param("G500_RANKS", 16) as usize;
    let side = (ranks as f64).sqrt().round() as usize;
    assert_eq!(
        side * side,
        ranks,
        "G500_RANKS must be a perfect square for the 2D grid"
    );
    banner(
        "F13",
        "1D vs 2D destination fan-out",
        &[
            ("scale", scale.to_string()),
            ("ranks", format!("{ranks} = {side}x{side}")),
        ],
    );

    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, 1));
    let el = gen.generate_all();
    let n = gen.params().num_vertices();
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let p1d = Block1D::new(n, ranks);
    let p2d = EdgePartition2D::new(n, side, side);

    // fan-out distribution over all vertices with degree > 0
    let mut hist_1d = vec![0u64; ranks + 1];
    let mut hist_2d = vec![0u64; ranks + 1];
    let (mut sum_1d, mut sum_2d, mut count) = (0u64, 0u64, 0u64);
    let mut set1: HashSet<usize> = HashSet::new();
    let mut set2: HashSet<usize> = HashSet::new();
    for u in 0..n as usize {
        if csr.degree(u) == 0 {
            continue;
        }
        set1.clear();
        set2.clear();
        for &v in csr.neighbors(u) {
            set1.insert(p1d.owner(v));
            set2.insert(p2d.owner_edge(u as u64, v));
        }
        hist_1d[set1.len()] += 1;
        hist_2d[set2.len()] += 1;
        sum_1d += set1.len() as u64;
        sum_2d += set2.len() as u64;
        count += 1;
    }

    let t = Table::new(&["fanout(ranks)", "1D_vertices", "2D_vertices"]);
    for f in 1..=ranks {
        if hist_1d[f] > 0 || hist_2d[f] > 0 {
            t.row(&[
                f.to_string(),
                hist_1d[f].to_string(),
                hist_2d[f].to_string(),
            ]);
        }
    }
    let (mean_1d, mean_2d) = (sum_1d as f64 / count as f64, sum_2d as f64 / count as f64);
    let max_fanout = |hist: &[u64]| hist.iter().rposition(|&c| c > 0).unwrap_or(0);
    let (max_1d, max_2d) = (max_fanout(&hist_1d), max_fanout(&hist_2d));
    println!("\nmean fan-out: 1D {mean_1d:.2} ranks, 2D {mean_2d:.2} ranks (2D bound: {side})");
    println!("max fan-out:  1D {max_1d} of {ranks}, 2D {max_2d} of {side}");
    println!("\nexpected shape: 2D caps fan-out at sqrt(p); 1D hubs touch nearly all ranks — the cost delta 2D trades against bucket-state duplication");
    let mut broken = false;
    if max_2d > side {
        broken = true;
        eprintln!("SHAPE BROKEN: F13: a 2D fan-out of {max_2d} exceeds sqrt(p) = {side}");
    }
    if mean_1d <= 2.0 * mean_2d {
        broken = true;
        eprintln!("SHAPE BROKEN: F13: 1D mean fan-out is not over 2x the 2D mean");
    }
    if broken {
        std::process::exit(1);
    }
}
