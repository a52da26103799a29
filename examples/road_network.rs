//! Road-network routing: the *other* SSSP regime.
//!
//! Graph500's Kronecker graphs are low-diameter and skewed; road networks
//! are the opposite — bounded degree, huge diameter. Delta-stepping's Δ
//! trade-off looks completely different here, which is why the paper-style
//! adaptive Δ matters. This example routes on a synthetic city grid with
//! congestion-weighted streets and compares Dijkstra, Bellman-Ford and
//! delta-stepping at several Δ on *host* time.
//!
//! ```text
//! cargo run --release --example road_network
//! ```

use g500_baselines::{bellman_ford, dijkstra};
use g500_gen::CounterRng;
use g500_graph::{Csr, Directedness, EdgeList};
use g500_sssp::delta_stepping;
use std::time::Instant;

/// A w×h street grid; each street's travel time is 1 + congestion noise.
fn city_grid(w: u64, h: u64, seed: u64) -> EdgeList {
    let base = g500_gen::simple::grid2d(w, h);
    let rng = CounterRng::new(seed, 0);
    base.iter()
        .enumerate()
        .map(|(i, mut e)| {
            e.w = 1.0 + 3.0 * rng.unit_f32(i as u64); // congestion multiplier
            e
        })
        .collect()
}

fn main() {
    let (w, h) = (400u64, 400u64); // 160k intersections, ~320k streets
    let el = city_grid(w, h, 42);
    let n = (w * h) as usize;
    let csr = Csr::from_edges(n, &el, Directedness::Undirected);
    println!(
        "city grid: {}x{} = {} intersections, {} streets\n",
        w,
        h,
        n,
        el.len()
    );

    let depot = 0u64; // northwest corner
    let t0 = Instant::now();
    let oracle = dijkstra(&csr, depot);
    let dijkstra_t = t0.elapsed().as_secs_f64();
    println!("{:<24} {:>9.1} ms   (oracle)", "dijkstra", dijkstra_t * 1e3);

    let t0 = Instant::now();
    let bf = bellman_ford(&csr, depot);
    let bf_t = t0.elapsed().as_secs_f64();
    assert!(bf.distances_match(&oracle, 1e-3));
    println!(
        "{:<24} {:>9.1} ms   ({:.2}x dijkstra)",
        "bellman-ford",
        bf_t * 1e3,
        dijkstra_t / bf_t
    );

    for delta in [0.5f32, 2.0, 8.0, 32.0] {
        let t0 = Instant::now();
        let ds = delta_stepping(&csr, depot, delta);
        let dt = t0.elapsed().as_secs_f64();
        assert!(ds.distances_match(&oracle, 1e-3), "delta {delta}");
        println!(
            "{:<24} {:>9.1} ms   ({:.2}x dijkstra)",
            format!("delta-stepping d={delta}"),
            dt * 1e3,
            dijkstra_t / dt
        );
    }

    // Route readout: corner-to-corner path via the parent tree.
    let target = (w * h - 1) as usize;
    let mut path = vec![target as u64];
    while *path.last().expect("non-empty") != depot {
        let last = *path.last().expect("non-empty") as usize;
        path.push(oracle.parent[last]);
        assert!(path.len() <= n, "parent chain broken");
    }
    println!(
        "\nroute depot -> far corner: travel time {:.1}, {} intersections crossed (grid diameter {})",
        oracle.dist[target],
        path.len(),
        w + h - 2
    );
    println!("high-diameter regime: small deltas drown in bucket count — the opposite failure mode to Kronecker graphs");
}
