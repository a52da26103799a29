//! F1 — Weak-scaling curve (the series behind T2's table).
//!
//! Fixed per-rank problem (2^`G500_SCALE_PER_RANK` vertices/rank), rank
//! count doubling, three interconnect topologies overlaid so the curve also
//! shows how much shape the network model contributes.
//!
//! Every point is traced: a row carries the supersteps' compute / comm /
//! wait split and each collective kind's share of root time, and the
//! harness exits 1 when a topology's efficiency at the largest rank count
//! falls under its recorded floor ([`FLOORS`]).
//!
//! Overrides: `G500_SCALE_PER_RANK` (default 14), `G500_MAX_RANKS` (32),
//! `G500_ROOTS` (4).

use g500_bench::{assert_efficiency, banner, gteps, param, Attribution, Table};
use graph500::simnet::Topology;
use graph500::{run_sssp_benchmark, BenchmarkConfig};

/// Recorded efficiency floors, percent, in topology order: `(vertices/rank
/// as a scale, largest rank count, roots, [crossbar, fat-tree, torus])`,
/// each just under what `results/f1_weak_scaling.txt` records (7.7 / 5.5 /
/// 5.9 %).
const FLOORS: [(u32, usize, usize, [f64; 3]); 1] = [(13, 32, 3, [7.5, 5.3, 5.7])];

fn main() {
    let spr = param("G500_SCALE_PER_RANK", 14) as u32;
    let max_ranks = param("G500_MAX_RANKS", 32) as usize;
    let roots = param("G500_ROOTS", 4) as usize;
    banner(
        "F1",
        "weak scaling across topologies",
        &[
            ("vertices/rank", format!("2^{spr}")),
            ("max ranks", max_ranks.to_string()),
        ],
    );

    type TopoFor = fn(usize) -> Topology;
    let topos: Vec<(&str, TopoFor)> = vec![
        ("crossbar", |_| Topology::Crossbar),
        ("fat-tree(r4)", |_| Topology::FatTree { radix: 4 }),
        ("torus2d", |p| {
            let w = (p as f64).sqrt().ceil() as u32;
            Topology::Torus2D {
                w: w.max(1),
                h: (p as u32).div_ceil(w.max(1)),
            }
        }),
    ];

    let mut headers = vec![
        "topology",
        "ranks",
        "scale",
        "hmean_GTEPS",
        "GTEPS/rank",
        "eff%",
    ];
    headers.extend(Attribution::HEADERS);
    let t = Table::new(&headers);
    let mut at_largest = Vec::new();
    for (name, mk) in topos {
        let mut base = 0.0f64;
        let mut ranks = 1usize;
        while ranks <= max_ranks {
            let scale = spr + ranks.trailing_zeros();
            let mut cfg = BenchmarkConfig::graph500(scale, ranks).traced(true);
            cfg.num_roots = roots;
            cfg.machine = cfg.machine.topology(mk(ranks));
            cfg.validate = false; // the exactness suite covers correctness
            let rep = run_sssp_benchmark(&cfg);
            let g = rep.teps.harmonic_mean;
            let per = g / ranks as f64;
            if ranks == 1 {
                base = per;
            }
            let mut row = vec![
                name.to_string(),
                ranks.to_string(),
                scale.to_string(),
                gteps(g),
                gteps(per),
                format!("{:.1}", 100.0 * per / base),
            ];
            let trace = rep.trace.as_ref().expect("the run was traced");
            row.extend(Attribution::of(trace).cells());
            t.row(&row);
            if ranks * 2 > max_ranks {
                at_largest.push((name, ranks, 100.0 * per / base));
            }
            ranks *= 2;
        }
    }
    println!(
        "\ncompute/comm/wait: the supersteps' split, summed over ranks; alltoallv/allreduce/allgatherv: \
         inclusive share of summed root-run time"
    );
    println!("expected shape: efficiency declines gently with log(ranks); torus decays fastest (hop counts grow), crossbar slowest");
    for (i, (name, ranks, efficiency)) in at_largest.into_iter().enumerate() {
        let floor = FLOORS
            .iter()
            .find(|&&(s, p, r, _)| (s, p, r) == (spr, ranks, roots))
            .map(|&(.., floors)| floors[i]);
        let what = format!("F1 {name} at 2^{spr}/rank, {ranks} ranks, {roots} roots");
        assert_efficiency(&what, efficiency, floor);
    }
}
