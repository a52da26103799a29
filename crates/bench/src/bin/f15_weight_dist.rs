//! F15 — Weight-distribution sensitivity of Δ selection.
//!
//! Same Kronecker topology, three weight laws (uniform — the Graph500
//! default; exponential — light-edge-heavy; bimodal — road-like). For each
//! law, compare the adaptive Δ (which measures the weight profile at
//! startup and prices it on the machine) against a Δ hard-coded for the
//! uniform default. Adaptive should be competitive everywhere; the
//! hard-coded value should visibly lose off-distribution — the robustness
//! claim behind adaptive Δ. The harness exits 1 unless the adaptive row is
//! strictly faster than fixed 0.125 under both off-spec laws.
//!
//! Overrides: `G500_SCALE` (14), `G500_RANKS` (8), `G500_ROOTS` (2).

use g500_bench::{banner, param, secs, Table};
use g500_gen::{reweight, KroneckerGenerator, KroneckerParams, WeightDist};
use g500_graph::EdgeList;
use g500_partition::{assemble_local_graph, Block1D};
use g500_sssp::{distributed_delta_stepping, OptConfig};
use graph500::simnet::{Machine, MachineConfig};

fn measure(el: &EdgeList, n: u64, ranks: usize, roots: &[u64], opts: OptConfig) -> (f64, u64) {
    let rep = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
        let part = Block1D::new(n, ranks);
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / ranks, (ctx.rank() + 1) * m / ranks);
        let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
        let g = assemble_local_graph(ctx, mine.into_iter(), part);
        let mut total = 0.0;
        let mut steps = 0u64;
        for &r in roots {
            let (_, s) = distributed_delta_stepping(ctx, &g, r, &opts);
            total += ctx.allreduce(s.sim_time_s, |a, b| if a > b { *a } else { *b });
            steps += s.supersteps;
        }
        (total / roots.len() as f64, steps / roots.len() as u64)
    });
    rep.results[0]
}

fn main() {
    let scale = param("G500_SCALE", 14) as u32;
    let ranks = param("G500_RANKS", 8) as usize;
    let nroots = param("G500_ROOTS", 2) as usize;
    banner(
        "F15",
        "weight-distribution sensitivity",
        &[("scale", scale.to_string())],
    );

    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, 9));
    let n = gen.params().num_vertices();
    let base = gen.generate_all();
    let roots: Vec<u64> = {
        let mut seen = vec![false; n as usize];
        for e in base.iter() {
            seen[e.u as usize] = true;
            seen[e.v as usize] = true;
        }
        (0..n)
            .filter(|&v| seen[v as usize])
            .step_by(131)
            .take(nroots)
            .collect()
    };

    let dists: Vec<(&str, WeightDist)> = vec![
        ("uniform (spec)", WeightDist::Uniform),
        ("exponential m=0.5", WeightDist::Exponential { mean: 0.5 }),
        (
            "bimodal 20% heavy",
            WeightDist::Bimodal {
                heavy_frac: 0.2,
                heavy: 4.0,
            },
        ),
    ];

    let t = Table::new(&[
        "weights",
        "delta_policy",
        "mean_time",
        "supersteps",
        "vs_adaptive",
    ]);
    let mut off_spec = Vec::new();
    for (i, (name, dist)) in dists.into_iter().enumerate() {
        let el = reweight(&base, dist, 77);
        let (t_adapt, s_adapt) = measure(&el, n, ranks, &roots, OptConfig::all_on());
        let (t_fixed, s_fixed) =
            measure(&el, n, ranks, &roots, OptConfig::all_on().with_delta(0.125));
        t.row(&[
            name.to_string(),
            "adaptive".into(),
            secs(t_adapt),
            s_adapt.to_string(),
            "1.00x".into(),
        ]);
        t.row(&[
            name.to_string(),
            "fixed 0.125".into(),
            secs(t_fixed),
            s_fixed.to_string(),
            format!("{:.2}x", t_fixed / t_adapt),
        ]);
        if i > 0 {
            off_spec.push((name, t_adapt, t_fixed));
        }
    }
    println!("\nexpected shape: adaptive within noise of fixed on the uniform law it was tuned for, and clearly better off-distribution");
    let mut broken = false;
    for (name, t_adapt, t_fixed) in off_spec {
        if t_adapt < t_fixed {
            println!(
                "F15 {name}: adaptive is {:.2}x faster than fixed 0.125",
                t_fixed / t_adapt
            );
        } else {
            broken = true;
            eprintln!("SHAPE BROKEN: F15 {name}: adaptive is not faster than fixed 0.125");
        }
    }
    if broken {
        std::process::exit(1);
    }
}
