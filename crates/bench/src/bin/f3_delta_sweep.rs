//! F3 — Δ sweep: does the machine's price land in the valley?
//!
//! Runtime against a fixed Δ on three machines — 2^12 vertices a rank
//! (scale 15, 8 ranks), 2^15 (scale 18, 8 ranks) and scale 14 on 16 ranks —
//! with the kernel that ships: every optimisation on, bucket fusion
//! included (with fusion off, scale 15 on 8 ranks prefers Δ = 8, a width no
//! shipped run would want). Each point also runs the adaptive row
//! (`OptConfig::delta` unset) and marks the Δ [`machine_delta`] chose for
//! it; the harness exits 1 unless that row's harmonic-mean TEPS is within 5%
//! of the best fixed Δ's at every point.
//!
//! Overrides: `G500_ROOTS` (4); `G500_MAX_SCALE` (18) drops the points above
//! it.

use g500_bench::{banner, gteps, param, secs, Table};
use g500_sssp::{machine_delta, OptConfig};
use graph500::simnet::Machine;
use graph500::{run_sssp_benchmark, BenchmarkConfig, BenchmarkReport};

/// `(scale, ranks)` of each point.
const POINTS: [(u32, usize); 3] = [(15, 8), (18, 8), (14, 16)];

/// The fixed widths swept: 1/32 to 2, doubling.
const SWEEP: [f32; 7] = [0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0];

/// How far under the sweep's best the adaptive row may fall.
const TOLERANCE: f64 = 1.05;

/// The Δ the kernel picks for `cfg`'s graph on `cfg`'s machine, priced on
/// the Graph500 totals: `2^scale` vertices, two arcs an edge, mean weight
/// ½. The rung depends only on `n`, `d̄` and P (`sssp::delta`), so these
/// name the kernel's rung without generating the graph.
fn adaptive_delta(cfg: &BenchmarkConfig) -> f32 {
    let n = 1u64 << cfg.scale;
    let arcs = 2 * cfg.edgefactor * n;
    let weight = arcs as f64 / 2.0;
    let rep = Machine::new(cfg.machine).run(|ctx| machine_delta(ctx, n, arcs, weight));
    rep.results[0]
}

fn row(t: &Table, point: &str, delta: String, rep: &BenchmarkReport) {
    let runs = rep.runs.len() as u64;
    let mean = |f: fn(&graph500::RootRun) -> u64| rep.runs.iter().map(f).sum::<u64>() / runs;
    let mean_t = rep.runs.iter().map(|r| r.sim_time_s).sum::<f64>() / runs as f64;
    let relax: u64 = rep.runs.iter().map(|r| r.stats.relaxations).sum();
    t.row(&[
        point.to_string(),
        delta,
        gteps(rep.teps.harmonic_mean),
        secs(mean_t),
        mean(|r| r.stats.supersteps).to_string(),
        mean(|r| r.stats.buckets).to_string(),
        format!("{:.2}", relax as f64 / (2.0 * rep.m as f64 * runs as f64)),
    ]);
}

fn main() {
    let roots = param("G500_ROOTS", 4) as usize;
    let max_scale = param("G500_MAX_SCALE", 18) as u32;
    banner(
        "F3",
        "delta sweep, fusion on",
        &[
            ("roots", roots.to_string()),
            ("max scale", max_scale.to_string()),
        ],
    );
    let t = Table::new(&[
        "point",
        "delta (marked: adaptive)",
        "hmean_GTEPS",
        "mean_time",
        "supersteps",
        "buckets",
        "relax/edge",
    ]);
    let mut verdicts = Vec::new();
    for (scale, ranks) in POINTS.into_iter().filter(|&(s, _)| s <= max_scale) {
        let mut cfg = BenchmarkConfig::graph500(scale, ranks);
        cfg.num_roots = roots;
        cfg.validate = false;
        let point = format!("s{scale}/P{ranks}");
        let mut best = (0.0f64, 0.0f32);
        for delta in SWEEP {
            cfg.opts = OptConfig::all_on().with_delta(delta);
            let rep = run_sssp_benchmark(&cfg);
            if rep.teps.harmonic_mean > best.0 {
                best = (rep.teps.harmonic_mean, delta);
            }
            row(&t, &point, delta.to_string(), &rep);
        }
        cfg.opts = OptConfig::all_on();
        let chosen = adaptive_delta(&cfg);
        let rep = run_sssp_benchmark(&cfg);
        row(&t, &point, format!("{chosen:.4} <- adaptive"), &rep);
        verdicts.push((point, chosen, rep.teps.harmonic_mean, best));
    }
    println!("\nexpected shape: U-shaped runtime — supersteps fall and re-relaxations rise with delta; the adaptive row within 5% of the best fixed delta");
    let mut broken = false;
    for (point, chosen, adaptive, (best, at)) in verdicts {
        let share = 100.0 * adaptive / best;
        let what = format!(
            "F3 {point}: adaptive delta {chosen:.4} runs at {share:.1}% of the best fixed delta's ({at}) GTEPS"
        );
        if adaptive * TOLERANCE < best {
            broken = true;
            eprintln!("SHAPE BROKEN: {what}, under the 5% tolerance");
        } else {
            println!("{what}: within 5%");
        }
    }
    if broken {
        std::process::exit(1);
    }
}
