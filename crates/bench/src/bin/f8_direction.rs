//! F8 — Direction optimization: push vs pull vs hybrid.
//!
//! Runs the same workload under the three direction policies and reports
//! TEPS, the per-iteration mix of the light phase, how many buckets
//! fetched their heavy phase, traffic, and where root virtual time went by
//! superstep flavour (light / heavy / fused tail, from the trace), with the
//! remainder — the agreement allreduces at bucket boundaries — as `agree%`. A
//! light pull pays a frontier broadcast but saves per-edge updates on dense
//! frontiers; a heavy fetch pays a second all-to-all but walks only the
//! arcs that can still improve an unsettled vertex. Hybrid chooses both per
//! step and should track the better fixed policy at each density — the
//! min-envelope claim, asserted here: the harness exits non-zero unless
//! hybrid reaches 0.97 × max(push, pull) on every configuration, and unless
//! hybrid's `agree%` at scale 14 on 16 ranks is under 10%: a light step's
//! agreement rides on its exchange, so what is left between supersteps is
//! the bucket boundaries' allreduces.
//!
//! Default: the headline configuration (scale 17, 8 ranks, degree-aware)
//! and the strong-scaling end (scale 14, 16 ranks, block), 4 roots each.
//! `G500_SCALE` or `G500_RANKS` replace both by one degree-aware run
//! (defaults 15 and 8); `G500_ROOTS` overrides the root count.

use g500_bench::{banner, gteps, param, Table};
use g500_sssp::{Direction, OptConfig};
use graph500::{run_sssp_benchmark, BenchmarkConfig, PartitionStrategy};

/// Hybrid must reach this fraction of the better fixed policy.
const ENVELOPE: f64 = 0.97;

/// Hybrid's `agree%` at scale 14 on 16 ranks must stay under this.
const AGREE_CEILING: f64 = 10.0;

/// One configuration under the three policies; returns whether the shape
/// held (and every root validated).
fn compare(scale: u32, ranks: usize, roots: usize, block: bool) -> bool {
    let layout = if block { "block" } else { "degree-aware" };
    println!("--- scale {scale}, {ranks} ranks, {layout}, {roots} roots ---");
    let t = Table::new(&[
        "policy",
        "hmean_GTEPS",
        "push_iters",
        "pull_iters",
        "heavy_pulls",
        "light%",
        "heavy%",
        "crest_heavy%",
        "tail%",
        "agree%",
        "msgs",
        "MB",
        "validated",
    ]);
    let mut teps = Vec::new();
    let mut ok = true;
    for (name, dir) in [
        ("push", Direction::Push),
        ("pull", Direction::Pull),
        ("hybrid", Direction::Hybrid),
    ] {
        let mut cfg = BenchmarkConfig::graph500(scale, ranks).traced(true);
        cfg.num_roots = roots;
        cfg.opts = OptConfig::all_on().with_direction(dir);
        if block {
            cfg.partition = PartitionStrategy::Block;
        }
        let rep = run_sssp_benchmark(&cfg);
        let push: u64 = rep.runs.iter().map(|r| r.stats.push_iterations).sum();
        let pull: u64 = rep.runs.iter().map(|r| r.stats.pull_iterations).sum();
        let heavy_pulls: u64 = rep.runs.iter().map(|r| r.stats.heavy_pulls).sum();

        // Superstep rows are in run order; each root owns the next
        // `stats.supersteps` of them, and its longest heavy row is the
        // heavy phase of the bucket that settled the crest.
        let summary = rep.trace_summary().expect("run was traced");
        let root_time: f64 = rep.runs.iter().map(|r| r.sim_time_s).sum();
        let mut by_flavor = [0.0f64; 3];
        let mut crest_heavy = 0.0;
        let mut rows = summary.supersteps.iter();
        for run in &rep.runs {
            let mut longest_heavy = 0.0f64;
            for row in rows.by_ref().take(run.stats.supersteps as usize) {
                by_flavor[row.flavor as usize] += row.span_s;
                if row.flavor == 1 {
                    longest_heavy = longest_heavy.max(row.span_s);
                }
            }
            crest_heavy += longest_heavy;
        }
        let pct = |s: f64| format!("{:.1}", 100.0 * s / root_time);
        let agree = 100.0 * (root_time - by_flavor.iter().sum::<f64>()) / root_time;
        if dir == Direction::Hybrid && (scale, ranks) == (14, 16) && agree >= AGREE_CEILING {
            println!("hybrid agree% = {agree:.1} (must stay under {AGREE_CEILING})");
            ok = false;
        }

        ok &= rep.all_validated();
        teps.push(rep.teps.harmonic_mean);
        t.row(&[
            name.to_string(),
            gteps(rep.teps.harmonic_mean),
            push.to_string(),
            pull.to_string(),
            heavy_pulls.to_string(),
            pct(by_flavor[0]),
            pct(by_flavor[1]),
            pct(crest_heavy),
            pct(by_flavor[2]),
            format!("{agree:.1}"),
            rep.net.total_msgs().to_string(),
            format!("{:.2}", rep.net.total_bytes() as f64 / 1e6),
            rep.all_validated().to_string(),
        ]);
    }
    let best_fixed = teps[0].max(teps[1]);
    let ratio = teps[2] / best_fixed;
    println!("hybrid / max(push, pull) = {ratio:.3} (must reach {ENVELOPE})\n");
    ok && ratio >= ENVELOPE
}

fn main() {
    let roots = param("G500_ROOTS", 4) as usize;
    let overridden = ["G500_SCALE", "G500_RANKS"]
        .iter()
        .any(|v| std::env::var_os(v).is_some());
    let configs = if overridden {
        let scale = param("G500_SCALE", 15) as u32;
        vec![(scale, param("G500_RANKS", 8) as usize, false)]
    } else {
        vec![(17, 8, false), (14, 16, true)]
    };
    banner(
        "F8",
        "direction optimization",
        &[("configurations", configs.len().to_string())],
    );

    let mut ok = true;
    for (scale, ranks, block) in configs {
        ok &= compare(scale, ranks, roots, block);
    }
    println!(
        "expected shape: hybrid >= max(push, pull); pull-only loses on the sparse tail and \
         in the early buckets' heavy phase, push-only on the dense crest. light/heavy/tail are shares of root virtual time \
         spent inside supersteps of that flavour, agree the rest: the driver's agreement allreduces, \
         one a bucket and one to end the run (a light step's agreement rides on its exchange); \
         crest_heavy is each root's longest heavy phase (the bucket that settled the crest)"
    );
    if !ok {
        println!(
            "WARNING: shape broken (hybrid below {ENVELOPE} x max(push, pull), hybrid agree% at \
             scale 14 on 16 ranks not under {AGREE_CEILING}, or a root failed validation)"
        );
        std::process::exit(1);
    }
}
