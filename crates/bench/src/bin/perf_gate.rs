//! CI perf-regression gate over the microbenchmark kernels.
//!
//! Runs the thread sweep from `g500_bench::micro` (re-exec'ing itself per
//! thread count), writes the fresh medians to `results/bench_micro.json`,
//! and enforces two rules against `results/bench_baseline.json`:
//!
//! 1. **No single-thread regression:** every kernel's fresh `T=1` median
//!    must stay within `1.25×` of its baseline `T=1` median.
//! 2. **Bounded pool overhead:** on any host — including the 1-core CI
//!    runner — a kernel's median at `T∈{2,4}` must stay within `1.10×` of
//!    its own fresh `T=1` median. Oversubscribed thread counts may not buy
//!    speedup on one core, but the pool must keep them from
//!    costing more than 10%.
//!
//! Noise defenses, layered: each gated ratio takes the more favorable of
//! two views — raw medians, or calibration-normalized medians (every
//! child first times a fixed pure-CPU spin; dividing by it cancels
//! uniform host-speed drift, while spin jitter only ever poisons the
//! normalized view, never the raw one). The sweep runs as interleaved
//! cycles whose thread counts execute back-to-back, each cycle is judged
//! independently, and only violations that reproduce in *every* cycle
//! count; a failing first measurement triggers one automatic re-measure
//! that widens the intersection to four cycles. Exit status 0 = pass,
//! 1 = regression (or missing/unparseable baseline).
//!
//! Maintenance modes:
//! * `G500_BLESS_BENCH=1 cargo run --release -p g500-bench --bin perf_gate`
//!   re-measures and rewrites the baseline (run on an idle machine, commit
//!   the result). Intentional slowdowns and new kernels both go through a
//!   bless.
//! * `--report` prints a per-kernel speedup table against the baseline and
//!   never fails — `run_experiments.sh perf` uses it.

use g500_bench::micro::{self, parse_bench_file, BenchFile, Stats, SweepPoint, SWEEP_THREADS};

/// T=1 fresh-vs-baseline failure threshold.
const BASELINE_RATIO: f64 = 1.25;
/// T∈{2,4} vs own fresh T=1 failure threshold.
const OVERHEAD_RATIO: f64 = 1.10;

/// One rule violation. `key` identifies the `(kernel, rule)` pair across
/// cycles so reproductions can be intersected; `what` is the human text
/// from the cycle that first reported it.
struct Violation {
    key: String,
    kernel: String,
    what: String,
}

/// The gated ratio `num / den`, plus a report label. Two views exist:
/// the raw medians, and the calibration-normalized medians
/// (`median / calib` with each cell's own same-process spin stamp). The
/// gate takes whichever view is more favorable — a genuine regression is
/// slow in both, while each noise mode poisons only one: uniform host
/// drift inflates the raw view but cancels from the calibrated one, and
/// spin jitter inflates the calibrated view but leaves the raw one alone.
fn gate_ratio(num: &Stats, den: &Stats) -> (f64, &'static str) {
    let raw = num.median_ns as f64 / den.median_ns.max(1) as f64;
    match (num.normalized(), den.normalized()) {
        (Some(n), Some(d)) if d > 0.0 && n / d < raw => (n / d, "calibrated "),
        _ => (raw, ""),
    }
}

/// Evaluate both gate rules on one cycle's sweep. `baseline` may be
/// `None` when blessing (rule 1 is then skipped).
fn violations(sweep: &[SweepPoint], baseline: Option<&BenchFile>) -> Vec<Violation> {
    let mut out = Vec::new();
    let t1: Vec<(String, Stats)> = sweep
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, rows)| rows.clone())
        .unwrap_or_default();
    if t1.is_empty() {
        out.push(Violation {
            key: "<sweep>/no-t1".into(),
            kernel: "<sweep>".into(),
            what: "no T=1 measurements collected".into(),
        });
        return out;
    }
    for (name, fresh) in &t1 {
        if name == micro::CALIBRATION_KERNEL {
            continue;
        }
        if let Some(base) = baseline {
            match base.stats(name, 1) {
                Some(b) if b.median_ns > 0 => {
                    let (ratio, how) = gate_ratio(fresh, &b);
                    if ratio > BASELINE_RATIO {
                        out.push(Violation {
                            key: format!("{name}/base"),
                            kernel: name.clone(),
                            what: format!(
                                "T=1 median {:.2}ms is {how}{ratio:.2}x baseline {:.2}ms (limit {BASELINE_RATIO}x)",
                                fresh.median_ns as f64 / 1e6,
                                b.median_ns as f64 / 1e6,
                            ),
                        });
                    }
                }
                _ => out.push(Violation {
                    key: format!("{name}/missing"),
                    kernel: name.clone(),
                    what: "kernel missing from baseline — re-bless with G500_BLESS_BENCH=1".into(),
                }),
            }
        }
        for (t, rows) in sweep {
            if *t == 1 {
                continue;
            }
            if let Some((_, s)) = rows.iter().find(|(n, _)| n == name) {
                let (ratio, how) = gate_ratio(s, fresh);
                if ratio > OVERHEAD_RATIO {
                    out.push(Violation {
                        key: format!("{name}/T={t}"),
                        kernel: name.clone(),
                        what: format!(
                            "T={t} median {:.2}ms is {how}{ratio:.2}x own T=1 median {:.2}ms (limit {OVERHEAD_RATIO}x)",
                            s.median_ns as f64 / 1e6,
                            fresh.median_ns as f64 / 1e6,
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Judge every cycle independently and keep only the violations that
/// reproduce in *all* of them. A cycle's thread counts run back-to-back,
/// so its internal ratios see little host drift; a drift window or spin
/// hiccup poisons some cycles but not every one, while a genuine
/// regression is present in each.
fn reproducible_violations(
    cycles: &[Vec<SweepPoint>],
    baseline: Option<&BenchFile>,
) -> Vec<Violation> {
    let mut it = cycles.iter().filter(|c| !c.is_empty());
    let Some(first) = it.next() else {
        return vec![Violation {
            key: "<sweep>/no-cycles".into(),
            kernel: "<sweep>".into(),
            what: "no sweep cycle produced measurements".into(),
        }];
    };
    let mut bad = violations(first, baseline);
    for cycle in it {
        if bad.is_empty() {
            break;
        }
        let again = violations(cycle, baseline);
        bad.retain(|v| again.iter().any(|a| a.key == v.key));
    }
    bad
}

/// Load and parse the baseline file, if present.
fn load_baseline(path: &std::path::Path) -> Option<Result<BenchFile, String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Some(parse_bench_file(&text)),
        Err(_) => None,
    }
}

/// Print the `--report` speedup table: per kernel, median ms at every
/// swept thread count plus the ratio of baseline T=1 to fresh T=1
/// (>1 = faster than baseline).
fn report(sweep: &[SweepPoint], baseline: Option<&BenchFile>) {
    let Some((_, t1)) = sweep.iter().find(|(t, _)| *t == 1) else {
        println!("no T=1 measurements; nothing to report");
        return;
    };
    print!("{:<28}", "kernel");
    for t in SWEEP_THREADS {
        print!("{:>12}", format!("T={t} (ms)"));
    }
    println!("{:>14}", "vs baseline");
    for (name, fresh) in t1 {
        print!("{name:<28}");
        for t in SWEEP_THREADS {
            match sweep
                .iter()
                .find(|(st, _)| *st == t)
                .and_then(|(_, rows)| rows.iter().find(|(n, _)| n == name))
            {
                Some((_, s)) => print!("{:>12.2}", s.median_ns as f64 / 1e6),
                None => print!("{:>12}", "-"),
            }
        }
        match baseline.and_then(|b| b.stats(name, 1)) {
            Some(b) if fresh.median_ns > 0 => {
                println!("{:>13.2}x", b.median_ns as f64 / fresh.median_ns as f64)
            }
            _ => println!("{:>14}", "-"),
        }
    }
}

fn main() {
    if std::env::var_os(micro::CHILD_ENV).is_some() {
        micro::child_main();
        return;
    }
    let report_only = std::env::args().any(|a| a == "--report");
    let bless = std::env::var_os("G500_BLESS_BENCH").is_some_and(|v| v == "1");
    let exe = std::env::current_exe().expect("cannot locate own executable");
    let rev = micro::git_rev();
    let results = micro::results_dir();
    let micro_path = results.join("bench_micro.json");
    let baseline_path = results.join("bench_baseline.json");

    // Two interleaved cycles. The JSON artifacts get the min-merged view;
    // the gate rules judge each cycle separately (see
    // `reproducible_violations`).
    let mut cycles = micro::run_sweep_each(&exe, 2);
    let merge = |cycles: &[Vec<SweepPoint>]| {
        let mut best: Vec<SweepPoint> = Vec::new();
        for c in cycles {
            micro::merge_min(&mut best, c.clone());
        }
        best.sort_by_key(|(t, _)| *t);
        best
    };
    let sweep = merge(&cycles);
    if sweep.is_empty() {
        eprintln!("perf_gate: no sweep children succeeded");
        std::process::exit(1);
    }
    if let Err(e) = micro::write_sweep_json(&micro_path, &rev, &sweep) {
        eprintln!("perf_gate: cannot write {}: {e}", micro_path.display());
    } else {
        eprintln!("perf_gate: wrote {}", micro_path.display());
    }

    if bless {
        micro::write_sweep_json(&baseline_path, &rev, &sweep)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", baseline_path.display()));
        println!(
            "blessed baseline at {} (rev {rev})",
            baseline_path.display()
        );
        return;
    }

    let baseline = match load_baseline(&baseline_path) {
        Some(Ok(b)) => Some(b),
        Some(Err(e)) => {
            eprintln!(
                "perf_gate: {} is unparseable ({e}); re-bless it",
                baseline_path.display()
            );
            if report_only {
                None
            } else {
                std::process::exit(1);
            }
        }
        None if report_only => None,
        None => {
            eprintln!(
                "perf_gate: no baseline at {}; generate one with G500_BLESS_BENCH=1",
                baseline_path.display()
            );
            std::process::exit(1);
        }
    };

    if report_only {
        report(&sweep, baseline.as_ref());
        return;
    }

    let mut bad = reproducible_violations(&cycles, baseline.as_ref());
    if !bad.is_empty() {
        // Re-measure once: a loaded CI host can blow a median through no
        // fault of the code. The two new cycles join the intersection, so
        // a violation must now reproduce in all four cycles — a genuine
        // regression is slow in every one; a drift window is not.
        eprintln!(
            "perf_gate: {} violation(s) on first sweep; re-measuring once to rule out noise…",
            bad.len()
        );
        cycles.extend(micro::run_sweep_each(&exe, 2));
        bad = reproducible_violations(&cycles, baseline.as_ref());
    }
    if bad.is_empty() {
        println!(
            "perf_gate: PASS — {} kernels within {BASELINE_RATIO}x of baseline (rev {}) and {OVERHEAD_RATIO}x pool-overhead bound",
            sweep.first().map_or(0, |(_, rows)| {
                rows.iter()
                    .filter(|(n, _)| n != micro::CALIBRATION_KERNEL)
                    .count()
            }),
            baseline.as_ref().map_or("?".into(), |b| b.git_rev.clone()),
        );
    } else {
        eprintln!("perf_gate: FAIL — {} reproducible violation(s):", bad.len());
        for v in &bad {
            eprintln!("  {:<28} {}", v.kernel, v.what);
        }
        eprintln!("if intentional (e.g. a known slowdown traded for correctness), re-bless: G500_BLESS_BENCH=1 cargo run --release -p g500-bench --bin perf_gate");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(median_ns: u64, calib_ns: u64) -> Stats {
        Stats {
            median_ns,
            p10_ns: median_ns,
            p90_ns: median_ns,
            calib_ns,
        }
    }

    #[test]
    fn gate_ratio_takes_the_more_favorable_view() {
        // Uniform 2x host slowdown: raw says 2.0x, calibration cancels it.
        let (r, how) = gate_ratio(&st(200, 100), &st(100, 50));
        assert!((r - 1.0).abs() < 1e-9);
        assert_eq!(how, "calibrated ");
        // Spin hiccup on the numerator side: calibrated view says 2.0x,
        // raw view says 1.0x — raw wins.
        let (r, how) = gate_ratio(&st(100, 25), &st(100, 50));
        assert!((r - 1.0).abs() < 1e-9);
        assert_eq!(how, "");
        // No stamps → raw only.
        let (r, how) = gate_ratio(&st(300, 0), &st(100, 0));
        assert!((r - 3.0).abs() < 1e-9);
        assert_eq!(how, "");
    }

    fn cycle(t1_med: u64, t1_calib: u64, t4_med: u64, t4_calib: u64) -> Vec<SweepPoint> {
        vec![
            (1, vec![("k".to_string(), st(t1_med, t1_calib))]),
            (4, vec![("k".to_string(), st(t4_med, t4_calib))]),
        ]
    }

    #[test]
    fn overhead_violation_must_reproduce_in_every_cycle() {
        // Cycle 0: T=4 is 1.5x in both views. Cycle 1: clean. Not
        // reproducible → no violation.
        let cycles = vec![cycle(100, 50, 150, 50), cycle(100, 50, 100, 50)];
        assert!(reproducible_violations(&cycles, None).is_empty());
        // Slow in both cycles and both views → reported once.
        let cycles = vec![cycle(100, 50, 150, 50), cycle(100, 50, 160, 50)];
        let bad = reproducible_violations(&cycles, None);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "k/T=4");
    }

    #[test]
    fn baseline_rule_cancels_uniform_drift() {
        let mut base = BenchFile {
            git_rev: "base".into(),
            thread_counts: vec![1],
            kernels: Vec::new(),
        };
        base.kernels.push((
            "k".to_string(),
            [(1usize, st(100, 50))].into_iter().collect(),
        ));
        // Host is uniformly 2x slower than at bless time: kernel 200ns but
        // the spin also doubled — calibrated ratio 1.0, gate passes.
        let cycles = vec![vec![(1, vec![("k".to_string(), st(200, 100))])]];
        assert!(reproducible_violations(&cycles, Some(&base)).is_empty());
        // A genuine 2x regression leaves the spin alone — both views
        // agree and the gate fails.
        let cycles = vec![vec![(1, vec![("k".to_string(), st(200, 50))])]];
        let bad = reproducible_violations(&cycles, Some(&base));
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "k/base");
    }

    #[test]
    fn empty_cycles_are_skipped_but_all_empty_fails() {
        let cycles = vec![Vec::new(), cycle(100, 50, 100, 50)];
        assert!(reproducible_violations(&cycles, None).is_empty());
        let bad = reproducible_violations(&[Vec::new(), Vec::new()], None);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "<sweep>/no-cycles");
    }
}
