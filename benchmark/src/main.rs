//! `g500-benchmark` — the repo benchmark.
//!
//! ```text
//! g500-benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload
//! g500-benchmark [--seed N] [--seconds S] [--quick]              every workload, every pass
//! g500-benchmark --compare A.json B.json                         compare two stored reports
//! g500-benchmark --manifest                                      print BENCHMARK.json
//! ```
//!
//! A single pass prints its metrics and ends with one JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`). See README.md.

mod endtoend;
mod json;
mod manifest;
mod metrics;
mod mirror;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  g500-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  g500-benchmark [--seed N] [--seconds S] [--quick] [--out DIR] [--save FILE]
  g500-benchmark --compare A.json B.json
  g500-benchmark --manifest
workloads: kron_kernel kron_strong kron_build serve_mix kron_faulty";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    save: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
}

/// Strict parsing: an unknown flag or a bad value is an error, never a
/// silently different measurement.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        save: None,
        compare: None,
        manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}")),
                }
            }
            "--quick" => args.quick = true,
            "--manifest" => args.manifest = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--save" => args.save = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two report files")?),
                    PathBuf::from(value("two report files")?),
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One pass of one workload; ends with the result line.
fn single_pass(args: &Args, name: &str) -> Result<(), String> {
    let w = workloads::build(name, args.seed, args.seconds, args.quick)
        .ok_or(format!("unknown workload {name}"))?;
    // the pool is process-global and fixed at first use: size it before any
    // layer runs, so results do not depend on the host's core count
    graph500::rayon::configure_threads(workloads::pool_threads());
    println!(
        "{}: scale {}, {} ranks, {} call(s) of {} operations, seed {}, {} pass",
        w.name,
        w.scale(),
        w.ranks(),
        if args.trace { 1 } else { w.calls().count() },
        w.ops(),
        w.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let pass = if args.trace {
        traced::run(&w, &args.out)
    } else {
        endtoend::run(&w).map_err(|e| format!("operations lost to a fault escalation: {e}"))
    }
    .map_err(|e| format!("{name}: {e}"))?;
    for (name, unit) in metrics::names_and_units(args.trace) {
        let value = pass.values.get(name).unwrap_or(0.0);
        println!("  {name:<34} {value:>20} {unit}");
    }
    if pass.failed > 0 {
        println!(
            "  note: FAILED {} of {} operations",
            pass.failed, pass.attempted
        );
    }
    println!("{}", result_line(&pass, args.trace));
    Ok(())
}

/// The last line of a pass: exactly `correct`, `attempted`, `failed` and
/// `metrics` (end-to-end when untraced, per-layer when traced).
fn result_line(pass: &endtoend::Pass, traced: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(pass.failed == 0)),
        ("attempted", Json::Num(pass.attempted as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        (
            "metrics",
            if traced {
                metrics::per_layer_json(&pass.values)
            } else {
                metrics::end_to_end_json(&pass.values)
            },
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.manifest {
        print!("{}", manifest::manifest().pretty());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        report::compare(a, b)
    } else if let Some(name) = &args.workload {
        single_pass(&args, name).map(|()| true)
    } else {
        report::run_all(&report::Plan {
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            save: args
                .save
                .clone()
                .unwrap_or_else(|| args.out.join("report.json")),
            out_dir: args.out.clone(),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("g500-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
