//! The one command: run every workload (untraced repetitions, then the
//! traced pass), each in a child process of its own, check the outputs,
//! print every metric by name with its unit and store the report; and the
//! tool that compares two stored reports.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, rel_spread};
use crate::workloads::{build, pool_threads, SPECS};
use g500_bench::micro::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What to run and where results go.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
    pub save: PathBuf,
}

/// Untraced repetitions per workload, each in a fresh process.
const REPS: usize = 3;

/// One child's result line.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in emission order.
    metrics: Vec<(String, f64, String)>,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

fn parse_result_line(stdout: &str) -> Result<Child, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let doc = parse(line).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(num);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("metric {name} lacks a value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Child {
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: doc.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
    })
}

/// Run one pass of one workload in a fresh process: the worker pool is
/// process-global and fixed at first use, and the traced pass reads `VmHWM`,
/// a per-process peak.
fn run_child(plan: &Plan, workload: &str, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&plan.out_dir)
        .stderr(Stdio::inherit());
    if plan.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    // pass the child's remarks on; its metrics are printed once, below
    for line in stdout.lines().filter(|l| l.starts_with("  note:")) {
        println!("  {line}");
    }
    parse_result_line(&stdout)
}

fn environment(spin_ms: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("pool_threads", Json::Num(pool_threads() as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("host.calibration_spin_ms", Json::Num(spin_ms)),
    ])
}

/// Run everything. Returns `Ok(true)` when every output check passed.
pub fn run_all(plan: &Plan) -> Result<bool, String> {
    let mut all_ok = true;
    let mut spin_ms = Vec::new();
    let mut workloads = Vec::new();
    for spec in SPECS {
        println!(
            "== {} (seed {}, {} s{})",
            spec.name,
            plan.seed,
            plan.seconds,
            if plan.quick { ", quick" } else { "" }
        );
        let w = build(spec.name, plan.seed, plan.seconds, plan.quick)
            .expect("SPECS names only workloads `build` knows");
        // a pass that ends without a result (a fault escalation, say) has
        // lost every operation it was to make: they count as failed, and the
        // other passes and workloads still run and are still reported
        let mut lost = 0;
        let mut pass = |traced: bool| match run_child(plan, spec.name, traced) {
            Ok(child) => Some(child),
            Err(e) => {
                let calls = if traced { 1 } else { w.calls().count() };
                let ops = (calls * w.ops()) as u64;
                println!("  LOST {e}: its {ops} operations count as failed");
                lost += ops;
                None
            }
        };
        let mut reps = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            println!("  untraced repetition {} of {REPS}", rep + 1);
            reps.extend(pass(false));
        }
        println!("  traced pass");
        let traced = pass(true);

        let done = reps.iter().chain(&traced);
        let attempted = done.clone().map(|c| c.attempted).sum::<u64>() + lost;
        let failed = done.clone().map(|c| c.failed).sum::<u64>() + lost;
        let mut ok = failed == 0 && done.clone().all(|c| c.correct);

        let mut end_to_end = Vec::new();
        // no untraced pass came back: no end-to-end value to report
        for def in END_TO_END.iter().filter(|_| !reps.is_empty()) {
            let values: Vec<f64> = reps
                .iter()
                .map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _, _)| n == def.name)
                        .map(|m| m.1)
                        .ok_or(format!("{} did not report {}", spec.name, def.name))
                })
                .collect::<Result<_, String>>()?;
            if def.sim && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                println!(
                    "  NON-DETERMINISM {}: repetitions disagree: {values:?}",
                    def.name
                );
                ok = false;
            }
            let spread = rel_spread(&values);
            println!(
                "  {:<34} {:>16.6} {:<6} {}",
                def.name,
                median(&values),
                def.unit,
                if def.sim {
                    "sim, equal in every repetition".to_string()
                } else {
                    format!(
                        "host, median of {}, spread {:.1}%",
                        values.len(),
                        100.0 * spread
                    )
                }
            );
            end_to_end.push((
                def.name.to_string(),
                Json::obj([
                    ("value", Json::Num(median(&values))),
                    ("unit", Json::Str(def.unit.to_string())),
                    ("spread", Json::Num(spread)),
                    (
                        "reps",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        println!(
            "  {:<34} {:>16.6} {:<6} {failed} of {attempted} operations",
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio"
        );
        let mut per_layer = Vec::new();
        for (name, value, unit) in traced.iter().flat_map(|t| &t.metrics) {
            println!("  {name:<34} {value:>16.6} {unit}");
            if name == "host.calibration_spin_ms" {
                spin_ms.push(*value);
            }
            per_layer.push((
                name.clone(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.clone())),
                ]),
            ));
        }
        if !ok {
            println!("  FAILED: {} did not pass its output checks", spec.name);
        }
        all_ok &= ok;
        workloads.push((
            spec.name.to_string(),
            Json::obj([
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }
    let report = Json::obj([
        ("seed", Json::Num(plan.seed as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("quick", Json::Bool(plan.quick)),
        (
            "environment",
            environment(if spin_ms.is_empty() {
                f64::NAN
            } else {
                median(&spin_ms)
            }),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = plan.save.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&plan.save, report.pretty())
        .map_err(|e| format!("cannot write {}: {e}", plan.save.display()))?;
    println!("report written to {}", plan.save.display());
    Ok(all_ok)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

/// How `b` stands against `a` on one end-to-end metric.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A simulated metric that differs, by however little, between two
    /// reports made from the same inputs, where it repeats to the bit.
    Moved,
    /// The run-to-run spread of either side is wider than the bound, so
    /// "unchanged" cannot be told from "changed".
    Unresolved,
}

/// Relative change of `b` against `a`, positive when `b` is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compare report `b` against report `a`, metric by metric and workload by
/// workload. Returns `Ok(true)` when nothing is worse than its bound and,
/// for reports made from the same seed, seconds and mode, no simulated
/// metric and no exact count differs at all: the bounds are for host times
/// and for different seeds.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    compare_docs(&load(a_path)?, &load(b_path)?)
}

fn compare_docs(a: &Value, b: &Value) -> Result<bool, String> {
    let same_inputs = ["seed", "seconds", "quick"]
        .iter()
        .all(|k| a.get(k).is_some() && a.get(k) == b.get(k));
    let mut none_worse = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for spec in SPECS {
        for def in END_TO_END {
            let get = |doc: &Value, key: &str| {
                field(doc, &["workloads", spec.name, "end_to_end", def.name, key])
                    .and_then(num)
                    .ok_or(format!("{}/{} lacks {key}", spec.name, def.name))
            };
            let (va, vb) = (get(a, "value")?, get(b, "value")?);
            let worse_by = worsening(va, vb, def.better);
            let v = if def.sim && same_inputs {
                if va.to_bits() == vb.to_bits() {
                    Verdict::Ok
                } else {
                    Verdict::Moved
                }
            } else {
                verdict(worse_by, get(a, "spread")?, get(b, "spread")?, def.bound)
            };
            none_worse &= matches!(v, Verdict::Ok | Verdict::Unresolved);
            println!(
                "{:<12} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                spec.name,
                def.name,
                va,
                vb,
                100.0 * worse_by,
                100.0 * def.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Moved => "moved",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (which, doc) in [("A", a), ("B", b)] {
            let failed = field(doc, &["workloads", spec.name, "failed"]).and_then(num);
            if failed != Some(0.0) {
                println!("{:<12} failed operations in {which}: {failed:?}", spec.name);
                none_worse = false;
            }
        }
    }
    if !same_inputs {
        println!("seed, seconds or quick differ: simulated metrics and exact counts are not comparable bit for bit");
        return Ok(none_worse);
    }
    let mut moved = 0;
    for spec in SPECS {
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let get = |doc: &Value| {
                field(
                    doc,
                    &["workloads", spec.name, "per_layer", def.name, "value"],
                )
                .and_then(num)
            };
            let (va, vb) = (get(a), get(b));
            if va.map(f64::to_bits) != vb.map(f64::to_bits) {
                println!("moved: {:<12} {:<32} {va:?} -> {vb:?}", spec.name, def.name);
                moved += 1;
            }
        }
    }
    println!(
        "{moved} exact per-layer counts differ (a change meant only to speed the simulator must leave all of them, and every simulated metric, identical)"
    );
    Ok(none_worse && moved == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(verdict(0.05, 0.02, 0.03, 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.02, 0.03, 0.10), Verdict::Ok);
        assert_eq!(verdict(0.12, 0.02, 0.03, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.12, 0.02, 0.11, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.20, 0.01, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    /// A stored report in which every end-to-end metric reads 1 with no
    /// spread, but for the two values given.
    fn report(seed: f64, sim_throughput: f64, supersteps: f64) -> Value {
        let metric =
            |value: f64| Json::obj([("value", Json::Num(value)), ("spread", Json::Num(0.0))]);
        let workload = || {
            let end_to_end = END_TO_END.iter().map(|d| {
                let value = if d.name == "sim_throughput" {
                    sim_throughput
                } else {
                    1.0
                };
                (d.name.to_string(), metric(value))
            });
            Json::obj([
                ("failed", Json::Num(0.0)),
                ("end_to_end", Json::Obj(end_to_end.collect())),
                (
                    "per_layer",
                    Json::obj([("dist.supersteps_per_root", metric(supersteps))]),
                ),
            ])
        };
        let doc = Json::obj([
            ("seed", Json::Num(seed)),
            ("seconds", Json::Num(10.0)),
            ("quick", Json::Bool(false)),
            (
                "workloads",
                Json::Obj(
                    SPECS
                        .iter()
                        .map(|s| (s.name.to_string(), workload()))
                        .collect(),
                ),
            ),
        ]);
        parse(&doc.to_string()).unwrap()
    }

    #[test]
    fn same_inputs_must_repeat_exactly_and_other_seeds_within_the_bound() {
        let a = report(1.0, 1.0, 40.0);
        assert_eq!(compare_docs(&a, &report(1.0, 1.0, 40.0)), Ok(true));
        // one percent off a simulated metric: far inside the 25% bound, but
        // the same seed repeats to the bit, so something changed the model
        assert_eq!(compare_docs(&a, &report(1.0, 0.99, 40.0)), Ok(false));
        assert_eq!(compare_docs(&a, &report(1.0, 1.0, 41.0)), Ok(false));
        // another seed is another graph: only the bound applies
        assert_eq!(compare_docs(&a, &report(2.0, 0.99, 41.0)), Ok(true));
        assert_eq!(compare_docs(&a, &report(2.0, 0.70, 41.0)), Ok(false));
    }

    #[test]
    fn result_lines_parse_back() {
        let line = "  note\n{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}\n";
        let child = parse_result_line(line).unwrap();
        assert!(child.correct);
        assert_eq!((child.attempted, child.failed), (12, 0));
        assert_eq!(
            child.metrics,
            vec![("setup_s".to_string(), 0.8127, "s".to_string())]
        );
        assert!(parse_result_line("").is_err());
        assert!(parse_result_line("not json").is_err());
    }
}
