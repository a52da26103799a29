//! `BENCHMARK.json` as the registry describes it. The checked-in file must
//! equal `g500-benchmark --manifest` (a test compares them), so names, units,
//! bounds and workload reasons have one source.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::SPECS;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

pub fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj([
        (
            "command",
            Json::Arr(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| Json::obj([("name", text(s.name)), ("why", text(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use g500_bench::micro::json::{parse, Value};
    use std::path::Path;

    fn repo_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    #[test]
    fn checked_in_manifest_is_the_registry() {
        assert_eq!(
            repo_file("../BENCHMARK.json"),
            manifest().pretty(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn manifest_fits_the_contract() {
        let text = manifest().pretty();
        assert!(text.len() <= 64 * 1024);
        let doc = parse(text.trim_end()).expect("manifest parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = doc.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        assert!((2..=8).contains(&SPECS.len()));
        // 4 + 22 x workloads runs of about 30 s at worst, plus two builds
        assert!((4 + 22 * SPECS.len()) as u64 * 26 + 2 * 120 < 3420);
    }

    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = repo_file("README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
        {
            assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
        }
    }

    /// The schema self-check: a quick run of every workload, both passes,
    /// emits every metric `BENCHMARK.json` names, each with its unit, and
    /// passes its own output checks.
    #[test]
    fn quick_run_emits_every_metric_of_the_manifest() {
        // under out/, which benchmark/.gitignore names
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let doc = parse(repo_file("../BENCHMARK.json").trim_end()).expect("BENCHMARK.json parses");
        let names = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        for spec in doc.get("workloads").and_then(Value::as_array).unwrap() {
            let name = spec.get("name").and_then(Value::as_str).unwrap();
            let w = workloads::build(name, workloads::DEFAULT_SEED, 1.0, true)
                .unwrap_or_else(|| panic!("BENCHMARK.json names unknown workload {name}"));
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let pass = if traced {
                    crate::traced::run(&w, &out).unwrap()
                } else {
                    crate::endtoend::run(&w).unwrap()
                };
                assert_eq!(pass.failed, 0, "{name} failed its output checks");
                assert!(pass.attempted >= 1);
                let line = crate::result_line(&pass, traced).to_string();
                let result = parse(&line).expect("result line parses");
                let keys: Vec<&str> = result
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let emitted = result.get("metrics").and_then(Value::as_object).unwrap();
                let wanted = names(section);
                assert_eq!(emitted.len(), wanted.len(), "{name} {section}");
                for (metric, unit) in wanted {
                    let m = result
                        .get("metrics")
                        .and_then(|ms| ms.get(&metric))
                        .unwrap_or_else(|| panic!("{name} did not emit {metric}"));
                    assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                    let Some(Value::Num(x)) = m.get("value") else {
                        panic!("{name}: {metric} has no numeric value");
                    };
                    if !traced {
                        assert!(*x > 0.0, "{name}: end-to-end {metric} must never be 0");
                    }
                }
            }
            assert!(out.join(format!("{name}.trace.json")).exists());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
