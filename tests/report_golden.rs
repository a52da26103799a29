//! Golden-report regression tests for the bucket-queue hot path.
//!
//! The radix-layout upgrade of `sssp/bucket.rs` must be *behaviorally
//! invisible*: under the deterministic scheduler the scale-10 1D and 2D
//! report JSON is a pure function of the configuration, so it is pinned
//! byte-for-byte to goldens captured before the upgrade. Any change to the
//! bucket drain order, the superstep schedule, or the distance/parent bits
//! shows up here as a diff.
//!
//! The 1D and serve runs spawn the real `g500` binary under `G500_THREADS=1` and
//! `=4` (the pool is process-global, so thread counts only compare across
//! processes); both must reproduce the same golden. Regenerate after an
//! *intentional* semantic change with
//! `G500_BLESS=1 cargo test --test report_golden`.

use graph500::simnet::json::{parse, Value};
use graph500::simnet::{Machine, MachineConfig};
use graph500::sssp::Grid2DSssp;
use graph500::{
    run_query_serving_benchmark, run_sssp_benchmark, BenchmarkConfig, CrashPlan, FaultPlan,
    ServeBenchConfig,
};
use std::process::Command;

const GOLDEN_1D: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_1d_scale10.json"
);
const GOLDEN_2D: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_2d_scale10.txt"
);
const GOLDEN_SERVE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_scale10.json"
);

/// Compare `actual` against the golden file at `path`; with `G500_BLESS=1`
/// rewrite the golden instead.
fn check_golden(path: &str, actual: &str) {
    if std::env::var("G500_BLESS").is_ok() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with G500_BLESS=1"));
    assert_eq!(
        expected, actual,
        "report drifted from {path}; if intentional, regenerate with G500_BLESS=1"
    );
}

/// Run the `g500` binary with `args` under `threads` and return its JSON
/// stdout minus the host-dependent lines (wall time, pool size).
fn run_json(args: &[&str], threads: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_g500"))
        .args(args)
        .env("G500_THREADS", threads.to_string())
        .output()
        .expect("spawn g500");
    assert!(
        out.status.success(),
        "g500 failed under {} threads: {}",
        threads,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout)
        .expect("utf8 json")
        .lines()
        .filter(|l| !l.contains("wall_time_s") && !l.contains("\"threads\""))
        .collect::<Vec<_>>()
        .join("\n");
    json + "\n"
}

#[test]
fn golden_1d_scale10_report_json_at_t1_and_t4() {
    let args = [
        "sssp",
        "--scale",
        "10",
        "--ranks",
        "4",
        "--roots",
        "2",
        "--deterministic",
        "--json",
    ];
    let t1 = run_json(&args, 1);
    check_golden(GOLDEN_1D, &t1);
    let t4 = run_json(&args, 4);
    assert_eq!(
        t1, t4,
        "1D report JSON differs between G500_THREADS=1 and =4"
    );
}

/// The batched kernel under the serving layer: three windows of mixed full
/// and point-to-point queries with landmarks and the LRU on, so lane
/// retirement, bound pruning and the lane-tagged exchange all shape the
/// superstep count and the virtual-time latencies pinned here.
#[test]
fn golden_serve_scale10_report_json_at_t1_and_t4() {
    let args = [
        "serve",
        "--scale",
        "10",
        "--ranks",
        "4",
        "--queries",
        "24",
        "--batch",
        "8",
        "--deterministic",
        "--json",
    ];
    let t1 = run_json(&args, 1);
    check_golden(GOLDEN_SERVE, &t1);
    let t4 = run_json(&args, 4);
    assert_eq!(
        t1, t4,
        "serve report JSON differs between G500_THREADS=1 and =4"
    );
}

/// The 2D kernel has no CLI front end; serialize its deterministic run —
/// distance bits, parents, and the full superstep/record counters — into a
/// canonical text form and pin that.
#[test]
fn golden_2d_scale10_report() {
    let gen = graph500::gen::KroneckerGenerator::new(graph500::gen::KroneckerParams::graph500(
        10, 20220814,
    ));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let rep = Machine::new(MachineConfig::with_ranks(p).deterministic(0)).run(|ctx| {
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine = (lo..hi).map(|i| el.get(i));
        let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
        let stats = g.run(ctx, 1);
        (g.gather(ctx), stats)
    });
    let (sp, stats) = &rep.results[0];
    let mut out = String::new();
    out.push_str(&format!(
        "supersteps {}\nrelaxations {}\nfrontier_records {}\nupdate_records {}\n",
        stats.supersteps, stats.relaxations, stats.frontier_records, stats.update_records
    ));
    for v in 0..n as usize {
        out.push_str(&format!(
            "{v} {:08x} {}\n",
            sp.dist[v].to_bits(),
            sp.parent[v]
        ));
    }
    // only rank 0 holds the gathered result
    assert_eq!(sp.dist.len(), n as usize);
    for (other, _) in &rep.results[1..] {
        assert!(other.dist.is_empty() && other.parent.is_empty());
    }
    check_golden(GOLDEN_2D, &out);
}

/// Top-level keys of a parsed report, in order.
fn keys(doc: &Value) -> Vec<&str> {
    let fields = doc.as_object().expect("a report is an object");
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

/// Every report the CLI prints parses with the workspace's one parser and
/// carries, in order, the keys the goldens pin: the kernel report clean,
/// lossy, crashy and traced (the last two add their own entry), and the
/// serving report.
#[test]
fn every_report_parses_with_the_one_parser() {
    let pinned = [
        "scale",
        "n",
        "m",
        "ranks",
        "construction_time_s",
        "runs",
        "teps",
        "net",
        "per_rank_net",
        "fault",
    ];
    let base = BenchmarkConfig::quick(8, 2).deterministic(0);
    let crash = CrashPlan::random(0xC4A8, 0.002).with_checkpoint_interval(2);
    let cases = [
        ("clean", base.clone(), None),
        (
            "lossy",
            base.clone().faults(FaultPlan::lossy(1, 0.05, 0.02, 0.01)),
            None,
        ),
        ("crashy", base.clone().crashes(crash), Some("crash")),
        ("traced", base.clone().traced(true), Some("trace")),
    ];
    for (what, cfg, extra) in cases {
        let rep = run_sssp_benchmark(&cfg);
        let doc = parse(&rep.to_json()).unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut expected = pinned.to_vec();
        expected.extend(extra);
        expected.extend(["wall_time_s", "threads"]);
        assert_eq!(keys(&doc), expected, "{what}");
        let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
        assert_eq!(runs.len(), rep.runs.len(), "{what}");
        for (run, r) in runs.iter().zip(&rep.runs) {
            assert_eq!(
                keys(run),
                [
                    "root",
                    "sim_time_s",
                    "traversed_edges",
                    "validated",
                    "stats"
                ]
            );
            assert_eq!(run.get("root").and_then(Value::as_u64), Some(r.root));
            assert_eq!(run.get("validated"), Some(&Value::Bool(true)), "{what}");
            let stats = run.get("stats").expect("stats");
            assert_eq!(keys(stats).len(), 12, "{what}: {stats:?}");
        }
        let per_rank = doc.get("per_rank_net").and_then(Value::as_array);
        assert_eq!(per_rank.map(<[_]>::len), Some(2), "{what}");
        let net = doc.get("net").expect("net");
        let counter = |k: &str| net.get(k).and_then(Value::as_u64).unwrap();
        assert_eq!(counter("retransmits"), rep.net.retransmits, "{what}");
        assert_eq!(counter("crashes"), rep.net.crashes, "{what}");
        let hmean = doc.get("teps").and_then(|t| t.get("harmonic_mean"));
        assert_eq!(hmean, Some(&Value::Num(rep.teps.harmonic_mean)), "{what}");
    }

    let mut serve = ServeBenchConfig::new(8, 2).deterministic(0);
    serve.num_queries = 8;
    serve.batch_width = 4;
    let rep = run_query_serving_benchmark(&serve);
    let doc = parse(&rep.to_json()).expect("serve report parses");
    assert_eq!(
        keys(&doc),
        [
            "scale",
            "n",
            "m",
            "ranks",
            "batch_width",
            "queries",
            "p2p_queries",
            "batches",
            "cache_hits",
            "early_exits",
            "lanes_run",
            "queries_shed",
            "queries_retried",
            "supersteps",
            "landmarks",
            "serve_time_s",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "max_ms",
            "net",
            "wall_time_s",
            "threads"
        ]
    );
    assert_eq!(doc.get("queries").and_then(Value::as_u64), Some(8));
    assert_eq!(doc.get("qps"), Some(&Value::Num(rep.qps)));
}
