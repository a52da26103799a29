//! Golden-trace regression tests: the observability layer's determinism
//! contract, pinned to checked-in artifacts.
//!
//! Under `SchedMode::Deterministic` the merged trace is a pure function of
//! the configuration — byte-identical across repeated runs and across
//! `G500_THREADS` — so its summary can be diffed against a golden file the
//! way distances are diffed in the conformance suite. A drift here means a
//! semantic change to the instrumentation (or the simulator), which is
//! exactly what these tests exist to flag.
//!
//! Regenerate the goldens after an intentional change with
//! `G500_BLESS=1 cargo test --test trace_golden`.

use graph500::partition::{assemble_local_graph, Block1D};
use graph500::simnet::json::{parse, Value};
use graph500::simnet::{Machine, MachineConfig, Trace, TraceCode, TraceEvent, TraceKind};
use graph500::sssp::{try_batched_delta_stepping, BatchSpec, Grid2DSssp, OptConfig};
use graph500::{run_sssp_benchmark, BenchmarkConfig};
use std::process::Command;

const GOLDEN_1D: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/trace_1d_scale10.txt"
);
const GOLDEN_2D: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/trace_2d_scale10.txt"
);

const GOLDEN_BATCHED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/trace_batched_scale10.txt"
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
        "trace summary drifted from {path}; if intentional, regenerate with G500_BLESS=1"
    );
}

fn traced_1d_cfg() -> BenchmarkConfig {
    let mut cfg = BenchmarkConfig::quick(10, 4).deterministic(0).traced(true);
    cfg.num_roots = 2;
    cfg.validate = false;
    cfg
}

fn run_traced_2d() -> Trace {
    let gen = graph500::gen::KroneckerGenerator::new(graph500::gen::KroneckerParams::graph500(
        10, 20220814,
    ));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let report =
        Machine::new(MachineConfig::with_ranks(p).deterministic(0).traced(true)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
            g.run(ctx, 1);
            g.gather(ctx)
        });
    Trace::merge(report.traces)
}

/// One admission window's worth of kernel: full, point-to-point and bounded
/// lanes through one batch, traced. It opens the spans a solo run opens.
fn run_traced_batch() -> Trace {
    let gen = graph500::gen::KroneckerGenerator::new(graph500::gen::KroneckerParams::graph500(
        10, 20220814,
    ));
    let el = gen.generate_all();
    let (n, p) = (1u64 << 10, 4usize);
    let specs = [
        BatchSpec::full(1),
        BatchSpec::p2p(3, 200),
        BatchSpec::full(5),
        BatchSpec::p2p(7, 11).with_bound(6.0),
    ];
    let report =
        Machine::new(MachineConfig::with_ranks(p).deterministic(0).traced(true)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let g = assemble_local_graph(ctx, mine, Block1D::new(n, p));
            try_batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on())
                .expect("no crash plan")
                .1
        });
    Trace::merge(report.traces)
}

#[test]
fn golden_1d_scale10_summary() {
    let rep = run_sssp_benchmark(&traced_1d_cfg());
    let summary = rep.trace_summary().expect("run was traced");
    check_golden(GOLDEN_1D, &summary.render());
}

#[test]
fn golden_2d_scale10_summary() {
    let trace = run_traced_2d();
    check_golden(GOLDEN_2D, &trace.summary().render());
}

#[test]
fn golden_batched_scale10_summary() {
    let trace = run_traced_batch();
    check_golden(GOLDEN_BATCHED, &trace.summary().render());
}

/// One merged event field by field: rank, `t_s` as its bits, kind, code,
/// `a`, `b`.
type EventFields = (u32, u64, TraceKind, TraceCode, u64, u64);

/// Every field of every merged event, and the rank count.
fn fields(t: &Trace) -> (u32, Vec<EventFields>) {
    let f = |(r, e): &(u32, TraceEvent)| (*r, e.t_s.to_bits(), e.kind, e.code, e.a, e.b);
    (t.ranks, t.events.iter().map(f).collect())
}

#[test]
fn repeated_runs_produce_byte_identical_traces() {
    let a = run_sssp_benchmark(&traced_1d_cfg());
    let b = run_sssp_benchmark(&traced_1d_cfg());
    let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
    assert_eq!(
        fields(&ta),
        fields(&tb),
        "same config + sched seed must replay the identical merged trace"
    );
    let c = run_traced_2d();
    let d = run_traced_2d();
    assert_eq!(fields(&c), fields(&d), "2D trace not replayable");
    let (e, f) = (run_traced_batch(), run_traced_batch());
    assert_eq!(fields(&e), fields(&f), "batched trace not replayable");
}

/// Spawn the real `g500` binary (the pool is process-global, so thread
/// counts can only be compared across processes) and return (normalized
/// JSON stdout, Chrome trace bytes).
fn run_traced_binary(threads: usize, out: &std::path::Path) -> (String, Vec<u8>) {
    let res = Command::new(env!("CARGO_BIN_EXE_g500"))
        .args([
            "sssp",
            "--scale",
            "9",
            "--ranks",
            "4",
            "--roots",
            "2",
            "--deterministic",
            "--trace",
            "--trace-out",
            out.to_str().expect("utf8 tmp path"),
            "--json",
        ])
        .env("G500_THREADS", threads.to_string())
        .output()
        .expect("spawn g500");
    assert!(
        res.status.success(),
        "g500 failed under {} threads: {}",
        threads,
        String::from_utf8_lossy(&res.stderr)
    );
    let json = String::from_utf8(res.stdout)
        .expect("utf8 json")
        .lines()
        .filter(|l| !l.contains("wall_time_s") && !l.contains("\"threads\""))
        .collect::<Vec<_>>()
        .join("\n");
    let chrome = std::fs::read(out).expect("trace file written");
    (json, chrome)
}

#[test]
fn traced_run_is_bitwise_identical_across_thread_counts() {
    let dir = std::env::temp_dir();
    let p1 = dir.join("g500_trace_t1.json");
    let p4 = dir.join("g500_trace_t4.json");
    let (json1, chrome1) = run_traced_binary(1, &p1);
    let (json4, chrome4) = run_traced_binary(4, &p4);
    assert!(json1.contains("\"trace\":"), "traced JSON missing summary");
    assert_eq!(
        json1, json4,
        "traced JSON differs between G500_THREADS=1 and =4"
    );
    assert_eq!(
        chrome1, chrome4,
        "Chrome trace differs between G500_THREADS=1 and =4"
    );
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p4);
}

/// With tracing off, the report is byte-identical to one from a traced
/// build: the only difference tracing may make to output is the opt-in
/// `"trace"` entry itself.
#[test]
fn tracing_off_leaves_report_json_untouched() {
    let mut off_cfg = traced_1d_cfg();
    off_cfg.machine = off_cfg.machine.traced(false);
    let off = run_sssp_benchmark(&off_cfg);
    let on = run_sssp_benchmark(&traced_1d_cfg());
    let strip = |json: &str| -> String {
        json.lines()
            .filter(|l| !l.contains("wall_time_s") && !l.trim_start().starts_with("\"trace\":"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!off.to_json().contains("\"trace\":"));
    assert!(on.to_json().contains("\"trace\":"));
    assert!(!off.render().contains("trace summary"));
    assert!(on.render().contains("trace summary"));
    assert_eq!(
        strip(&off.to_json()),
        strip(&on.to_json()),
        "tracing changed a non-trace report field"
    );
}

/// The Chrome export and the report that embeds the trace summary both
/// parse with the workspace's one parser, in the shapes their readers
/// expect.
#[test]
fn chrome_export_is_structurally_valid_json() {
    let rep = run_sssp_benchmark(&traced_1d_cfg());
    let trace = rep.trace.as_ref().expect("traced");
    let chrome = parse(&trace.to_chrome_json()).expect("Chrome export parses");
    let events = chrome.get("traceEvents").and_then(Value::as_array);
    let events = events.expect("a traceEvents array");
    assert_eq!(events.len(), trace.ranks as usize + trace.events.len());
    fn text<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
        e.get(key).and_then(Value::as_str)
    }
    let count = |ph: &str| events.iter().filter(|e| text(e, "ph") == Some(ph)).count();
    assert_eq!(count("M"), trace.ranks as usize);
    assert_eq!(count("B"), count("E"), "every span closes");
    assert!(count("B") > 0 && count("i") > 0);
    for e in &events[trace.ranks as usize..] {
        for key in ["name", "ph", "pid", "tid", "ts"] {
            assert!(e.get(key).is_some(), "event without {key}: {e:?}");
        }
    }
    assert!(events.iter().any(|e| text(e, "name") == Some("superstep")));

    let doc = parse(&rep.to_json()).expect("traced report parses");
    let summary = doc.get("trace").expect("traced report has its summary");
    let s = trace.summary();
    assert_eq!(
        summary.get("events").and_then(Value::as_u64),
        Some(s.events)
    );
    for (key, rows) in [
        ("spans", s.spans.len()),
        ("supersteps", s.supersteps.len()),
        ("buckets", s.buckets.len()),
        ("top_collectives", s.top_collectives.len()),
    ] {
        let got = summary.get(key).and_then(Value::as_array).map(<[_]>::len);
        assert_eq!(got, Some(rows), "{key}");
    }
}

/// A crashed, traced run records the recovery machinery as first-class
/// spans: checkpoint-write at every interval boundary, restore and replay
/// after each crash. With crashes off, none of the three names may appear
/// — the goldens above double as the proof that crash-free trace output
/// is untouched by the recovery subsystem.
#[test]
fn crashed_run_traces_recovery_spans() {
    use graph500::CrashPlan;
    let mut cfg = traced_1d_cfg();
    cfg = cfg.crashes(
        CrashPlan::none()
            .with_forced(1, 2)
            .with_checkpoint_interval(2),
    );
    let rep = run_sssp_benchmark(&cfg);
    let summary = rep.trace_summary().expect("run was traced");
    let rendered = summary.render();
    for span in ["checkpoint-write", "restore", "replay"] {
        assert!(
            rendered.contains(span),
            "crashed trace summary is missing the {span} span:\n{rendered}"
        );
    }
    let clean = run_sssp_benchmark(&traced_1d_cfg());
    let clean_rendered = clean.trace_summary().expect("traced").render();
    for span in ["checkpoint-write", "restore", "replay"] {
        assert!(
            !clean_rendered.contains(span),
            "crash-free trace summary mentions {span}:\n{clean_rendered}"
        );
    }
}
