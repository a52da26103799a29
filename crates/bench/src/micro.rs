//! Shared plumbing for the host-time microbenchmarks and the CI perf gate.
//!
//! One consumer, `src/bin/perf_gate.rs`, in two modes: the CI gate runs the
//! thread sweep, writes it to `results/bench_micro.json` (untracked: CI
//! uploads it as an artifact), compares against the blessed
//! `results/bench_baseline.json` and fails the build on regression;
//! `--report` (`run_experiments.sh perf`) prints the same sweep as a
//! per-kernel table against the baseline and never fails.
//!
//! The worker pool is process-global and fixed at first use, so a sweep
//! over thread counts must re-exec: the parent spawns itself once per count
//! in [`SWEEP_THREADS`] with [`CHILD_ENV`]`=1` and `G500_THREADS=<t>` set;
//! the child runs only the pool-parallel hot kernels ([`run_kernels`]) and
//! prints one machine-readable `G500_BENCH\t<kernel>\t<median>\t<p10>\t<p90>`
//! line each (nanoseconds), which the parent collects into JSON.
//!
//! Determinism contract: the *results* of every benched kernel are bitwise
//! identical across the sweep — only the times differ. The JSON is written
//! and read through the workspace's one JSON module, [`json`].

use g500_gen::{KroneckerGenerator, KroneckerParams};
use g500_graph::{Csr, Directedness};
use g500_partition::{assemble_local_graph, Block1D};
use g500_sssp::{
    distributed_delta_stepping, Direction, Grid2DSssp, OptConfig, Query, QueryEngine, ServeConfig,
};
use simnet::{CrashPlan, Machine, MachineConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Environment variable marking a re-exec'd sweep child.
pub const CHILD_ENV: &str = "G500_BENCH_CHILD";

/// Thread counts swept by the benchmark and gated by CI.
pub const SWEEP_THREADS: [usize; 3] = [1, 2, 4];

/// Name of the calibration pseudo-kernel measured first in every child: a
/// fixed single-threaded SplitMix64 spin that never touches the pool or
/// the allocator. Shared and virtualized hosts drift in absolute speed by
/// tens of percent over minutes, which would trip any wall-clock
/// threshold; the perf gate therefore compares *calibration-normalized*
/// medians (`kernel / calibration`, measured in the same process), so a
/// uniform host-speed shift cancels while a real kernel regression — which
/// does not slow the spin — still shows.
pub const CALIBRATION_KERNEL: &str = "_calibration/spin";

/// The calibration workload: `iters` SplitMix64 steps over one u64.
fn calibration_spin(iters: u64) -> u64 {
    let mut x = 0x0123_4567_89AB_CDEFu64;
    for _ in 0..iters {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        black_box(z ^ (z >> 31));
    }
    x
}

/// Robust summary of one kernel's sample distribution, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Median wall time.
    pub median_ns: u64,
    /// 10th-percentile wall time (the near-best sample).
    pub p10_ns: u64,
    /// 90th-percentile wall time (the near-worst sample).
    pub p90_ns: u64,
    /// Median of the [`CALIBRATION_KERNEL`] spin measured by the *same
    /// child process*, stamped in by the sweep parent (`0` = unknown, e.g.
    /// a baseline blessed before calibration existed). Pairing every
    /// measurement with a same-process, same-window yardstick is what lets
    /// comparisons cancel host-speed drift: the pairing must survive
    /// min-merging across cycles, so it lives on the cell, not the row.
    pub calib_ns: u64,
}

impl Stats {
    /// Summarize a raw sample vector (need not be sorted).
    pub fn from_samples(mut ns: Vec<u64>) -> Self {
        assert!(!ns.is_empty(), "no samples");
        ns.sort_unstable();
        let q = |p: usize| ns[(ns.len() - 1) * p / 100];
        Stats {
            median_ns: q(50),
            p10_ns: q(10),
            p90_ns: q(90),
            calib_ns: 0,
        }
    }

    /// This cell's calibration-normalized median: `median / calibration`
    /// from the same process, or `None` without a calibration stamp.
    pub fn normalized(&self) -> Option<f64> {
        (self.calib_ns > 0).then(|| self.median_ns as f64 / self.calib_ns as f64)
    }
}

simnet::json_fields! {
    Stats:
    median_ns, p10_ns, p90_ns, calib_ns,
}

/// Does `a` beat `b` under calibration normalization? Compares
/// `a.median/a.calib < b.median/b.calib` by cross-multiplication; falls
/// back to the raw medians when either side lacks a calibration stamp.
fn normalized_faster(a: &Stats, b: &Stats) -> bool {
    if a.calib_ns > 0 && b.calib_ns > 0 {
        (a.median_ns as u128) * (b.calib_ns as u128) < (b.median_ns as u128) * (a.calib_ns as u128)
    } else {
        a.median_ns < b.median_ns
    }
}

/// Time `samples` runs of `f` (after one warmup) and summarize.
pub fn measure(samples: usize, mut f: impl FnMut()) -> Stats {
    f();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_nanos() as u64);
    }
    Stats::from_samples(times)
}

/// Run every gated kernel under the current pool configuration and return
/// `(name, stats)` pairs in registry order. This is the sweep child's whole
/// job; the kernel set is the contract between the bench, the gate, and the
/// checked-in baseline — extend it here and re-bless.
pub fn run_kernels() -> Vec<(&'static str, Stats)> {
    let mut out = Vec::new();

    // Calibration first, so every child carries its own yardstick.
    out.push((
        CALIBRATION_KERNEL,
        measure(5, || {
            black_box(calibration_spin(8_000_000));
        }),
    ));

    // Generator + CSR build at scale 14 (262 144 edges).
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(14, 1));
    let el = gen.generate_all();
    let n = gen.params().num_vertices() as usize;
    out.push((
        "generator/kronecker_s14",
        measure(5, || {
            black_box(gen.generate_all().len());
        }),
    ));
    out.push((
        "csr/build_undirected_s14",
        measure(5, || {
            black_box(Csr::from_edges(n, &el, Directedness::Undirected).num_arcs());
        }),
    ));

    // Distributed kernels at scale 12 on a 4-rank simulated machine: the
    // 1D kernel forced to pull (times the broadcast-pull wave scan) and
    // the 2D grid relax. Host time includes assembly; that is fine — the
    // gate compares like against like.
    let gen12 = KroneckerGenerator::new(KroneckerParams::graph500(12, 1));
    let n12 = gen12.params().num_vertices();
    let m12 = gen12.params().num_edges();
    let root12 = gen12.edge_block(0..16).iter().next().map_or(0, |e| e.u);
    let ranks = 4usize;
    let slice = |r: usize| {
        let lo = r as u64 * m12 / ranks as u64;
        let hi = (r as u64 + 1) * m12 / ranks as u64;
        lo..hi
    };
    let pull_opts = OptConfig::all_on().with_direction(Direction::Pull);
    out.push((
        "sssp/pull_1d_s12",
        measure(5, || {
            let reached = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
                let part = Block1D::new(n12, ranks);
                let mine = gen12.edge_block(slice(ctx.rank()));
                let g = assemble_local_graph(ctx, mine.iter(), part);
                let (sp, _) = distributed_delta_stepping(ctx, &g, root12, &pull_opts);
                sp.reached_local()
            });
            black_box(reached.results.iter().sum::<u64>());
        }),
    ));
    out.push((
        "sssp/relax_2d_s12",
        measure(5, || {
            let relaxed = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
                let mine = gen12.edge_block(slice(ctx.rank()));
                let mut g = Grid2DSssp::build(ctx, n12, mine.iter(), 0.125);
                let s = g.run(ctx, root12);
                s.relaxations
            });
            black_box(relaxed.results.iter().sum::<u64>());
        }),
    ));

    // The sequential baseline over the s14 CSR: the radix-heap Dijkstra.
    // (BMSSP is a test oracle at 10⁻²× Dijkstra, 1.1 s an iteration: not a
    // timed path.)
    let csr = Csr::from_edges(n, &el, Directedness::Undirected);
    let root = (0..n).find(|&v| csr.degree(v) > 0).unwrap_or(0) as u64;
    out.push((
        "baselines/dijkstra_radix_s14",
        measure(5, || {
            black_box(g500_baselines::dijkstra_radix_heap(&csr, root).reached_count());
        }),
    ));

    // The bucket queue alone: a 200k-entry insert + ordered drain with a
    // sparse far tail, so the cursor walks long runs of empty lanes
    // between the far buckets (sized to time above 1 ms, where the gate's
    // ratios are steadier than at 100k's ~0.74 ms). The name is the key
    // `results/bench_baseline.json` holds for it.
    out.push((
        "bucket/radix_drain_200k",
        measure(10, || {
            let mut q = g500_sssp::BucketQueue::new(0.125);
            let mut x = 1u64;
            for v in 0..200_000u32 {
                x = x
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                // mostly near distances, occasional far bucket
                let d = if x.is_multiple_of(64) {
                    (x % 100_000) as f32 * 0.01
                } else {
                    (x % 512) as f32 * 0.03
                };
                q.insert(v, d);
            }
            let mut popped = 0usize;
            while let Some(k) = q.min_bucket() {
                popped += q.take_bucket(k).len();
            }
            black_box(popped);
        }),
    ));

    // The batched query engine end to end at scale 12 on the 4-rank
    // machine: a 16-wide admission window of full single-source queries
    // through the shared-superstep kernel (caches off — the micro gate
    // times the kernel path, F16 covers the service config).
    let serve_queries: Vec<Query> = (0..16u64)
        .map(|i| Query::full((i * n12 / 16).min(n12 - 1)))
        .collect();
    out.push((
        "serve/batch16_s12",
        measure(5, || {
            let reached = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
                let part = Block1D::new(n12, ranks);
                let mine = gen12.edge_block(slice(ctx.rank()));
                let g = assemble_local_graph(ctx, mine.iter(), part);
                let cfg = ServeConfig {
                    batch_width: 16,
                    opts: OptConfig::all_on().with_delta(0.125),
                    num_landmarks: 0,
                    lru_capacity: 0,
                    keep_paths: false,
                    deadline_s: f64::INFINITY,
                };
                let mut engine = QueryEngine::try_new(ctx, &g, cfg).expect("no crash plan");
                let outs = engine.serve(ctx, &serve_queries);
                outs.len() as u64 + engine.stats().relaxations
            });
            black_box(reached.results.iter().sum::<u64>());
        }),
    ));

    // The recovery subsystem under load: the 1D kernel at scale 12 with
    // checkpoints every other superstep and one forced crash — times the
    // Checkpoint codec, buddy replication, and a restore + replay cycle
    // on top of the kernel itself.
    out.push((
        "recovery/checkpoint_s12",
        measure(5, || {
            let plan = CrashPlan::none()
                .with_forced(1, 4)
                .with_checkpoint_interval(2);
            let reached = Machine::new(MachineConfig::with_ranks(ranks).crashes(plan)).run(|ctx| {
                let part = Block1D::new(n12, ranks);
                let mine = gen12.edge_block(slice(ctx.rank()));
                let g = assemble_local_graph(ctx, mine.iter(), part);
                let (sp, _) = distributed_delta_stepping(ctx, &g, root12, &OptConfig::all_on());
                sp.reached_local()
            });
            black_box(reached.results.iter().sum::<u64>());
        }),
    ));

    out
}

/// Child mode: run the kernels under whatever `G500_THREADS` the parent
/// set and emit the parse-friendly `G500_BENCH` lines.
pub fn child_main() {
    for (name, s) in run_kernels() {
        println!(
            "G500_BENCH\t{name}\t{}\t{}\t{}",
            s.median_ns, s.p10_ns, s.p90_ns
        );
    }
}

/// One sweep point: a thread count and its per-kernel stats.
pub type SweepPoint = (usize, Vec<(String, Stats)>);

/// Run `cycles` interleaved sweeps (T1, T2, T4, T1, T2, T4, …): each
/// re-execs `exe` once per thread count in [`SWEEP_THREADS`] and collects
/// the child lines (failed spawns are reported and skipped). Every cycle's
/// sweep is returned separately. Shared/virtualized hosts drift in
/// performance over the minutes a sweep takes, and a slow window inflates
/// whichever thread count it happens to cover; interleaving spreads any
/// window across all thread counts. The perf gate judges each cycle on its
/// own — a cycle's thread counts run back-to-back, so within-cycle ratios
/// see far less host drift than ratios between minima that may come from
/// different windows — and only fails a violation that reproduces in
/// every cycle; [`merge_min`] folds the cycles into the table it writes.
pub fn run_sweep_each(exe: &Path, cycles: usize) -> Vec<Vec<SweepPoint>> {
    (0..cycles)
        .map(|cycle| run_sweep_once(exe, cycle))
        .collect()
}

/// Fold one sweep into `best`, keeping per-`(kernel, threads)` the stats
/// with the smaller *calibration-normalized* median (raw median when a
/// stamp is missing). The whole [`Stats`] cell moves together, so the
/// winning measurement keeps the calibration of its own process — taking
/// per-cell raw minima would let a kernel min from one host window pair
/// with a calibration min from another and distort the normalized ratio.
/// Public so the perf gate's retry can pool its re-measurement with the
/// first sweep instead of judging it in isolation.
pub fn merge_min(best: &mut Vec<SweepPoint>, sweep: Vec<SweepPoint>) {
    for (t, kernels) in sweep {
        match best.iter_mut().find(|(bt, _)| *bt == t) {
            None => best.push((t, kernels)),
            Some((_, rows)) => {
                for (name, s) in kernels {
                    match rows.iter_mut().find(|(n, _)| *n == name) {
                        None => rows.push((name, s)),
                        Some((_, b)) if normalized_faster(&s, b) => *b = s,
                        Some(_) => {}
                    }
                }
            }
        }
    }
}

fn run_sweep_once(exe: &Path, cycle: usize) -> Vec<SweepPoint> {
    let mut sweep = Vec::new();
    for t in SWEEP_THREADS {
        eprintln!("sweep: cycle {cycle}: re-exec with G500_THREADS={t}…");
        let out = match Command::new(exe)
            .env(CHILD_ENV, "1")
            .env("G500_THREADS", t.to_string())
            .output()
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sweep: failed to spawn child for {t} threads: {e}; skipping");
                continue;
            }
        };
        if !out.status.success() {
            eprintln!(
                "sweep: child for {t} threads exited with {}; skipping",
                out.status
            );
            continue;
        }
        sweep.push((t, parse_child_stdout(&String::from_utf8_lossy(&out.stdout))));
    }
    sweep
}

/// Parse one child's `G500_BENCH` lines, then stamp every row with the
/// calibration median that same child measured (see [`Stats::calib_ns`]).
fn parse_child_stdout(stdout: &str) -> Vec<(String, Stats)> {
    let mut kernels: Vec<(String, Stats)> = Vec::new();
    for line in stdout.lines() {
        let mut parts = line.split('\t');
        if parts.next() != Some("G500_BENCH") {
            continue;
        }
        let (Some(name), Some(med), Some(p10), Some(p90)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let (Ok(median_ns), Ok(p10_ns), Ok(p90_ns)) = (med.parse(), p10.parse(), p90.parse())
        else {
            continue;
        };
        kernels.push((
            name.to_string(),
            Stats {
                median_ns,
                p10_ns,
                p90_ns,
                calib_ns: 0,
            },
        ));
    }
    let calib = kernels
        .iter()
        .find(|(n, _)| n == CALIBRATION_KERNEL)
        .map_or(0, |(_, s)| s.median_ns);
    for (_, s) in &mut kernels {
        s.calib_ns = calib;
    }
    kernels
}

/// `git rev-parse --short HEAD` of the workspace, or `"unknown"` when git
/// is unavailable (e.g. a source tarball).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The workspace-root `results/` directory (relative to this crate).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Serialize a sweep into the bench JSON schema: metadata plus
/// kernel × thread-count × {median, p10, p90} ns.
pub fn sweep_to_json(git_rev: &str, sweep: &[SweepPoint]) -> String {
    // kernel names in first-seen order
    let mut kernels: Vec<&str> = Vec::new();
    for (_, rows) in sweep {
        for (name, _) in rows {
            if !kernels.contains(&name.as_str()) {
                kernels.push(name);
            }
        }
    }
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let thread_counts: Vec<usize> = sweep.iter().map(|(t, _)| *t).collect();
    let mut s = json::report(|o| {
        o.field("bench", "micro")
            .field("unit", "ns")
            .field("git_rev", git_rev)
            .field("host_threads", host_threads)
            .field("thread_counts", thread_counts)
            .array("kernels", |a| {
                for name in kernels {
                    a.object(|k| {
                        k.field("name", name).object("stats", |by_t| {
                            for (t, rows) in sweep {
                                if let Some((_, st)) = rows.iter().find(|(n, _)| n == name) {
                                    by_t.field(&t.to_string(), st);
                                }
                            }
                        });
                    });
                }
            });
    });
    s.push('\n');
    s
}

/// Write a sweep as JSON at `path`, creating parent directories.
pub fn write_sweep_json(path: &Path, git_rev: &str, sweep: &[SweepPoint]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, sweep_to_json(git_rev, sweep))
}

/// A parsed bench JSON file (either `bench_micro.json` or the baseline).
#[derive(Clone, Debug)]
pub struct BenchFile {
    /// Git revision recorded at measurement time.
    pub git_rev: String,
    /// Thread counts present in the sweep.
    pub thread_counts: Vec<usize>,
    /// Per-kernel stats by thread count, in file order.
    pub kernels: Vec<(String, BTreeMap<usize, Stats>)>,
}

impl BenchFile {
    /// Stats of `kernel` at `threads`, if recorded.
    pub fn stats(&self, kernel: &str, threads: usize) -> Option<Stats> {
        self.kernels
            .iter()
            .find(|(n, _)| n == kernel)
            .and_then(|(_, by_t)| by_t.get(&threads).copied())
    }
}

/// Parse a bench JSON file produced by [`sweep_to_json`] (tolerates
/// reordered/extra fields). Errors carry a human-readable reason.
pub fn parse_bench_file(text: &str) -> Result<BenchFile, String> {
    let v = json::parse(text)?;
    let git_rev = v
        .get("git_rev")
        .and_then(json::Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    let thread_counts = v
        .get("thread_counts")
        .and_then(json::Value::as_array)
        .ok_or("missing thread_counts")?
        .iter()
        .filter_map(|t| t.as_u64().map(|t| t as usize))
        .collect();
    let mut kernels = Vec::new();
    for k in v
        .get("kernels")
        .and_then(json::Value::as_array)
        .ok_or("missing kernels")?
    {
        let name = k
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or("kernel without name")?
            .to_string();
        let stats_obj = k
            .get("stats")
            .and_then(json::Value::as_object)
            .ok_or_else(|| format!("kernel {name} without stats"))?;
        let mut by_t = BTreeMap::new();
        for (t, st) in stats_obj {
            let t: usize = t.parse().map_err(|_| format!("bad thread key {t:?}"))?;
            let field = |f: &str| {
                st.get(f)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("kernel {name} T={t}: missing {f}"))
            };
            by_t.insert(
                t,
                Stats {
                    median_ns: field("median_ns")?,
                    p10_ns: field("p10_ns")?,
                    p90_ns: field("p90_ns")?,
                    // optional: baselines blessed before calibration lack it
                    calib_ns: st
                        .get("calib_ns")
                        .and_then(json::Value::as_u64)
                        .unwrap_or(0),
                },
            );
        }
        kernels.push((name, by_t));
    }
    Ok(BenchFile {
        git_rev,
        thread_counts,
        kernels,
    })
}

/// The workspace's JSON module, where bench files are read and written.
pub use simnet::json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let s = Stats::from_samples(vec![50, 10, 30, 20, 40]);
        assert_eq!(s.median_ns, 30);
        assert_eq!(s.p10_ns, 10);
        assert_eq!(s.p90_ns, 40);
        let one = Stats::from_samples(vec![7]);
        assert_eq!((one.p10_ns, one.median_ns, one.p90_ns), (7, 7, 7));
    }

    #[test]
    fn json_roundtrip_through_parser() {
        let sweep: Vec<SweepPoint> = vec![
            (
                1,
                vec![
                    (
                        "a/k1".to_string(),
                        Stats {
                            median_ns: 100,
                            p10_ns: 90,
                            p90_ns: 110,
                            calib_ns: 50,
                        },
                    ),
                    (
                        "b/k2".to_string(),
                        Stats {
                            median_ns: 5,
                            p10_ns: 4,
                            p90_ns: 6,
                            calib_ns: 50,
                        },
                    ),
                ],
            ),
            (
                4,
                vec![(
                    "a/k1".to_string(),
                    Stats {
                        median_ns: 104,
                        p10_ns: 95,
                        p90_ns: 120,
                        calib_ns: 55,
                    },
                )],
            ),
        ];
        let text = sweep_to_json("abc1234", &sweep);
        let doc = json::parse(&text).expect("a sweep is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "bench",
                "unit",
                "git_rev",
                "host_threads",
                "thread_counts",
                "kernels"
            ]
        );
        // the braces, five fields, `"kernels": [`, two kernels and `]`
        let lines = text.lines().count();
        assert_eq!(lines, 11, "one field, and one kernel, a line:\n{text}");
        let parsed = parse_bench_file(&text).expect("parse");
        assert_eq!(parsed.git_rev, "abc1234");
        assert_eq!(parsed.thread_counts, vec![1, 4]);
        assert_eq!(
            parsed.stats("a/k1", 4),
            Some(Stats {
                median_ns: 104,
                p10_ns: 95,
                p90_ns: 120,
                calib_ns: 55
            })
        );
        assert_eq!(parsed.stats("b/k2", 4), None);
        assert_eq!(parsed.stats("b/k2", 1).map(|s| s.median_ns), Some(5));
    }

    #[test]
    fn merge_min_keeps_fastest_cycle_per_cell() {
        let st = |m| Stats {
            median_ns: m,
            p10_ns: m,
            p90_ns: m,
            calib_ns: 0,
        };
        let mut best = Vec::new();
        merge_min(
            &mut best,
            vec![
                (1, vec![("k".to_string(), st(100))]),
                (4, vec![("k".to_string(), st(300))]),
            ],
        );
        // second cycle: T=1 slower (ignored), T=4 faster (kept), new kernel appears
        merge_min(
            &mut best,
            vec![
                (
                    1,
                    vec![("k".to_string(), st(150)), ("j".to_string(), st(7))],
                ),
                (4, vec![("k".to_string(), st(120))]),
            ],
        );
        let get = |t: usize, n: &str| {
            best.iter()
                .find(|(bt, _)| *bt == t)
                .and_then(|(_, rows)| rows.iter().find(|(bn, _)| bn == n))
                .map(|(_, s)| s.median_ns)
        };
        assert_eq!(get(1, "k"), Some(100));
        assert_eq!(get(4, "k"), Some(120));
        assert_eq!(get(1, "j"), Some(7));
    }

    #[test]
    fn merge_min_compares_calibration_normalized_and_keeps_the_pair() {
        let st = |m, c| Stats {
            median_ns: m,
            p10_ns: m,
            p90_ns: m,
            calib_ns: c,
        };
        // Cycle 0 ran in a slow window: kernel 200ns, calibration 100ns
        // (normalized 2.0). Cycle 1's window is fast: kernel 150ns looks
        // better raw, but calibration 50ns says normalized 3.0 — the
        // kernel genuinely got slower relative to the host, so the slow
        // window's measurement must win and keep ITS calibration.
        let mut best = vec![(1, vec![("k".to_string(), st(200, 100))])];
        merge_min(&mut best, vec![(1, vec![("k".to_string(), st(150, 50))])]);
        assert_eq!(best[0].1[0].1, st(200, 100));
        // A normalized improvement replaces the whole cell, stamp included.
        merge_min(&mut best, vec![(1, vec![("k".to_string(), st(190, 100))])]);
        assert_eq!(best[0].1[0].1, st(190, 100));
        // Without stamps the comparison falls back to raw medians.
        let mut raw = vec![(1, vec![("k".to_string(), st(200, 0))])];
        merge_min(&mut raw, vec![(1, vec![("k".to_string(), st(150, 50))])]);
        assert_eq!(raw[0].1[0].1.median_ns, 150);
    }

    #[test]
    fn child_stdout_rows_are_stamped_with_their_own_calibration() {
        let out = format!(
            "noise line\nG500_BENCH\t{CALIBRATION_KERNEL}\t40\t39\t41\n\
             G500_BENCH\ta/k1\t100\t90\t110\nG500_BENCH\tb/k2\t5\t4\t6\n"
        );
        let rows = parse_child_stdout(&out);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|(_, s)| s.calib_ns == 40));
        assert_eq!(rows[1].1.normalized(), Some(2.5));
        // no calibration line → no stamps, normalized() is None
        let rows = parse_child_stdout("G500_BENCH\ta/k1\t100\t90\t110\n");
        assert_eq!(rows[0].1.calib_ns, 0);
        assert_eq!(rows[0].1.normalized(), None);
    }

    #[test]
    fn checked_in_baseline_parses() {
        let text = std::fs::read_to_string(results_dir().join("bench_baseline.json"))
            .expect("results/bench_baseline.json");
        let baseline = parse_bench_file(&text).expect("the baseline parses");
        assert!(!baseline.kernels.is_empty());
        assert!(baseline.thread_counts.contains(&1));
    }

    #[test]
    fn json_parser_rejects_malformed() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("{}x").is_err());
        assert!(json::parse("[1, ]").is_err());
        assert!(parse_bench_file("{\"kernels\": []}").is_err()); // no thread_counts
    }

    #[test]
    fn json_parser_accepts_the_grammar_we_emit() {
        let v = json::parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&json::Value::Bool(true)));
    }
}
