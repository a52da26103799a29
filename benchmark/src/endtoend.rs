//! The untraced pass: time the set-up path, then call the `core` entry point
//! whole (exactly what `g500 sssp` / `g500 serve` execute) with tracing off
//! and read what a user of the system sees.

use crate::metrics::Values;
use crate::mirror;
use crate::stats::{leaves_a_tail, median, rel_spread, tail};
use crate::workloads::{Kind, Workload};
use graph500::graph::VertexId;
use graph500::{
    try_run_query_serving_benchmark, try_run_sssp_benchmark, BenchmarkReport, FaultEscalation,
    ServeReport,
};
use std::time::Instant;

/// Set-ups timed per run: at least three, and more (up to fifteen) while
/// they add up to under a second, so that a 60 ms set-up is not judged on
/// three samples. `setup_s` is their median.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=15;

/// What the driver reported for one operation, for the parity check of the
/// traced pass.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    pub root: VertexId,
    pub supersteps: u64,
    pub sim_time_s: f64,
}

/// One whole call of the `core` entry point.
pub struct CoreCall {
    /// Host seconds around the call: generate + build + every operation +
    /// validation.
    pub host_total_s: f64,
    /// The report's `wall_time_s`: host seconds inside the machine.
    pub machine_s: f64,
    pub sim_throughput: f64,
    pub sim_op_ms_p50: f64,
    pub sim_op_ms_tail: f64,
    pub tail_percentile: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per root (SSSP workloads); empty when serving.
    pub ops: Vec<OpRecord>,
    /// Serving only: supersteps and queries answered, for the parity check.
    pub serve_supersteps: u64,
}

fn from_sssp(report: &BenchmarkReport, attempted: u64, host_total_s: f64) -> CoreCall {
    let ms: Vec<f64> = report.runs.iter().map(|r| r.sim_time_s * 1e3).collect();
    let t = tail(&ms);
    let passed = report
        .runs
        .iter()
        .filter(|r| r.validated == Some(true))
        .count() as u64;
    CoreCall {
        host_total_s,
        machine_s: report.wall_time_s,
        sim_throughput: report.teps.harmonic_mean,
        sim_op_ms_p50: median(&ms),
        sim_op_ms_tail: t.value,
        tail_percentile: t.percentile,
        attempted,
        failed: attempted - passed.min(attempted),
        ops: report
            .runs
            .iter()
            .map(|r| OpRecord {
                root: r.root,
                supersteps: r.stats.supersteps,
                sim_time_s: r.sim_time_s,
            })
            .collect(),
        serve_supersteps: 0,
    }
}

fn from_serve(report: &ServeReport, attempted: u64, host_total_s: f64) -> CoreCall {
    // the report carries p50/p95/p99 only: take the highest of them that
    // still has ten queries beyond it
    let (tail_percentile, sim_op_ms_tail) = [(99.0, report.p99_ms), (95.0, report.p95_ms)]
        .into_iter()
        .find(|&(q, _)| leaves_a_tail(report.queries as usize, q))
        .unwrap_or((50.0, report.p50_ms));
    let answered = report.queries.saturating_sub(report.queries_shed);
    CoreCall {
        host_total_s,
        machine_s: report.wall_time_s,
        sim_throughput: report.qps,
        sim_op_ms_p50: report.p50_ms,
        sim_op_ms_tail,
        tail_percentile,
        attempted,
        failed: attempted - answered.min(attempted),
        ops: Vec::new(),
        serve_supersteps: report.supersteps,
    }
}

/// Call a `core` entry point once, tracing off.
pub fn core_call(kind: &Kind) -> Result<CoreCall, FaultEscalation> {
    let attempted = kind.ops() as u64;
    let start = Instant::now();
    match kind {
        Kind::Sssp(cfg) => {
            let report = try_run_sssp_benchmark(&cfg.clone().traced(false))?;
            Ok(from_sssp(&report, attempted, start.elapsed().as_secs_f64()))
        }
        Kind::Serve(cfg) => {
            let report = try_run_query_serving_benchmark(&cfg.clone().traced(false))?;
            Ok(from_serve(
                &report,
                attempted,
                start.elapsed().as_secs_f64(),
            ))
        }
    }
}

/// A finished pass: its metrics and the operation count behind them.
pub struct Pass {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// The untraced pass. Set-up first (its result dropped, which also warms the
/// allocator and the page cache), then the measured call: one, but for the
/// workload that runs on several graphs, whose calls add up in host time and
/// give the median of what the modelled machine achieved.
pub fn run(w: &Workload) -> Result<Pass, FaultEscalation> {
    let mut setups = Vec::new();
    while setups.len() < *SETUP_REPEATS.start()
        || (setups.len() < *SETUP_REPEATS.end() && setups.iter().sum::<f64>() < 1.0)
    {
        setups.push(mirror::setup_seconds(w)?);
    }
    let calls = w
        .calls()
        .map(core_call)
        .collect::<Result<Vec<_>, FaultEscalation>>()?;
    let total = |of: fn(&CoreCall) -> f64| calls.iter().map(of).sum::<f64>();
    let across = |of: fn(&CoreCall) -> f64| median(&calls.iter().map(of).collect::<Vec<_>>());
    let attempted: u64 = calls.iter().map(|c| c.attempted).sum();

    let mut values = Values::default();
    values.set("setup_s", median(&setups));
    values.set("host_total_s", total(|c| c.host_total_s));
    values.set(
        "host_op_ms",
        total(|c| c.machine_s) * 1e3 / attempted as f64,
    );
    values.set("sim_throughput", across(|c| c.sim_throughput));
    values.set("sim_op_ms_p50", across(|c| c.sim_op_ms_p50));
    values.set("sim_op_ms_tail", across(|c| c.sim_op_ms_tail));
    println!(
        "  note: setup_s is the median of {} set-ups (spread {:.1}%)",
        setups.len(),
        100.0 * rel_spread(&setups)
    );
    println!(
        "  note: sim_op_ms_tail is p{:.1} of n={}{}",
        calls[0].tail_percentile,
        calls[0].attempted,
        if calls.len() > 1 {
            format!(", median over {} graphs", calls.len())
        } else {
            String::new()
        }
    );
    Ok(Pass {
        values,
        attempted,
        failed: calls.iter().map(|c| c.failed).sum(),
    })
}
