//! # g500-bench — experiment harnesses
//!
//! One binary per reconstructed table/figure of the paper's evaluation
//! (see DESIGN.md's experiment index): `cargo run --release -p g500-bench
//! --bin t2_headline` etc. Each binary prints the table's rows on stdout.
//! The host-time micro-kernel registry is [`micro`], run by `perf_gate`.
//!
//! This library holds the shared plumbing: simple environment-variable
//! parameter overrides (`G500_SCALE=18 cargo run …`) and aligned table
//! printing.
#![warn(missing_docs)]

pub mod micro;

use std::fmt::Display;

/// What is wrong with `raw` as the value of the integer variable `name`,
/// as the words that follow "is not"; `Ok` with the value otherwise. The
/// range is the one the name promises: a `…SCALE…` is a generator scale, a
/// count of ranks, roots, queries or pool entries is at least one, a
/// `…BUDGET` fits the fault plans' `u32`, and anything else (seeds, cache
/// sizes) is any `u64`.
fn check_param(name: &str, raw: &str) -> Result<u64, String> {
    let v: u64 = raw
        .trim()
        .parse()
        .map_err(|_| "an unsigned integer".to_string())?;
    let scales = g500_gen::KroneckerParams::SCALES;
    let counted = ["RANKS", "ROOTS", "QUERIES", "POOL"];
    if name.contains("SCALE") && !u32::try_from(v).is_ok_and(|s| scales.contains(&s)) {
        Err(format!("{} to {}", scales.start(), scales.end()))
    } else if v == 0 && counted.iter().any(|c| name.ends_with(c)) {
        Err("at least 1".to_string())
    } else if name.ends_with("BUDGET") && u32::try_from(v).is_err() {
        Err(format!("0 to {}", u32::MAX))
    } else {
        Ok(v)
    }
}

/// The same for a float variable: a `…_RATE` is a probability in `[0, 1]`,
/// anything else a factor, finite and not negative.
fn check_param_f64(name: &str, raw: &str) -> Result<f64, String> {
    let v: f64 = raw.trim().parse().map_err(|_| "a number".to_string())?;
    if name.ends_with("_RATE") && !(0.0..=1.0).contains(&v) {
        Err("a probability in [0, 1]".to_string())
    } else if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err("finite and at least 0".to_string())
    }
}

/// `name` from the environment through `check`, `default` when unset. A
/// value no run can use ends the harness here — one line naming it, exit 2,
/// before anything runs — not with a silent default or a panic from inside
/// a rank thread.
fn checked<T>(name: &str, default: T, check: impl Fn(&str) -> Result<T, String>) -> T {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    check(&raw).unwrap_or_else(|takes| {
        let exe = std::env::args().next().unwrap_or_default();
        let harness = std::path::Path::new(&exe)
            .file_stem()
            .map_or("g500-bench".into(), |s| s.to_string_lossy().into_owned());
        eprintln!("{harness}: {name}={raw} is not {takes}");
        std::process::exit(2)
    })
}

/// Read an integer parameter from the environment with a default, e.g.
/// `param("G500_SCALE", 16)`; exits 2 on a value that does not parse or is
/// outside the range its name promises.
pub fn param(name: &str, default: u64) -> u64 {
    checked(name, default, |raw| check_param(name, raw))
}

/// Read a float parameter from the environment with a default; exits 2 on
/// a value that does not parse or is outside the range its name promises.
pub fn param_f64(name: &str, default: f64) -> f64 {
    checked(name, default, |raw| check_param_f64(name, raw))
}

/// Build a [`simnet::FaultPlan`] from the `G500_*` fault environment
/// variables (`G500_FAULT_SEED`, `G500_DROP_RATE`, `G500_DUP_RATE`,
/// `G500_CORRUPT_RATE`, `G500_REORDER_RATE`, `G500_RETRY_BUDGET`), all
/// zero/off by default — so every harness can run its sweep over a lossy
/// network without code changes. A rate outside `[0, 1]` or a budget past
/// `u32::MAX` exits 2 naming its variable.
pub fn fault_plan_from_env() -> simnet::FaultPlan {
    let budget = param("G500_RETRY_BUDGET", 16);
    simnet::FaultPlan::none()
        .with_seed(param("G500_FAULT_SEED", 0))
        .with_drop(param_f64("G500_DROP_RATE", 0.0))
        .with_duplicate(param_f64("G500_DUP_RATE", 0.0))
        .with_corrupt(param_f64("G500_CORRUPT_RATE", 0.0))
        .with_reorder(param_f64("G500_REORDER_RATE", 0.0))
        .with_retry_budget(u32::try_from(budget).expect("checked by its name"))
}

/// Extra banner parameters describing the fault environment; empty when
/// the plan is inactive, so fault-free harness output is unchanged.
pub fn fault_banner_params(plan: &simnet::FaultPlan) -> Vec<(&'static str, String)> {
    if !plan.is_active() {
        return Vec::new();
    }
    vec![
        ("fault_seed", plan.seed.to_string()),
        (
            "fault rates (drop/dup/corrupt/reorder)",
            format!(
                "{}/{}/{}/{}",
                plan.drop, plan.duplicate, plan.corrupt, plan.reorder
            ),
        ),
        ("retry_budget", plan.retry_budget.to_string()),
    ]
}

/// Where the root runs of a traced benchmark spent their virtual time,
/// summed over ranks and roots: what `g500 sssp --trace` prints, cut down to
/// the `root-run` spans so that assembly and validation traffic stay out.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Inclusive `root-run` seconds.
    pub root_s: f64,
    /// The supersteps' compute, communication and idle remainder
    /// ([`simnet::TraceSummary::supersteps`], summed).
    pub compute_s: f64,
    /// See `compute_s`.
    pub comm_s: f64,
    /// See `compute_s`.
    pub wait_s: f64,
    /// Inclusive seconds of each collective kind inside the root runs.
    pub alltoallv_s: f64,
    /// See `alltoallv_s`.
    pub allreduce_s: f64,
    /// See `alltoallv_s`.
    pub allgatherv_s: f64,
}

impl Attribution {
    /// Attribute the root runs of `trace`.
    pub fn of(trace: &simnet::Trace) -> Attribution {
        use simnet::{TraceCode, TraceKind};
        let mut out = Attribution::default();
        for row in trace.summary().supersteps {
            out.compute_s += row.compute_s;
            out.comm_s += row.comm_s;
            out.wait_s += row.wait_s;
        }
        // per rank: when the open root run began, and each collective in it
        let mut open = vec![[None::<f64>; 4]; trace.ranks as usize];
        for (rank, ev) in &trace.events {
            let (slot, total) = match ev.code {
                TraceCode::RootRun => (0, &mut out.root_s),
                TraceCode::Alltoallv => (1, &mut out.alltoallv_s),
                TraceCode::Allreduce => (2, &mut out.allreduce_s),
                TraceCode::Allgatherv => (3, &mut out.allgatherv_s),
                _ => continue,
            };
            let open = &mut open[*rank as usize];
            match ev.kind {
                TraceKind::Begin if slot == 0 || open[0].is_some() => open[slot] = Some(ev.t_s),
                TraceKind::End => {
                    if let Some(t0) = open[slot].take() {
                        *total += ev.t_s - t0;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// The compute / comm / wait split in percent of their sum, then the
    /// three collectives in percent of root time, in [`HEADERS`](Self::HEADERS)
    /// order.
    pub fn shares(&self) -> [f64; 6] {
        let split = (self.compute_s + self.comm_s + self.wait_s).max(f64::MIN_POSITIVE);
        let root = self.root_s.max(f64::MIN_POSITIVE);
        [
            self.compute_s / split,
            self.comm_s / split,
            self.wait_s / split,
            self.alltoallv_s / root,
            self.allreduce_s / root,
            self.allgatherv_s / root,
        ]
        .map(|share| 100.0 * share)
    }

    /// The table cells every scaling harness appends to a row: the
    /// [`shares`](Self::shares) to one decimal.
    pub fn cells(&self) -> [String; 6] {
        self.shares().map(|share| format!("{share:.1}"))
    }

    /// Column headers for [`cells`](Self::cells).
    pub const HEADERS: [&'static str; 6] = [
        "compute%",
        "comm%",
        "wait%",
        "alltoallv%",
        "allreduce%",
        "allgatherv%",
    ];
}

/// Exit 1 naming the harness's shape when the efficiency it measured at its
/// largest rank count is under the recorded `floor` (percent); say so when
/// the configuration is not one with a recorded floor.
pub fn assert_efficiency(what: &str, measured: f64, floor: Option<f64>) {
    match floor {
        Some(floor) if measured < floor => {
            eprintln!(
                "SHAPE BROKEN: {what}: efficiency {measured:.1}% is under the recorded {floor:.1}%"
            );
            std::process::exit(1)
        }
        Some(floor) => {
            println!("{what}: efficiency {measured:.1}% holds the recorded floor of {floor:.1}%")
        }
        None => println!(
            "{what}: efficiency {measured:.1}% (no floor is recorded for this configuration)"
        ),
    }
}

/// Exit 1 naming the harness's shape when the share of root time `what`
/// spends in one collective at its largest rank count is over the recorded
/// `ceiling` (percent); say nothing when no ceiling is recorded.
pub fn assert_share_ceiling(what: &str, measured: f64, ceiling: Option<f64>) {
    match ceiling {
        Some(ceiling) if measured > ceiling => {
            eprintln!("SHAPE BROKEN: {what}: {measured:.1}% is over the recorded {ceiling:.1}%");
            std::process::exit(1)
        }
        Some(ceiling) => {
            println!("{what}: {measured:.1}% holds the recorded ceiling of {ceiling:.1}%")
        }
        None => {}
    }
}

/// A fixed-width text table writer for experiment output.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table and print the header row.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(12)).collect();
        let t = Table { widths };
        t.print_row(headers);
        let rule: Vec<String> = t.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", rule.join("-+-"));
        t
    }

    fn print_row<S: Display>(&self, cells: &[S]) {
        let row: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{:>width$}", c.to_string(), width = w))
            .collect();
        println!("{}", row.join(" | "));
    }

    /// Print one data row (cells are stringified right-aligned).
    pub fn row<S: Display>(&self, cells: &[S]) {
        assert_eq!(cells.len(), self.widths.len(), "row arity mismatch");
        self.print_row(cells);
    }
}

/// Format TEPS as GTEPS with 3 significant places.
pub fn gteps(teps: f64) -> String {
    format!("{:.3}", teps / 1e9)
}

/// Format a simulated-seconds value in engineering style.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.3}us", s * 1e6)
    }
}

/// Standard experiment banner.
pub fn banner(id: &str, title: &str, params: &[(&str, String)]) {
    println!("== {id}: {title} ==");
    for (k, v) in params {
        println!("   {k} = {v}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_defaults_and_parses() {
        std::env::remove_var("G500_TEST_PARAM_X");
        assert_eq!(param("G500_TEST_PARAM_X", 7), 7);
        std::env::set_var("G500_TEST_PARAM_X", "42");
        assert_eq!(param("G500_TEST_PARAM_X", 7), 42);
        std::env::remove_var("G500_TEST_PARAM_X");
    }

    #[test]
    fn unparsable_param_is_refused() {
        assert_eq!(
            check_param("G500_RANKS", "abc"),
            Err("an unsigned integer".into())
        );
        assert_eq!(
            check_param("G500_SEED", "-1"),
            Err("an unsigned integer".into())
        );
        assert_eq!(check_param_f64("G500_X", "0.1.2"), Err("a number".into()));
    }

    #[test]
    fn out_of_range_param_is_refused() {
        assert_eq!(check_param("G500_RANKS", "0"), Err("at least 1".into()));
        assert_eq!(check_param("G500_MAX_RANKS", "0"), Err("at least 1".into()));
        assert_eq!(check_param("G500_ROOTS", "0"), Err("at least 1".into()));
        assert_eq!(check_param("G500_SCALE", "63"), Err("1 to 62".into()));
        assert_eq!(
            check_param("G500_SCALE_PER_RANK", "0"),
            Err("1 to 62".into())
        );
        let factor = |raw| check_param_f64("G500_FACTOR", raw);
        assert_eq!(factor("-0.5"), Err("finite and at least 0".into()));
        assert_eq!(factor("inf"), Err("finite and at least 0".into()));
        assert_eq!(factor("1.5"), Ok(1.5));
        // a rate is a probability, and a budget is what the plans keep
        let probability = Err("a probability in [0, 1]".into());
        for raw in ["1.5", "-0.1", "nan", "inf"] {
            assert_eq!(check_param_f64("G500_DROP_RATE", raw), probability, "{raw}");
        }
        assert_eq!(check_param_f64("G500_DROP_RATE", "1"), Ok(1.0));
        assert_eq!(
            check_param("G500_RETRY_BUDGET", "4294967296"),
            Err("0 to 4294967295".into())
        );
        assert_eq!(
            check_param("G500_RETRY_BUDGET", "4294967295"),
            Ok(4294967295)
        );
        // what a name does not bound is any value of its type
        assert_eq!(check_param("G500_FAULT_SEED", "0"), Ok(0));
        assert_eq!(check_param("G500_LRU", "0"), Ok(0));
        assert_eq!(check_param("G500_SCALE", " 62 "), Ok(62));
        assert_eq!(check_param_f64("G500_DROP_RATE", "0"), Ok(0.0));
    }

    #[test]
    fn fault_env_defaults_to_inactive() {
        for v in [
            "G500_FAULT_SEED",
            "G500_DROP_RATE",
            "G500_DUP_RATE",
            "G500_CORRUPT_RATE",
            "G500_REORDER_RATE",
            "G500_RETRY_BUDGET",
        ] {
            std::env::remove_var(v);
        }
        let plan = fault_plan_from_env();
        assert!(!plan.is_active(), "{plan:?}");
        assert!(fault_banner_params(&plan).is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(gteps(2.5e9), "2.500");
        assert_eq!(secs(1.5), "1.500s");
        assert_eq!(secs(0.0015), "1.500ms");
        assert_eq!(secs(2e-6), "2.000us");
    }
}
