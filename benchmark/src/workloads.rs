//! The five workloads and how `--seed` / `--seconds` turn into the configs
//! the program receives.
//!
//! One closed loop, one client: a run is one call of a `core` entry point,
//! whose roots or queries execute one after another. The amount of work is a
//! fixed function of `--seconds` (roots or queries per second, calibrated on
//! the two-core reference host so the call lasts about `--seconds`), never a
//! deadline inside the loop: fixed work is what keeps every simulated metric
//! and every exact count repeatable for a given seed.

use graph500::simnet::fault::CrashLottery;
use graph500::sssp::OptConfig;
use graph500::{BenchmarkConfig, CrashPlan, FaultPlan, PartitionStrategy, ServeBenchConfig};

/// Default workload seed (the repo's SC'22-vintage constant).
pub const DEFAULT_SEED: u64 = 20220814;

/// Worker threads of the process-global pool: fixed, so results do not
/// depend on the host's core count beyond two.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names and reasons, in running order. `BENCHMARK.json` repeats them.
pub const SPECS: &[Spec] = &[
    Spec {
        name: "kron_kernel",
        why: "Graph500 headline path (scale 17, 8 ranks, degree-aware, all opts): relax + exchange/codec dominate host time, set-up is small; a kernel optimisation must show here",
    },
    Spec {
        name: "kron_strong",
        why: "strong-scaling end (scale 14, 16 ranks, block): few relaxations per superstep, so collectives, mailboxes and per-superstep fixed costs dominate; a relax-only gain should not move it",
    },
    Spec {
        name: "kron_build",
        why: "largest graph, few roots (scale 18, 8 ranks): generator, union-find, assembly and validation take their largest share of host time here (over 40%); shows work moved into or out of set-up",
    },
    Spec {
        name: "serve_mix",
        why: "batched query path (scale 14, 4 ranks, B=16, 4 landmarks, LRU 8, 50% p2p; two graphs a run): lane-tagged codec, SoA lanes, early exit, cache; a solo-kernel gain that costs the batched one shows here",
    },
    Spec {
        name: "kron_faulty",
        why: "same kernel on a lossy, crashing machine (scale 16, 8 ranks): retransmits, checkpoints and restore-replay sit on the blocking path; a faster clean path that slows recovery shows only here",
    },
];

/// What one call of a `core` entry point receives.
pub enum Kind {
    Sssp(BenchmarkConfig),
    Serve(ServeBenchConfig),
}

impl Kind {
    /// Roots or queries the call attempts.
    pub fn ops(&self) -> usize {
        match self {
            Kind::Sssp(c) => c.num_roots,
            Kind::Serve(c) => c.num_queries,
        }
    }
}

/// Graphs one `serve_mix` run serves, each in a call of its own. What the
/// modelled machine achieves on the serving path follows the graph more
/// than the queries: over 50 seeds QPS and latency spread by 12 to 14%
/// (quartile distance over median) at 208 queries and no less at 416, at
/// scale 15, or on 8 or 16 ranks. Ten seeds then spread past the widest
/// bound the driver allows about one time in eleven; the median over two
/// graphs brings that under one in a thousand.
const SERVE_GRAPHS: u64 = 2;

pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    /// The call the set-up timer and the traced pass follow.
    pub kind: Kind,
    /// The same call on further graphs; the untraced pass makes these too.
    pub further_graphs: Vec<Kind>,
    /// Roots the traced pass also runs through the 2D kernel, which has no
    /// user entry point yet (0 = none).
    pub grid2d_roots: usize,
}

impl Workload {
    /// Roots or queries one call attempts.
    pub fn ops(&self) -> usize {
        self.kind.ops()
    }

    /// Every call of the untraced pass.
    pub fn calls(&self) -> impl Iterator<Item = &Kind> {
        std::iter::once(&self.kind).chain(&self.further_graphs)
    }

    pub fn ranks(&self) -> usize {
        match &self.kind {
            Kind::Sssp(c) => c.machine.ranks,
            Kind::Serve(c) => c.machine.ranks,
        }
    }

    pub fn scale(&self) -> u32 {
        match &self.kind {
            Kind::Sssp(c) => c.scale,
            Kind::Serve(c) => c.scale,
        }
    }
}

/// SplitMix64 finaliser over `(seed, stream)`: the one place seeds derive.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Work for `seconds` at `per_second` operations, at least `min`.
fn ops_for(seconds: f64, per_second: f64, min: usize) -> usize {
    ((seconds * per_second).round() as usize).max(min)
}

/// Probes a crash schedule is screened for. A run draws one probe per
/// superstep (plus replays): a few thousand on `kron_faulty`.
const PROBE_HORIZON: u64 = 1 << 15;

/// Does `plan` ever kill a rank and the buddy holding its checkpoint at the
/// same probe? That is the one crash schedule recovery cannot mask
/// (`FaultEscalation::CheckpointLost`); the lottery is a pure function of
/// the plan, so it can be replayed here without running anything.
fn loses_a_checkpoint(plan: &CrashPlan, ranks: usize) -> bool {
    let mut lotteries: Vec<CrashLottery> = (0..ranks)
        .map(|r| CrashLottery::for_rank(plan, r))
        .collect();
    (0..PROBE_HORIZON).any(|_| {
        let dead: Vec<bool> = lotteries.iter_mut().map(|l| l.crash_now()).collect();
        (0..ranks).any(|r| dead[r] && dead[(r + 1) % ranks])
    })
}

/// The first crash seed derived from `seed` whose schedule stays
/// recoverable: workloads are chosen so that no operation fails.
fn survivable_crash_plan(seed: u64, plan: CrashPlan, ranks: usize) -> CrashPlan {
    (0u64..)
        .map(|k| plan.with_seed(derive(seed, 3 + k)))
        .find(|p| !loses_a_checkpoint(p, ranks))
        .expect("some crash seed is survivable")
}

/// Build workload `name` from the workload seed. `quick` shrinks every graph
/// to scales 10-12 for the smoke test; it is not a measurement mode.
pub fn build(name: &str, seed: u64, seconds: f64, quick: bool) -> Option<Workload> {
    let spec = SPECS.iter().find(|s| s.name == name)?;
    let graph_seed = derive(seed, 1);
    let sssp = |scale: u32, quick_scale: u32, ranks: usize, roots: usize, quick_roots: usize| {
        let mut c = BenchmarkConfig::graph500(if quick { quick_scale } else { scale }, ranks);
        c.seed = graph_seed;
        c.num_roots = if quick { quick_roots } else { roots };
        c.opts = OptConfig::all_on();
        c.validate = true;
        c.threads = pool_threads();
        c
    };
    let mut further_graphs = Vec::new();
    // (what to run, roots the traced pass repeats through the 2D kernel)
    let (kind, grid2d_roots) = match name {
        "kron_kernel" => (Kind::Sssp(sssp(17, 12, 8, ops_for(seconds, 1.3, 4), 4)), 4),
        "kron_strong" => {
            let mut c = sssp(14, 10, 16, ops_for(seconds, 9.6, 24), 24);
            c.partition = PartitionStrategy::Block;
            (Kind::Sssp(c), 4)
        }
        "kron_build" => (Kind::Sssp(sssp(18, 12, 8, ops_for(seconds, 0.5, 2), 2)), 0),
        "serve_mix" => {
            let mut c = ServeBenchConfig::new(if quick { 10 } else { 14 }, 4);
            c.seed = graph_seed;
            // whole admission windows of 16; 208 is the fewest queries whose
            // p95 still has ten samples beyond it
            c.num_queries = if quick {
                32
            } else {
                16 * ops_for(seconds, 1.3, 2)
            };
            c.threads = pool_threads();
            further_graphs.extend((1..SERVE_GRAPHS).map(|g| {
                let mut c = c.clone();
                c.seed = derive(graph_seed, g);
                Kind::Serve(c)
            }));
            (Kind::Serve(c), 0)
        }
        "kron_faulty" => {
            let c = sssp(16, 11, 8, ops_for(seconds, 1.6, 4), 4);
            let fault = FaultPlan::none()
                .with_seed(derive(seed, 2))
                .with_drop(0.02)
                .with_duplicate(0.01)
                .with_corrupt(0.01)
                .with_reorder(0.01);
            let crash = survivable_crash_plan(
                seed,
                CrashPlan::random(0, 0.002)
                    .with_checkpoint_interval(4)
                    .with_recovery_budget(1 << 12),
                c.machine.ranks,
            );
            (Kind::Sssp(c.faults(fault).crashes(crash)), 0)
        }
        _ => unreachable!("every name in SPECS is built above"),
    };
    Some(Workload {
        name: spec.name,
        seed,
        kind,
        further_graphs,
        grid2d_roots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let cfg = |seed| match build("kron_faulty", seed, 10.0, false).unwrap().kind {
            Kind::Sssp(c) => c,
            Kind::Serve(_) => unreachable!(),
        };
        let (a, b, c) = (cfg(1), cfg(1), cfg(2));
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.machine.fault, b.machine.fault);
        assert_eq!(a.machine.crash, b.machine.crash);
        assert_ne!(a.seed, c.seed);
        assert_ne!(a.machine.fault.seed, c.machine.fault.seed);
        assert!(a.machine.crash.is_active() && a.machine.fault.is_active());
    }

    #[test]
    fn work_scales_with_seconds_and_names_are_closed() {
        let ops = |name, s| build(name, 7, s, false).unwrap().ops();
        for spec in SPECS {
            assert!(ops(spec.name, 20.0) > ops(spec.name, 10.0), "{}", spec.name);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let serve = build("serve_mix", 7, 10.0, false).unwrap();
        let seeds: Vec<u64> = serve
            .calls()
            .map(|k| match k {
                Kind::Serve(c) => c.seed,
                Kind::Sssp(_) => unreachable!(),
            })
            .collect();
        assert_eq!(seeds.len() as u64, SERVE_GRAPHS);
        assert_ne!(seeds[0], seeds[1], "each call serves a graph of its own");
        assert_eq!(ops("serve_mix", 10.0) % 16, 0, "whole windows");
        assert!(ops("serve_mix", 10.0) >= 200, "p95 needs ten beyond it");
        assert!(build("no_such_workload", 7, 10.0, false).is_none());
    }

    #[test]
    fn screened_crash_schedules_never_lose_a_checkpoint() {
        // seed 7 with rate 0.002 is known to kill ranks 5 and 6 together
        let doomed = CrashPlan::random(7, 0.002);
        assert!(loses_a_checkpoint(&doomed, 8));
        for seed in 0..6 {
            let plan = survivable_crash_plan(seed, CrashPlan::random(0, 0.002), 8);
            assert!(!loses_a_checkpoint(&plan, 8));
            assert!(plan.is_active());
        }
    }
}
