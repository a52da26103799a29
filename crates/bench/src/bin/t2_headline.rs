//! T2 — Headline result: weak-scaled SSSP TEPS, and where the root time
//! of each machine size goes.
//!
//! Holds work per rank constant (`G500_SCALE_PER_RANK`, default 2^15
//! vertices/rank) while growing the machine and reports validated harmonic-
//! mean TEPS per point. Every point is traced, so each row also carries the
//! supersteps' compute / comm / wait split and the share of root time spent
//! inside each collective kind — the attribution `g500 sssp --trace` prints,
//! cut down to the root runs. The absolute numbers are cost-model artifacts;
//! the *shape* — per-rank throughput holding up as the machine grows — is
//! the claim under test, and the harness exits 1 when the efficiency at its
//! largest rank count falls under the recorded floor, or when the share of
//! root time spent in `allgatherv` there rises over the recorded ceiling
//! ([`RECORDED`]): the frontier broadcast has a gate of its own.
//!
//! There is no projection to the paper's machine here: the old
//! `e(P) = 1 − b·log₂P` fit was floored at 5% and printed the same answer
//! whatever it was fed. A fitted replacement is ROADMAP item 8's.
//!
//! Each row also reports two host figures: its wall time, and the peak
//! resident set of the process so far (the rows grow, so it is the row's).
//!
//! Overrides: `G500_SCALE_PER_RANK`, `G500_MAX_RANKS` (default 32),
//! `G500_ROOTS` (default 8).

use g500_bench::{
    assert_efficiency, assert_share_ceiling, banner, fault_banner_params, fault_plan_from_env,
    gteps, param, secs, Attribution, Table,
};
use graph500::{run_sssp_benchmark, BenchmarkConfig};

/// Recorded gates, percent: `(vertices/rank as a scale, largest rank count,
/// roots, efficiency floor, allgatherv ceiling)`. Each floor sits just under
/// and each ceiling just over what `results/t2_headline.txt` (2^14/rank, 2
/// roots: efficiency 15.0 / 10.7 / 6.9 / 6.0 % and allgatherv 7.8 / 7.0 / 2.9 /
/// 1.0 % on 16 / 32 / 64 / 128 ranks) and CI's small run (2^10/rank: 2.3 %
/// and 20.9 %; the machine-priced Δ is 0.5 there, so frontiers are large and
/// many supersteps pull) record, so a change that gives the one-round
/// broadcast's or the priced Δ's gain back fails the harness. A root-run
/// span holds the kernel alone, so the ceiling gates the kernel's own
/// gathers, not the gather of its result into rank 0.
const RECORDED: [(u32, usize, usize, f64, f64); 5] = [
    (14, 16, 2, 14.7, 8.3),
    (14, 32, 2, 10.4, 7.5),
    (14, 64, 2, 6.7, 3.4),
    (14, 128, 2, 5.8, 1.5),
    (10, 16, 2, 2.2, 21.4),
];

fn main() {
    let scale_per_rank = param("G500_SCALE_PER_RANK", 15) as u32;
    let max_ranks = param("G500_MAX_RANKS", 32) as usize;
    let roots = param("G500_ROOTS", 8) as usize;
    let fault = fault_plan_from_env();
    let mut params = vec![
        ("vertices/rank", format!("2^{scale_per_rank}")),
        ("ranks", format!("1..={max_ranks}")),
        ("roots", roots.to_string()),
    ];
    params.extend(fault_banner_params(&fault));
    banner("T2", "headline weak scaling", &params);

    let mut headers = vec![
        "ranks",
        "scale",
        "edges",
        "hmean_GTEPS",
        "GTEPS/rank",
        "efficiency%",
        "median_t",
        "validated",
        "wall_s",
        "peak_MiB",
    ];
    headers.extend(Attribution::HEADERS);
    let t = Table::new(&headers);
    let (mut largest, mut efficiency, mut gathered) = (1usize, 100.0f64, 0.0f64);
    let mut ranks = 1usize;
    let mut base_per_rank = 0.0f64;
    let mut retransmits = 0u64;
    while ranks <= max_ranks {
        let scale = scale_per_rank + ranks.trailing_zeros();
        let mut cfg = BenchmarkConfig::graph500(scale, ranks)
            .faults(fault)
            .traced(true);
        cfg.num_roots = roots;
        let wall = std::time::Instant::now();
        let rep = run_sssp_benchmark(&cfg);
        retransmits += rep.net.retransmits;
        let g = rep.teps.harmonic_mean;
        let per_rank = g / ranks as f64;
        if ranks == 1 {
            base_per_rank = per_rank;
        }
        (largest, efficiency) = (ranks, 100.0 * per_rank / base_per_rank);
        let mut row = vec![
            ranks.to_string(),
            scale.to_string(),
            rep.m.to_string(),
            gteps(g),
            gteps(per_rank),
            format!("{efficiency:.1}"),
            secs(rep.teps.median.recip() * rep.runs[0].traversed_edges as f64),
            rep.all_validated().to_string(),
            format!("{:.1}", wall.elapsed().as_secs_f64()),
            format!("{:.0}", peak_rss_mib()),
        ];
        let attribution = Attribution::of(rep.trace.as_ref().expect("the run was traced"));
        gathered = attribution.shares()[5];
        row.extend(attribution.cells());
        t.row(&row);
        ranks *= 2;
    }
    if fault.is_active() {
        println!("\nlossy network: {retransmits} retransmissions masked by the reliable transport (all points still validated)");
    }
    println!(
        "\ncompute/comm/wait: the supersteps' split, summed over ranks; alltoallv/allreduce/allgatherv: \
         inclusive share of summed root-run time (the agreement allreduces sit between supersteps)"
    );
    println!("expected shape: per-rank GTEPS near-flat as the machine grows");
    let recorded = RECORDED
        .iter()
        .find(|&&(spr, p, r, ..)| (spr, p, r) == (scale_per_rank, largest, roots));
    let what = format!("T2 at 2^{scale_per_rank}/rank, {largest} ranks, {roots} roots");
    assert_efficiency(&what, efficiency, recorded.map(|r| r.3));
    let what = format!("{what}: allgatherv share of root time");
    assert_share_ceiling(&what, gathered, recorded.map(|r| r.4));
}

/// This process's peak resident set so far, in MiB (`VmHWM`); 0 off Linux.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix(" kB"));
    kb.and_then(|kb| kb.parse::<f64>().ok()).unwrap_or(0.0) / 1024.0
}
