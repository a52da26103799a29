//! Δ selection: the bucket width priced against the machine.
//!
//! Δ trades supersteps for work. Too narrow, and delta-stepping drifts
//! towards Dijkstra: many buckets, each an agreement allreduce at its
//! boundary and at least three exchanges — a light step's, the closing
//! step's that finds its frontier empty (the light steps' agreements ride on
//! their exchanges), the heavy pass's — whatever they carry. Too wide, and
//! it drifts towards
//! Bellman-Ford: a vertex that improves after its bucket first settled it
//! relaxes its light arcs again. Meyer & Sanders put the balance at
//! Δ = Θ(1/d̄); where inside that Θ it lies depends on what a superstep costs
//! against an arc, which is the machine's business, not the graph's.
//!
//! [`machine_delta`] prices a root on a doubling ladder
//! `Δ_k = suggest_delta · 2^k`, `k ≥ 0`, and takes the cheapest rung:
//!
//! ```text
//! T(Δ) = B(Δ)·F + (W(Δ)/P + R(Δ))·c
//! B(Δ) = 1 + L/Δ               buckets
//! L    = 3·ln n / (d̄·f(0))     the distances the buckets must cover
//! R(Δ) = n·(1 − e^(−q·d̄/κ))    vertices settled again, q = min(1, Δ·f(0))
//! W(Δ) = q·d̄·R(Δ)              their light arcs, relaxed again
//! F    = the boundary's agreement allreduce + 3 empty exchanges on their
//!        priced route: a light step, the closing step, the heavy pass
//! c    = PUSH_OPS_PER_ARC / ops_per_sec
//! ```
//!
//! `f(0) = 1/(2w̄)` is the density near zero of a uniform weight law with the
//! graph's mean weight `w̄`, so `q` is the share of arcs lighter than Δ.
//! `L` is the weighted diameter of a random graph with that density (Janson:
//! `3·ln n/(d̄·f(0))`). A vertex with `q·d̄` light in-arcs improves after its
//! bucket first settled it with probability `1 − e^(−q·d̄/κ)`, `κ` fitted
//! ([`REWORK_IN_ARCS`]); its owner then relaxes its light arcs again — work
//! shared out over P — and a pull hands its new distance to every rank,
//! which is why `R` is not divided by P: the price of a wider bucket grows
//! with the graph, not with the share of it a rank holds. The weights enter
//! only through `w̄`, which scales the whole ladder: `L/Δ_k` and `q_k` do
//! not depend on it, so the rung is a function of `n`, `d̄`, P and the
//! machine.
//!
//! The inputs are the totals assembly allreduced with the graph, `P` and the
//! machine's cost constants, each priced from rank 0 — so every rank takes
//! the same rung, bit for bit, and the lane count is not an input. The
//! ladder keeps Δ on dyadic multiples of the degree rule: a width between
//! two rungs can cost more than either (at scale 17 on 8 ranks, Δ = 0.1 runs
//! 12% slower than 0.125). On Graph500 inputs and 4 to 64 default ranks the
//! price picks 0.5 at `2^10` vertices a rank, 0.25 at `2^12`–`2^13` and
//! 0.125 at `2^14`–`2^15`, the widths the F3 sweeps measure best there
//! (EXPERIMENTS.md F3). On a crossbar at 4, 8 and 16 ranks an empty
//! exchange costs what an allreduce does (4, 6 and 8 µs), so pricing a
//! bucket as one allreduce and three exchanges moved no rung from where two
//! supersteps of an exchange and an allreduce each put it.

use crate::dist::PUSH_OPS_PER_ARC;
use g500_graph::Weight;
use simnet::RankCtx;

/// The weighted diameter of a random graph, in units of `ln n/(d̄·f(0))`.
const DIAMETER: f64 = 3.0;

/// `κ`: light in-arcs a vertex needs, on average, for one of them to improve
/// it after its bucket first settled it. Fitted to the Δ sweeps of F3 and
/// T2 (2^9 to 2^15 vertices a rank on 2 to 128 ranks, EXPERIMENTS.md F3).
const REWORK_IN_ARCS: f64 = 40.0;

/// The narrowest bucket width the degree rule picks, and the narrowest the
/// CLI accepts: bucket queues are dense over bucket indices, so a width far
/// under the weights' scale asks for more buckets than memory holds.
pub const MIN_DELTA: Weight = 1e-3;

/// The degree rule, the ladder's first rung: bucket width for a graph with
/// average out-degree `avg_degree` and mean edge weight `mean_weight`.
///
/// Picks Δ so a vertex expects ≈4 light out-edges per bucket:
/// `Δ = 4 · (2·mean_weight) / d̄`, clamped to a sane range. For Graph500
/// (d̄ = 32 arcs, mean weight ½) this lands at Δ = 0.125.
pub fn suggest_delta(avg_degree: f64, mean_weight: f64) -> Weight {
    if avg_degree <= 0.0 {
        return 1.0;
    }
    let delta = 4.0 * (2.0 * mean_weight) / avg_degree;
    delta.clamp(f64::from(MIN_DELTA), 4.0) as Weight
}

/// The Δ the distributed kernel runs with when `OptConfig::delta` is
/// `None`: the cheapest rung of the ladder (module docs) for a graph of `n`
/// vertices and `arcs` arcs weighing `weight` in total, on the machine
/// `ctx` belongs to. A pure function of its arguments and the machine's
/// constants: every rank of a machine gets the same bits.
pub fn machine_delta(ctx: &RankCtx, n: u64, arcs: u64, weight: f64) -> Weight {
    let route = ctx.alltoallv_route(0.0);
    let bucket_s = ctx.allreduce_seconds(0.0) + 3.0 * ctx.alltoallv_seconds(route, 0.0);
    let arc_s = PUSH_OPS_PER_ARC / ctx.compute_model().ops_per_sec;
    cheapest_rung((n, arcs, weight), ctx.size(), bucket_s, arc_s)
}

/// The ladder walk behind [`machine_delta`] for a graph of `(n, arcs,
/// weight)` on `ranks` ranks, given what one bucket's collectives cost and
/// what one arc costs a rank.
fn cheapest_rung(
    (n, arcs, weight): (u64, u64, f64),
    ranks: usize,
    bucket_s: f64,
    arc_s: f64,
) -> Weight {
    let mean_weight = if arcs == 0 { 0.5 } else { weight / arcs as f64 };
    let first = suggest_delta(arcs as f64 / n.max(1) as f64, mean_weight);
    if arcs == 0 || mean_weight <= 0.0 {
        return first;
    }
    let (degree, density) = (arcs as f64 / n as f64, 1.0 / (2.0 * mean_weight));
    let reach = DIAMETER * (n as f64).ln() / (degree * density);
    let light = |delta: Weight| (f64::from(delta) * density).min(1.0);
    let price = |delta: Weight| {
        let q = light(delta);
        let buckets = 1.0 + reach / f64::from(delta);
        let resettled = n as f64 * (1.0 - (-q * degree / REWORK_IN_ARCS).exp());
        let rework = resettled * (q * degree / ranks as f64 + 1.0);
        buckets * bucket_s + rework * arc_s
    };
    // Up to the first rung on which every arc is light; a tie goes to the
    // narrower width.
    let (mut best, mut best_s) = (first, price(first));
    let mut delta = first;
    while light(delta) < 1.0 && (2.0 * delta).is_finite() {
        delta *= 2.0;
        let s = price(delta);
        if s < best_s {
            (best, best_s) = (delta, s);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{TaggedUpdate, Update};
    use crate::dist::run_kernel;
    use crate::multi::BatchSpec;
    use crate::OptConfig;
    use g500_gen::{KroneckerGenerator, KroneckerParams};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{LogGP, Machine, MachineConfig};

    #[test]
    fn graph500_profile_lands_near_eighth() {
        let d = suggest_delta(32.0, 0.5);
        assert!((d - 0.125).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn sparser_graphs_get_wider_buckets() {
        assert!(suggest_delta(4.0, 0.5) > suggest_delta(64.0, 0.5));
    }

    #[test]
    fn degenerate_inputs_clamped() {
        assert_eq!(suggest_delta(0.0, 0.5), 1.0);
        assert!(suggest_delta(1e9, 0.5) >= 1e-3);
        assert!(suggest_delta(0.001, 10.0) <= 4.0);
    }

    /// Graph500 totals at `scale`: `2^scale` vertices, 32 arcs each, weights
    /// uniform on `[0, 1)`.
    fn graph500(scale: u32) -> (u64, u64, f64) {
        let n = 1u64 << scale;
        (n, 32 * n, 16.0 * n as f64)
    }

    /// The Δ `machine` chooses for `totals`, asserted the same on every rank.
    fn chosen(machine: MachineConfig, (n, arcs, weight): (u64, u64, f64)) -> Weight {
        let rep = Machine::new(machine).run(|ctx| machine_delta(ctx, n, arcs, weight).to_bits());
        assert!(
            rep.results.iter().all(|&b| b == rep.results[0]),
            "ranks disagree"
        );
        Weight::from_bits(rep.results[0])
    }

    /// `chosen` over `points`, asserted never narrower than the point before;
    /// the last width.
    fn never_narrows(what: &str, points: impl IntoIterator<Item = Weight>) -> Weight {
        points.into_iter().fold(0.0, |last, delta| {
            assert!(delta >= last, "{what}: {delta} after {last}");
            delta
        })
    }

    #[test]
    fn graph500_ladder_lands_where_the_sweeps_do() {
        // (scale, ranks, rungs above the degree rule): the widths the F3
        // and T2 sweeps measure best at 2^10, 2^12 - 2^13 and 2^14 - 2^15 a
        // rank
        let first = suggest_delta(32.0, 0.5);
        let points = [
            (14, 16, 2),
            (15, 32, 2),
            (16, 64, 2),
            (14, 4, 1),
            (15, 8, 1),
            (16, 8, 1),
            (17, 8, 0),
            (18, 8, 0),
            (19, 32, 0),
            (20, 64, 0),
        ];
        for (scale, p, k) in points {
            let delta = chosen(MachineConfig::with_ranks(p), graph500(scale));
            assert_eq!(
                delta,
                first * (1 << k) as Weight,
                "scale {scale}, {p} ranks"
            );
        }
    }

    #[test]
    fn delta_never_narrows_as_supersteps_get_dearer_or_ranks_lighter() {
        let net = LogGP::default();
        let on = |loggp| MachineConfig::with_ranks(16).loggp(loggp);
        let steps = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0].map(|us| us * 1e-6);
        let first = suggest_delta(32.0, 0.5);
        for scale in [12, 16, 20] {
            let by_overhead =
                steps.map(|overhead| chosen(on(LogGP { overhead, ..net }), graph500(scale)));
            let by_latency =
                steps.map(|latency| chosen(on(LogGP { latency, ..net }), graph500(scale)));
            for (what, widths) in [("overhead", by_overhead), ("latency", by_latency)] {
                let widest = never_narrows(&format!("scale {scale}, {what}"), widths);
                assert!(widest > first, "scale {scale}: {what} never widened Δ");
            }
        }
        // fewer arcs a rank: a smaller graph on the same machine, or the same
        // graph on more ranks
        let smaller = (8..=20)
            .rev()
            .map(|s| chosen(MachineConfig::with_ranks(16), graph500(s)));
        assert!(never_narrows("smaller graph", smaller) > first);
        let spread =
            [2, 4, 8, 16, 32, 64].map(|p| chosen(MachineConfig::with_ranks(p), graph500(16)));
        assert!(never_narrows("more ranks", spread) > first);
    }

    #[test]
    fn free_network_and_one_rank_keep_the_degree_rule() {
        let free = LogGP {
            latency: 0.0,
            overhead: 0.0,
            per_byte: 0.0,
        };
        let first = suggest_delta(32.0, 0.5);
        for scale in [8, 12, 16] {
            for p in [4, 16, 64] {
                let delta = chosen(MachineConfig::with_ranks(p).loggp(free), graph500(scale));
                assert_eq!(delta, first, "scale {scale}, {p} free ranks");
            }
            assert_eq!(chosen(MachineConfig::with_ranks(1), graph500(scale)), first);
        }
        // no arcs, or none with weight: the degree rule's own answer
        assert_eq!(
            cheapest_rung((100, 0, 0.0), 4, 1e-5, 1e-9),
            suggest_delta(0.0, 0.5)
        );
        assert_eq!(cheapest_rung((100, 800, 0.0), 4, 1e-5, 1e-9), 1e-3);
    }

    #[test]
    fn one_lane_and_sixteen_run_at_the_same_delta() {
        // A lane must stay its solo run, so no lane count may reach Δ: the
        // solo kernel, a 16-lane batch and the public price agree on every
        // rank, on a graph where the price climbs the ladder.
        let el = KroneckerGenerator::new(KroneckerParams::graph500(10, 3)).generate_all();
        let rep = Machine::new(MachineConfig::with_ranks(16)).run(|ctx| {
            let (m, p) = (el.len(), ctx.size());
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(1024, p));
            let opts = OptConfig::all_on();
            let one = [BatchSpec::full(5)];
            let solo = run_kernel::<_, Update>(ctx, &g, &one, &opts, true, true).unwrap();
            let specs: Vec<_> = (0..16).map(|s| BatchSpec::full(s * 61)).collect();
            let batch = run_kernel::<_, TaggedUpdate>(ctx, &g, &specs, &opts, false, true).unwrap();
            let (n, arcs, weight) = (g.global_vertices(), g.global_arcs(), g.global_weight());
            let priced = machine_delta(ctx, n, arcs, weight);
            let first = suggest_delta(arcs as f64 / n as f64, weight / arcs as f64);
            [solo.delta(), batch.delta(), priced, first].map(Weight::to_bits)
        });
        let [solo, batch, priced, first] = rep.results[0];
        assert!(
            rep.results.iter().all(|r| *r == rep.results[0]),
            "ranks disagree"
        );
        assert_eq!((solo, batch), (priced, priced));
        assert!(
            Weight::from_bits(priced) > Weight::from_bits(first),
            "no rung climbed"
        );
    }
}
