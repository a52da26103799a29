//! The 1D kernel's packed light rows: built per Δ and kept on the graph, so
//! a later root (or batch) on the same graph reuses them and a run at
//! another Δ rebuilds them. Neither may show in a result: a pull or hybrid
//! run at either Δ extreme — every arc light, or almost none — gives
//! Dijkstra's distances, and a root on a reused graph gives the bits and
//! counters of the same root on a freshly assembled one, at any
//! `G500_THREADS`. The pool is process-global and fixed at first use, so the
//! thread counts are compared by re-running this binary under each.

use graph500::baselines::dijkstra;
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{Csr, Directedness, EdgeList, VertexId, INF_WEIGHT};
use graph500::partition::{assemble_local_graph, Block1D, LocalGraph};
use graph500::simnet::{Machine, MachineConfig, RankCtx};
use graph500::sssp::{
    try_batched_delta_stepping, try_distributed_delta_stepping, BatchSpec, Direction, OptConfig,
    SsspRunStats, MIN_DELTA,
};
use std::process::Command;

const CHILD_ENV: &str = "G500_LIGHT_ROWS_CHILD";
const RANKS: usize = 4;

/// Δ over every weight (generated weights lie in `[0, 1)`), and the floor.
const DELTAS: [f32; 2] = [2.0, MIN_DELTA];

fn kron(scale: u32) -> (u64, EdgeList) {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, 5));
    (gen.params().num_vertices(), gen.generate_all())
}

fn assemble(ctx: &mut RankCtx, n: u64, el: &EdgeList) -> LocalGraph<Block1D> {
    let (p, m) = (ctx.size(), el.len());
    let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
    assemble_local_graph(ctx, el.copy_range(lo..hi).iter(), Block1D::new(n, p))
}

/// The counters of a run; the virtual times are left out, since they are
/// read off a clock that an earlier run on the same machine moved.
fn counters(s: &SsspRunStats) -> [u64; 9] {
    [
        s.supersteps,
        s.buckets,
        s.relaxations,
        s.updates_sent,
        s.updates_offered,
        s.push_iterations,
        s.pull_iterations,
        s.heavy_pulls,
        u64::from(s.tail_fused),
    ]
}

/// One rank's gathered answer to one source: distance bits, parents, and
/// this rank's counters.
type Answer = (Vec<u32>, Vec<u64>, [u64; 9]);

fn solo(ctx: &mut RankCtx, g: &LocalGraph<Block1D>, root: VertexId, opts: &OptConfig) -> Answer {
    let (sp, stats) = try_distributed_delta_stepping(ctx, g, root, opts).expect("fault-free");
    let all = sp.gather(ctx, g.part());
    let bits = all.dist.iter().map(|d| d.to_bits()).collect();
    (bits, all.parent, counters(&stats))
}

fn batch(
    ctx: &mut RankCtx,
    g: &LocalGraph<Block1D>,
    roots: &[VertexId],
    opts: &OptConfig,
) -> Vec<Answer> {
    let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
    let (lanes, stats) = try_batched_delta_stepping(ctx, g, &specs, opts).expect("fault-free");
    lanes
        .into_iter()
        .map(|lane| {
            let all = lane.paths.gather(ctx, g.part());
            let bits = all.dist.iter().map(|d| d.to_bits()).collect();
            (bits, all.parent, counters(&stats))
        })
        .collect()
}

/// Vertices with an edge, spread over the id space: the sources.
fn sources(el: &EdgeList, count: usize) -> Vec<VertexId> {
    let mut seen: Vec<VertexId> = el.iter().map(|e| e.u).filter(|&u| u % 7 == 3).collect();
    seen.sort_unstable();
    seen.dedup();
    let step = seen.len() / count;
    (0..count).map(|i| seen[i * step]).collect()
}

/// Every configuration's answers, checked against Dijkstra and against a
/// freshly assembled graph, rendered as one line a configuration.
fn report() -> String {
    let mut lines = Vec::new();
    for scale in [10, 11] {
        let (n, el) = kron(scale);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let roots = sources(&el, 9);
        for direction in [Direction::Pull, Direction::Hybrid] {
            for delta in DELTAS {
                let opts = OptConfig::default()
                    .with_direction(direction)
                    .with_delta(delta);
                let cfg = format!("scale {scale}, {direction:?}, delta {delta}");
                let rep = Machine::new(MachineConfig::with_ranks(RANKS)).run(|ctx| {
                    // solo: a first root builds the rows, the second reuses
                    // them; then the second alone on a fresh graph
                    let g = assemble(ctx, n, &el);
                    solo(ctx, &g, roots[0], &opts);
                    let reused = solo(ctx, &g, roots[1], &opts);
                    let fresh_g = assemble(ctx, n, &el);
                    let fresh = solo(ctx, &fresh_g, roots[1], &opts);
                    // the same for two four-lane batches
                    batch(ctx, &g, &roots[2..6], &opts);
                    let lanes = batch(ctx, &g, &roots[5..9], &opts);
                    let fresh_g = assemble(ctx, n, &el);
                    let fresh_lanes = batch(ctx, &fresh_g, &roots[5..9], &opts);
                    (reused, fresh, lanes, fresh_lanes)
                });
                let mut digest = format!("{cfg}:");
                for (rank, (reused, fresh, lanes, fresh_lanes)) in
                    rep.results.into_iter().enumerate()
                {
                    assert_eq!(
                        reused, fresh,
                        "{cfg}: rank {rank}, solo, reused vs fresh graph"
                    );
                    assert_eq!(
                        lanes, fresh_lanes,
                        "{cfg}: rank {rank}, batch, reused vs fresh"
                    );
                    if rank == 0 {
                        let solo = (roots[1], &reused);
                        let lanes = roots[5..9].iter().copied().zip(&lanes);
                        for (root, (bits, parent, _)) in std::iter::once(solo).chain(lanes) {
                            let want = dijkstra(&csr, root);
                            let got: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
                            assert_eq!(got, want.dist, "{cfg}: root {root} against Dijkstra");
                            let reached = want.dist.iter().filter(|&&d| d < INF_WEIGHT).count();
                            let hashed = parent.iter().fold(0u64, |h, &p| {
                                h.rotate_left(5) ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            });
                            digest += &format!(" {root}:{reached}:{hashed:016x}");
                        }
                    }
                    digest += &format!(" r{rank}{:?}", reused.2);
                    for lane in &lanes {
                        digest += &format!("{:?}", lane.2);
                    }
                }
                lines.push(digest);
            }
        }
    }
    lines.join("\n")
}

fn run_child(threads: usize) -> String {
    let exe = std::env::current_exe().expect("test exe path");
    let out = Command::new(exe)
        .args(["--exact", "child_emit_report", "--nocapture"])
        .env(CHILD_ENV, "1")
        .env("G500_THREADS", threads.to_string())
        .output()
        .expect("spawn child test process");
    assert!(
        out.status.success(),
        "child failed under {threads} threads: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let start = stdout.find("REPORT\n").expect("a REPORT block") + "REPORT\n".len();
    let end = stdout[start..].find("\nEND").expect("an END line") + start;
    stdout[start..end].to_string()
}

/// Child half: prints the report when re-run with the env flag; a no-op
/// under the normal test run.
#[test]
fn child_emit_report() {
    if std::env::var(CHILD_ENV).is_ok() {
        println!("REPORT\n{}\nEND", report());
    }
}

#[test]
fn pull_and_hybrid_at_both_delta_extremes_are_exact_and_thread_count_free() {
    let one = run_child(1);
    let two = run_child(2);
    assert_eq!(one.lines().count(), 8, "{one}");
    assert_eq!(one, two, "results differ between G500_THREADS=1 and =2");
}

/// Two fixed Δ in turn on one graph, and back: each run gives what a fresh
/// graph gives at its Δ, so a new Δ rebuilds the rows it reads.
#[test]
fn a_new_delta_rebuilds_the_light_rows() {
    let (n, el) = kron(10);
    let roots = sources(&el, 1);
    let at = |d: f32| {
        OptConfig::default()
            .with_direction(Direction::Hybrid)
            .with_delta(d)
    };
    let (wide, narrow) = (at(0.5), at(0.03));
    let rep = Machine::new(MachineConfig::with_ranks(RANKS)).run(|ctx| {
        let g = assemble(ctx, n, &el);
        let in_turn: Vec<Answer> = [&wide, &narrow, &wide]
            .into_iter()
            .map(|opts| solo(ctx, &g, roots[0], opts))
            .collect();
        let fresh: Vec<Answer> = [&wide, &narrow]
            .into_iter()
            .map(|opts| {
                let g = assemble(ctx, n, &el);
                solo(ctx, &g, roots[0], opts)
            })
            .collect();
        (in_turn, fresh)
    });
    for (rank, (in_turn, fresh)) in rep.results.into_iter().enumerate() {
        assert_ne!(fresh[0].2, fresh[1].2, "the two Δ must differ in work");
        assert_eq!(in_turn[0], fresh[0], "rank {rank}: first Δ");
        assert_eq!(
            in_turn[1], fresh[1],
            "rank {rank}: second Δ on the same graph"
        );
        assert_eq!(in_turn[2], fresh[0], "rank {rank}: first Δ again");
    }
}
