//! Kernel supersteps open no pool region: a simulated rank runs its sweeps
//! inline, since the simulator's compute model already stands for the
//! paper's intra-process parallelism. Only host code (generation, the CSR
//! and degree passes of a build) may open one.
//!
//! The pool's counters are process-global, so this binary holds one test.

use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::partition::{assemble_local_graph, Block1D};
use graph500::rayon::{configure_threads, pool_stats};
use graph500::simnet::{Machine, MachineConfig};
use graph500::sssp::{
    distributed_bfs, try_batched_delta_stepping, try_distributed_delta_stepping, BatchSpec,
    Direction, Grid2DSssp, OptConfig,
};

const RANKS: usize = 4;
const DIRECTIONS: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::Hybrid];

#[test]
fn kernel_supersteps_open_no_region() {
    // two threads, so a region of three or more chunks would reach the pool
    configure_threads(2);
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(12, 3));
    let (n, m) = (gen.params().num_vertices(), gen.params().num_edges());
    let roots: Vec<u64> = (0..4).map(|i| gen.edge(i).u).collect();
    let moved = Machine::new(MachineConfig::with_ranks(RANKS)).run(|ctx| {
        let (r, p) = (ctx.rank() as u64, ctx.size() as u64);
        let mine = gen.edge_block(r * m / p..(r + 1) * m / p);
        let g = assemble_local_graph(ctx, mine.iter(), Block1D::new(n, RANKS));
        let mut grid = Grid2DSssp::build(ctx, n, mine.iter(), 0.25);
        ctx.barrier();
        let before = pool_stats();
        for direction in DIRECTIONS {
            let opts = OptConfig::default().with_direction(direction);
            try_distributed_delta_stepping(ctx, &g, roots[0], &opts).expect("fault-free");
            distributed_bfs(ctx, &g, roots[0], direction).expect("fault-free");
        }
        let specs: Vec<BatchSpec> = roots.iter().map(|&s| BatchSpec::full(s)).collect();
        try_batched_delta_stepping(ctx, &g, &specs, &OptConfig::default()).expect("fault-free");
        grid.run(ctx, roots[0]);
        ctx.barrier();
        let after = pool_stats();
        let runs = |s: graph500::rayon::PoolStats| s.local_runs + s.steals;
        runs(after) - runs(before)
    });
    // rank 0 read both snapshots with every rank's build behind it and
    // every rank's kernels before the second
    assert_eq!(moved.results[0], 0, "kernel supersteps ran pool chunks");
}
