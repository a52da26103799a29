//! The benchmark driver: kernel 0 (construction) + 64-root kernel loop +
//! validation + TEPS reporting, over the simulated machine.
//!
//! Division of labour: everything *timed* happens inside the SPMD closure
//! on simulated ranks (edge-slice generation, the hub-detection scan's
//! charge, assembly, the kernel runs); everything *untimed* happens on the
//! host (root sampling, validation, statistics) exactly as the official
//! harness keeps validation off the clock.
//!
//! The SSSP and BFS benchmarks here and the serving benchmark
//! ([`crate::serving`]) are entry points over one private `Harness`,
//! which owns what they share — Kronecker parameters, the host edge list,
//! each rank's build, the per-root loop, scoring and TEPS; an entry point
//! is its kernel call, its validator and its report type.

use g500_gen::{CounterRng, KroneckerGenerator, KroneckerParams};
use g500_graph::{EdgeList, ShortestPaths, VertexId, NO_PARENT};
use g500_partition::{
    assemble_local_graph, Block1D, Cyclic1D, HybridPartition, LocalGraph, SparseHubRelabel,
    VertexPartition,
};
use g500_sssp::{distributed_bfs, try_distributed_delta_stepping, OptConfig, SsspRunStats};
use g500_validate::{
    count_traversed_edges, levels_as_dist, validate_bfs, validate_sssp, SsspResult, TepsSummary,
};
use simnet::{
    json, CrashPlan, FaultEscalation, FaultPlan, Machine, MachineConfig, NetStats, RankCtx,
    SimReport, Trace, TraceCode, TraceSummary,
};

/// How vertices are placed on ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartitionStrategy {
    /// Contiguous blocks of the (scrambled) id space.
    Block,
    /// Cyclic striping.
    Cyclic,
    /// Sampled hub detection + hub striping + block tail — the paper-style
    /// degree-aware placement. `hub_factor` is the sampled-degree multiple
    /// of the mean above which a vertex counts as a hub.
    DegreeAware {
        /// Hub threshold as a multiple of the mean sampled degree.
        hub_factor: f64,
    },
}

/// Everything a benchmark run needs.
#[derive(Clone, Debug)]
pub struct BenchmarkConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex (Graph500: 16).
    pub edgefactor: u64,
    /// Generator seed.
    pub seed: u64,
    /// The simulated machine (rank count, topology, LogGP constants).
    pub machine: MachineConfig,
    /// Number of search keys (Graph500: 64).
    pub num_roots: usize,
    /// Kernel optimization configuration.
    pub opts: OptConfig,
    /// Vertex placement.
    pub partition: PartitionStrategy,
    /// Validate every root against the input edge list (host-side,
    /// untimed). Disable only for large scaling sweeps.
    pub validate: bool,
    /// Keep each root's gathered distance/parent vectors in the report
    /// (`RootRun::paths`). Off by default — O(n) memory per root — but the
    /// replay tests use it to compare runs vector-for-vector.
    pub keep_paths: bool,
    /// Worker threads for the process-global pool (`--threads`). 0 means
    /// inherit `G500_THREADS` / the hardware default. Best-effort: the pool
    /// is shared and sized at first use, so a request made after any
    /// parallel work has run is ignored. Results never depend on this (the
    /// fixed-chunk contract) — it is recorded in reports for attribution.
    pub threads: usize,
}

impl BenchmarkConfig {
    /// The official configuration: edgefactor 16, 64 roots, full
    /// optimization stack, degree-aware partition, validation on.
    pub fn graph500(scale: u32, ranks: usize) -> Self {
        Self {
            scale,
            edgefactor: 16,
            seed: 20220814, // SC'22 vintage
            machine: MachineConfig::with_ranks(ranks),
            num_roots: 64,
            opts: OptConfig::all_on(),
            partition: PartitionStrategy::DegreeAware { hub_factor: 8.0 },
            validate: true,
            keep_paths: false,
            threads: 0,
        }
    }

    /// A fast variant for tests/examples: 4 roots, otherwise official.
    pub fn quick(scale: u32, ranks: usize) -> Self {
        Self {
            num_roots: 4,
            ..Self::graph500(scale, ranks)
        }
    }

    /// Run the simulated machine under the deterministic scheduler with
    /// `sched_seed` (see [`simnet::SchedMode`]): the same configuration then
    /// reproduces byte-identical distance vectors, `NetStats`, and superstep
    /// counts across runs, and non-zero seeds fuzz delivery order.
    pub fn deterministic(mut self, sched_seed: u64) -> Self {
        self.machine = self.machine.deterministic(sched_seed);
        self
    }

    /// Inject seeded lossy-network faults (see [`simnet::FaultPlan`]). The
    /// reliable transport must mask every fault within the retry budget:
    /// distances, supersteps, and validation stay byte-identical to the
    /// fault-free run — only virtual time and the fault counters in
    /// [`NetStats`] move.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.machine = self.machine.faults(plan);
        self
    }

    /// Inject seeded rank-crash faults (see [`simnet::CrashPlan`]). The
    /// recovery layer must mask every in-budget crash schedule: distances,
    /// parents, and validation stay byte-identical to the crash-free run —
    /// only virtual time, recovery spans, and the crash counters in
    /// [`NetStats`] move. A schedule the budget cannot absorb surfaces as
    /// a typed error from [`try_run_sssp_benchmark`], never a panic.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.machine = self.machine.crashes(plan);
        self
    }

    /// Record a virtual-time trace of the run (see [`simnet::Trace`]). Off
    /// by default; tracing observes virtual time and counters but never
    /// advances the clock, so distances, `NetStats`, and the rendered
    /// report are byte-identical with tracing on or off.
    pub fn traced(mut self, on: bool) -> Self {
        self.machine = self.machine.traced(on);
        self
    }
}

/// One root's outcome.
#[derive(Clone, Debug)]
pub struct RootRun {
    /// The sampled search key (original vertex id).
    pub root: VertexId,
    /// Simulated seconds for the kernel (max over ranks).
    pub sim_time_s: f64,
    /// Input edges with an endpoint in the traversed component.
    pub traversed_edges: u64,
    /// `Some(true/false)` when validation ran; `None` when skipped.
    pub validated: Option<bool>,
    /// Rank-0 kernel counters for this run.
    pub stats: SsspRunStats,
    /// The gathered distance/parent vectors (original vertex ids), kept
    /// only when [`BenchmarkConfig::keep_paths`] is set.
    pub paths: Option<ShortestPaths>,
}

/// The full benchmark outcome.
#[derive(Clone, Debug)]
pub struct BenchmarkReport {
    /// Problem scale.
    pub scale: u32,
    /// Vertex count.
    pub n: u64,
    /// Generated edge records.
    pub m: u64,
    /// Rank count.
    pub ranks: usize,
    /// Simulated seconds for graph construction (kernel 0).
    pub construction_time_s: f64,
    /// Per-root outcomes.
    pub runs: Vec<RootRun>,
    /// The official TEPS distribution over the roots.
    pub teps: TepsSummary,
    /// Aggregate network counters over the whole job.
    pub net: NetStats,
    /// Per-rank network counters (index = rank) — the load-balance view.
    pub per_rank_net: Vec<NetStats>,
    /// Host wall-clock seconds the simulation took.
    pub wall_time_s: f64,
    /// Worker threads the process-global pool actually ran with, so runs
    /// are attributable when comparing wall times.
    pub threads: usize,
    /// The fault plan the machine ran under (echoed so archived sweeps are
    /// attributable; [`FaultPlan::none`] for a perfect network).
    pub fault: FaultPlan,
    /// The crash plan the machine ran under ([`CrashPlan::none`] when
    /// process faults were off).
    pub crash: CrashPlan,
    /// The merged virtual-time trace, present only when the run was traced
    /// (see [`BenchmarkConfig::traced`]).
    pub trace: Option<Trace>,
}

impl BenchmarkReport {
    /// True when every validated run passed (and at least one ran).
    pub fn all_validated(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.validated != Some(false))
    }

    /// Summarize the recorded trace, if the run was traced.
    pub fn trace_summary(&self) -> Option<TraceSummary> {
        self.trace.as_ref().map(|t| t.summary())
    }

    /// Render the official-style result block.
    pub fn render(&self) -> String {
        let mut s = format!(
            "SCALE:                 {}\nedgefactor:            {}\nNBFS:                  {}\nnum_ranks:             {}\nconstruction_time:     {:.6e} s (simulated)\n",
            self.scale,
            self.m / self.n.max(1),
            self.runs.len(),
            self.ranks,
            self.construction_time_s,
        );
        s.push_str(&self.teps.render("TEPS (simulated):"));
        s.push_str(&format!(
            "\ntotal_messages:        {}\ntotal_bytes:           {}\nhost_threads:          {}\n",
            self.net.total_msgs(),
            self.net.total_bytes(),
            self.threads
        ));
        if self.fault.is_active() {
            s.push_str(&format!(
                "fault_seed:            {}\nretransmits:           {}\ntimeouts:              {}\ncorrupt_frames:        {}\ndup_frames_dropped:    {}\nreordered_frames:      {}\nstall_events:          {}\n",
                self.fault.seed,
                self.net.retransmits,
                self.net.timeouts,
                self.net.corrupt_frames,
                self.net.dup_frames_dropped,
                self.net.reordered_frames,
                self.net.stall_events,
            ));
        }
        if self.crash.is_active() {
            s.push_str(&format!(
                "crash_seed:            {}\ncrashes_injected:      {}\ncheckpoints_taken:     {}\ncheckpoint_bytes:      {}\nrestores:              {}\nreplayed_supersteps:   {}\n",
                self.crash.seed,
                self.net.crashes,
                self.net.checkpoints,
                self.net.checkpoint_bytes,
                self.net.restores,
                self.net.replayed_supersteps,
            ));
        }
        if let Some(summary) = self.trace_summary() {
            s.push_str(&summary.render());
        }
        s
    }

    /// Machine-readable form of the whole report (per-root runs, kernel
    /// counters, per-rank traffic), for archiving sweeps.
    pub fn to_json(&self) -> String {
        json::report(|o| {
            o.field("scale", self.scale)
                .field("n", self.n)
                .field("m", self.m)
                .field("ranks", self.ranks)
                .field("construction_time_s", self.construction_time_s)
                .array("runs", |a| {
                    for r in &self.runs {
                        a.item(r);
                    }
                })
                .field("teps", &self.teps)
                .field("net", &self.net)
                .array("per_rank_net", |a| {
                    for s in &self.per_rank_net {
                        a.item(s);
                    }
                })
                .field("fault", self.fault);
            // Crash-free and untraced reports mention neither, so they are
            // byte-identical to runs without either layer.
            if self.crash.is_active() {
                o.field("crash", self.crash);
            }
            if let Some(summary) = self.trace_summary() {
                o.field("trace", summary);
            }
            o.field("wall_time_s", self.wall_time_s)
                .field("threads", self.threads);
        })
    }
}

simnet::json_fields! {
    RootRun:
    root, sim_time_s, traversed_edges, validated, stats,
}

/// Sampled hub detection: estimate high-degree vertices from a fixed,
/// deterministic sample of generator edges (identical on every rank — the
/// sample is a pure function of the seed, so no communication is needed).
fn detect_hubs(gen: &KroneckerGenerator, hub_factor: f64) -> Vec<VertexId> {
    let m = gen.params().num_edges();
    let n = gen.params().num_vertices();
    let sample = m.min(1 << 16);
    let rng = CounterRng::new(gen.params().seed ^ 0x4855_4253, 0); // "HUBS"
    let mut counts: std::collections::HashMap<VertexId, u32> = std::collections::HashMap::new();
    for i in 0..sample {
        let e = gen.edge(rng.below(i, m));
        *counts.entry(e.u).or_insert(0) += 1;
        *counts.entry(e.v).or_insert(0) += 1;
    }
    let mean = 2.0 * sample as f64 / n as f64;
    let threshold = (mean * hub_factor).max(4.0);
    let mut hubs: Vec<(u32, VertexId)> = counts
        .into_iter()
        .filter(|&(_, c)| c as f64 >= threshold)
        .map(|(v, c)| (c, v))
        .collect();
    // deterministic priority: count desc, id asc
    hubs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    hubs.truncate(4096);
    hubs.into_iter().map(|(_, v)| v).collect()
}

/// Host-side root sampling: uniform vertices of the giant component,
/// distinct, deterministic in the seed.
///
/// The spec samples uniformly among vertices with degree ≥ 1. At the
/// paper's scale (2^42+), essentially every such vertex is in the giant
/// component; at simulation scales (2^8..2^20) a sizable fraction sits in
/// dust components, and a dust root turns its TEPS sample into a
/// component-size measurement (tiny numerator, fixed-overhead
/// denominator) that wrecks the harmonic mean for reasons that would not
/// exist at record scale. Conditioning on the giant component restores
/// the regime being reproduced; DESIGN.md lists this under substitutions.
pub(crate) fn sample_roots(el: &EdgeList, n: u64, seed: u64, count: usize) -> Vec<VertexId> {
    let mut uf = g500_graph::UnionFind::new(n as usize);
    for e in el.iter() {
        if !e.is_loop() {
            uf.union(e.u as usize, e.v as usize);
        }
    }
    // the giant component's representative
    let mut giant_rep = 0usize;
    let mut giant_size = 0usize;
    for v in 0..n as usize {
        let s = uf.component_size(v);
        if s > giant_size {
            giant_size = s;
            giant_rep = uf.find(v);
        }
    }
    let rng = CounterRng::new(seed ^ 0x524F_4F54, 0); // "ROOT"
    let mut roots = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    let mut ctr = 0u64;
    while roots.len() < count && ctr < 1000 * count as u64 + 1000 {
        let cand = rng.below(ctr, n);
        ctr += 1;
        if giant_size > 1 && uf.find(cand as usize) == giant_rep && seen.insert(cand) {
            roots.push(cand);
        }
    }
    roots
}

/// The latest of the ranks' `t`: an instant or a duration all agree on.
pub(crate) fn slowest(ctx: &mut RankCtx, t: f64) -> f64 {
    ctx.allreduce(t, |a, b| if a > b { *a } else { *b })
}

/// What each rank of a root-by-root benchmark returns: when the graph stood
/// and, on rank 0, each root's time and gathered result.
type RankOutput<T> = (f64, Vec<(f64, T)>);

/// What the SSSP, BFS and serving benchmarks share: the Kronecker graph —
/// its parameters, and the host's reference edge list for root sampling,
/// traversed-edge counts and validation — each rank's build of its share
/// and, for the two root-by-root benchmarks, the kernel loop on the ranks
/// and the scoring on the host. An entry point adds what is its own: the
/// kernel call, the validator, the report type.
pub(crate) struct Harness {
    gen: KroneckerGenerator,
    /// Vertex count.
    pub(crate) n: u64,
    /// Generated edge records.
    pub(crate) m: u64,
    pub(crate) edges: EdgeList,
    /// The degree-aware placement's hub relabel; `None` under the others.
    relabel: Option<SparseHubRelabel>,
}

impl Harness {
    /// `threads` > 0 sizes the process-global pool first (best-effort: it
    /// is fixed at first use).
    pub(crate) fn new(scale: u32, edgefactor: u64, seed: u64, threads: usize) -> Self {
        if threads > 0 {
            rayon::configure_threads(threads);
        }
        let params = KroneckerParams {
            scale,
            edgefactor,
            ..KroneckerParams::graph500(scale, seed)
        };
        let gen = KroneckerGenerator::new(params);
        Harness {
            n: params.num_vertices(),
            m: params.num_edges(),
            edges: gen.generate_all(),
            gen,
            relabel: None,
        }
    }

    /// Kernel 0 on one rank, inside its `Build` span: generate this rank's
    /// slice of the edge list, move it to the placement's ids if it
    /// relabels, assemble. With `agree` the span closes on the instant the
    /// slowest rank stood ready — kernel 0's time, returned; without, on
    /// this rank's own. The slice is charged as generated but copied from
    /// the host's list, which holds the same edges in the same order.
    pub(crate) fn build<P: VertexPartition>(
        &self,
        ctx: &mut RankCtx,
        part: P,
        agree: bool,
    ) -> (LocalGraph<P>, f64) {
        let (rank, p) = (ctx.rank() as u64, ctx.size() as u64);
        let (lo, hi) = (rank * self.m / p, (rank + 1) * self.m / p);
        ctx.trace_begin(TraceCode::Build, hi - lo, 0);
        // generation cost: the counter-based generator is charged per edge
        ctx.charge_compute(hi - lo);
        let mut mine = self.edges.copy_range(lo as usize..hi as usize);
        if let Some(relabel) = &self.relabel {
            ctx.charge_compute(1 << 16); // the hub sampling scan
            mine.relabel(|v| relabel.apply(v));
        }
        let g = assemble_local_graph(ctx, mine.iter(), part);
        let built = if agree {
            slowest(ctx, ctx.now())
        } else {
            ctx.now()
        };
        ctx.trace_end(TraceCode::Build, hi - lo, 0);
        (g, built)
    }

    /// One rank's share of a root-by-root benchmark under the placement
    /// `part`: the build, then the kernel loop. `search` runs one root,
    /// moved to the placement's ids, inside its `RootRun` span and returns
    /// this rank's kernel seconds and local result; outside the span,
    /// `gather` brings that result into rank 0, which keeps it with the
    /// slowest rank's time. A kernel-level fault escalation (recovery
    /// budget exhausted, checkpoint lost) aborts the remaining roots and
    /// propagates as the identical `Err` on every rank.
    fn on_rank<P: VertexPartition, L, T>(
        &self,
        ctx: &mut RankCtx,
        part: P,
        roots: &[VertexId],
        mut search: impl FnMut(
            &mut RankCtx,
            &LocalGraph<P>,
            VertexId,
        ) -> Result<(f64, L), FaultEscalation>,
        gather: impl Fn(&mut RankCtx, &LocalGraph<P>, L) -> T,
    ) -> Result<RankOutput<T>, FaultEscalation> {
        let (g, built) = self.build(ctx, part, true);
        let mut found = Vec::with_capacity(roots.len());
        for (ri, &root) in roots.iter().enumerate() {
            let root = self.relabel.as_ref().map_or(root, |l| l.apply(root));
            ctx.trace_begin(TraceCode::RootRun, ri as u64, root);
            let (seconds, local) = search(ctx, &g, root)?;
            ctx.trace_end(TraceCode::RootRun, ri as u64, root);
            let one = (slowest(ctx, seconds), gather(ctx, &g, local));
            if ctx.rank() == 0 {
                found.push(one);
            }
        }
        Ok((built, found))
    }

    /// `gathered`, indexed by the placement's ids and naming parents in
    /// them, in original vertex ids.
    fn original_ids(&self, gathered: ShortestPaths) -> ShortestPaths {
        let Some(relabel) = &self.relabel else {
            return gathered;
        };
        // empty on every rank but the gather's root
        let n = gathered.dist.len();
        let mut orig = ShortestPaths::unreached(n);
        for (v, l) in relabel.labels().take(n).enumerate() {
            let l = l as usize;
            orig.dist[v] = gathered.dist[l];
            let p = gathered.parent[l];
            orig.parent[v] = if p == NO_PARENT {
                NO_PARENT
            } else {
                relabel.invert(p)
            };
        }
        orig
    }

    /// Host side of a root-by-root benchmark, off the clock: rank 0's
    /// gathered results become per-root rows — traversed edges from
    /// `reached`, then `finish`'s validation verdict, kernel counters and
    /// kept paths — and the rows the TEPS distribution.
    fn report<T>(
        &self,
        cfg: &BenchmarkConfig,
        roots: &[VertexId],
        sim: SimReport<Result<RankOutput<T>, FaultEscalation>>,
        reached: impl Fn(&T, u64) -> bool,
        finish: impl Fn(VertexId, T) -> (Option<bool>, SsspRunStats, Option<ShortestPaths>),
    ) -> Result<BenchmarkReport, FaultEscalation> {
        let net = sim.total_stats();
        let trace = (!sim.traces.is_empty()).then(|| Trace::merge(sim.traces));
        let mut results = sim.results;
        // recovery escalations come back as ordinary `Err` values in the
        // per-rank results, identical on every rank
        let (construction_time_s, found) = results.swap_remove(0)?;
        let mut runs = Vec::with_capacity(found.len());
        for (&root, (sim_time_s, one)) in roots.iter().zip(found) {
            let traversed_edges = count_traversed_edges(&self.edges, |v| reached(&one, v));
            let (validated, stats, paths) = finish(root, one);
            runs.push(RootRun {
                root,
                sim_time_s,
                traversed_edges,
                validated,
                stats,
                paths,
            });
        }
        let samples: Vec<(u64, f64)> = runs
            .iter()
            .map(|r| (r.traversed_edges, r.sim_time_s))
            .collect();
        Ok(BenchmarkReport {
            scale: cfg.scale,
            n: self.n,
            m: self.m,
            ranks: cfg.machine.ranks,
            construction_time_s,
            teps: TepsSummary::from_samples(&samples),
            runs,
            net,
            per_rank_net: sim.stats,
            wall_time_s: sim.wall_time_s,
            threads: rayon::current_num_threads(),
            fault: cfg.machine.fault,
            crash: cfg.machine.crash,
            trace,
        })
    }
}

/// One rank's share of the SSSP benchmark (monomorphised per partition
/// type).
fn sssp_rank<P: VertexPartition>(
    ctx: &mut RankCtx,
    h: &Harness,
    part: P,
    roots: &[VertexId],
    opts: &OptConfig,
) -> Result<RankOutput<(SsspRunStats, ShortestPaths)>, FaultEscalation> {
    let search = |ctx: &mut RankCtx, g: &LocalGraph<P>, root| {
        let (sp, stats) = try_distributed_delta_stepping(ctx, g, root, opts)?;
        Ok((stats.sim_time_s, (stats, sp)))
    };
    h.on_rank(ctx, part, roots, search, |ctx, g, (stats, sp)| {
        (stats, h.original_ids(sp.gather(ctx, g.part())))
    })
}

/// Run the full SSSP benchmark (Graph500 kernels 0 + 3). Panics on fault
/// escalation; use [`try_run_sssp_benchmark`] to handle it as a typed
/// error.
pub fn run_sssp_benchmark(cfg: &BenchmarkConfig) -> BenchmarkReport {
    try_run_sssp_benchmark(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_sssp_benchmark`] with typed fault escalation: a transport retry
/// budget blown through, a crash-recovery budget exhausted, or a lost
/// checkpoint returns `Err` instead of panicking, so drivers (the CLI,
/// sweep harnesses) can report the failure and exit cleanly.
pub fn try_run_sssp_benchmark(cfg: &BenchmarkConfig) -> Result<BenchmarkReport, FaultEscalation> {
    let mut h = Harness::new(cfg.scale, cfg.edgefactor, cfg.seed, cfg.threads);
    let (n, p, opts) = (h.n, cfg.machine.ranks, &cfg.opts);
    let roots = sample_roots(&h.edges, n, cfg.seed, cfg.num_roots);
    assert!(
        !roots.is_empty(),
        "no vertex with an edge — graph too small?"
    );
    if let PartitionStrategy::DegreeAware { hub_factor } = cfg.partition {
        // a pure function of the seed: detected once, here, for every rank
        h.relabel = Some(SparseHubRelabel::new(n, detect_hubs(&h.gen, hub_factor)));
    }
    let hubs = h.relabel.as_ref().map_or(0, |l| l.hub_count());
    // try_run surfaces transport escalations (panic payloads from the
    // reliable transport)
    let sim = Machine::new(cfg.machine).try_run(|ctx| match cfg.partition {
        PartitionStrategy::Block => sssp_rank(ctx, &h, Block1D::new(n, p), &roots, opts),
        PartitionStrategy::Cyclic => sssp_rank(ctx, &h, Cyclic1D::new(n, p), &roots, opts),
        PartitionStrategy::DegreeAware { .. } => {
            sssp_rank(ctx, &h, HybridPartition::new(n, p, hubs), &roots, opts)
        }
    })?;
    let reached = |(_, sp): &(SsspRunStats, ShortestPaths), v: u64| sp.dist[v as usize].is_finite();
    h.report(cfg, &roots, sim, reached, |root, (stats, sp)| {
        let (dist, parent) = (sp.dist, sp.parent);
        let res = SsspResult { root, dist, parent };
        let validated = cfg.validate.then(|| {
            let rep = validate_sssp(n, &h.edges, &res);
            if !rep.ok {
                eprintln!("validation FAILED for root {root}: {:?}", rep.errors);
            }
            rep.ok
        });
        let (dist, parent) = (res.dist, res.parent);
        let paths = cfg.keep_paths.then_some(ShortestPaths { dist, parent });
        (validated, stats, paths)
    })
}

/// Run the BFS benchmark (Graph500 kernels 0 + 2) with the same harness.
/// Uses the kernel's hybrid direction optimization; block partitioning
/// (BFS has no bucket state to balance, and this mirrors the companion
/// paper's setup at our simulation scale). Panics on fault escalation; use
/// [`try_run_bfs_benchmark`] to handle it as a typed error.
pub fn run_bfs_benchmark(cfg: &BenchmarkConfig) -> BenchmarkReport {
    try_run_bfs_benchmark(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_bfs_benchmark`] with typed fault escalation, as
/// [`try_run_sssp_benchmark`] is for SSSP. Kept paths hold each vertex's
/// level as its distance.
pub fn try_run_bfs_benchmark(cfg: &BenchmarkConfig) -> Result<BenchmarkReport, FaultEscalation> {
    let h = Harness::new(cfg.scale, cfg.edgefactor, cfg.seed, cfg.threads);
    let (n, part) = (h.n, Block1D::new(h.n, cfg.machine.ranks));
    let roots = sample_roots(&h.edges, n, cfg.seed, cfg.num_roots);
    let sim = Machine::new(cfg.machine).try_run(|ctx| {
        let search = |ctx: &mut RankCtx, g: &LocalGraph<Block1D>, root| {
            let (res, stats) = distributed_bfs(ctx, g, root, cfg.opts.direction)?;
            Ok((stats.sim_time_s, (stats, res)))
        };
        h.on_rank(ctx, part, &roots, search, |ctx, g, (stats, res)| {
            (stats, res.gather(ctx, g.part()))
        })
    })?;
    let reached = |(_, (level, _)): &(_, (Vec<i64>, _)), v: u64| level[v as usize] >= 0;
    h.report(cfg, &roots, sim, reached, |root, (stats, tree)| {
        let (level, parent) = tree;
        let valid = || validate_bfs(n, &h.edges, root, &level, &parent).is_ok();
        let validated = cfg.validate.then(valid);
        let dist = cfg.keep_paths.then(|| levels_as_dist(&level));
        let paths = dist.map(|dist| ShortestPaths { dist, parent });
        (validated, stats, paths)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sssp_benchmark_validates() {
        let cfg = BenchmarkConfig::quick(8, 2);
        let rep = run_sssp_benchmark(&cfg);
        assert_eq!(rep.runs.len(), 4);
        assert!(
            rep.all_validated(),
            "{:#?}",
            rep.runs.iter().map(|r| r.validated).collect::<Vec<_>>()
        );
        assert!(rep.teps.harmonic_mean > 0.0);
        assert!(rep.construction_time_s > 0.0);
        assert!(rep.render().contains("harmonic_mean"));
    }

    /// The translation back to original ids is the per-vertex map: each
    /// vertex reads its label's slot, and a parent label becomes the
    /// parent's original id.
    #[test]
    fn original_ids_is_the_per_vertex_map() {
        let mut h = Harness::new(8, 4, 3, 0);
        let n = h.n;
        h.relabel = Some(SparseHubRelabel::new(n, detect_hubs(&h.gen, 8.0)));
        let relabel = h.relabel.clone().expect("set above");
        assert!(relabel.hub_count() > 0, "the test needs hubs");
        let mut gathered = ShortestPaths::unreached(n as usize);
        for l in 0..n {
            gathered.dist[l as usize] = l as f32;
            gathered.parent[l as usize] = if l % 5 == 0 { NO_PARENT } else { (l * 7) % n };
        }
        let orig = h.original_ids(gathered.clone());
        for v in 0..n {
            let l = relabel.apply(v) as usize;
            assert_eq!(orig.dist[v as usize].to_bits(), gathered.dist[l].to_bits());
            let p = gathered.parent[l];
            let want = if p == NO_PARENT {
                NO_PARENT
            } else {
                relabel.invert(p)
            };
            assert_eq!(orig.parent[v as usize], want, "vertex {v}");
        }
    }

    #[test]
    fn all_partition_strategies_validate() {
        for part in [
            PartitionStrategy::Block,
            PartitionStrategy::Cyclic,
            PartitionStrategy::DegreeAware { hub_factor: 8.0 },
        ] {
            let mut cfg = BenchmarkConfig::quick(8, 3);
            cfg.partition = part;
            let rep = run_sssp_benchmark(&cfg);
            assert!(rep.all_validated(), "{part:?}");
        }
    }

    #[test]
    fn bfs_benchmark_validates() {
        let cfg = BenchmarkConfig::quick(8, 2);
        let rep = run_bfs_benchmark(&cfg);
        assert!(rep.all_validated());
        assert!(rep.teps.harmonic_mean > 0.0);
    }

    #[test]
    fn lossy_run_matches_fault_free_distances() {
        let mut clean_cfg = BenchmarkConfig::quick(8, 2);
        clean_cfg.keep_paths = true;
        let lossy_cfg = clean_cfg
            .clone()
            .faults(FaultPlan::lossy(0xF00D, 0.05, 0.02, 0.01));
        let clean = run_sssp_benchmark(&clean_cfg);
        let lossy = run_sssp_benchmark(&lossy_cfg);
        assert!(lossy.all_validated());
        for (a, b) in clean.runs.iter().zip(&lossy.runs) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.paths, b.paths, "faults changed distances for {}", a.root);
        }
        assert!(lossy.net.retransmits > 0, "{:?}", lossy.net);
        assert!(lossy.render().contains("retransmits:"));
        assert!(lossy.to_json().contains("\"retransmits\":"));
        assert!(!clean.render().contains("retransmits:"));
    }

    #[test]
    fn crash_run_matches_fault_free_distances() {
        let mut clean_cfg = BenchmarkConfig::quick(8, 2);
        clean_cfg.keep_paths = true;
        let crash_cfg = clean_cfg
            .clone()
            .crashes(CrashPlan::random(0xC4A8, 0.002).with_checkpoint_interval(2));
        let clean = run_sssp_benchmark(&clean_cfg);
        let crashed = run_sssp_benchmark(&crash_cfg);
        assert!(crashed.all_validated());
        assert!(
            crashed.net.saw_crashes(),
            "the schedule must actually crash someone: {:?}",
            crashed.net
        );
        for (a, b) in clean.runs.iter().zip(&crashed.runs) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.paths, b.paths, "crashes changed distances for {}", a.root);
        }
        assert!(crashed.render().contains("crashes_injected:"));
        assert!(crashed.to_json().contains("\"crash\":"));
        assert!(!clean.render().contains("crashes_injected:"));
        assert!(!clean.to_json().contains("\"crash\":"));
    }

    #[test]
    fn exhausted_recovery_is_a_typed_error_not_a_panic() {
        // crash rate 1.0 kills every rank at the first probe: with every
        // buddy dead too, no checkpoint survives — the driver must get the
        // typed escalation back, not a panic
        let cfg = BenchmarkConfig::quick(8, 2).crashes(
            CrashPlan::random(0xEE, 1.0)
                .with_recovery_budget(1)
                .with_checkpoint_interval(2),
        );
        match try_run_sssp_benchmark(&cfg) {
            Err(FaultEscalation::CheckpointLost { .. })
            | Err(FaultEscalation::RecoveryBudgetExhausted { .. }) => {}
            Ok(_) => panic!("a total-loss crash schedule cannot produce a report"),
            Err(e) => panic!("unexpected escalation flavor: {e}"),
        }
    }

    #[test]
    fn root_sampling_is_deterministic_and_degree_filtered() {
        let el = g500_gen::simple::path(4, 1.0); // vertices 4..7 isolated
        let a = sample_roots(&el, 8, 1, 3);
        let b = sample_roots(&el, 8, 2, 3); // different seed, same inputs
        let c = sample_roots(&el, 8, 2, 3);
        assert_eq!(b, c, "same seed must reproduce");
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&r| r < 4), "picked an isolated root: {a:?}");
        // distinct
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), a.len());
    }

    #[test]
    fn hub_detection_finds_kronecker_hubs() {
        let gen = KroneckerGenerator::new(KroneckerParams::graph500(12, 99));
        let hubs = detect_hubs(&gen, 8.0);
        assert!(!hubs.is_empty(), "a scale-12 Kronecker graph has hubs");
        // the detected hubs should really be high-degree: check the top one
        let el = gen.generate_all();
        let mut deg = vec![0u64; 1 << 12];
        for e in el.iter() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mean = 2.0 * el.len() as f64 / (1 << 12) as f64;
        assert!(
            deg[hubs[0] as usize] as f64 > 4.0 * mean,
            "top hub degree {} vs mean {mean:.1}",
            deg[hubs[0] as usize]
        );
    }
}
