//! The harness's own drive of the layers: the same call sequence as
//! `core::driver` / `core::serving`, made from the layers' public functions
//! with a host-clock span around every call.
//!
//! It runs in two forms. Set-up only (stop once the graph is resident and,
//! when serving, the landmarks are precomputed) times `setup_s` in the
//! untraced pass. The full form, on a traced machine, is the traced pass.
//!
//! This is a mirror, not the driver: `core` keeps its root sampler and its
//! hub sampler private, so both are repeated here. The traced pass checks
//! the mirror against the driver (`trace.mirror_parity`).

use crate::spans::{HostBarrier, Probe, Recorder, SpanId};
use crate::workloads::{Kind, Workload};
use graph500::gen::{CounterRng, KroneckerGenerator, KroneckerParams};
use graph500::graph::{EdgeList, ShortestPaths, UnionFind, VertexId, NO_PARENT};
use graph500::partition::{
    assemble_local_graph, Block1D, Cyclic1D, HybridPartition, LocalGraph, SparseHubRelabel,
    VertexPartition,
};
use graph500::simnet::{Machine, NetStats, RankCtx, SimReport, TraceCode};
use graph500::sssp::{
    try_distributed_delta_stepping, OptConfig, Query, QueryEngine, QueryOutcome, ServeConfig,
    ServeStats, SsspRunStats,
};
use graph500::validate::{count_traversed_edges, validate_sssp, SsspResult};
use graph500::{
    synth_queries, BenchmarkConfig, FaultEscalation, PartitionStrategy, ServeBenchConfig, Trace,
    TraceSummary,
};

/// How far the mirror goes.
#[derive(Clone, Copy, PartialEq)]
pub enum Extent {
    /// Generate, sample, slice/relabel, assemble (and precompute landmarks).
    SetUp,
    /// Everything the driver does, on a traced machine.
    Full,
}

/// What one root produced, summed over ranks where the counter is per rank.
pub struct RootObs {
    pub root: VertexId,
    pub sim_time_s: f64,
    pub supersteps: u64,
    pub buckets: u64,
    pub relaxations: u64,
    pub updates_sent: u64,
    pub updates_offered: u64,
    pub traversed_edges: u64,
    pub validated: bool,
}

/// What both mirrors observe: the resident graph and the machine's totals.
pub struct Built {
    pub n: u64,
    pub edges: EdgeList,
    /// Simulated seconds until every rank held its assembled graph.
    pub construction_s: f64,
    /// Per rank.
    pub local_arcs: Vec<u64>,
    pub local_vertices: Vec<u64>,
    pub net: NetStats,
    /// Present when the machine was traced.
    pub trace: Option<TraceSummary>,
}

/// What the SSSP mirror observed.
pub struct SsspObs {
    pub built: Built,
    pub roots: Vec<RootObs>,
    /// Gathered results in original vertex ids, one per root.
    pub paths: Vec<ShortestPaths>,
}

/// What the serving mirror observed.
pub struct ServeObs {
    pub built: Built,
    pub queries: Vec<Query>,
    pub serve_time_s: f64,
    /// Per rank: that rank's outcomes (full answers carry its local slice).
    pub outcomes: Vec<Vec<QueryOutcome>>,
    /// Rank 0's counters; `relaxations`, `updates_sent` and `pruned` are
    /// summed over ranks.
    pub stats: ServeStats,
}

pub enum Obs {
    Sssp(SsspObs),
    Serve(ServeObs),
}

impl Obs {
    pub fn built(&self) -> &Built {
        match self {
            Obs::Sssp(o) => &o.built,
            Obs::Serve(o) => &o.built,
        }
    }
}

pub fn generator(scale: u32, edgefactor: u64, seed: u64) -> KroneckerGenerator {
    KroneckerGenerator::new(KroneckerParams {
        scale,
        edgefactor,
        ..KroneckerParams::graph500(scale, seed)
    })
}

/// `core::driver::sample_roots`, repeated: distinct uniform vertices of the
/// giant component, deterministic in the seed.
fn sample_roots(el: &EdgeList, n: u64, seed: u64, count: usize) -> Vec<VertexId> {
    let mut uf = UnionFind::new(n as usize);
    for e in el.iter() {
        if !e.is_loop() {
            uf.union(e.u as usize, e.v as usize);
        }
    }
    let (mut giant_rep, mut giant_size) = (0usize, 0usize);
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

/// `core::driver::detect_hubs`, repeated: high-degree vertices estimated
/// from a fixed sample of generator edges, identical on every rank.
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
    hubs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    hubs.truncate(4096);
    hubs.into_iter().map(|(_, v)| v).collect()
}

fn later(a: &f64, b: &f64) -> f64 {
    if a > b {
        *a
    } else {
        *b
    }
}

/// One rank's view of its assembled graph.
struct RankBuilt {
    construction_s: f64,
    local_arcs: u64,
    local_vertices: u64,
}

impl RankBuilt {
    fn of<P: VertexPartition>(construction_s: f64, g: &LocalGraph<P>) -> Self {
        RankBuilt {
            construction_s,
            local_arcs: g.local_arcs() as u64,
            local_vertices: g.local_vertices() as u64,
        }
    }
}

/// Split a finished machine run into the ranks' results and what the
/// machine as a whole observed (merging the trace when it was traced, as a
/// span of its own).
fn split_report<R>(
    report: SimReport<Result<R, FaultEscalation>>,
    built_of: fn(&R) -> &RankBuilt,
    n: u64,
    edges: EdgeList,
    rec: &Recorder,
    run: SpanId,
) -> Result<(Vec<R>, Built), FaultEscalation> {
    let net = report.total_stats();
    let trace = rec.span("simnet.trace_merge", Some(run), 0, || {
        (!report.traces.is_empty()).then(|| Trace::merge(report.traces).summary())
    });
    let ranks: Vec<R> = report.results.into_iter().collect::<Result<_, _>>()?;
    let built = Built {
        n,
        edges,
        construction_s: ranks
            .iter()
            .map(|r| built_of(r).construction_s)
            .fold(0.0, f64::max),
        local_arcs: ranks.iter().map(|r| built_of(r).local_arcs).collect(),
        local_vertices: ranks.iter().map(|r| built_of(r).local_vertices).collect(),
        net,
        trace,
    };
    Ok((ranks, built))
}

/// What each rank of the SSSP mirror hands back; rank 0 carries the paths.
struct SsspRank {
    built: RankBuilt,
    per_root: Vec<(f64, SsspRunStats)>,
    paths: Vec<ShortestPaths>,
}

/// What every rank of the SSSP mirror needs besides its own slice.
struct SsspJob<'a> {
    probe: &'a Probe<'a>,
    opts: &'a OptConfig,
    /// Edges this rank generated (the argument of its `Build` trace span).
    build_edges: u64,
    extent: Extent,
}

/// One rank's share of the SSSP mirror from the edge slice on: assemble,
/// then per root kernel + gather (+ translation on rank 0), as
/// `driver::run_ranks` does.
fn sssp_rank<P: VertexPartition>(
    ctx: &mut RankCtx,
    job: &SsspJob,
    mine: EdgeList,
    part: P,
    roots: &[VertexId],
    relabel: Option<&SparseHubRelabel>,
) -> Result<SsspRank, FaultEscalation> {
    let SsspJob {
        probe,
        opts,
        build_edges,
        extent,
    } = *job;
    let rank = ctx.rank();
    let g = probe.span(rank, "partition.assemble", 0, || {
        assemble_local_graph(ctx, mine.iter(), part)
    });
    drop(mine);
    let construction_s = ctx.allreduce(ctx.now(), later);
    ctx.trace_end(TraceCode::Build, build_edges, 0);
    let mut out = SsspRank {
        built: RankBuilt::of(construction_s, &g),
        per_root: Vec::new(),
        paths: Vec::new(),
    };
    if extent == Extent::SetUp {
        return Ok(out);
    }
    for (ri, &root) in roots.iter().enumerate() {
        let op = ri as u64;
        ctx.trace_begin(TraceCode::RootRun, op, root);
        let (sp, stats) = probe.span(rank, "dist.root", op, || {
            try_distributed_delta_stepping(ctx, &g, root, opts)
        })?;
        let time = ctx.allreduce(stats.sim_time_s, later);
        let gathered = probe.span(rank, "partition.gather", op, || {
            sp.gather_to_all(ctx, g.part())
        });
        ctx.trace_end(TraceCode::RootRun, op, root);
        let translated = probe.span(rank, "core.translate", op, || match relabel {
            Some(r) if rank == 0 => {
                let n = gathered.dist.len();
                let mut orig = ShortestPaths::unreached(n);
                for v in 0..n as u64 {
                    let l = r.apply(v);
                    orig.dist[v as usize] = gathered.dist[l as usize];
                    let p = gathered.parent[l as usize];
                    orig.parent[v as usize] = if p == NO_PARENT {
                        NO_PARENT
                    } else {
                        r.invert(p)
                    };
                }
                orig
            }
            _ => gathered,
        });
        out.per_root.push((time, stats));
        if rank == 0 {
            out.paths.push(translated);
        }
    }
    Ok(out)
}

fn sssp_mirror(
    cfg: &BenchmarkConfig,
    rec: &Recorder,
    run: SpanId,
    extent: Extent,
) -> Result<SsspObs, FaultEscalation> {
    let gen = generator(cfg.scale, cfg.edgefactor, cfg.seed);
    let n = gen.params().num_vertices();
    let m = gen.params().num_edges();
    let p = cfg.machine.ranks;

    let edges = rec.span("gen.generate", Some(run), 0, || gen.generate_all());
    let roots = rec.span("graph.root_sample", Some(run), 0, || {
        sample_roots(&edges, n, cfg.seed, cfg.num_roots)
    });
    assert!(
        !roots.is_empty(),
        "no vertex with an edge, graph too small?"
    );

    let gate = HostBarrier::new(p);
    let machine_span = rec.begin("simnet.machine", Some(run), 0);
    let probe = Probe {
        rec,
        gate: &gate,
        parent: machine_span,
    };
    let (gen_ref, roots_ref, probe_ref) = (&gen, &roots, &probe);
    let machine = Machine::new(cfg.machine.traced(extent == Extent::Full));
    let report = machine.try_run(move |ctx| {
        let rank = ctx.rank();
        let (lo, hi) = (rank as u64 * m / p as u64, (rank as u64 + 1) * m / p as u64);
        ctx.trace_begin(TraceCode::Build, hi - lo, 0);
        ctx.charge_compute(hi - lo);
        let slice = || probe_ref.span(rank, "gen.edge_block", 0, || gen_ref.edge_block(lo..hi));
        let job = SsspJob {
            probe: probe_ref,
            opts: &cfg.opts,
            build_edges: hi - lo,
            extent,
        };
        match cfg.partition {
            PartitionStrategy::Block => {
                sssp_rank(ctx, &job, slice(), Block1D::new(n, p), roots_ref, None)
            }
            PartitionStrategy::Cyclic => {
                sssp_rank(ctx, &job, slice(), Cyclic1D::new(n, p), roots_ref, None)
            }
            PartitionStrategy::DegreeAware { hub_factor } => {
                let relabel = probe_ref.span(rank, "partition.relabel", 0, || {
                    SparseHubRelabel::new(n, detect_hubs(gen_ref, hub_factor))
                });
                ctx.charge_compute(1 << 16);
                let part = HybridPartition::new(n, p, relabel.hub_count());
                let mut mine = slice();
                probe_ref.span(rank, "partition.relabel", 1, || {
                    mine.relabel(|v| relabel.apply(v))
                });
                let roots_new: Vec<VertexId> =
                    roots_ref.iter().map(|&r| relabel.apply(r)).collect();
                sssp_rank(ctx, &job, mine, part, &roots_new, Some(&relabel))
            }
        }
    });
    rec.end(machine_span);
    let (ranks, built) = split_report(report?, |r: &SsspRank| &r.built, n, edges, rec, run)?;
    let mut obs = SsspObs {
        built,
        roots: Vec::new(),
        paths: Vec::new(),
    };
    if extent == Extent::SetUp {
        return Ok(obs);
    }
    let sum = |ri: usize, f: fn(&SsspRunStats) -> u64| -> u64 {
        ranks.iter().map(|r| f(&r.per_root[ri].1)).sum()
    };
    for (ri, &root) in roots.iter().enumerate() {
        let op = ri as u64;
        let sp = &ranks[0].paths[ri];
        let traversed_edges = rec.span("validate.count_traversed", Some(run), op, || {
            count_traversed_edges(&obs.built.edges, |v| sp.dist[v as usize].is_finite())
        });
        let validated = rec.span("validate.sssp", Some(run), op, || {
            let res = SsspResult {
                root,
                dist: sp.dist.clone(),
                parent: sp.parent.clone(),
            };
            let rep = validate_sssp(n, &obs.built.edges, &res);
            if !rep.ok {
                eprintln!("validation FAILED for root {root}: {:?}", rep.errors);
            }
            rep.ok
        });
        let (time, stats0) = &ranks[0].per_root[ri];
        obs.roots.push(RootObs {
            root,
            sim_time_s: *time,
            supersteps: stats0.supersteps,
            buckets: stats0.buckets,
            relaxations: sum(ri, |s| s.relaxations),
            updates_sent: sum(ri, |s| s.updates_sent),
            updates_offered: sum(ri, |s| s.updates_offered),
            traversed_edges,
            validated,
        });
    }
    obs.paths = ranks
        .into_iter()
        .next()
        .map(|r| r.paths)
        .unwrap_or_default();
    Ok(obs)
}

/// What each rank of the serving mirror hands back.
struct ServeRank {
    built: RankBuilt,
    serve_time_s: f64,
    outcomes: Vec<QueryOutcome>,
    stats: ServeStats,
}

fn serve_mirror(
    cfg: &ServeBenchConfig,
    rec: &Recorder,
    run: SpanId,
    extent: Extent,
) -> Result<ServeObs, FaultEscalation> {
    let gen = generator(cfg.scale, cfg.edgefactor, cfg.seed);
    let n = gen.params().num_vertices();
    let m = gen.params().num_edges();
    let p = cfg.machine.ranks;

    let edges = rec.span("gen.generate", Some(run), 0, || gen.generate_all());
    // the source pool is a root sample; the stream drawn from it is cheap
    let queries = rec.span("graph.root_sample", Some(run), 0, || {
        synth_queries(&edges, n, cfg)
    });
    let serve_cfg = ServeConfig {
        batch_width: cfg.batch_width,
        opts: cfg.opts,
        num_landmarks: cfg.num_landmarks,
        lru_capacity: cfg.lru_capacity,
        // the one departure from `serving.rs`: full answers keep their
        // local slice so the harness can check them against Dijkstra
        keep_paths: true,
        deadline_s: cfg.deadline_s,
    };

    let gate = HostBarrier::new(p);
    let machine_span = rec.begin("simnet.machine", Some(run), 0);
    let probe = Probe {
        rec,
        gate: &gate,
        parent: machine_span,
    };
    let (gen_ref, queries_ref, probe_ref) = (&gen, &queries, &probe);
    let machine = Machine::new(cfg.machine.traced(extent == Extent::Full));
    let report = machine.try_run(move |ctx| {
        let rank = ctx.rank();
        let (lo, hi) = (rank as u64 * m / p as u64, (rank as u64 + 1) * m / p as u64);
        ctx.trace_begin(TraceCode::Build, hi - lo, 0);
        ctx.charge_compute(hi - lo);
        let part = Block1D::new(n, p);
        let mine = probe_ref.span(rank, "gen.edge_block", 0, || gen_ref.edge_block(lo..hi));
        let g = probe_ref.span(rank, "partition.assemble", 0, || {
            assemble_local_graph(ctx, mine.iter(), part)
        });
        drop(mine);
        ctx.trace_end(TraceCode::Build, hi - lo, 0);
        let construction_s = ctx.now();

        let mut engine = probe_ref.span(rank, "serve.landmark_precompute", 0, || {
            QueryEngine::try_new(ctx, &g, serve_cfg.clone())
        })?;
        let mut out = ServeRank {
            built: RankBuilt::of(construction_s, &g),
            serve_time_s: 0.0,
            outcomes: Vec::new(),
            stats: ServeStats::default(),
        };
        if extent == Extent::SetUp {
            return Ok(out);
        }
        let t0 = ctx.allreduce(ctx.now(), later);
        // `serve` admits in windows of `batch_width`; handing it one window
        // at a time is the same schedule with a span per window
        for (wi, window) in queries_ref.chunks(cfg.batch_width.max(1)).enumerate() {
            let answers = probe_ref.span(rank, "serve.window", wi as u64, || {
                engine.serve(ctx, window)
            });
            out.outcomes.extend(answers);
        }
        let t1 = ctx.allreduce(ctx.now(), later);
        out.serve_time_s = t1 - t0;
        out.stats = engine.stats().clone();
        Ok(out)
    });
    rec.end(machine_span);
    let (ranks, built) = split_report(report?, |r: &ServeRank| &r.built, n, edges, rec, run)?;
    let mut stats = ranks[0].stats.clone();
    stats.relaxations = ranks.iter().map(|r| r.stats.relaxations).sum();
    stats.updates_sent = ranks.iter().map(|r| r.stats.updates_sent).sum();
    stats.pruned = ranks.iter().map(|r| r.stats.pruned).sum();
    Ok(ServeObs {
        built,
        queries,
        serve_time_s: ranks[0].serve_time_s,
        stats,
        outcomes: ranks.into_iter().map(|r| r.outcomes).collect(),
    })
}

/// Run the mirror under a root span called `run`; returns what it observed.
pub fn run(w: &Workload, rec: &Recorder, extent: Extent) -> Result<Obs, FaultEscalation> {
    let run = rec.begin("run", None, 0);
    let obs = match &w.kind {
        Kind::Sssp(cfg) => sssp_mirror(cfg, rec, run, extent).map(Obs::Sssp),
        Kind::Serve(cfg) => serve_mirror(cfg, rec, run, extent).map(Obs::Serve),
    };
    rec.end(run);
    obs
}

/// Host seconds of one set-up: generate, sample roots, slice/relabel,
/// assemble, and on `serve_mix` precompute the landmarks; result dropped.
pub fn setup_seconds(w: &Workload) -> Result<f64, FaultEscalation> {
    let rec = Recorder::new();
    let obs = run(w, &rec, Extent::SetUp)?;
    let spans = rec.into_spans();
    drop(obs);
    Ok(spans[0].seconds())
}
