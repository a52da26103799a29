//! The traced pass: the harness drives the layers itself (see `mirror`) on a
//! traced machine, records a host-clock span around every call, reads each
//! layer's counters at the same boundaries, and turns both into the
//! per-layer metrics. An untraced `core` call made first in the same process
//! is the reference for the tracing overhead and for the mirror's parity
//! with the driver.

use crate::endtoend::{core_call, CoreCall, Pass};
use crate::metrics::{ratio, Values};
use crate::mirror::{self, Built, Extent, Obs, ServeObs, SsspObs};
use crate::spans::{self, HostBarrier, Probe, Recorder, Span};
use crate::stats::{median, tail};
use crate::workloads::{Kind, Workload};
use graph500::baselines::dijkstra;
use graph500::graph::{Csr, Directedness, ShortestPaths, VertexId};
use graph500::partition::{Block1D, VertexPartition};
use graph500::rayon::pool_stats;
use graph500::simnet::{Machine, MachineConfig, NetStats};
use graph500::sssp::codec::{encode_tagged, encode_updates, TaggedUpdate, Update};
use graph500::sssp::Grid2DSssp;
use graph500::validate::TepsSummary;
use graph500::{BenchmarkConfig, FaultEscalation, TraceSummary};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Distance tolerance against the Dijkstra reference, as the repo's
/// conformance tests use.
const DIST_TOL: f32 = 1e-4;

/// Roots timed through the plain single-threaded Dijkstra baseline.
const BASELINE_ROOTS: usize = 4;

/// The fixed SplitMix64 spin `crates/bench/src/micro.rs` calibrates with
/// (private there): pure ALU work that touches neither pool nor allocator,
/// so a reader can tell host drift from a code change.
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

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Isolated calls into `sssp::codec` on 10k-update buffers shaped like the
/// micro registry's.
fn codec_metrics(v: &mut Values) {
    const N: u64 = 10_000;
    let updates: Vec<Update> = (0..N)
        .map(|i| (1_000_000 + i * 3, 0.5 + (i % 7) as f32, i))
        .collect();
    let tagged: Vec<TaggedUpdate> = (0..N)
        .map(|i| ((i % 16) as u32, 1_000_000 + i * 3, 0.5 + (i % 7) as f32, i))
        .collect();
    let bytes = encode_updates(&updates, true).len();
    let plain_ms = median_ms(20, || {
        black_box(encode_updates(black_box(&updates), true).len());
    });
    let tagged_ms = median_ms(20, || {
        black_box(encode_tagged(black_box(&tagged), false).len());
    });
    v.set("codec.encode_ns_per_update", plain_ms * 1e6 / N as f64);
    v.set(
        "codec.tagged_encode_ns_per_update",
        tagged_ms * 1e6 / N as f64,
    );
    v.set("codec.bytes_per_update", bytes as f64 / N as f64);
}

/// Isolated calls into `simnet` at the workload's rank count: spawning a
/// machine, a barrier, and an empty personalised all-to-all.
fn simnet_metrics(ranks: usize, v: &mut Values) {
    const ROUNDS: usize = 200;
    let cfg = MachineConfig::with_ranks(ranks);
    v.set(
        "simnet.machine_spawn_ms",
        median_ms(5, || {
            black_box(Machine::new(cfg).run(|ctx| ctx.rank()).results.len());
        }),
    );
    let per_round_us = |f: &(dyn Fn(&mut graph500::simnet::RankCtx) + Sync)| {
        let report = Machine::new(cfg).run(|ctx| {
            f(ctx); // first round pays for lazily built state
            let t = Instant::now();
            for _ in 0..ROUNDS {
                f(ctx);
            }
            t.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
        });
        report.results[0]
    };
    v.set("simnet.barrier_us", per_round_us(&|ctx| ctx.barrier()));
    v.set(
        "simnet.alltoallv_empty_us",
        per_round_us(&|ctx| {
            black_box(ctx.alltoallv::<u64>(vec![Vec::new(); ranks]).len());
        }),
    );
}

/// Counters every workload has: traffic per operation, the virtual-time
/// split of the trace, fault and recovery totals.
fn machine_metrics(net: &NetStats, trace: Option<&TraceSummary>, ops: f64, v: &mut Values) {
    v.set("simnet.msgs_per_op", net.total_msgs() as f64 / ops);
    v.set("simnet.bytes_per_op", net.total_bytes() as f64 / ops);
    v.set("simnet.user_bytes_per_op", net.user_bytes as f64 / ops);
    v.set("simnet.coll_bytes_per_op", net.coll_bytes as f64 / ops);
    v.set("simnet.collectives_per_op", net.collectives as f64 / ops);
    v.set("simnet.barriers_per_op", net.barriers as f64 / ops);
    v.set("simnet.retransmits", net.retransmits as f64);
    v.set("simnet.timeouts", net.timeouts as f64);
    v.set(
        "simnet.retransmit_ratio",
        ratio(net.retransmits as f64, net.total_msgs() as f64),
    );
    v.set("simnet.crashes", net.crashes as f64);
    v.set("simnet.checkpoints", net.checkpoints as f64);
    v.set("simnet.checkpoint_bytes", net.checkpoint_bytes as f64);
    v.set("simnet.restores", net.restores as f64);
    v.set("simnet.replayed_supersteps", net.replayed_supersteps as f64);
    if let Some(t) = trace {
        let (mut compute, mut comm, mut wait) = (0.0, 0.0, 0.0);
        for s in &t.supersteps {
            compute += s.compute_s;
            comm += s.comm_s;
            wait += s.wait_s;
        }
        let all = compute + comm + wait;
        v.set("simnet.sim_compute_share", ratio(compute, all));
        v.set("simnet.sim_comm_share", ratio(comm, all));
        v.set("simnet.sim_wait_share", ratio(wait, all));
        v.set("simnet.trace_events", t.events as f64);
        v.set(
            "simnet.replay_ratio",
            ratio(net.replayed_supersteps as f64, t.supersteps.len() as f64),
        );
    }
}

/// Set-up layers, common to both drivers.
fn setup_metrics(spans: &[Span], built: &Built, v: &mut Values) {
    let (local_arcs, local_vertices) = (&built.local_arcs, &built.local_vertices);
    let generate_s = spans::total_s(spans, "gen.generate");
    v.set("gen.generate_s", generate_s);
    v.set(
        "gen.medges_per_s",
        ratio(built.edges.len() as f64 / 1e6, generate_s),
    );
    v.set("simnet.sim_construction_s", built.construction_s);
    v.set("gen.edge_block_s", spans::total_s(spans, "gen.edge_block"));
    v.set(
        "graph.root_sample_s",
        spans::total_s(spans, "graph.root_sample"),
    );
    v.set(
        "partition.relabel_s",
        spans::total_s(spans, "partition.relabel"),
    );
    v.set(
        "partition.assemble_s",
        spans::total_s(spans, "partition.assemble"),
    );
    // CSR footprint of the assembled graph: u64 offsets, u64 targets, f32
    // weights (`LocalGraph` does not expose its size in bytes)
    let bytes: u64 = local_vertices.iter().map(|&n| (n + 1) * 8).sum::<u64>()
        + local_arcs.iter().map(|&a| a * 12).sum::<u64>();
    v.set("partition.assemble_bytes", bytes as f64);
    let max = local_arcs.iter().copied().max().unwrap_or(0) as f64;
    let mean = local_arcs.iter().sum::<u64>() as f64 / local_arcs.len().max(1) as f64;
    v.set("partition.arc_imbalance", ratio(max, mean));
}

/// Build the CSR the Dijkstra reference runs on, as a span of its own.
fn reference_csr(rec: &Recorder, n: u64, edges: &graph500::graph::EdgeList) -> Csr {
    rec.span("graph.csr_build", None, 0, || {
        Csr::from_edges(n as usize, edges, Directedness::Undirected)
    })
}

/// First `roots` of an SSSP workload through the 2D kernel on the largest
/// square machine that fits the workload's rank count; every result is
/// compared with the 1D kernel's. Returns, per root, whether the two differ.
fn grid2d_metrics(
    cfg: &BenchmarkConfig,
    roots: &[VertexId],
    expected: &[ShortestPaths],
    rec: &Recorder,
    v: &mut Values,
) -> Vec<bool> {
    let side = (cfg.machine.ranks as f64).sqrt().floor() as usize;
    let p = side * side;
    let gen = mirror::generator(cfg.scale, cfg.edgefactor, cfg.seed);
    let (n, m) = (gen.params().num_vertices(), gen.params().num_edges());
    let gate = HostBarrier::new(p);
    let parent = rec.begin("dist2d.machine", None, 0);
    let probe = Probe {
        rec,
        gate: &gate,
        parent,
    };
    let report = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
        let rank = ctx.rank();
        let (lo, hi) = (rank as u64 * m / p as u64, (rank as u64 + 1) * m / p as u64);
        let mine = gen.edge_block(lo..hi);
        let mut grid = probe.span(rank, "dist2d.build", 0, || {
            Grid2DSssp::build(ctx, n, mine.iter(), 0.125)
        });
        drop(mine);
        let mut relaxations = 0u64;
        let mut differs = Vec::with_capacity(roots.len());
        for (ri, &root) in roots.iter().enumerate() {
            let stats = probe.span(rank, "dist2d.root", ri as u64, || grid.run(ctx, root));
            relaxations += stats.relaxations;
            let got = grid.gather(ctx);
            differs.push(!got.distances_match(&expected[ri], DIST_TOL));
        }
        (relaxations, differs)
    });
    rec.end(parent);
    let relaxations: u64 = report.results.iter().map(|r| r.0).sum();
    v.set(
        "dist2d.relaxations_per_root",
        ratio(relaxations as f64, roots.len() as f64),
    );
    report
        .results
        .into_iter()
        .next()
        .map_or(Vec::new(), |r| r.1)
}

/// Per-layer metrics of an SSSP workload; returns failed roots.
fn sssp_metrics(
    w: &Workload,
    cfg: &BenchmarkConfig,
    obs: &SsspObs,
    rec: &Recorder,
    v: &mut Values,
) -> u64 {
    let roots = obs.roots.len() as f64;
    let total = |f: fn(&mirror::RootObs) -> u64| obs.roots.iter().map(f).sum::<u64>() as f64;
    v.set("dist.supersteps_per_root", total(|r| r.supersteps) / roots);
    v.set("dist.buckets_per_root", total(|r| r.buckets) / roots);
    v.set(
        "dist.relaxations_per_root",
        total(|r| r.relaxations) / roots,
    );
    v.set(
        "dist.updates_sent_per_root",
        total(|r| r.updates_sent) / roots,
    );
    v.set(
        "dist.update_keep_ratio",
        ratio(total(|r| r.updates_sent), total(|r| r.updates_offered)),
    );

    // the Dijkstra reference on the same graph: a baseline time and a
    // second opinion on the first few roots
    let csr = reference_csr(rec, obs.built.n, &obs.built.edges);
    let mut failed_roots: Vec<bool> = obs.roots.iter().map(|r| !r.validated).collect();
    for (ri, r) in obs.roots.iter().enumerate().take(BASELINE_ROOTS) {
        let oracle = rec.span("baselines.dijkstra", None, ri as u64, || {
            dijkstra(&csr, r.root)
        });
        if !obs.paths[ri].distances_match(&oracle, DIST_TOL) {
            eprintln!("root {} disagrees with the Dijkstra reference", r.root);
            failed_roots[ri] = true;
        }
    }
    drop(csr);

    if w.grid2d_roots > 0 {
        let k = w.grid2d_roots.min(obs.roots.len());
        let ids: Vec<VertexId> = obs.roots[..k].iter().map(|r| r.root).collect();
        let differs = grid2d_metrics(cfg, &ids, &obs.paths[..k], rec, v);
        for (ri, _) in differs.iter().enumerate().filter(|(_, &d)| d) {
            eprintln!("root {} differs between the 2D and the 1D kernel", ids[ri]);
            failed_roots[ri] = true;
        }
    }
    failed_roots.iter().filter(|&&f| f).count() as u64
}

/// Span-derived metrics of an SSSP workload (needs the finished span log).
fn sssp_span_metrics(obs: &SsspObs, spans: &[Span], v: &mut Values) {
    let root_ms = spans::each_ms(spans, "dist.root");
    let kernel_s = spans::total_s(spans, "dist.root");
    let supersteps: u64 = obs.roots.iter().map(|r| r.supersteps).sum();
    let relaxations: u64 = obs.roots.iter().map(|r| r.relaxations).sum();
    v.set("dist.root_ms_p50", median(&root_ms));
    v.set("dist.root_ms_tail", tail(&root_ms).value);
    v.set(
        "dist.us_per_superstep",
        ratio(kernel_s * 1e6, supersteps as f64),
    );
    v.set(
        "dist.ns_per_relaxation",
        ratio(kernel_s * 1e9, relaxations as f64),
    );
    v.set(
        "partition.gather_ms_p50",
        median(&spans::each_ms(spans, "partition.gather")),
    );

    // validation = edge count + the five-rule check, per root
    let count_ms = spans::each_ms(spans, "validate.count_traversed");
    let check_ms = spans::each_ms(spans, "validate.sssp");
    let per_root: Vec<f64> = count_ms.iter().zip(&check_ms).map(|(a, b)| a + b).collect();
    let validate_s = per_root.iter().sum::<f64>() * 1e-3;
    v.set("validate.root_ms_p50", median(&per_root));
    v.set(
        "validate.medges_per_s",
        ratio(
            obs.built.edges.len() as f64 * per_root.len() as f64 / 1e6,
            validate_s,
        ),
    );

    let dijkstra_ms = spans::each_ms(spans, "baselines.dijkstra");
    v.set("baselines.dijkstra_root_ms_p50", median(&dijkstra_ms));
    v.set(
        "dist.vs_dijkstra_ratio",
        ratio(median(&root_ms), median(&dijkstra_ms)),
    );
    let grid_ms = spans::each_ms(spans, "dist2d.root");
    if !grid_ms.is_empty() {
        v.set("dist2d.build_s", spans::total_s(spans, "dist2d.build"));
        v.set("dist2d.root_ms_p50", median(&grid_ms));
    }
}

/// Per-layer metrics of the serving workload; returns failed queries. Every
/// distinct source is run through Dijkstra; full answers are compared slice
/// by slice on every rank, point-to-point answers against the same tree.
fn serve_metrics(obs: &ServeObs, ranks: usize, rec: &Recorder, v: &mut Values) -> u64 {
    let st = &obs.stats;
    let queries = st.queries as f64;
    let p2p = obs.queries.iter().filter(|q| q.target.is_some()).count() as f64;
    v.set(
        "serve.supersteps_per_window",
        ratio(st.supersteps as f64, st.batches as f64),
    );
    v.set(
        "serve.relaxations_per_lane",
        ratio(st.relaxations as f64, st.lanes_run as f64),
    );
    v.set(
        "serve.pruned_per_lane",
        ratio(st.pruned as f64, st.lanes_run as f64),
    );
    v.set(
        "serve.cache_hit_ratio",
        ratio(st.cache_hits as f64, queries),
    );
    v.set("serve.early_exit_ratio", ratio(st.early_exits as f64, p2p));
    v.set("serve.shed", st.queries_shed as f64);
    v.set("serve.retried", st.queries_retried as f64);

    let csr = reference_csr(rec, obs.built.n, &obs.built.edges);
    let mut trees: BTreeMap<VertexId, ShortestPaths> = BTreeMap::new();
    for q in &obs.queries {
        trees.entry(q.source).or_insert_with(|| {
            rec.span("baselines.dijkstra", None, q.source, || {
                dijkstra(&csr, q.source)
            })
        });
    }
    let part = Block1D::new(obs.built.n, ranks);
    let mut failed = 0u64;
    for (qi, q) in obs.queries.iter().enumerate() {
        let tree = &trees[&q.source];
        let answer = &obs.outcomes[0][qi];
        let close =
            |a: f32, b: f32| (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= DIST_TOL;
        let ok =
            !answer.shed
                && match q.target {
                    Some(t) => answer.dist.is_some_and(|d| close(d, tree.dist[t as usize])),
                    // cache hits and lane runs alike carry the local slice
                    None => obs.outcomes.iter().enumerate().all(|(rank, outs)| {
                        outs[qi].paths.as_ref().is_some_and(|slice| {
                            slice.dist.iter().enumerate().all(|(l, &d)| {
                                close(d, tree.dist[part.to_global(rank, l) as usize])
                            })
                        })
                    }),
                };
        if !ok {
            eprintln!("query {qi} ({q:?}) is shed or disagrees with Dijkstra");
            failed += 1;
        }
    }
    failed
}

/// Span-derived metrics of the serving workload.
fn serve_span_metrics(obs: &ServeObs, spans: &[Span], v: &mut Values) {
    let window_ms = spans::each_ms(spans, "serve.window");
    v.set(
        "serve.landmark_precompute_s",
        spans::total_s(spans, "serve.landmark_precompute"),
    );
    v.set("serve.window_ms_p50", median(&window_ms));
    v.set("serve.window_ms_tail", tail(&window_ms).value);
    v.set(
        "serve.host_ms_per_lane",
        ratio(window_ms.iter().sum(), obs.stats.lanes_run as f64),
    );
    v.set(
        "baselines.dijkstra_root_ms_p50",
        median(&spans::each_ms(spans, "baselines.dijkstra")),
    );
}

/// Does the mirror reproduce the driver? Same roots, same supersteps, same
/// simulated time and TEPS to the bit (SSSP); same supersteps and QPS
/// (serving).
fn mirror_parity(reference: &CoreCall, obs: &Obs) -> bool {
    match obs {
        Obs::Sssp(o) => {
            let samples: Vec<(u64, f64)> = o
                .roots
                .iter()
                .map(|r| (r.traversed_edges, r.sim_time_s))
                .collect();
            let teps = TepsSummary::from_samples(&samples).harmonic_mean;
            reference.ops.len() == o.roots.len()
                && reference.sim_throughput.to_bits() == teps.to_bits()
                && reference.ops.iter().zip(&o.roots).all(|(a, b)| {
                    a.root == b.root
                        && a.supersteps == b.supersteps
                        && a.sim_time_s.to_bits() == b.sim_time_s.to_bits()
                })
        }
        Obs::Serve(o) => {
            let qps = o.stats.queries as f64 / o.serve_time_s;
            reference.serve_supersteps == o.stats.supersteps
                && reference.sim_throughput.to_bits() == qps.to_bits()
        }
    }
}

fn lost(e: FaultEscalation) -> String {
    format!("operations lost to a fault escalation: {e}")
}

/// The traced pass. Writes `<out_dir>/<workload>.trace.json` at the end.
pub fn run(w: &Workload, out_dir: &Path) -> Result<Pass, String> {
    let mut v = Values::default();
    v.set(
        "host.calibration_spin_ms",
        median_ms(3, || {
            black_box(calibration_spin(8_000_000));
        }),
    );
    let reference = core_call(&w.kind).map_err(lost)?;
    // nothing but the spin ran before the call: this peak is the driver's
    v.set("core.peak_rss_mb", peak_rss_mib());

    let rec = Recorder::new();
    let pool_before = pool_stats();
    let obs = mirror::run(w, &rec, Extent::Full).map_err(lost)?;
    let pool_after = pool_stats();
    let local_runs = (pool_after.local_runs - pool_before.local_runs) as f64;
    let steals = (pool_after.steals - pool_before.steals) as f64;
    v.set("rayon.local_runs", local_runs);
    v.set("rayon.steals", steals);
    v.set("rayon.parks", (pool_after.parks - pool_before.parks) as f64);
    v.set("rayon.steal_ratio", ratio(steals, steals + local_runs));

    let parity = mirror_parity(&reference, &obs);
    v.set("trace.mirror_parity", parity as u64 as f64);
    let built = obs.built();
    machine_metrics(&built.net, built.trace.as_ref(), w.ops() as f64, &mut v);
    let failed = match (&w.kind, &obs) {
        (Kind::Sssp(cfg), Obs::Sssp(o)) => {
            sssp_metrics(w, cfg, o, &rec, &mut v) + (w.ops() - o.roots.len()) as u64
        }
        (Kind::Serve(_), Obs::Serve(o)) => serve_metrics(o, w.ranks(), &rec, &mut v),
        _ => unreachable!("the mirror answers in the workload's own kind"),
    };
    codec_metrics(&mut v);
    simnet_metrics(w.ranks(), &mut v);

    let spans = rec.into_spans();
    setup_metrics(&spans, built, &mut v);
    match &obs {
        Obs::Sssp(o) => sssp_span_metrics(o, &spans, &mut v),
        Obs::Serve(o) => serve_span_metrics(o, &spans, &mut v),
    }
    v.set(
        "graph.csr_build_s",
        spans::total_s(&spans, "graph.csr_build"),
    );

    // span 0 is the mirror's root and its direct children are the phases
    let run_s = spans[0].seconds();
    let phases_s = run_s - spans::self_times_ns(&spans)[0] as f64 * 1e-9;
    let coverage = spans::layer_coverage(&spans);
    v.set("core.glue_s", reference.host_total_s - phases_s);
    v.set("trace.host_ratio", ratio(run_s, reference.host_total_s));
    v.set("trace.span_coverage", coverage);
    println!(
        "  note: traced mirror {run_s:.3} s, untraced driver {:.3} s; named layer calls cover {:.1}% of the mirror",
        reference.host_total_s,
        100.0 * coverage
    );
    if !parity {
        println!("  note: WARNING mirror_parity: the mirror's roots, supersteps or simulated times differ from the driver's");
    }
    if coverage < 0.9 {
        println!("  note: WARNING span_coverage: over 10% of the mirror is outside every named layer call");
    }

    let path = out_dir.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, spans::trace_json(w.name, w.seed, &spans).pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  note: spans written to {}", path.display());
    Ok(Pass {
        values: v,
        attempted: w.ops() as u64,
        failed,
    })
}
