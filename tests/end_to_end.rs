//! End-to-end integration: the full Graph500 pipeline — generate →
//! partition → assemble → solve → gather → validate → TEPS — across
//! kernels, partitions, machine shapes and optimization configurations.

use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::simnet::{LogGP, Machine, MachineConfig, Topology};
use graph500::sssp::{Direction, Grid2DSssp, OptConfig};
use graph500::validate::{validate_sssp, SsspResult};
use graph500::{run_bfs_benchmark, run_sssp_benchmark, BenchmarkConfig, PartitionStrategy};

#[test]
fn official_shape_run_validates() {
    // The real configuration in miniature: 64 roots, full stack.
    let mut cfg = BenchmarkConfig::graph500(9, 4);
    cfg.num_roots = 64;
    let rep = run_sssp_benchmark(&cfg);
    assert_eq!(rep.runs.len(), 64);
    assert!(rep.all_validated());
    assert!(rep.teps.harmonic_mean > 0.0);
    assert!(rep.teps.min <= rep.teps.harmonic_mean);
    assert!(rep.teps.harmonic_mean <= rep.teps.max);
}

#[test]
fn every_topology_validates() {
    for topo in [
        Topology::Crossbar,
        Topology::FatTree { radix: 4 },
        Topology::Torus2D { w: 2, h: 2 },
        Topology::Dragonfly { group: 2 },
    ] {
        let mut cfg = BenchmarkConfig::quick(8, 4);
        cfg.machine = cfg.machine.topology(topo);
        let rep = run_sssp_benchmark(&cfg);
        assert!(rep.all_validated(), "{topo:?}");
    }
}

#[test]
fn topology_changes_time_but_not_results() {
    let mk = |topo| {
        let mut cfg = BenchmarkConfig::quick(9, 8);
        cfg.machine = cfg.machine.topology(topo);
        run_sssp_benchmark(&cfg)
    };
    let xbar = mk(Topology::Crossbar);
    let torus = mk(Topology::Torus2D { w: 4, h: 2 });
    // identical traversal work...
    for (a, b) in xbar.runs.iter().zip(&torus.runs) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.traversed_edges, b.traversed_edges);
    }
    // ...but the multi-hop torus is slower in simulated time
    assert!(torus.teps.harmonic_mean < xbar.teps.harmonic_mean);
}

#[test]
fn slower_network_is_slower() {
    let mk = |loggp| {
        let mut cfg = BenchmarkConfig::quick(9, 4);
        cfg.machine = cfg.machine.loggp(loggp);
        cfg.validate = false;
        run_sssp_benchmark(&cfg).teps.harmonic_mean
    };
    let fast = mk(LogGP::default());
    let slow = mk(LogGP {
        latency: 50e-6,
        overhead: 10e-6,
        per_byte: 1.0 / 1e9,
    });
    assert!(slow < fast, "slow {slow} vs fast {fast}");
}

#[test]
fn bfs_and_sssp_agree_on_reachability() {
    let cfg = BenchmarkConfig::quick(9, 4);
    let bfs = run_bfs_benchmark(&cfg);
    let sssp = run_sssp_benchmark(&cfg);
    assert!(bfs.all_validated() && sssp.all_validated());
    // same roots (same seed) → the traversed-edge counts must coincide
    for (b, s) in bfs.runs.iter().zip(&sssp.runs) {
        assert_eq!(b.root, s.root);
        assert_eq!(b.traversed_edges, s.traversed_edges);
    }
}

#[test]
fn sssp_deterministic_across_runs() {
    let cfg = BenchmarkConfig::quick(8, 3);
    let a = run_sssp_benchmark(&cfg);
    let b = run_sssp_benchmark(&cfg);
    assert_eq!(a.teps.harmonic_mean, b.teps.harmonic_mean);
    assert_eq!(a.net.total_bytes(), b.net.total_bytes());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.traversed_edges, y.traversed_edges);
        assert_eq!(x.sim_time_s, y.sim_time_s);
    }
}

#[test]
fn optimizations_do_not_change_traversal() {
    let mk = |opts: OptConfig, part| {
        let mut cfg = BenchmarkConfig::quick(9, 4);
        cfg.opts = opts;
        cfg.partition = part;
        run_sssp_benchmark(&cfg)
    };
    let degree_aware = PartitionStrategy::DegreeAware { hub_factor: 8.0 };
    let base = mk(OptConfig::all_on(), degree_aware);
    for (name, rep) in [
        (
            "all_off",
            mk(OptConfig::all_off(), PartitionStrategy::Block),
        ),
        (
            // the degree rule's Δ, so the pull fetches heavy arcs; the
            // machine's price makes every arc light at 128 vertices a rank
            "pull",
            mk(
                OptConfig::all_on()
                    .with_direction(Direction::Pull)
                    .with_delta(0.125),
                degree_aware,
            ),
        ),
        ("cyclic", mk(OptConfig::all_on(), PartitionStrategy::Cyclic)),
    ] {
        assert!(rep.all_validated(), "{name}");
        for (a, b) in base.runs.iter().zip(&rep.runs) {
            assert_eq!(
                a.traversed_edges, b.traversed_edges,
                "{name}: root {}",
                a.root
            );
        }
    }
}

/// The acceptance check for deterministic mode: two `run_sssp_benchmark`
/// calls with identical seeds run the scale-10 pipeline end to end (1D
/// degree-aware layout, 8 ranks) and must agree on every distance vector,
/// every superstep count, and every per-rank `NetStats` — and every root
/// passes the full five-rule validator.
#[test]
fn scale10_deterministic_pipeline_1d_replays_identically() {
    let mut cfg = BenchmarkConfig::quick(10, 8).deterministic(0);
    cfg.keep_paths = true;
    let a = run_sssp_benchmark(&cfg);
    let b = run_sssp_benchmark(&cfg);
    assert!(a.all_validated(), "first run fails validation");
    assert!(b.all_validated(), "second run fails validation");
    assert_eq!(a.runs.len(), b.runs.len());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.root, y.root);
        assert_eq!(x.stats, y.stats, "kernel counters moved between replays");
        let (px, py) = (
            x.paths.as_ref().expect("kept"),
            y.paths.as_ref().expect("kept"),
        );
        assert_eq!(px.dist.len(), 1 << 10);
        for v in 0..px.dist.len() {
            assert_eq!(
                px.dist[v].to_bits(),
                py.dist[v].to_bits(),
                "root {}: distance moved at vertex {v}",
                x.root
            );
        }
        assert_eq!(px.parent, py.parent, "root {}: parents moved", x.root);
        assert_eq!(x.sim_time_s, y.sim_time_s);
        assert_eq!(x.traversed_edges, y.traversed_edges);
    }
    assert_eq!(a.per_rank_net, b.per_rank_net, "per-rank NetStats moved");
    assert_eq!(a.net, b.net, "aggregate NetStats moved");
    assert_eq!(a.construction_time_s, b.construction_time_s);
}

/// Same property for the 2D grid layout (not driven by the benchmark
/// driver): the full scale-10 pipeline — generate, 2D-partition, solve,
/// gather — replays byte-identically under the deterministic scheduler,
/// and the result passes the full five-rule validator.
#[test]
fn scale10_deterministic_pipeline_2d_replays_identically() {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(10, 20220814));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let csr_root = {
        // deterministic non-isolated root: first vertex that has an edge
        let mut has_edge = vec![false; n as usize];
        for e in el.iter() {
            has_edge[e.u as usize] = true;
            has_edge[e.v as usize] = true;
        }
        (0..n)
            .find(|&v| has_edge[v as usize])
            .expect("nonempty graph")
    };

    let run = || {
        let report = Machine::new(MachineConfig::with_ranks(p).deterministic(0)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
            let stats = g.run(ctx, csr_root);
            (g.gather(ctx), stats.supersteps)
        });
        let stats = report.stats.clone();
        let (sp, supersteps) = report.results.into_iter().next().expect("rank 0");
        (sp, supersteps, stats)
    };

    let (sp_a, steps_a, net_a) = run();
    let (sp_b, steps_b, net_b) = run();

    // full five-rule validation on the gathered result
    let res = SsspResult {
        root: csr_root,
        dist: sp_a.dist.clone(),
        parent: sp_a.parent.clone(),
    };
    let rep = validate_sssp(n, &el, &res);
    assert!(rep.ok, "2D pipeline fails validation: {:?}", rep.errors);
    assert!(rep.reached > 1 && rep.traversed_edges > 0);

    for v in 0..n as usize {
        assert_eq!(
            sp_a.dist[v].to_bits(),
            sp_b.dist[v].to_bits(),
            "distance moved at {v}"
        );
    }
    assert_eq!(sp_a.parent, sp_b.parent, "parents moved between replays");
    assert_eq!(steps_a, steps_b, "superstep count moved between replays");
    assert_eq!(net_a, net_b, "per-rank NetStats moved between replays");
}

#[test]
fn single_rank_machine_works() {
    let rep = run_sssp_benchmark(&BenchmarkConfig::quick(8, 1));
    assert!(rep.all_validated());
    // a single rank sends no point-to-point traffic
    assert_eq!(rep.net.user_msgs, 0);
}

#[test]
fn many_ranks_few_vertices() {
    // more ranks than some ranks have vertices to own — degenerate shapes
    let rep = run_sssp_benchmark(&BenchmarkConfig::quick(6, 16));
    assert!(rep.all_validated());
}

// ---------- the command line is strict ----------

fn g500(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_g500"))
        .args(args)
        .output()
        .expect("spawn g500")
}

/// A typo must not run a clean default benchmark and report success.
#[test]
fn cli_rejects_unknown_arguments_by_name() {
    let cases: [(&[&str], &str); 11] = [
        (
            &["sssp", "--scale", "6", "--crahs-rate", "0.5"],
            "--crahs-rate",
        ),
        (&["bfs", "--scale", "6", "--no-valdate"], "--no-valdate"),
        // what only SSSP reads is unknown to BFS, not ignored
        (
            &["bfs", "--scale", "6", "--partition", "block"],
            "--partition",
        ),
        (&["bfs", "--scale", "6", "--delta", "0.25"], "--delta"),
        (
            &["bfs", "--scale", "6", "--no-coalescing"],
            "--no-coalescing",
        ),
        (&["bfs", "--scale", "6", "--no-dedup"], "--no-dedup"),
        (
            &["bfs", "--scale", "6", "--no-compression"],
            "--no-compression",
        ),
        (&["bfs", "--scale", "6", "--no-fusion"], "--no-fusion"),
        (&["serve", "--scale", "6", "--bacth", "4"], "--bacth"),
        (&["stats", "--scale", "6", "--sed", "1"], "--sed"),
        (&["sssp", "--scale", "6", "--ranks", "2", "stray"], "stray"),
    ];
    for (args, culprit) in cases {
        let out = g500(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line, not the usage text");
    }
}

/// A value that parses but that no run can use is refused before anything
/// runs, by the flag's name and what it accepts — not by a panic from
/// inside a rank thread (`--delta 0` died in `BucketQueue::new`, `--ranks 0`
/// in `Machine::new`, `--roots 0` in the root sampler's "graph too small").
/// Nor does a value run as something else: a budget past `u32::MAX` used to
/// wrap to a small one, `--batch 0` ran at width 1 and reported 0,
/// `--p2p` past 1000 per mille made every query point-to-point, and
/// `--checkpoint-interval 0` ran at interval 1. A fault or crash rate
/// outside `[0, 1]`, a deadline that is not positive, and a value that does
/// not parse are refused the same way, by the flag's name.
#[test]
fn cli_rejects_out_of_range_values_by_name() {
    let cases: [(&[&str], &str); 38] = [
        (&["sssp", "--scale", "0"], "--scale"),
        (&["sssp", "--scale", "64"], "--scale"),
        (&["bfs", "--scale", "0"], "--scale"),
        (&["bfs", "--scale", "64"], "--scale"),
        (&["serve", "--scale", "0"], "--scale"),
        (&["serve", "--scale", "64"], "--scale"),
        (&["stats", "--scale", "0"], "--scale"),
        (&["stats", "--scale", "64"], "--scale"),
        (
            &["sssp", "--scale", "8", "--ranks", "2", "--delta", "0"],
            "--delta",
        ),
        (&["sssp", "--scale", "8", "--delta", "-1"], "--delta"),
        (&["sssp", "--scale", "8", "--delta", "nan"], "--delta"),
        (&["sssp", "--scale", "8", "--delta", "inf"], "--delta"),
        // under the degree rule's floor: dense bucket queues would ask for
        // 24 GiB, or index bucket `usize::MAX`
        (
            &["sssp", "--scale", "8", "--ranks", "2", "--delta", "1e-9"],
            "--delta",
        ),
        (
            &["sssp", "--scale", "8", "--ranks", "2", "--delta", "1e-30"],
            "--delta",
        ),
        (&["sssp", "--scale", "8", "--ranks", "0"], "--ranks"),
        (&["sssp", "--scale", "8", "--roots", "0"], "--roots"),
        (&["bfs", "--scale", "8", "--ranks", "0"], "--ranks"),
        (&["bfs", "--scale", "8", "--roots", "0"], "--roots"),
        (&["serve", "--scale", "8", "--ranks", "0"], "--ranks"),
        (
            &["sssp", "--scale", "8", "--retry-budget", "4294967296"],
            "--retry-budget",
        ),
        (
            &["sssp", "--scale", "8", "--recovery-budget", "4294967296"],
            "--recovery-budget",
        ),
        (&["serve", "--scale", "8", "--batch", "0"], "--batch"),
        (&["serve", "--scale", "8", "--p2p", "5000"], "--p2p"),
        (
            &[
                "sssp",
                "--scale",
                "8",
                "--ranks",
                "2",
                "--checkpoint-interval",
                "0",
                "--crash-rate",
                "0.1",
            ],
            "--checkpoint-interval",
        ),
        (
            &["serve", "--scale", "8", "--checkpoint-interval", "0"],
            "--checkpoint-interval",
        ),
        (
            &["sssp", "--scale", "8", "--drop-rate", "1.5"],
            "--drop-rate",
        ),
        (&["bfs", "--scale", "8", "--dup-rate", "-0.1"], "--dup-rate"),
        (
            &["sssp", "--scale", "8", "--corrupt-rate", "nan"],
            "--corrupt-rate",
        ),
        (
            &["sssp", "--scale", "8", "--reorder-rate", "2"],
            "--reorder-rate",
        ),
        (
            &["serve", "--scale", "8", "--crash-rate", "1.5"],
            "--crash-rate",
        ),
        (&["serve", "--scale", "8", "--deadline", "-1"], "--deadline"),
        (
            &["serve", "--scale", "8", "--deadline", "nan"],
            "--deadline",
        ),
        (&["serve", "--scale", "8", "--deadline", "0"], "--deadline"),
        // a value that does not parse at all
        (&["sssp", "--scale", "8", "--roots", "abc"], "--roots"),
        (&["stats", "--scale", "twelve"], "--scale"),
        (&["sssp", "--scale", "8", "--drop-rate", "x"], "--drop-rate"),
        (&["sssp", "--scale", "8", "--delta", "wide"], "--delta"),
        (
            &["serve", "--scale", "8", "--deadline", "soon"],
            "--deadline",
        ),
    ];
    for (args, culprit) in cases {
        let out = g500(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.contains(culprit), "{args:?}: {stderr}");
        assert!(stderr.contains("it takes"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

/// Every flag the usage text lists for a command is accepted by it — read
/// from `g500 --help` itself, so a flag added to one and not the other
/// fails here.
#[test]
fn cli_accepts_every_flag_its_usage_lists() {
    let help = String::from_utf8(g500(&["--help"]).stderr).expect("utf8 usage");
    let synopsis = help.split("\n\n").next().expect("usage synopsis");
    let fault_flags = [
        "--fault-seed",
        "--drop-rate",
        "--dup-rate",
        "--corrupt-rate",
        "--reorder-rate",
        "--retry-budget",
    ];
    let crash_flags = [
        "--crash-seed",
        "--crash-rate",
        "--checkpoint-interval",
        "--recovery-budget",
    ];
    let trace_path = std::env::temp_dir().join(format!("g500_cli_{}.json", std::process::id()));
    let trace_path = trace_path.to_str().expect("utf8 temp path");
    // a sample value per flag that takes one; the rest are switches
    let value = |flag: &str| -> Option<&str> {
        Some(match flag {
            "--scale" => "7",
            "--ranks" | "--batch" | "--retry-budget" => "4",
            "--roots" | "--sched-seed" | "--threads" | "--landmarks" => "1",
            "--seed" | "--fault-seed" | "--crash-seed" | "--lru" => "3",
            "--topology" => "torus",
            "--partition" => "cyclic",
            "--delta" => "0.25",
            "--direction" => "push",
            "--drop-rate" | "--dup-rate" | "--corrupt-rate" | "--reorder-rate" => "0.01",
            "--crash-rate" => "0.001",
            "--checkpoint-interval" | "--queries" => "8",
            "--recovery-budget" => "64",
            "--p2p" => "500",
            "--pool" => "16",
            "--deadline" => "10",
            "--trace-out" => trace_path,
            _ => return None,
        })
    };
    let mut commands = 0;
    for block in synopsis.split("\n  g500 ").skip(1) {
        let cmd = block.split_whitespace().next().expect("command name");
        let mut flags: Vec<&str> = block
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| t.starts_with("--"))
            .collect();
        if block.contains("fault flags as above") {
            flags.extend(fault_flags);
            flags.extend(crash_flags);
        }
        if block.contains("crash flags as above") {
            flags.extend(crash_flags);
        }
        let mut args = vec![cmd];
        for flag in flags {
            args.push(flag);
            args.extend(value(flag));
        }
        let out = g500(&args);
        assert!(
            out.status.success(),
            "g500 {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        commands += 1;
    }
    assert_eq!(commands, 4, "sssp, bfs, serve, stats");
    let _ = std::fs::remove_file(trace_path);
}

/// A Chrome trace that cannot be written ends the run with exit 1 and the
/// path named, before any report is printed without it.
#[test]
fn cli_trace_out_to_an_unwritable_path_exits_1_naming_it() {
    let dir = std::env::temp_dir().join(format!("g500_no_such_dir_{}", std::process::id()));
    let path = dir.join("trace.json");
    let path = path.to_str().expect("utf8 temp path");
    for cmd in ["sssp", "bfs"] {
        let args = [cmd, "--scale", "6", "--ranks", "2", "--roots", "1"];
        let out = g500(&[&args[..], &["--trace-out", path]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains(path), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} printed a report");
    }
}
