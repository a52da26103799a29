//! `g500` — the command-line front end.
//!
//! ```text
//! g500 sssp  --scale 14 --ranks 8 [--roots 64] [--topology fat-tree|torus|crossbar|dragonfly]
//!            [--partition block|cyclic|degree-aware] [--no-validate]
//!            [--delta 0.125] [--direction push|pull|hybrid]
//!            [--no-coalescing] [--no-dedup] [--no-compression] [--no-fusion]
//! g500 bfs   --scale 14 --ranks 8 [--roots 64] [--direction push|pull|hybrid] [--no-validate]
//! g500 stats --scale 14
//! ```
//!
//! Argument parsing is hand-rolled (two flags' worth of logic does not
//! justify a dependency) and strict: an argument no command reads is an
//! error (exit 2), never a silently ignored typo.

use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{component_stats, Csr, DegreeStats, Directedness, VertexId, Weight};
use graph500::simnet::Topology;
use graph500::sssp::{Direction, MIN_DELTA};
use graph500::{
    try_run_bfs_benchmark, try_run_query_serving_benchmark, try_run_sssp_benchmark,
    BenchmarkConfig, BenchmarkReport, CrashPlan, FaultEscalation, FaultPlan, PartitionStrategy,
    ServeBenchConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  g500 sssp  --scale N --ranks P [--roots K] [--seed S] [--topology T] \\\n             [--partition block|cyclic|degree-aware] [--no-validate] [--delta D] \\\n             [--direction push|pull|hybrid] [--no-coalescing] [--no-dedup] \\\n             [--no-compression] [--no-fusion] [--deterministic] [--sched-seed S] \\\n             [--threads T] [--fault-seed S] [--drop-rate P] [--dup-rate P] \\\n             [--corrupt-rate P] [--reorder-rate P] [--retry-budget N] \\\n             [--crash-seed S] [--crash-rate P] [--checkpoint-interval K] \\\n             [--recovery-budget N] [--trace] [--trace-out PATH]\n  g500 bfs   --scale N --ranks P [--roots K] [--seed S] [--topology T] \\\n             [--direction push|pull|hybrid] [--no-validate] [--json] \\\n             [--deterministic] [--sched-seed S] [--threads T] [--trace] \\\n             [--trace-out PATH] [fault flags as above]\n  g500 serve --scale N --ranks P [--queries Q] [--batch B] [--landmarks K] \\\n             [--lru C] [--p2p PERMILLE] [--pool S] [--seed S] [--json] \\\n             [--deterministic] [--sched-seed S] [--threads T] [--deadline SEC] \\\n             [crash flags as above]\n  g500 stats --scale N [--seed S] [--threads T]\n\n  --delta fixes the bucket width, at least 0.001 (the degree rule's\n  floor); by default each run prices it from the machine.\n  serve keeps the graph resident and answers a deterministic synthetic\n  stream of full and point-to-point SSSP queries in admission windows of\n  --batch through the batched kernel, with --landmarks triangle-bound\n  pruning and an --lru full-result cache; it reports virtual-time QPS\n  and p50/p95/p99 latency.\n  --deterministic runs the simulated machine under the seeded serialized\n  scheduler: the same --seed/--sched-seed pair replays byte-identical\n  results and NetStats. --sched-seed (default 0 = canonical order)\n  additionally fuzzes message delivery order and implies --deterministic.\n  --threads sizes the host thread pool of generation and build (overrides\n  G500_THREADS; default: hardware parallelism). Results are bitwise identical at any\n  thread count — only wall time changes.\n  --drop-rate/--dup-rate/--corrupt-rate/--reorder-rate (all default 0)\n  inject seeded lossy-network faults, replayable from --fault-seed; the\n  reliable transport masks them, so distances and validation are\n  byte-identical to the fault-free run — only virtual time and the\n  retransmit counters change. --retry-budget (default 16) bounds\n  retransmissions per frame before a fail-stop TransportError.\n  --crash-rate (default 0) injects seeded whole-rank process crashes at\n  superstep boundaries, replayable from --crash-seed; the kernel takes\n  buddy-replicated checkpoints every --checkpoint-interval supersteps\n  (default 4) and rolls back on each crash, so distances stay\n  byte-identical to the fault-free run. --recovery-budget (default 64)\n  bounds restarts before the run ends with a typed error. Under serve,\n  an unrecoverable window is retried once and then its queries are shed\n  (reported, never a panic); --deadline SEC additionally sheds answers\n  whose virtual latency exceeds SEC.\n  --trace (or G500_TRACE=1) records a virtual-time trace: the report\n  gains a per-superstep compute/comm/wait breakdown, and --trace-out\n  PATH (default trace.json with --trace-out alone) writes Chrome\n  trace_event JSON for chrome://tracing or ui.perfetto.dev. Tracing\n  never changes results: distances, NetStats, and the untraced report\n  fields are byte-identical with tracing on or off."
    );
    std::process::exit(2)
}

/// The tokens after the subcommand. Every accessor claims the tokens it
/// reads; whatever is still unclaimed once a command has read all of its
/// flags is a typo, and [`Args::reject_unclaimed`] refuses to run with it.
struct Args {
    tokens: Vec<String>,
    claimed: std::cell::RefCell<Vec<bool>>,
}

impl Args {
    fn new(tokens: Vec<String>) -> Self {
        let claimed = std::cell::RefCell::new(vec![false; tokens.len()]);
        Args { tokens, claimed }
    }

    /// Position of flag `name`, claiming it.
    fn claim(&self, name: &str) -> Option<usize> {
        let i = self.tokens.iter().position(|a| a == name)?;
        self.claimed.borrow_mut()[i] = true;
        Some(i)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.claim(name)?;
        let Some(v) = self.tokens.get(i + 1) else {
            eprintln!("missing value for {name}");
            usage()
        };
        self.claimed.borrow_mut()[i + 1] = true;
        Some(v)
    }

    /// `name`'s value, or `default` without the flag; a value that does not
    /// parse is refused as not `what`.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T, what: &str) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| reject_range(name, v, what)),
        }
    }

    fn num(&self, name: &str, default: u64) -> u64 {
        self.parsed(name, default, "an unsigned integer")
    }

    /// A fault or crash probability: refused outside `[0, 1]` (NaN too) by
    /// the flag it came from.
    fn rate(&self, name: &str) -> f64 {
        let p = self.parsed(name, 0.0, "a number");
        if !(0.0..=1.0).contains(&p) {
            reject_range(name, p, "a probability in [0, 1]");
        }
        p
    }

    fn has(&self, name: &str) -> bool {
        self.claim(name).is_some()
    }

    /// Where `--trace-out` asks for the Chrome trace: the path after the
    /// flag, or `trace.json` when the flag carries none (it is last, or
    /// the next token is another flag).
    fn trace_out(&self) -> Option<&str> {
        let i = self.claim("--trace-out")?;
        match self.tokens.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.claimed.borrow_mut()[i + 1] = true;
                Some(v)
            }
            _ => Some("trace.json"),
        }
    }

    /// `--ranks`: at least one, or the machine has nobody to run the
    /// kernel.
    fn ranks(&self) -> usize {
        let ranks = self.num("--ranks", 4);
        if ranks == 0 {
            reject_range("--ranks", ranks, "at least 1");
        }
        ranks as usize
    }

    /// `--scale`, default 12, refused outside the generator's range, and
    /// refused when the host cannot allocate the edge list every command
    /// generates first (an allocation failure would abort the process).
    fn scale(&self) -> u32 {
        let (scale, takes) = (self.num("--scale", 12), KroneckerParams::SCALES);
        if !takes.contains(&u32::try_from(scale).unwrap_or(u32::MAX)) {
            let accepted = format!("{} to {}", takes.start(), takes.end());
            reject_range("--scale", scale, &accepted);
        }
        // in u128: at the top scales the edge count overflows a u64
        let edges = u128::from(KroneckerParams::graph500(scale as u32, 0).edgefactor) << scale;
        let bytes = edges * EDGE_BYTES as u128;
        let fits =
            usize::try_from(bytes).is_ok_and(|b| Vec::<u8>::new().try_reserve_exact(b).is_ok());
        if !fits {
            let accepted = format!(
                "a scale whose edge list this host can allocate ({} GiB at scale {scale})",
                bytes >> 30
            );
            reject_range("--scale", scale, &accepted);
        }
        scale as u32
    }

    /// A budget the fault plans keep as `u32`: refused past `u32::MAX`,
    /// not truncated to whatever the cast leaves.
    fn budget(&self, name: &str, default: u32) -> u32 {
        let n = self.num(name, default.into());
        u32::try_from(n).unwrap_or_else(|_| reject_range(name, n, &format!("0 to {}", u32::MAX)))
    }

    /// Exit 2 naming the first token no accessor claimed: a misspelled
    /// flag must not silently run the default configuration, nor a
    /// repeated one run on whichever copy an accessor finds first (a copy
    /// of a flag claimed earlier is named as given twice).
    fn reject_unclaimed(&self) {
        let claimed = self.claimed.borrow();
        if let Some(i) = claimed.iter().position(|&c| !c) {
            let token = &self.tokens[i];
            let repeated = (0..i).any(|j| claimed[j] && self.tokens[j] == *token);
            if token.starts_with("--") && repeated {
                eprintln!("g500: {token} given twice");
            } else {
                eprintln!("g500: unknown argument: {token} (g500 --help lists the flags)");
            }
            std::process::exit(2)
        }
    }
}

/// Host bytes of one generated edge: two endpoints and a weight.
const EDGE_BYTES: usize = 2 * std::mem::size_of::<VertexId>() + std::mem::size_of::<Weight>();

/// Exit 2 naming a flag whose value parsed but that no run can use, and
/// what it accepts: one line, before anything runs — not a panic from
/// inside a rank thread.
fn reject_range(flag: &str, got: impl std::fmt::Display, accepted: &str) -> ! {
    eprintln!("g500: {flag} {got} is out of range: it takes {accepted}");
    std::process::exit(2)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let args = Args::new(argv.collect());

    // Size the pool before any parallel work runs (its size is
    // process-global and fixed at first use).
    let threads = args.num("--threads", 0) as usize;
    if threads > 0 {
        graph500::rayon::configure_threads(threads);
    }

    match cmd.as_str() {
        "sssp" => cmd_kernel(&args, "sssp", sssp_cfg(&args), try_run_sssp_benchmark),
        "bfs" => cmd_kernel(&args, "bfs", build_cfg(&args), try_run_bfs_benchmark),
        "serve" => cmd_serve(&args),
        "stats" => cmd_stats(&args),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage()
        }
    }
}

/// Parse the crash-injection flags shared by `sssp`, `bfs` and `serve`.
fn crash_plan(args: &Args) -> CrashPlan {
    let every = args.num("--checkpoint-interval", 4);
    if every == 0 {
        reject_range("--checkpoint-interval", every, "at least 1");
    }
    CrashPlan::random(args.num("--crash-seed", 0), args.rate("--crash-rate"))
        .with_checkpoint_interval(every)
        .with_recovery_budget(args.budget("--recovery-budget", 64))
}

fn build_cfg(args: &Args) -> BenchmarkConfig {
    let scale = args.scale();
    let ranks = args.ranks();
    let mut cfg = BenchmarkConfig::graph500(scale, ranks);
    cfg.num_roots = args.num("--roots", 64) as usize;
    if cfg.num_roots == 0 {
        reject_range("--roots", 0, "at least 1");
    }
    cfg.seed = args.num("--seed", cfg.seed);
    cfg.validate = !args.has("--no-validate");
    cfg.threads = args.num("--threads", 0) as usize;
    if args.has("--deterministic") || args.has("--sched-seed") {
        cfg = cfg.deterministic(args.num("--sched-seed", 0));
    }
    let fault = FaultPlan::none()
        .with_seed(args.num("--fault-seed", 0))
        .with_drop(args.rate("--drop-rate"))
        .with_duplicate(args.rate("--dup-rate"))
        .with_corrupt(args.rate("--corrupt-rate"))
        .with_reorder(args.rate("--reorder-rate"))
        .with_retry_budget(args.budget("--retry-budget", 16));
    cfg = cfg.faults(fault);
    cfg = cfg.crashes(crash_plan(args));
    let env_trace = matches!(
        std::env::var("G500_TRACE").ok().as_deref(),
        Some("1") | Some("true")
    );
    // read both flags before testing either, so both are claimed
    let (trace, trace_out) = (args.has("--trace"), args.trace_out().is_some());
    if trace || trace_out || env_trace {
        cfg = cfg.traced(true);
    }
    if let Some(t) = args.value("--topology") {
        let side = (ranks as f64).sqrt().ceil().max(1.0) as u32;
        cfg.machine = cfg.machine.topology(match t {
            "crossbar" => Topology::Crossbar,
            "fat-tree" => Topology::FatTree { radix: 4 },
            "torus" => Topology::Torus2D {
                w: side,
                h: (ranks as u32).div_ceil(side),
            },
            "dragonfly" => Topology::Dragonfly { group: side.max(2) },
            other => {
                eprintln!("unknown topology: {other}");
                usage()
            }
        });
    }
    if let Some(d) = args.value("--direction") {
        cfg.opts = cfg.opts.with_direction(match d {
            "push" => Direction::Push,
            "pull" => Direction::Pull,
            "hybrid" => Direction::Hybrid,
            other => {
                eprintln!("unknown direction: {other}");
                usage()
            }
        });
    }
    cfg
}

/// [`build_cfg`] and the flags only SSSP reads: the placement, the bucket
/// width and the optimisations it can switch off.
fn sssp_cfg(args: &Args) -> BenchmarkConfig {
    let mut cfg = build_cfg(args);
    if let Some(p) = args.value("--partition") {
        cfg.partition = match p {
            "block" => PartitionStrategy::Block,
            "cyclic" => PartitionStrategy::Cyclic,
            "degree-aware" => PartitionStrategy::DegreeAware { hub_factor: 8.0 },
            other => {
                eprintln!("unknown partition: {other}");
                usage()
            }
        };
    }
    let opts = &mut cfg.opts;
    if args.has("--no-coalescing") {
        *opts = opts.without_coalescing();
    }
    if args.has("--no-dedup") {
        *opts = opts.without_dedup();
    }
    if args.has("--no-compression") {
        *opts = opts.without_compression();
    }
    if args.has("--no-fusion") {
        *opts = opts.without_fusion();
    }
    if let Some(d) = args.value("--delta") {
        let accepted = &format!("a finite bucket width of at least {MIN_DELTA}");
        let delta: f32 = d
            .parse()
            .unwrap_or_else(|_| reject_range("--delta", d, accepted));
        if !(delta >= MIN_DELTA && delta.is_finite()) {
            reject_range("--delta", d, accepted);
        }
        *opts = opts.with_delta(delta);
    }
    cfg
}

/// What `g500 sssp` and `g500 bfs` run.
type Benchmark = fn(&BenchmarkConfig) -> Result<BenchmarkReport, FaultEscalation>;

/// `g500 sssp` and `g500 bfs`: run the benchmark `cfg` describes and print
/// its report (JSON or rendered), after writing the Chrome trace when
/// `--trace-out` asked for one. Exit 1 with one line on a fault escalation
/// or an unwritable trace, and when validation was on and any root failed
/// it.
fn cmd_kernel(args: &Args, name: &str, cfg: BenchmarkConfig, run: Benchmark) {
    let json = args.has("--json");
    args.reject_unclaimed();
    eprintln!(
        "g500 {name}: scale {}, {} ranks, {} roots…",
        cfg.scale, cfg.machine.ranks, cfg.num_roots
    );
    let rep = run(&cfg).unwrap_or_else(|e| {
        eprintln!("g500 {name}: {e}");
        std::process::exit(1);
    });
    if let (Some(path), Some(trace)) = (args.trace_out(), rep.trace.as_ref()) {
        match std::fs::write(path, trace.to_chrome_json()) {
            Ok(()) => eprintln!("wrote Chrome trace to {path}"),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if json {
        println!("{}", rep.to_json());
    } else {
        println!("{}", rep.render());
        if cfg.validate {
            println!("validated:             {}", rep.all_validated());
        }
    }
    if cfg.validate && !rep.all_validated() {
        std::process::exit(1);
    }
}

fn cmd_serve(args: &Args) {
    let scale = args.scale();
    let mut cfg = ServeBenchConfig::new(scale, args.ranks());
    cfg.num_queries = args.num("--queries", 64) as usize;
    cfg.batch_width = args.num("--batch", 16) as usize;
    if cfg.batch_width == 0 {
        reject_range("--batch", 0, "at least 1");
    }
    cfg.num_landmarks = args.num("--landmarks", 4) as usize;
    cfg.lru_capacity = args.num("--lru", 8) as usize;
    cfg.p2p_permille = args.num("--p2p", 500);
    if cfg.p2p_permille > 1000 {
        reject_range("--p2p", cfg.p2p_permille, "0 to 1000 (per mille)");
    }
    cfg.source_pool = args.num("--pool", 0) as usize;
    cfg.seed = args.num("--seed", cfg.seed);
    cfg.threads = args.num("--threads", 0) as usize;
    cfg.deadline_s = args.parsed("--deadline", f64::INFINITY, "a number");
    if cfg.deadline_s <= 0.0 || cfg.deadline_s.is_nan() {
        reject_range("--deadline", cfg.deadline_s, "a positive number of seconds");
    }
    if args.has("--deterministic") || args.has("--sched-seed") {
        cfg = cfg.deterministic(args.num("--sched-seed", 0));
    }
    cfg = cfg.crashes(crash_plan(args));
    let json = args.has("--json");
    args.reject_unclaimed();
    eprintln!(
        "g500 serve: scale {}, {} ranks, {} queries at window {}…",
        cfg.scale, cfg.machine.ranks, cfg.num_queries, cfg.batch_width
    );
    let rep = match try_run_query_serving_benchmark(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("g500 serve: {e}");
            std::process::exit(1);
        }
    };
    if json {
        println!("{}", rep.to_json());
    } else {
        println!("{}", rep.render());
    }
}

fn cmd_stats(args: &Args) {
    let scale = args.scale();
    let seed = args.num("--seed", 20220814);
    args.reject_unclaimed();
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, seed));
    let el = gen.generate_all();
    let n = gen.params().num_vertices() as usize;
    let csr = Csr::from_edges(n, &el, Directedness::Undirected);
    let d = DegreeStats::from_csr(&csr);
    let cc = component_stats(n, &el);
    println!("scale:            {scale}");
    println!("vertices:         {n}");
    println!("edge records:     {}", el.len());
    println!("max degree:       {}", d.max);
    println!("mean degree:      {:.2}", d.mean);
    println!("median degree:    {}", d.median);
    println!(
        "isolated:         {} ({:.1}%)",
        d.isolated,
        100.0 * d.isolated as f64 / n as f64
    );
    println!("top-1% arc share: {:.1}%", 100.0 * d.top1pct_arc_share);
    println!("components:       {}", cc.components);
    println!(
        "giant component:  {} ({:.1}%)",
        cc.giant_size,
        100.0 * cc.giant_size as f64 / n as f64
    );
}
