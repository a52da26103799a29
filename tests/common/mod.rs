//! Tiny self-contained property-testing toolkit shared by the integration
//! tests. The workspace builds offline (no proptest), so randomized tests
//! run a fixed number of cases from a seeded SplitMix64 stream: failures
//! print the case seed, and rerunning is always deterministic.

// Different test binaries use different subsets of this module.
#![allow(dead_code)]

/// SplitMix64 — tiny, seedable, and statistically fine for test-case
/// generation. Same constants as `simnet::sched::splitmix64`.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`; requires `hi > lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_u64() % (hi - lo)
    }

    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * (hi - lo)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Arbitrary small weighted multigraph: `(n, edges)` with `n` in `[2, 40)`,
/// up to 120 edges (self-loops and duplicates allowed — the kernels must
/// cope), weights in `(0, 1]`.
pub fn arb_graph(rng: &mut Rng) -> (u64, Vec<(u64, u64, f32)>) {
    let n = rng.range(2, 40);
    let m = rng.usize(0, 120);
    let edges = (0..m)
        .map(|_| (rng.range(0, n), rng.range(0, n), rng.f32(1e-3, 1.0)))
        .collect();
    (n, edges)
}

/// Adversarial graph families — classic constructions that break shortcuts
/// priority-queue SSSP implementations like to take. Each is a *seeded
/// family*: the shape is fixed, edge weights carry seeded jitter, so every
/// seed is a fresh adversary and every failure replays from its seed.
/// Returned as `(n, edges)` raw tuples so callers can build an `EdgeList`
/// or a `Csr` as needed.
pub mod adversarial {
    use super::Rng;

    /// Kills "settle on first insertion" Dijkstra variants: every vertex
    /// of a cheap chain sprays a far target set with weights *decreasing*
    /// along the chain, so each target's tentative distance improves on
    /// hop after hop and the queue fills with stale entries that must be
    /// skipped, not trusted.
    pub fn wrong_dijkstra_killer(seed: u64) -> (u64, Vec<(u64, u64, f32)>) {
        let mut rng = Rng::new(seed ^ 0xD1D1);
        let chain = 48u64;
        let targets = 16u64;
        let n = chain + 1 + targets;
        let mut edges = Vec::new();
        for i in 0..chain {
            edges.push((i, i + 1, 0.01 + rng.f32(0.0, 1e-3)));
        }
        for t in 0..targets {
            let tv = chain + 1 + t;
            for i in 0..chain {
                if rng.next_u64().is_multiple_of(3) {
                    // dist(i) ≈ 0.01·i, so the candidate through i is
                    // ≈ 2 + 0.05·chain − 0.04·i: strictly improving in i
                    let w = 2.0 + (chain - i) as f32 * 0.05 + rng.f32(0.0, 1e-3);
                    edges.push((i, tv, w));
                }
            }
        }
        (n, edges)
    }

    /// Kills queue-order label-correcting (SPFA): a hub chain whose edge
    /// weights shrink geometrically, each hub spraying a shared tail — a
    /// correction wave sweeps the whole tail once per hub unless the
    /// implementation orders work by priority.
    pub fn spfa_killer(seed: u64) -> (u64, Vec<(u64, u64, f32)>) {
        let mut rng = Rng::new(seed ^ 0x5FFA);
        let hubs = 24u64;
        let tail = 48u64;
        let n = hubs + 1 + tail;
        let mut edges = Vec::new();
        let mut w = 2.0f32;
        for i in 0..hubs {
            edges.push((i, i + 1, w + rng.f32(0.0, 1e-3)));
            w *= 0.7;
        }
        for i in 0..=hubs {
            for t in 0..tail {
                if rng.next_u64().is_multiple_of(4) {
                    let tv = hubs + 1 + t;
                    edges.push((i, tv, 8.0 - i as f32 * 0.3 + rng.f32(0.0, 1e-2)));
                }
            }
        }
        (n, edges)
    }

    /// A square grid whose weights swirl around the center in rings, so the
    /// shortest-path tree spirals instead of radiating: delta-stepping
    /// reinserts boundary vertices across many buckets, and 2D layouts see
    /// maximally unaligned frontiers. Integer ring arithmetic only — no
    /// trig, so the family is platform-exact.
    pub fn grid_swirl(seed: u64) -> (u64, Vec<(u64, u64, f32)>) {
        let mut rng = Rng::new(seed ^ 0x5817);
        let side = 13i64;
        let n = (side * side) as u64;
        let at = |r: i64, c: i64| (r * side + c) as u64;
        let center = side / 2;
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let ring = (r - center).abs().max((c - center).abs());
                let twist = (r * 5 + c * 3 + ring * 7).rem_euclid(11) as f32;
                let w = 0.05 + twist * 0.13 + rng.f32(0.0, 1e-2);
                if c + 1 < side {
                    edges.push((at(r, c), at(r, c + 1), w));
                }
                if r + 1 < side {
                    edges.push((at(r, c), at(r + 1, c), w * 0.9 + 0.01));
                }
            }
        }
        (n, edges)
    }

    /// A long path with a handful of random chords: diameter ≈ n, so the
    /// bucket structure is almost entirely empty space — the adversary for
    /// next-bucket scanning: the bucket queue's cursor walks long runs of
    /// empty lanes here.
    pub fn almost_line(seed: u64) -> (u64, Vec<(u64, u64, f32)>) {
        let mut rng = Rng::new(seed ^ 0xA11E);
        let n = 220u64;
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1, 0.9 + rng.f32(0.0, 0.2)));
        }
        for _ in 0..n / 20 {
            let a = rng.range(0, n);
            let b = rng.range(0, n);
            if a != b {
                edges.push((a, b, 5.0 + rng.f32(0.0, 10.0)));
            }
        }
        (n, edges)
    }

    /// Dense zero-weight plateaus: cliques of weight-0 edges bridged by
    /// positive edges (plus a few zero bridges). Exact SSSP must flood each
    /// plateau at one distance — the adversary for tie-breaking, bucket-0
    /// churn, and zero-cycle handling in the BMSSP transform.
    pub fn max_dense_zero(seed: u64) -> (u64, Vec<(u64, u64, f32)>) {
        let mut rng = Rng::new(seed ^ 0x2E80);
        let clusters = 6u64;
        let size = 8u64;
        let n = clusters * size;
        let mut edges = Vec::new();
        for cl in 0..clusters {
            let base = cl * size;
            for a in 0..size {
                for b in (a + 1)..size {
                    edges.push((base + a, base + b, 0.0));
                }
            }
        }
        for cl in 0..clusters - 1 {
            // a guaranteed positive bridge keeps the family connected
            let a = cl * size + rng.range(0, size);
            let b = (cl + 1) * size + rng.range(0, size);
            edges.push((a, b, 0.2 + rng.f32(0.0, 1.0)));
            // and a few extra bridges, some of them zero: plateaus merge
            for _ in 0..3 {
                let a = rng.range(0, n);
                let b = rng.range(0, n);
                let w = if rng.next_u64().is_multiple_of(3) {
                    0.0
                } else {
                    0.2 + rng.f32(0.0, 1.0)
                };
                if a != b {
                    edges.push((a, b, w));
                }
            }
        }
        (n, edges)
    }

    /// One adversarial case: (family name, vertex count, edge list).
    pub type AdversarialCase = (&'static str, u64, Vec<(u64, u64, f32)>);

    /// All five families at one seed, labeled for test output.
    pub fn all(seed: u64) -> Vec<AdversarialCase> {
        let (n1, e1) = wrong_dijkstra_killer(seed);
        let (n2, e2) = spfa_killer(seed);
        let (n3, e3) = grid_swirl(seed);
        let (n4, e4) = almost_line(seed);
        let (n5, e5) = max_dense_zero(seed);
        vec![
            ("wrong_dijkstra_killer", n1, e1),
            ("spfa_killer", n2, e2),
            ("grid_swirl", n3, e3),
            ("almost_line", n4, e4),
            ("max_dense_zero", n5, e5),
        ]
    }
}

/// Run `f` over `cases` deterministic seeds derived from `base_seed`,
/// reporting the failing case seed on panic so it can be replayed alone.
pub fn for_cases(base_seed: u64, cases: usize, f: impl Fn(&mut Rng) + std::panic::RefUnwindSafe) {
    for case in 0..cases {
        let seed = base_seed ^ (case as u64).wrapping_mul(0xD134_2543_DE82_EF95);
        let result = std::panic::catch_unwind(|| {
            let mut rng = Rng::new(seed);
            f(&mut rng);
        });
        if let Err(e) = result {
            eprintln!("property failed on case {case} (replay seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

/// Build a [`graph500::FaultPlan`] from the `G500_*` fault environment
/// variables, mirroring the experiment harnesses. Inactive (perfect
/// network) when unset, so default test runs are unchanged; CI's lossy
/// profile exports the variables to re-run whole suites over a faulty
/// network and prove the results don't move.
pub fn fault_overlay() -> graph500::FaultPlan {
    fn env_f64(name: &str) -> f64 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
    fn env_u64(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
    let plan = graph500::FaultPlan::none()
        .with_seed(env_u64("G500_FAULT_SEED", 0))
        .with_drop(env_f64("G500_DROP_RATE"))
        .with_duplicate(env_f64("G500_DUP_RATE"))
        .with_corrupt(env_f64("G500_CORRUPT_RATE"))
        .with_reorder(env_f64("G500_REORDER_RATE"))
        .with_retry_budget(env_u64("G500_RETRY_BUDGET", 16) as u32);
    plan.validate().expect("bad G500_* fault environment");
    plan
}
