//! Property-based tests on the workspace's core invariants: every SSSP
//! implementation equals Dijkstra on arbitrary random graphs; codecs
//! round-trip arbitrary data; partitions are bijections for arbitrary
//! shapes; the generator is splittable at arbitrary cut points; the
//! bucket queue pops in monotone bucket order; the validator accepts the
//! kernels' results and rejects every corruption class.
//!
//! Cases come from the in-repo seeded generator in `tests/common` (the
//! workspace builds offline, with no proptest); every run is deterministic
//! and failures print a replay seed.

mod common;

use common::{arb_graph, for_cases};
use graph500::baselines::{bellman_ford, dijkstra};
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{
    compress, BitMixPermutation, Csr, Directedness, EdgeList, ShortestPaths, WEdge,
};
use graph500::partition::{
    assemble_local_graph, Block1D, Cyclic1D, HybridPartition, VertexPartition,
};
use graph500::simnet::{wire, Machine, MachineConfig};
use graph500::sssp::codec::{decode_updates, dedup_min, encode_updates, Update};
use graph500::sssp::{
    delta_stepping, distributed_delta_stepping, BucketQueue, Direction, OptConfig, SsspRunStats,
};

fn to_el(edges: &[(u64, u64, f32)]) -> EdgeList {
    EdgeList::from_edges(edges.iter().map(|&(u, v, w)| WEdge::new(u, v, w)))
}

#[test]
fn all_sssp_algorithms_equal_dijkstra() {
    for_cases(0xA11A, 64, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let delta = rng.f32(0.01, 2.0);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, root);
        assert!(delta_stepping(&csr, root, delta).distances_match(&oracle, 1e-4));
        assert!(bellman_ford(&csr, root).distances_match(&oracle, 1e-4));
    });
}

/// The 1D kernel from `root` on `p` ranks (block partition, edge slices in
/// list order): per rank, the gathered result and that rank's run counters.
fn dist_1d_ranks(
    el: &EdgeList,
    n: u64,
    p: usize,
    root: u64,
    opts: &OptConfig,
) -> Vec<(ShortestPaths, SsspRunStats)> {
    Machine::new(MachineConfig::with_ranks(p))
        .run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(n, p));
            let (sp, stats) = distributed_delta_stepping(ctx, &g, root, opts);
            (sp.gather(ctx, g.part()), stats)
        })
        .results
}

/// [`dist_1d_ranks`], rank 0's share.
fn dist_1d(
    el: &EdgeList,
    n: u64,
    p: usize,
    root: u64,
    opts: &OptConfig,
) -> (ShortestPaths, SsspRunStats) {
    dist_1d_ranks(el, n, p, root, opts).swap_remove(0)
}

#[test]
fn distributed_delta_equals_dijkstra() {
    for_cases(0xD157, 32, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let p = rng.usize(1, 5);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, root);
        let (got, _) = dist_1d(&el, n, p, root, &OptConfig::all_on());
        assert!(got.distances_match(&oracle, 1e-4));
    });
}

/// A near-path searched from its middle has two wavefronts, one in ranks
/// 0–1 and one in ranks 2–3, whose jittered weights keep them in different
/// buckets of a narrow Δ: at most boundaries some rank's own minimum bucket
/// loses the agreement, and it must not have been touched to summarise it —
/// its entries feed the fused tail's trigger, their order the tail's drain.
/// Distances are Dijkstra's to the bit; buckets, relaxations and updates
/// (summed over ranks) are the numbers recorded at the commit before the
/// driver fused the boundary's three allreduces into one agreement. The
/// supersteps were 236 and 406 then: each bucket whose first frontier is not
/// empty has since closed on one more, the empty exchange whose header says
/// its frontiers were (106 and 201 of the 107 and 205 buckets).
#[test]
fn losing_the_bucket_agreement_leaves_a_rank_as_it_was() {
    let (n, edges) = common::adversarial::almost_line(3);
    let (el, root) = (to_el(&edges), n / 2);
    let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
    let oracle: Vec<u32> = dijkstra(&csr, root)
        .dist
        .iter()
        .map(|d| d.to_bits())
        .collect();
    let narrow = OptConfig::all_on().with_delta(0.05);
    for (opts, fused, pinned) in [
        (narrow, true, (342u64, 107u64, 527u64, 28u64)),
        (narrow.without_fusion(), false, (607, 205, 458, 22)),
    ] {
        let ranks = dist_1d_ranks(&el, n, 4, root, &opts);
        let (got, stats) = &ranks[0];
        let bits: Vec<u32> = got.dist.iter().map(|d| d.to_bits()).collect();
        assert_eq!(bits, oracle, "fused {fused}");
        assert_eq!(stats.tail_fused, fused);
        let sum = |f: fn(&SsspRunStats) -> u64| ranks.iter().map(|r| f(&r.1)).sum::<u64>();
        let counts = (
            stats.supersteps,
            stats.buckets,
            sum(|s| s.relaxations),
            sum(|s| s.updates_sent),
        );
        assert_eq!(counts, pinned, "fused {fused}");
        if !fused {
            // were the fronts in step, two vertices would share each bucket
            assert!(stats.buckets > 3 * (n - 1) / 4, "{stats:?}");
        }
    }
}

/// Push, pull and hybrid relax the same arcs in different orders and the
/// pull scans skip arcs their weight bounds rule out; the fixpoint must not
/// notice. Distances are compared by bit pattern, across the policies and
/// against Dijkstra. `kronecker-heavy` has every weight in [0.5, 1), so at
/// every Δ but 10 all its arcs are heavy and the whole search runs through
/// the heavy phase: fetched under `Pull`, and under `Hybrid` where buckets
/// are fat enough to repay the reply round.
#[test]
fn direction_policies_are_bit_identical_and_equal_dijkstra() {
    let kron = KroneckerGenerator::new(KroneckerParams::graph500(8, 11)).generate_all();
    let heavy = EdgeList::from_edges(kron.iter().map(|e| WEdge::new(e.u, e.v, 0.5 + e.w / 2.0)));
    let graphs: [(&str, u64, EdgeList); 6] = [
        ("er", 96, graph500::gen::simple::erdos_renyi(96, 600, 7)),
        ("kronecker", 256, kron),
        ("kronecker-heavy", 256, heavy),
        ("star", 33, graph500::gen::simple::star(33, 0.3)),
        ("path", 40, graph500::gen::simple::path(40, 0.3)),
        ("complete", 24, graph500::gen::simple::complete(24, 0.3)),
    ];
    for (name, n, el) in &graphs {
        let (n, root) = (*n, n / 3);
        let csr = Csr::from_edges(n as usize, el, Directedness::Undirected);
        let oracle: Vec<u32> = dijkstra(&csr, root)
            .dist
            .iter()
            .map(|d| d.to_bits())
            .collect();
        for p in [1usize, 2, 4] {
            for delta in [None, Some(0.02f32), Some(0.5), Some(10.0)] {
                for dir in [Direction::Push, Direction::Pull, Direction::Hybrid] {
                    let mut opts = OptConfig::all_on().with_direction(dir);
                    opts.delta = delta;
                    let (got, stats) = dist_1d(el, n, p, root, &opts);
                    let bits: Vec<u32> = got.dist.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(bits, oracle, "{name} p={p} delta={delta:?} {dir:?}");
                    // fat buckets settle enough sources at once for the
                    // fetch to win; Δ = 0.02 settles a handful per bucket
                    let fetches = match dir {
                        Direction::Push => false,
                        Direction::Pull => delta != Some(10.0),
                        Direction::Hybrid => delta == Some(0.5),
                    };
                    if *name == "kronecker-heavy" && fetches {
                        assert!(stats.heavy_pulls > 0, "p={p} {delta:?} {dir:?} {stats:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn varint_roundtrip() {
    for_cases(0x7A21, 256, |rng| {
        // stress every length class: mask to a random bit width
        let width = rng.range(1, 65) as u32;
        let v = rng.next_u64() >> (64 - width);
        let mut buf = Vec::new();
        compress::write_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(compress::read_varint(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    });
}

#[test]
fn update_codec_roundtrip() {
    for_cases(0x0DEC, 64, |rng| {
        let m = rng.usize(0, 200);
        let mut ups: Vec<Update> = (0..m)
            .map(|_| (rng.next_u64(), rng.f32(0.0, 100.0), rng.next_u64()))
            .collect();
        ups.sort_unstable_by_key(|u| u.0);
        let enc = encode_updates(&ups, true);
        assert_eq!(decode_updates(&enc), Some(ups));
    });
}

#[test]
fn dedup_min_keeps_true_minimum() {
    for_cases(0xDED0, 64, |rng| {
        let m = rng.usize(1, 100);
        let ups: Vec<Update> = (0..m)
            .map(|_| (rng.range(0, 20), rng.f32(0.0, 10.0), rng.next_u64()))
            .collect();
        let mut work = ups.clone();
        dedup_min(&mut work);
        // unique targets, and each carries the true min over the input
        for w in work.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(t, d, _) in &work {
            let true_min = ups
                .iter()
                .filter(|u| u.0 == t)
                .map(|u| u.1)
                .fold(f32::INFINITY, f32::min);
            assert_eq!(d, true_min);
        }
    });
}

#[test]
fn bucket_queue_pops_monotone_buckets() {
    // satellite property: min_bucket() over an arbitrary insert stream is
    // non-decreasing (for items not re-inserted below the current bucket),
    // every inserted vertex comes out exactly once, and each comes out of
    // the bucket its priority maps to.
    for_cases(0xB0CE, 64, |rng| {
        let delta = rng.f32(0.05, 1.5);
        let m = rng.usize(1, 300);
        let items: Vec<(u32, f32)> = (0..m as u32).map(|v| (v, rng.f32(0.0, 40.0))).collect();
        let mut q = BucketQueue::new(delta);
        for &(v, d) in &items {
            q.insert(v, d);
        }
        assert_eq!(q.len(), m);
        let mut last = 0usize;
        let mut seen = vec![false; m];
        while let Some(k) = q.min_bucket() {
            assert!(k >= last, "bucket order went backwards: {k} after {last}");
            last = k;
            for v in q.take_bucket(k) {
                let (_, d) = items[v as usize];
                assert_eq!(
                    q.bucket_of(d),
                    k,
                    "vertex {v} (d={d}) popped from bucket {k}"
                );
                assert!(!seen[v as usize], "vertex {v} popped twice");
                seen[v as usize] = true;
            }
        }
        assert!(q.is_empty());
        assert!(seen.iter().all(|&s| s), "some vertex never popped");
    });
}

#[test]
fn radix_heap_pops_in_monotone_key_order() {
    // arbitrary interleavings of monotone pushes and pops match a sorted
    // model: keys come out non-decreasing and nothing is lost
    use graph500::baselines::RadixHeap;
    for_cases(0x4AD1, 64, |rng| {
        let mut heap: RadixHeap<u64> = RadixHeap::new();
        let mut pending: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut floor = 0u64;
        for _ in 0..rng.usize(1, 200) {
            if rng.range(0, 3) < 2 || heap.is_empty() {
                // push: any key >= the monotone floor, with a bias toward
                // keys near the floor and occasional far-away bits
                let spread = 1u64 << rng.range(1, 50);
                let key = floor.saturating_add(rng.range(0, spread));
                heap.push(key, key);
                pending.push(key);
            } else {
                let (k, v) = heap.pop_min().expect("non-empty");
                assert_eq!(k, v, "payload must ride with its key");
                floor = k;
                popped.push(k);
            }
        }
        while let Some((k, _)) = heap.pop_min() {
            popped.push(k);
        }
        // monotone: the full pop sequence never decreases
        for w in popped.windows(2) {
            assert!(w[0] <= w[1], "pop order went backwards");
        }
        // conservation: the popped multiset is exactly the pushed multiset
        pending.sort_unstable();
        let mut sorted_popped = popped.clone();
        sorted_popped.sort_unstable();
        assert_eq!(sorted_popped, pending);
    });
}

#[test]
fn radix_dijkstra_and_bmssp_bitwise_equal_dijkstra() {
    // the new baselines must agree with the binary-heap oracle to the bit
    // on arbitrary random multigraphs (self-loops, duplicate edges, any
    // root) — not just within tolerance
    use graph500::baselines::{bmssp, dijkstra_radix_heap};
    for_cases(0xB1D6, 64, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let csr = Csr::from_edges(n as usize, &to_el(&edges), Directedness::Undirected);
        let oracle = dijkstra(&csr, root);
        let radix = dijkstra_radix_heap(&csr, root);
        let bm = bmssp(&csr, root);
        for v in 0..n as usize {
            assert_eq!(
                oracle.dist[v].to_bits(),
                radix.dist[v].to_bits(),
                "radix heap at vertex {v}"
            );
            assert_eq!(
                oracle.dist[v].to_bits(),
                bm.dist[v].to_bits(),
                "bmssp at vertex {v}"
            );
        }
    });
}

#[test]
fn bucket_queue_matches_naive_model() {
    // the queue against a plain Vec<Vec<u32>> scanned from a model cursor:
    // same min_bucket, same bucket contents in the same order, over
    // arbitrary op streams (including far-away sparse buckets past long
    // runs of empty lanes)
    for_cases(0xBADC, 64, |rng| {
        let delta = rng.f32(0.05, 1.5);
        let mut q = BucketQueue::new(delta);
        let mut model: Vec<Vec<u32>> = Vec::new();
        let mut scan_from = 0usize; // the model's cursor
        for i in 0..rng.usize(1, 250) {
            let d = if rng.range(0, 20) == 0 {
                rng.f32(100.0, 5000.0) // sparse far bucket
            } else {
                rng.f32(0.0, 30.0)
            };
            q.insert(i as u32, d);
            let k = q.bucket_of(d);
            if k >= model.len() {
                model.resize_with(k + 1, Vec::new);
            }
            model[k].push(i as u32);
            scan_from = scan_from.min(k);
            if rng.range(0, 3) == 0 {
                let got = q.min_bucket();
                let want = (scan_from..model.len()).find(|&k| !model[k].is_empty());
                assert_eq!(got, want, "min_bucket diverged from linear scan");
                if let Some(k) = got {
                    scan_from = k;
                    assert_eq!(q.bucket_len(k), model[k].len());
                    assert_eq!(
                        q.take_bucket(k),
                        std::mem::take(&mut model[k]),
                        "bucket {k} contents/order diverged"
                    );
                }
            }
        }
        let expect: Vec<u32> = model[scan_from.min(model.len())..]
            .iter()
            .flatten()
            .copied()
            .collect();
        assert_eq!(q.drain_all(), expect, "drain_all diverged");
        assert!(q.is_empty());
    });
}

#[test]
fn bucket_queue_reinsert_lowers_bucket() {
    // delta-stepping relies on re-inserting a settled-lower vertex into an
    // earlier (but not-yet-passed) bucket; the queue must serve the lower
    // copy in its proper bucket.
    let mut q = BucketQueue::new(0.5);
    q.insert(0, 2.4); // bucket 4
    q.insert(1, 0.2); // bucket 0
    assert_eq!(q.min_bucket(), Some(0));
    assert_eq!(q.take_bucket(0), vec![1]);
    q.insert(0, 0.9); // improved: bucket 1
    assert_eq!(q.min_bucket(), Some(1));
    assert_eq!(q.take_bucket(1), vec![0]);
}

#[test]
fn wire_tuple_roundtrip() {
    for_cases(0x3172, 64, |rng| {
        let m = rng.usize(0, 100);
        let recs: Vec<(u64, f32, u32)> = (0..m)
            .map(|_| {
                (
                    rng.next_u64(),
                    f32::from_bits(rng.next_u64() as u32),
                    rng.next_u64() as u32,
                )
            })
            .collect();
        let buf = wire::encode_slice(&recs);
        let back = wire::decode_vec::<(u64, f32, u32)>(&buf);
        assert!(back.is_some());
        let back = back.expect("checked");
        assert_eq!(back.len(), recs.len());
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.2, b.2);
        }
    });
}

#[test]
fn partitions_are_bijections() {
    for_cases(0xB17E, 64, |rng| {
        let n = rng.range(0, 3000);
        let p = rng.usize(1, 17);
        let hubs = rng.range(0, 100).min(n);
        fn check<P: VertexPartition>(part: &P, n: u64) {
            let total: usize = (0..part.num_ranks()).map(|r| part.local_count(r)).sum();
            assert_eq!(total as u64, n);
            for v in (0..n).step_by(7) {
                let r = part.owner(v);
                let l = part.to_local(v);
                assert_eq!(part.to_global(r, l), v);
            }
        }
        check(&Block1D::new(n, p), n);
        check(&Cyclic1D::new(n, p), n);
        check(&HybridPartition::new(n, p, hubs), n);
    });
}

#[test]
fn bitmix_permutation_is_invertible() {
    for_cases(0xB177, 128, |rng| {
        let scale = rng.range(1, 40) as u32;
        let seed = rng.next_u64();
        let p = BitMixPermutation::new(scale, seed);
        let v = rng.next_u64() & (p.domain() - 1);
        let s = p.apply(v);
        assert!(s < p.domain());
        assert_eq!(p.invert(s), v);
    });
}

#[test]
fn multi_source_equals_dijkstra_per_source() {
    for_cases(0x3504, 16, |rng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.usize(1, 4);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let roots: Vec<u64> = vec![0, n / 2, n - 1];
        let results = Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let part = Block1D::new(n, p);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let specs: Vec<_> = roots
                    .iter()
                    .map(|&r| graph500::sssp::BatchSpec::full(r))
                    .collect();
                let opts = OptConfig::all_on().with_delta(0.05);
                let (lanes, _) = graph500::sssp::try_batched_delta_stepping(ctx, &g, &specs, &opts)
                    .expect("no crash plan");
                (lanes.iter())
                    .map(|lane| lane.paths.gather(ctx, g.part()))
                    .collect::<Vec<_>>()
            })
            .results
            .swap_remove(0);
        for (s, &root) in roots.iter().enumerate() {
            let oracle = dijkstra(&csr, root);
            assert!(results[s].distances_match(&oracle, 1e-4), "source {s}");
        }
    });
}

#[test]
fn bfs_levels_equal_unit_weight_distances() {
    for_cases(0xBF51, 16, |rng| {
        let (n, edges) = arb_graph(rng);
        // replace all weights with 1.0: BFS levels == shortest distances
        let unit: Vec<(u64, u64, f32)> = edges.iter().map(|&(u, v, _)| (u, v, 1.0)).collect();
        let el = to_el(&unit);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let dir = match rng.range(0, 3) {
            0 => graph500::sssp::Direction::Push,
            1 => graph500::sssp::Direction::Pull,
            _ => graph500::sssp::Direction::Hybrid,
        };
        let p = 3;
        let (level, parent) = Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let part = Block1D::new(n, p);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (res, _) = graph500::sssp::distributed_bfs(ctx, &g, 0, dir).expect("no faults");
                res.gather(ctx, g.part())
            })
            .results
            .swap_remove(0);
        for v in 0..n as usize {
            if oracle.dist[v].is_finite() {
                assert_eq!(level[v], oracle.dist[v] as i64, "vertex {v}");
            } else {
                assert_eq!(level[v], -1, "vertex {v}");
                assert_eq!(parent[v], u64::MAX);
            }
        }
    });
}

/// The one validator against the kernels and five corruption classes, each
/// invalid by construction. Graphs: the five adversarial families at a fresh
/// seed and a scale-10 Kronecker graph, from a root whose component has at
/// least two other vertices. Dijkstra's and the distributed kernel's results
/// must be accepted; each corruption of either must be rejected, never a
/// panic. BFS: the distributed kernel's tree is accepted, and a non-root
/// vertex moved to level 0 (sometimes parenting itself: a second root) is
/// rejected.
#[test]
fn validator_rejects_every_corruption_class() {
    use graph500::graph::{INF_WEIGHT, NO_PARENT};
    use graph500::validate::{validate_bfs, validate_sssp, SsspResult};
    let kron = KroneckerGenerator::new(KroneckerParams::graph500(10, 20220814)).generate_all();
    for_cases(0x7A11, 12, |rng| {
        let mut graphs: Vec<(&str, u64, EdgeList)> = common::adversarial::all(rng.next_u64())
            .into_iter()
            .map(|(name, n, edges)| (name, n, to_el(&edges)))
            .collect();
        graphs.push(("kronecker", 1 << 10, kron.clone()));
        for (name, n, el) in &graphs {
            let n = *n;
            let csr = Csr::from_edges(n as usize, el, Directedness::Undirected);
            let (root, oracle) = loop {
                let e = el.get(rng.usize(0, el.len()));
                let sp = dijkstra(&csr, e.u);
                if sp.dist.iter().filter(|d| d.is_finite()).count() > 2 {
                    break (e.u, sp);
                }
            };
            let reached: Vec<usize> = (0..n as usize)
                .filter(|&v| v as u64 != root && oracle.dist[v].is_finite())
                .collect();
            let pick = |rng: &mut common::Rng| reached[rng.usize(0, reached.len())];
            let p = rng.usize(1, 5);
            let (delta, _) = dist_1d(el, n, p, root, &OptConfig::all_on());
            for (kernel, sp) in [("dijkstra", &oracle), ("delta", &delta)] {
                let good = SsspResult {
                    root,
                    dist: sp.dist.clone(),
                    parent: sp.parent.clone(),
                };
                let rep = validate_sssp(n, el, &good);
                assert!(rep.ok, "{name} {kernel}: {:?}", rep.errors);
                let (v, mut bad) = (pick(rng), good.clone());
                // lowered by at least 1% + 1e-3: over twice the tolerance
                bad.dist[v] = bad.dist[v] * rng.f32(0.0, 0.99) - 1e-3;
                let mut classes = vec![("lowered distance", v, bad)];
                let (a, mut bad) = (pick(rng), good.clone());
                let b = std::iter::repeat_with(|| pick(rng))
                    .find(|&b| b != a)
                    .expect("two reached non-root vertices");
                bad.parent[a] = b as u64;
                bad.parent[b] = a as u64;
                classes.push(("2-cycle", a, bad));
                let (v, mut bad) = (pick(rng), good.clone());
                bad.dist[v] = INF_WEIGHT;
                bad.parent[v] = NO_PARENT;
                classes.push(("flipped to unreached", v, bad));
                let v = pick(rng);
                let mut adjacent = vec![false; n as usize];
                adjacent[v] = true;
                for e in el.iter().filter(|e| e.u as usize == v || e.v as usize == v) {
                    adjacent[e.u as usize] = true;
                    adjacent[e.v as usize] = true;
                }
                let strangers: Vec<usize> = (0..n as usize).filter(|&u| !adjacent[u]).collect();
                let mut bad = good.clone();
                bad.parent[v] = strangers[rng.usize(0, strangers.len())] as u64;
                classes.push(("parent with no edge", v, bad));
                let (v, mut bad) = (pick(rng), good.clone());
                bad.parent[v] = n + rng.range(0, 1 << 40);
                classes.push(("parent out of range", v, bad));
                for (class, v, bad) in classes {
                    let rep = validate_sssp(n, el, &bad);
                    assert!(!rep.ok, "{name} {kernel}: {class} at {v} accepted");
                }
            }
            let (mut level, mut parent) = Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| {
                    let m = el.len();
                    let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                    let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                    let g = assemble_local_graph(ctx, mine.into_iter(), Block1D::new(n, p));
                    let (res, _) =
                        graph500::sssp::distributed_bfs(ctx, &g, root, Direction::Hybrid)
                            .expect("no faults");
                    res.gather(ctx, g.part())
                })
                .results
                .swap_remove(0);
            let ok = validate_bfs(n, el, root, &level, &parent);
            assert!(ok.is_ok(), "{name} bfs: {ok:?}");
            let v = pick(rng);
            level[v] = 0;
            if rng.range(0, 2) == 0 {
                parent[v] = v as u64;
            }
            let bad = validate_bfs(n, el, root, &level, &parent);
            assert!(bad.is_err(), "{name} bfs: vertex {v} at level 0 accepted");
        }
    });
}

#[test]
fn generator_blocks_are_independent() {
    for_cases(0x6E4B, 32, |rng| {
        let scale = rng.range(4, 10) as u32;
        let seed = rng.next_u64();
        let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, seed));
        let m = gen.params().num_edges();
        let cut = ((m as f64 * rng.f64_unit()) as u64).min(m);
        let window = 64.min(m - cut);
        let from_block = gen.edge_block(cut..cut + window);
        for i in 0..window {
            assert_eq!(from_block.get(i as usize), gen.edge(cut + i));
        }
    });
}

// ---- reliable transport over lossy links ----

#[test]
fn lossy_sends_deliver_each_payload_once_in_order() {
    // every fault class at once, messages of zero to three frames: each
    // rank receives from each peer exactly the payloads sent, in send
    // order, and the fault counters move
    use graph500::FaultPlan;
    for_cases(0x5EA5, 16, |rng| {
        let ranks = rng.usize(2, 5);
        let plan = FaultPlan::none()
            .with_seed(rng.next_u64())
            .with_drop(0.3 * rng.f64_unit())
            .with_duplicate(0.3 * rng.f64_unit())
            .with_corrupt(0.3 * rng.f64_unit())
            .with_reorder(0.3 * rng.f64_unit())
            .with_retry_budget(64);
        let lens: Vec<usize> = (0..4).map(|_| rng.usize(0, 3 * plan.mtu)).collect();
        let payload = |src: usize, dst: usize, i: usize| -> Vec<u8> {
            (0..lens[i])
                .map(|b| (src * 31 + dst * 7 + i + b) as u8)
                .collect()
        };
        let out = Machine::new(MachineConfig::with_ranks(ranks).faults(plan)).run(|ctx| {
            let me = ctx.rank();
            for peer in (0..ctx.size()).filter(|&p| p != me) {
                for i in 0..lens.len() {
                    ctx.send_bytes(peer, 3, payload(me, peer, i));
                }
            }
            let mut ok = true;
            for peer in (0..ctx.size()).filter(|&p| p != me) {
                for i in 0..lens.len() {
                    ok &= ctx.recv_bytes(peer, 3) == payload(peer, me, i);
                }
            }
            ok
        });
        assert!(out.results.iter().all(|&ok| ok), "{plan:?}");
        assert!(out.total_stats().saw_faults(), "{plan:?}");
    });
}

// ---- virtual-time tracing (observability tentpole) ----

use graph500::simnet::trace::TraceCode;
use graph500::simnet::{TraceBuf, TraceEvent, TraceKind};

/// Every valid `TraceCode`, looked up by number.
fn all_trace_codes() -> Vec<TraceCode> {
    (0u16..512).filter_map(TraceCode::from_u16).collect()
}

fn arb_event(rng: &mut common::Rng, codes: &[TraceCode], t_s: f64) -> TraceEvent {
    let code = codes[rng.usize(0, codes.len())];
    let kind = if code.is_span() {
        if rng.range(0, 2) == 0 {
            TraceKind::Begin
        } else {
            TraceKind::End
        }
    } else {
        TraceKind::Count
    };
    TraceEvent {
        t_s,
        kind,
        code,
        a: rng.next_u64(),
        b: rng.next_u64(),
    }
}

#[test]
fn merged_trace_timestamps_are_monotone_per_rank() {
    use graph500::simnet::Trace;
    let codes = all_trace_codes();
    for_cases(0x70E0, 64, |rng| {
        let ranks = rng.usize(1, 6);
        let bufs: Vec<TraceBuf> = (0..ranks)
            .map(|r| {
                let mut b = TraceBuf::new(r);
                // per-rank virtual clocks only move forward
                let mut t = 0.0f64;
                for _ in 0..rng.usize(0, 40) {
                    t += rng.f64_unit() * 1e-4;
                    let e = arb_event(rng, &codes, t);
                    b.record(e.t_s, e.kind, e.code, e.a, e.b);
                }
                b
            })
            .collect();
        let merged = Trace::merge(bufs);
        // global order is non-decreasing in time, and within a rank the
        // original (monotone) order is preserved
        let mut last_t = 0.0f64;
        let mut last_per_rank: Vec<f64> = vec![0.0; ranks];
        for (rank, ev) in &merged.events {
            assert!(ev.t_s >= last_t, "merge broke global time order");
            last_t = ev.t_s;
            assert!(
                ev.t_s >= last_per_rank[*rank as usize],
                "merge broke rank {rank}'s clock order"
            );
            last_per_rank[*rank as usize] = ev.t_s;
        }
    });
}

#[test]
fn lossy_traced_runs_keep_each_rank_clock_monotone() {
    // On real lossy (fuzz-scheduled) traced runs, a rank's trace is stamped
    // on its own clock, which only moves forward: a retransmit timer runs
    // on the frame's clock, so no timeout or retransmit event lands at a
    // future fire time. And the trace counts what NetStats counts.
    use graph500::FaultPlan;
    for_cases(0x10_55E5, 8, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let p = rng.usize(2, 5);
        let plan = FaultPlan::none()
            .with_seed(rng.next_u64())
            .with_drop(0.2 + 0.2 * rng.f64_unit())
            .with_duplicate(0.1 * rng.f64_unit())
            .with_corrupt(0.1 * rng.f64_unit())
            .with_reorder(0.1 * rng.f64_unit())
            .with_retry_budget(64);
        let el = to_el(&edges);
        let report = Machine::new(
            MachineConfig::with_ranks(p)
                .deterministic(rng.next_u64())
                .faults(plan)
                .traced(true),
        )
        .run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            distributed_delta_stepping(ctx, &g, root, &OptConfig::all_on());
        });
        assert!(
            report.total_stats().retransmits > 0,
            "{plan:?} drew no loss"
        );
        for (buf, net) in report.traces.iter().zip(&report.stats) {
            let mut last = 0.0f64;
            let (mut retransmits, mut timeouts) = (0, 0);
            for ev in &buf.events {
                assert!(
                    ev.t_s >= last,
                    "rank {}: {:?} at {} after {last} ({plan:?})",
                    buf.rank,
                    ev.code,
                    ev.t_s
                );
                last = ev.t_s;
                match (ev.kind, ev.code) {
                    (TraceKind::Count, TraceCode::Retransmit) => retransmits += 1,
                    (TraceKind::Count, TraceCode::Timeout) => timeouts += 1,
                    _ => {}
                }
            }
            assert_eq!(
                (retransmits, timeouts),
                (net.retransmits, net.timeouts),
                "rank {}",
                buf.rank
            );
        }
    });
}

#[test]
fn traced_runs_have_balanced_spans() {
    // On a real (fuzz-scheduled) traced run, every span Begin has a
    // matching End on the same rank and nesting never goes negative.
    for_cases(0x5BA1, 8, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let p = rng.usize(1, 5);
        let sched_seed = rng.next_u64();
        let el = to_el(&edges);
        let report = Machine::new(
            MachineConfig::with_ranks(p)
                .deterministic(sched_seed)
                .traced(true),
        )
        .run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (sp, _) = distributed_delta_stepping(ctx, &g, root, &OptConfig::all_on());
            sp.gather(ctx, g.part())
        });
        for buf in &report.traces {
            let mut depth: std::collections::HashMap<TraceCode, i64> =
                std::collections::HashMap::new();
            for ev in &buf.events {
                match ev.kind {
                    TraceKind::Begin => *depth.entry(ev.code).or_insert(0) += 1,
                    TraceKind::End => {
                        let d = depth.entry(ev.code).or_insert(0);
                        *d -= 1;
                        assert!(
                            *d >= 0,
                            "rank {}: End without Begin for {:?}",
                            buf.rank,
                            ev.code
                        );
                    }
                    TraceKind::Count => {}
                }
            }
            for (code, d) in depth {
                assert_eq!(d, 0, "rank {}: unbalanced span {:?}", buf.rank, code);
            }
        }
    });
}

#[test]
fn tagged_codec_roundtrips_arbitrary_updates() {
    use graph500::sssp::codec::{decode_tagged, dedup_min, encode_tagged, TaggedUpdate};
    for_cases(0x7A66, 128, |rng| {
        let n = rng.usize(0, 200);
        let mut updates: Vec<TaggedUpdate> = (0..n)
            .map(|_| {
                (
                    rng.range(0, 8) as u32,
                    rng.range(0, 1 << 20),
                    rng.f32(0.0, 100.0),
                    rng.next_u64() >> rng.range(0, 60),
                )
            })
            .collect();
        // the encoder canonicalizes unsorted input, and decode inverts it
        let enc = encode_tagged(&updates, false);
        let dec = decode_tagged(&enc).expect("well-formed buffer");
        let mut canon = updates.clone();
        canon.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.total_cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        assert_eq!(dec, canon);

        // dedup survivors are a pure function of the update SET
        let mut rev = updates.clone();
        rev.reverse();
        dedup_min(&mut updates);
        dedup_min(&mut rev);
        assert_eq!(updates, rev, "dedup depended on emission order");
    });
}

#[test]
fn landmark_bound_never_below_true_distance() {
    use graph500::sssp::triangle_bound;
    for_cases(0x1A4D, 48, |rng| {
        let (n, edges) = arb_graph(rng);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let landmarks: Vec<u64> = (0..rng.usize(1, 5)).map(|_| rng.range(0, n)).collect();
        let from_l: Vec<_> = landmarks.iter().map(|&l| dijkstra(&csr, l)).collect();
        let s = rng.range(0, n);
        let t = rng.range(0, n);
        let ls: Vec<f32> = from_l.iter().map(|d| d.dist[s as usize]).collect();
        let lt: Vec<f32> = from_l.iter().map(|d| d.dist[t as usize]).collect();
        let bound = triangle_bound(&ls, &lt);
        let true_d = dijkstra(&csr, s).dist[t as usize];
        if bound.is_finite() {
            assert!(
                true_d <= bound,
                "bound {bound} below true distance {true_d} (s={s}, t={t})"
            );
        }
    });
}

#[test]
fn lru_invariants_hold_under_random_ops() {
    use graph500::sssp::Lru;
    for_cases(0x14C8, 64, |rng| {
        let cap = rng.usize(1, 6);
        let mut lru: Lru<u64, u64> = Lru::new(cap);
        let mut last_value: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut last_inserted = None;
        for i in 0..rng.usize(1, 64) {
            let k = rng.range(0, 8);
            if rng.range(0, 2) == 0 {
                let v = i as u64;
                lru.insert(k, v);
                last_value.insert(k, v);
                last_inserted = Some(k);
            } else if let Some(&v) = lru.get(&k) {
                // a hit always returns the most recently inserted value
                assert_eq!(Some(&v), last_value.get(&k));
            }
            assert!(lru.len() <= cap, "capacity exceeded");
            if let Some(k) = last_inserted {
                assert!(lru.keys().any(|&ek| ek == k), "most recent insert evicted");
            }
        }
    });
}

/// One thing a kernel checkpoint holds.
enum CkptItem {
    U64(u64),
    F64(f64),
    U64s(Vec<u64>),
    U32s(Vec<u32>),
    F32s(Vec<f32>),
    F64s(Vec<f64>),
    Bools(Vec<bool>),
}

#[test]
fn checkpoint_codec_roundtrips_arbitrary_state() {
    // The recovery codec must round-trip any state a kernel checkpoint can
    // hold — including NaN/∞ payloads in the float lanes (distances,
    // times), empty slices, and interleavings of every element type — and
    // consume the buffer exactly (a length mismatch is how
    // `Checkpoint::load` detects a codec drift).
    use graph500::simnet::recovery::codec::{get, get_vec, put, put_slice};
    use wire::encode_slice as bytes;
    use CkptItem::*;
    for_cases(0xC8EC, 96, |rng| {
        let arb_f64 = |rng: &mut common::Rng| match rng.range(0, 8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => 0.0,
            _ => rng.f64_unit() * 1e9 - 5e8,
        };
        let mut items = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..rng.usize(1, 24) {
            let len = rng.usize(0, 40);
            let item = match rng.range(0, 7) {
                0 => U64(rng.next_u64()),
                1 => F64(arb_f64(rng)),
                2 => U64s((0..len).map(|_| rng.next_u64()).collect()),
                3 => U32s((0..len).map(|_| rng.next_u64() as u32).collect()),
                4 => F32s((0..len).map(|_| arb_f64(rng) as f32).collect()),
                5 => F64s((0..len).map(|_| arb_f64(rng)).collect()),
                _ => Bools((0..len).map(|_| rng.range(0, 2) == 0).collect()),
            };
            match &item {
                U64(x) => put(&mut buf, *x),
                F64(x) => put(&mut buf, *x),
                U64s(xs) => put_slice(&mut buf, xs),
                U32s(xs) => put_slice(&mut buf, xs),
                F32s(xs) => put_slice(&mut buf, xs),
                F64s(xs) => put_slice(&mut buf, xs),
                Bools(xs) => put_slice(&mut buf, xs),
            }
            items.push(item);
        }
        let pos = &mut 0usize;
        for item in &items {
            match item {
                U64(x) => assert_eq!(get::<u64>(&buf, pos), *x),
                F64(x) => assert_eq!(get::<f64>(&buf, pos).to_bits(), x.to_bits()),
                U64s(xs) => assert_eq!(&get_vec::<u64>(&buf, pos), xs),
                U32s(xs) => assert_eq!(&get_vec::<u32>(&buf, pos), xs),
                // floats compare by their wire bytes: bitwise, NaN included
                F32s(xs) => assert_eq!(bytes(&get_vec::<f32>(&buf, pos)), bytes(xs)),
                F64s(xs) => assert_eq!(bytes(&get_vec::<f64>(&buf, pos)), bytes(xs)),
                Bools(xs) => assert_eq!(&get_vec::<bool>(&buf, pos), xs),
            }
        }
        assert_eq!(*pos, buf.len(), "codec under- or over-consumed the buffer");
    });
}

#[test]
fn checkpoint_wire_format_is_le_length_prefix_then_le_elements() {
    // The format, spelled out in bytes: a scalar is its little-endian
    // encoding (floats as raw bit patterns, bool one byte); a sequence is
    // an 8-byte little-endian element count, then the elements. Checkpoint
    // length is simulated time (`take_checkpoint` charges it), so these
    // bytes are part of every crash run's `sim_*` numbers.
    use graph500::simnet::recovery::codec::{get_vec, put, put_slice};
    let mut buf = Vec::new();
    put(&mut buf, 0x0102_0304_0506_0708u64);
    assert_eq!(buf, [8, 7, 6, 5, 4, 3, 2, 1]);

    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    buf.clear();
    put(&mut buf, nan);
    assert_eq!(buf, [0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0x7f]);

    let count = |n: u8| [n, 0, 0, 0, 0, 0, 0, 0];
    buf.clear();
    put_slice(&mut buf, &[1u64, 0x0a0b]);
    let want = [
        &count(2)[..],
        &[1, 0, 0, 0, 0, 0, 0, 0],
        &[0x0b, 0x0a, 0, 0, 0, 0, 0, 0],
    ]
    .concat();
    assert_eq!(buf, want);

    buf.clear();
    put_slice(&mut buf, &[0xdead_beefu32]);
    assert_eq!(buf, [&count(1)[..], &[0xef, 0xbe, 0xad, 0xde]].concat());

    buf.clear();
    put_slice(&mut buf, &[1.0f32, f32::INFINITY]);
    let want = [&count(2)[..], &[0, 0, 0x80, 0x3f], &[0, 0, 0x80, 0x7f]].concat();
    assert_eq!(buf, want);
    let back = get_vec::<f32>(&buf, &mut 0);
    assert_eq!(back, [1.0, f32::INFINITY]);

    buf.clear();
    put_slice(&mut buf, &[nan, -0.0]);
    let want = [
        &count(2)[..],
        &[0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0x7f],
        &[0, 0, 0, 0, 0, 0, 0, 0x80],
    ]
    .concat();
    assert_eq!(buf, want);
    let back = get_vec::<f64>(&buf, &mut 0);
    assert_eq!(back[0].to_bits(), nan.to_bits(), "NaN payload lost");

    buf.clear();
    put_slice(&mut buf, &[true, false, true]);
    assert_eq!(buf, [&count(3)[..], &[1, 0, 1]].concat());

    buf.clear();
    put_slice::<u64>(&mut buf, &[]);
    assert_eq!(buf, count(0));
}

#[test]
#[should_panic(expected = "checkpoint truncated")]
fn checkpoint_codec_rejects_a_truncated_buffer() {
    use graph500::simnet::recovery::codec::{get_vec, put_slice};
    let mut buf = Vec::new();
    put_slice(&mut buf, &[7u64, 8, 9]);
    buf.truncate(buf.len() - 3);
    get_vec::<u64>(&buf, &mut 0);
}
