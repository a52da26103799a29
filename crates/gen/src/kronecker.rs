//! The Graph500 Kronecker (R-MAT) edge generator.
//!
//! Follows the Graph500 specification: `2^scale` vertices,
//! `edgefactor × 2^scale` undirected edges, initiator matrix
//! `(A, B, C, D) = (0.57, 0.19, 0.19, 0.05)`, vertex labels scrambled by a
//! pseudo-random permutation so locality of the recursive construction can't
//! be exploited, and (for the SSSP kernel) uniform `[0, 1)` edge weights.
//!
//! Every edge is a pure function of `(seed, edge_index)`, so
//! [`KroneckerGenerator::edge`] can be called for any index on any rank —
//! generation is embarrassingly parallel and communication-free, the way the
//! record run generated 140 trillion edges in-place.

use crate::rng::CounterRng;
use g500_graph::{BitMixPermutation, EdgeList, VertexId, WEdge};

/// Parameters of a Kronecker graph instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KroneckerParams {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges per vertex; Graph500 fixes 16.
    pub edgefactor: u64,
    /// Initiator matrix upper-left probability (Graph500: 0.57).
    pub a: f64,
    /// Initiator upper-right probability (Graph500: 0.19).
    pub b: f64,
    /// Initiator lower-left probability (Graph500: 0.19).
    pub c: f64,
    /// RNG seed; also keys the vertex scrambler.
    pub seed: u64,
}

impl KroneckerParams {
    /// The scales [`KroneckerGenerator::new`] accepts.
    pub const SCALES: std::ops::RangeInclusive<u32> = 1..=62;

    /// The official Graph500 parameters at `scale` with a chosen seed.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        Self {
            scale,
            edgefactor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
        }
    }

    /// Number of vertices, `2^scale`.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of generated edge records, `edgefactor × 2^scale`. Panics
    /// if that does not fit a `u64`, which [`KroneckerGenerator::new`]
    /// refuses.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.checked_num_edges()
            .expect("edgefactor × 2^scale fits a u64")
    }

    fn checked_num_edges(&self) -> Option<u64> {
        self.edgefactor.checked_mul(self.num_vertices())
    }
}

/// Stream ids carved out of the generator seed; each concern draws from its
/// own independent stream so adding draws to one never perturbs another.
const STREAM_TOPOLOGY: u64 = 0;
const STREAM_WEIGHT: u64 = 1;

/// The generator proper. Cheap to create and `Copy`-cheap to share.
#[derive(Clone, Debug)]
pub struct KroneckerGenerator {
    params: KroneckerParams,
    topo: CounterRng,
    weight: CounterRng,
    scramble: BitMixPermutation,
    /// Precomputed conditional probabilities of the per-level quadrant draw.
    ab: f64,
    a_norm: f64,
    c_norm: f64,
}

impl KroneckerGenerator {
    /// Build a generator for `params`.
    pub fn new(params: KroneckerParams) -> Self {
        assert!(
            KroneckerParams::SCALES.contains(&params.scale),
            "scale out of range"
        );
        assert!(
            params.checked_num_edges().is_some(),
            "edgefactor {} × 2^{} edges do not fit a u64",
            params.edgefactor,
            params.scale
        );
        let ab = params.a + params.b;
        assert!(ab < 1.0, "A + B must be < 1");
        Self {
            topo: CounterRng::new(params.seed, STREAM_TOPOLOGY),
            weight: CounterRng::new(params.seed, STREAM_WEIGHT),
            scramble: BitMixPermutation::new(params.scale, params.seed ^ 0x5CA1_AB1E),
            ab,
            a_norm: params.a / ab,
            c_norm: params.c / (1.0 - ab),
            params,
        }
    }

    /// The parameters this generator was built with.
    pub fn params(&self) -> &KroneckerParams {
        &self.params
    }

    /// Generate edge `i` (0 ≤ i < `num_edges`). Pure and deterministic.
    ///
    /// Each of the `scale` recursion levels consumes two uniform draws, as in
    /// the reference implementation: the first picks the row half, the
    /// second the column half conditioned on the row.
    pub fn edge(&self, i: u64) -> WEdge {
        debug_assert!(i < self.params.num_edges());
        let mut u: VertexId = 0;
        let mut v: VertexId = 0;
        let base = i * (2 * self.params.scale as u64);
        for level in 0..self.params.scale as u64 {
            let r1 = self.topo.unit_f64(base + 2 * level);
            let r2 = self.topo.unit_f64(base + 2 * level + 1);
            let row = r1 > self.ab;
            let col = r2 > if row { self.c_norm } else { self.a_norm };
            u = (u << 1) | row as u64;
            v = (v << 1) | col as u64;
        }
        WEdge {
            u: self.scramble.apply(u),
            v: self.scramble.apply(v),
            w: self.weight.unit_f32(i),
        }
    }

    /// Generate a contiguous block of edges (how a rank generates its slice).
    pub fn edge_block(&self, range: std::ops::Range<u64>) -> EdgeList {
        let mut el = EdgeList::with_capacity((range.end - range.start) as usize);
        for i in range {
            el.push(self.edge(i));
        }
        el
    }

    /// Generate the whole edge list on the pool, a block of edges a chunk.
    pub fn generate_all(&self) -> EdgeList {
        let m = self.params.num_edges();
        // Each edge is a pure function of its index and blocks concatenate
        // in index order, so block geometry affects only load balance,
        // never the output. Work-size-aware split: below the threshold the
        // whole list is one sequential block (sub-threshold generation is
        // cheaper than any thread spawn — and never even fixes the pool
        // size); above it, oversplit the pool ~4× for balance, floored at
        // MIN_GEN_BLOCK edges per block so blocks stay cache-friendly.
        const MIN_GEN_BLOCK: u64 = 1 << 14;
        if m <= 2 * MIN_GEN_BLOCK {
            return self.edge_block(0..m);
        }
        let nchunks = ((rayon::current_num_threads() as u64) * 4)
            .min(m.div_ceil(MIN_GEN_BLOCK))
            .max(1);
        let chunk = m.div_ceil(nchunks).max(1);
        let mut blocks = Vec::new();
        rayon::map_chunks(m as usize, chunk as usize, &mut blocks, |r| {
            self.edge_block(r.start as u64..r.end as u64)
        });
        let mut out = EdgeList::with_capacity(m as usize);
        for b in &blocks {
            out.extend_from(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KroneckerGenerator {
        KroneckerGenerator::new(KroneckerParams::graph500(10, 42))
    }

    #[test]
    fn edge_counts_match_spec() {
        let p = KroneckerParams::graph500(10, 1);
        assert_eq!(p.num_vertices(), 1024);
        assert_eq!(p.num_edges(), 16 * 1024);
    }

    #[test]
    fn an_edge_count_past_u64_is_refused() {
        // 16 × 2^59 = 2^63 edges still fit; 16 × 2^60 used to wrap to 0
        let fits = KroneckerGenerator::new(KroneckerParams::graph500(59, 1));
        assert_eq!(fits.params().num_edges(), 1 << 63);
        let refused =
            std::panic::catch_unwind(|| KroneckerGenerator::new(KroneckerParams::graph500(60, 1)));
        let payload = refused.expect_err("scale 60 at edgefactor 16 is refused");
        let msg = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("edgefactor 16 × 2^60 edges do not fit a u64"));
    }

    #[test]
    fn deterministic_and_block_splittable() {
        let g = small();
        let all = g.edge_block(0..1000);
        let first = g.edge_block(0..500);
        let second = g.edge_block(500..1000);
        for i in 0..500 {
            assert_eq!(all.get(i), first.get(i));
            assert_eq!(all.get(500 + i), second.get(i));
        }
    }

    #[test]
    fn generate_all_equals_blockwise() {
        let g = small();
        let all = g.generate_all();
        assert_eq!(all.len(), 16 * 1024);
        for i in [0usize, 1, 777, 16 * 1024 - 1] {
            assert_eq!(all.get(i), g.edge(i as u64));
        }
    }

    #[test]
    fn endpoints_in_range_and_weights_in_unit_interval() {
        let g = small();
        let n = g.params().num_vertices();
        for i in 0..2000 {
            let e = g.edge(i);
            assert!(e.u < n && e.v < n);
            assert!((0.0..1.0).contains(&e.w));
        }
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = KroneckerGenerator::new(KroneckerParams::graph500(10, 1));
        let b = KroneckerGenerator::new(KroneckerParams::graph500(10, 2));
        let same = (0..100).filter(|&i| a.edge(i) == b.edge(i)).count();
        assert!(same < 5, "{same} identical edges across seeds");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // The defining property of Kronecker graphs: a heavy tail. Compare
        // the max degree against the mean; Erdős–Rényi would have max ≈ mean
        // + a few σ, Kronecker is far beyond.
        let g = small();
        let el = g.generate_all();
        let n = g.params().num_vertices() as usize;
        let mut deg = vec![0usize; n];
        for e in el.iter() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mean = 2.0 * el.len() as f64 / n as f64;
        let max = *deg.iter().max().unwrap();
        assert!(
            (max as f64) > 8.0 * mean,
            "max degree {max} not heavy-tailed vs mean {mean:.1}"
        );
    }

    #[test]
    fn initiator_probabilities_are_respected() {
        // Check the top-level quadrant frequencies of the *unscrambled*
        // recursion against (A, B, C, D). We can't see pre-scramble ids
        // from the public API, so rebuild the level-0 draw directly from
        // the generator's RNG streams, the way `edge` consumes them.
        let params = KroneckerParams::graph500(10, 5);
        let m = 40_000u64;
        let (mut a, mut b, mut c, mut d) = (0u64, 0u64, 0u64, 0u64);
        let topo = crate::rng::CounterRng::new(params.seed, 0);
        for i in 0..m {
            let base = i * (2 * params.scale as u64);
            let r1 = topo.unit_f64(base);
            let r2 = topo.unit_f64(base + 1);
            let ab = params.a + params.b;
            let row = r1 > ab;
            let col = r2
                > if row {
                    params.c / (1.0 - ab)
                } else {
                    params.a / ab
                };
            match (row, col) {
                (false, false) => a += 1,
                (false, true) => b += 1,
                (true, false) => c += 1,
                (true, true) => d += 1,
            }
        }
        let f = |x: u64| x as f64 / m as f64;
        assert!((f(a) - 0.57).abs() < 0.01, "A freq {}", f(a));
        assert!((f(b) - 0.19).abs() < 0.01, "B freq {}", f(b));
        assert!((f(c) - 0.19).abs() < 0.01, "C freq {}", f(c));
        assert!((f(d) - 0.05).abs() < 0.01, "D freq {}", f(d));
    }

    #[test]
    fn weights_are_uniform_unit_interval() {
        let g = small();
        let m = 10_000u64;
        let mean: f64 = (0..m).map(|i| g.edge(i).w as f64).sum::<f64>() / m as f64;
        assert!((mean - 0.5).abs() < 0.02, "weight mean {mean}");
        // spread across deciles
        let mut hist = [0u32; 10];
        for i in 0..m {
            hist[((g.edge(i).w * 10.0) as usize).min(9)] += 1;
        }
        for (i, &h) in hist.iter().enumerate() {
            assert!((800..1200).contains(&h), "decile {i}: {h}");
        }
    }

    #[test]
    fn scrambling_decorrelates_ids_from_structure() {
        // Without scrambling, vertex 0 would be the mega-hub (all-zeros
        // path has the highest probability). With scrambling its image is
        // pseudo-random, so vertex 0 itself should not dominate.
        let g = small();
        let el = g.generate_all();
        let deg0 = el.iter().filter(|e| e.u == 0 || e.v == 0).count();
        let n = g.params().num_vertices() as usize;
        let mut deg = vec![0usize; n];
        for e in el.iter() {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(
            deg0 < max,
            "vertex 0 is still the hub — scrambler inactive?"
        );
    }
}
