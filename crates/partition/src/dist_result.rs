//! Distributed shortest-path state and the one result gather.
//!
//! Every distributed SSSP/BFS kernel keeps `dist`/`parent` arrays indexed by
//! *local* vertex id. Validation, traversed-edge counts and tests read the
//! global view on rank 0 alone, so [`gather_to_root`] brings it there: the
//! 1D and 2D SSSP results, the BFS result and the distributed Bellman-Ford
//! baseline all call it. Every other rank gets an empty result, so no rank
//! but rank 0 holds `O(n)` of it. (The real benchmark validates
//! distributedly; gathering is the right call at simulation scale and keeps
//! the validator independent of the partitioning.)

use crate::VertexPartition;
use g500_graph::{ShortestPaths, Weight, INF_WEIGHT, NO_PARENT};
use simnet::{RankCtx, Wire};

/// One rank's slice of a shortest-path computation.
#[derive(Clone, Debug)]
pub struct DistShortestPaths {
    /// `dist[l]` for local vertex `l`.
    pub dist: Vec<Weight>,
    /// `parent[l]` (global id) for local vertex `l`.
    pub parent: Vec<u64>,
}

impl DistShortestPaths {
    /// All-unreached state over `n_local` vertices.
    pub fn unreached(n_local: usize) -> Self {
        Self {
            dist: vec![INF_WEIGHT; n_local],
            parent: vec![NO_PARENT; n_local],
        }
    }

    /// Number of locally reached vertices.
    pub fn reached_local(&self) -> u64 {
        self.dist.iter().filter(|d| d.is_finite()).count() as u64
    }

    /// Collectively gather the global result into rank 0
    /// ([`gather_to_root`]); every other rank gets an empty one.
    pub fn gather<P: VertexPartition>(&self, ctx: &mut RankCtx, part: &P) -> ShortestPaths {
        let (me, n) = (ctx.rank(), part.num_vertices() as usize);
        let local = (&self.dist[..], &self.parent[..]);
        let (dist, parent) = gather_to_root(ctx, n, INF_WEIGHT, local, |l| part.to_global(me, l));
        ShortestPaths { dist, parent }
    }

    /// [`gather`](Self::gather) under the name the benchmark's mirror calls.
    pub fn gather_to_all<P: VertexPartition>(&self, ctx: &mut RankCtx, part: &P) -> ShortestPaths {
        self.gather(ctx, part)
    }
}

/// Gather a result into rank 0 as two `n`-sized arrays, `values` and
/// `parents` by global id. Each rank sends one `(global id, value, parent)`
/// record per local vertex whose value is not `unreached` (`global` names
/// local vertex `l`), so the payload is proportional to the component, as
/// in the real benchmark's validation gather. Rank 0 fills the vertices no
/// record names with `unreached` and [`NO_PARENT`]; every other rank
/// returns two empty arrays.
///
/// Collective, and it ends in a barrier so that every rank leaves at once.
/// A rank that left after sending would otherwise wait for rank 0 inside
/// the next collective, and the next root's time would count that wait.
pub fn gather_to_root<D: Wire + Clone + PartialEq>(
    ctx: &mut RankCtx,
    n: usize,
    unreached: D,
    (values, parents): (&[D], &[u64]),
    global: impl Fn(usize) -> u64,
) -> (Vec<D>, Vec<u64>) {
    let mine: Vec<(u64, D, u64)> = values
        .iter()
        .zip(parents)
        .enumerate()
        .filter(|(_, (v, _))| **v != unreached)
        .map(|(l, (v, &p))| (global(l), v.clone(), p))
        .collect();
    let blocks = ctx.gatherv(&mine);
    let n = if ctx.rank() == 0 { n } else { 0 };
    let mut out = (vec![unreached; n], vec![NO_PARENT; n]);
    for (v, value, p) in blocks.into_iter().flatten() {
        out.0[v as usize] = value;
        out.1[v as usize] = p;
    }
    ctx.barrier();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part1d::Block1D;
    use crate::VertexPartition;
    use simnet::{Machine, MachineConfig};

    #[test]
    fn gather_reassembles_global_view() {
        let rep = Machine::new(MachineConfig::with_ranks(3)).run(|ctx| {
            let part = Block1D::new(9, 3);
            let n_local = part.local_count(ctx.rank());
            let mut d = DistShortestPaths::unreached(n_local);
            // mark every even global vertex reached with dist = id/2
            for l in 0..n_local {
                let v = part.to_global(ctx.rank(), l);
                if v % 2 == 0 {
                    d.dist[l] = v as f32 / 2.0;
                    d.parent[l] = v;
                }
            }
            d.gather(ctx, &part)
        });
        let sp = &rep.results[0];
        assert_eq!(sp.reached_count(), 5);
        assert_eq!(sp.dist[4], 2.0);
        assert!(sp.dist[3].is_infinite());
        assert_eq!(sp.parent[6], 6);
        assert_eq!(sp.parent[3], NO_PARENT);
        for other in &rep.results[1..] {
            assert!(other.dist.is_empty() && other.parent.is_empty());
        }
    }
}
