//! Distributed shortest-path state and result gathering.
//!
//! Every distributed SSSP/BFS kernel keeps `dist`/`parent` arrays indexed by
//! *local* vertex id. Validation and tests need the global view, so this
//! module provides the collective that reassembles a [`ShortestPaths`] over
//! global ids on every rank. (The real benchmark validates distributedly;
//! gathering is the right call at simulation scale and keeps the validator
//! independent of the partitioning.)

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

    /// Collectively reassemble the global result on every rank.
    ///
    /// Each rank contributes `(global_id, dist, parent)` for its *reached*
    /// vertices only (unreached are implied), so the payload is proportional
    /// to the component size, as in the real benchmark's validation gather.
    /// The route is priced for a rank's share of every vertex, a number all
    /// ranks hold.
    pub fn gather_to_all<P: VertexPartition>(&self, ctx: &mut RankCtx, part: &P) -> ShortestPaths {
        let me = ctx.rank();
        let mine: Vec<(u64, f32, u64)> = self
            .dist
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(l, &d)| (part.to_global(me, l), d, self.parent[l]))
            .collect();
        let n = part.num_vertices() as usize;
        let bytes = (n * <(u64, f32, u64) as Wire>::SIZE) as f64 / ctx.size() as f64;
        let blocks = ctx.allgatherv_routed(ctx.allgatherv_route(bytes), &mine);
        let mut out = ShortestPaths::unreached(n);
        for block in blocks {
            for (v, d, p) in block {
                out.dist[v as usize] = d;
                out.parent[v as usize] = p;
            }
        }
        out
    }
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
            d.gather_to_all(ctx, &part)
        });
        for sp in rep.results {
            assert_eq!(sp.reached_count(), 5);
            assert_eq!(sp.dist[4], 2.0);
            assert!(sp.dist[3].is_infinite());
            assert_eq!(sp.parent[6], 6);
            assert_eq!(sp.parent[3], NO_PARENT);
        }
    }
}
