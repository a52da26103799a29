//! The network/compute cost model that turns measured traffic into
//! simulated time.
//!
//! We use the LogGP family: a message of `n` bytes from `a` to `b` costs the
//! sender `o` (send overhead) and is available to the receiver at
//! `send_time + o + L·hops(a, b) + G·n`, where `hops` comes from the
//! interconnect [`Topology`]. Compute is charged at a flat rate of abstract
//! "operations" per second, where one operation ≈ one edge relaxation or one
//! vertex scan — the natural unit of graph kernels.
//!
//! What the model does not charge: `G·n` is paid per message in flight, on
//! its arrival, never on the sender's clock — a sender pays `o` a message and
//! nothing for its bytes, so two messages of `n` bytes sent back to back
//! arrive `o` apart, not `G·n` apart. No rank's sends are serialised against
//! each other, and no link or NIC is shared, so `G` is a per-message
//! bandwidth, not an injection limit. A schedule that puts many blocks in
//! flight at once (the one-round allgather, `collectives.rs`) pays the bytes
//! of one of them on its critical path; on a machine whose injection does
//! saturate it would pay all of them, as a ring does here. On a lossy
//! machine the same holds for retransmissions ([`crate::transport`]): a
//! lost frame's retransmit timers run on the link and delay that message's
//! arrival alone, and the sender pays `o` per re-post, never the wait.
//!
//! The default constants approximate one rank = one node of a Sunway-class
//! system (µs-scale MPI latency, 10 GB/s per message in flight, ~1 Gops/s of
//! irregular-memory graph work per rank). Absolute values are *models*, not
//! measurements; experiments report shapes and ratios, which are insensitive
//! to moderate constant changes (EXPERIMENTS.md discusses sensitivity).

/// Interconnect topologies, used to scale per-message latency by hop count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Full crossbar: every pair one hop. The idealised baseline.
    Crossbar,
    /// A fat tree with the given switch radix; ranks are leaves. Hops =
    /// 2 × (levels to the lowest common ancestor).
    FatTree {
        /// Switch radix (children per switch), ≥ 2.
        radix: u32,
    },
    /// A 2D torus of `w × h` ranks (rank r at `(r % w, r / w)`); hop count is
    /// the Manhattan distance with wraparound. Models the Sunway-style
    /// multi-dimensional interconnect where neighbor exchanges are cheap and
    /// bisection traffic is not.
    Torus2D {
        /// Torus width.
        w: u32,
        /// Torus height.
        h: u32,
    },
    /// Dragonfly-like: ranks in groups of `group`; 1 hop within a group,
    /// 3 hops across (local–global–local).
    Dragonfly {
        /// Ranks per group, ≥ 1.
        group: u32,
    },
}

impl Topology {
    /// Number of network hops between ranks `a` and `b`.
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        if a == b {
            return 0;
        }
        match *self {
            Topology::Crossbar => 1,
            Topology::FatTree { radix } => {
                let radix = radix.max(2) as u64;
                let (mut x, mut y) = (a as u64, b as u64);
                let mut level = 0;
                while x != y {
                    x /= radix;
                    y /= radix;
                    level += 1;
                }
                2 * level
            }
            Topology::Torus2D { w, h } => {
                let (w, h) = (w.max(1) as u64, h.max(1) as u64);
                let (ax, ay) = (a as u64 % w, (a as u64 / w) % h);
                let (bx, by) = (b as u64 % w, (b as u64 / w) % h);
                let dx = ax.abs_diff(bx).min(w - ax.abs_diff(bx));
                let dy = ay.abs_diff(by).min(h - ay.abs_diff(by));
                (dx + dy).max(1) as u32
            }
            Topology::Dragonfly { group } => {
                let g = group.max(1) as usize;
                if a / g == b / g {
                    1
                } else {
                    3
                }
            }
        }
    }
}

impl Topology {
    /// Ranks a group of the two-hop exchange grid
    /// ([`RankCtx::alltoallv_routed`](crate::RankCtx::alltoallv_routed)) on
    /// `p` ranks: `S`, of `G × S = p`, group `g` being ranks `g·S..(g+1)·S`.
    /// The groups the wiring already has — a Dragonfly `group`, the leaves
    /// under one fat-tree switch — when they tile `p` into more than one;
    /// otherwise the largest divisor of `p` not above `√p`, so the grid is as
    /// square as `p` allows. `1` (a prime `p`) means there is no grid.
    pub fn exchange_group(&self, p: usize) -> usize {
        let wired = match *self {
            Topology::Dragonfly { group } => group as usize,
            Topology::FatTree { radix } => radix as usize,
            Topology::Crossbar | Topology::Torus2D { .. } => 0,
        };
        if wired > 1 && wired < p && p.is_multiple_of(wired) {
            return wired;
        }
        let divides = |s: &usize| p.is_multiple_of(*s);
        (1..=p.isqrt()).rev().find(divides).unwrap_or(1)
    }
}

/// LogGP-style per-message cost parameters (seconds / seconds-per-byte).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogGP {
    /// Per-hop wire latency (s).
    pub latency: f64,
    /// CPU overhead per message at each end (s).
    pub overhead: f64,
    /// Time per payload byte (s) of one message in flight, i.e. 1 / its
    /// bandwidth; charged on arrival, never to the sender (module docs).
    pub per_byte: f64,
}

impl Default for LogGP {
    fn default() -> Self {
        Self {
            latency: 1.0e-6,        // 1 µs per hop
            overhead: 0.5e-6,       // 0.5 µs send/recv CPU cost
            per_byte: 1.0 / 10.0e9, // 10 GB/s per message in flight
        }
    }
}

impl LogGP {
    /// Time from send call to the payload being deliverable, over `hops`.
    #[inline]
    pub fn transit(&self, bytes: usize, hops: u32) -> f64 {
        self.latency * hops as f64 + self.per_byte * bytes as f64
    }
}

/// Per-rank compute throughput model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeModel {
    /// Abstract graph operations (edge relaxations, vertex scans) per second.
    pub ops_per_sec: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self { ops_per_sec: 1.0e9 }
    }
}

impl ComputeModel {
    /// Seconds charged for `ops` operations.
    #[inline]
    pub fn seconds(&self, ops: u64) -> f64 {
        ops as f64 / self.ops_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_hops() {
        let t = Topology::Crossbar;
        assert_eq!(t.hops(3, 3), 0);
        assert_eq!(t.hops(0, 63), 1);
    }

    #[test]
    fn fat_tree_hops_grow_with_distance() {
        let t = Topology::FatTree { radix: 4 };
        assert_eq!(t.hops(0, 1), 2); // same leaf switch
        assert_eq!(t.hops(0, 4), 4); // one level up
        assert_eq!(t.hops(0, 16), 6);
        assert_eq!(t.hops(5, 5), 0);
    }

    #[test]
    fn torus_wraps_around() {
        let t = Topology::Torus2D { w: 4, h: 4 };
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 3), 1); // wraparound x
        assert_eq!(t.hops(0, 12), 1); // wraparound y
        assert_eq!(t.hops(0, 5), 2); // diagonal
        assert_eq!(t.hops(0, 10), 4); // opposite corner: 2 + 2
    }

    #[test]
    fn dragonfly_local_vs_global() {
        let t = Topology::Dragonfly { group: 8 };
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 8), 3);
    }

    #[test]
    fn exchange_group_follows_the_wiring_then_the_square_root() {
        let flat = Topology::Crossbar;
        let sizes = [1, 2, 4, 6, 7, 8, 12, 16, 128];
        assert_eq!(
            sizes.map(|p| flat.exchange_group(p)),
            [1, 1, 2, 2, 1, 2, 3, 4, 8]
        );
        assert_eq!(Topology::Dragonfly { group: 8 }.exchange_group(32), 8);
        assert_eq!(Topology::FatTree { radix: 4 }.exchange_group(32), 4);
        // wiring that does not tile the machine into several groups
        assert_eq!(Topology::Dragonfly { group: 8 }.exchange_group(8), 2);
        assert_eq!(Topology::Dragonfly { group: 5 }.exchange_group(16), 4);
        assert_eq!(Topology::FatTree { radix: 4 }.exchange_group(7), 1);
    }

    #[test]
    fn loggp_transit_scales() {
        let m = LogGP {
            latency: 1e-6,
            overhead: 0.0,
            per_byte: 1e-9,
        };
        assert!((m.transit(0, 1) - 1e-6).abs() < 1e-15);
        assert!((m.transit(1000, 2) - (2e-6 + 1e-6)).abs() < 1e-15);
    }

    #[test]
    fn compute_seconds() {
        let c = ComputeModel { ops_per_sec: 1e9 };
        assert!((c.seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }
}
