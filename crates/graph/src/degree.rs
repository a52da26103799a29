//! Degree statistics.
//!
//! Kronecker graphs are heavily skewed; the degree distribution (experiment
//! F7) is what motivates the degree-aware partitioner. This module computes
//! summary statistics and the log-binned CCDF the figure plots.

use crate::csr::Csr;

/// Summary statistics of an out-degree sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Vertex count.
    pub n: usize,
    /// Arc count (sum of degrees).
    pub arcs: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// 99th-percentile degree.
    pub p99: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Fraction of all arcs incident to the top 1% highest-degree vertices —
    /// the skew measure that justifies hub extraction.
    pub top1pct_arc_share: f64,
}

impl DegreeStats {
    /// Compute statistics from an explicit degree sequence.
    pub fn from_degrees(degrees: &[usize]) -> Self {
        let n = degrees.len();
        if n == 0 {
            return Self {
                n: 0,
                arcs: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0,
                p99: 0,
                isolated: 0,
                top1pct_arc_share: 0.0,
            };
        }
        let mut sums = Vec::new();
        let chunk = rayon::fixed_chunk_size(n, 1024);
        rayon::map_chunks(n, chunk, &mut sums, |r| degrees[r].iter().sum::<usize>());
        let arcs: usize = sums.iter().sum();
        let mut sorted = degrees.to_vec();
        sorted.sort_unstable();
        let isolated = sorted.iter().take_while(|&&d| d == 0).count();
        let top = (n / 100).max(1);
        let top_arcs: usize = sorted[n - top..].iter().sum();
        Self {
            n,
            arcs,
            min: sorted[0],
            max: sorted[n - 1],
            mean: arcs as f64 / n as f64,
            median: sorted[n / 2],
            p99: sorted[(n as f64 * 0.99) as usize % n],
            isolated,
            top1pct_arc_share: if arcs == 0 {
                0.0
            } else {
                top_arcs as f64 / arcs as f64
            },
        }
    }

    /// Compute statistics for a CSR's out-degrees.
    pub fn from_csr(csr: &Csr) -> Self {
        let degrees: Vec<usize> = (0..csr.num_vertices()).map(|u| csr.degree(u)).collect();
        Self::from_degrees(&degrees)
    }
}

/// `(degree, count-of-vertices-with->=-degree)` points on power-of-two
/// boundaries — the complementary CDF a log-log degree plot uses.
pub fn ccdf_pow2(degrees: &[usize]) -> Vec<(usize, usize)> {
    let max = degrees.iter().copied().max().unwrap_or(0);
    let mut out = Vec::new();
    let mut d = 1usize;
    while d <= max.max(1) {
        let count = degrees.iter().filter(|&&x| x >= d).count();
        out.push((d, count));
        if d > max {
            break;
        }
        d *= 2;
    }
    out
}

/// Least-squares slope of `log(ccdf)` vs `log(degree)` — the (negative)
/// power-law exponent estimate printed by experiment F7.
pub fn powerlaw_slope(ccdf: &[(usize, usize)]) -> f64 {
    let pts: Vec<(f64, f64)> = ccdf
        .iter()
        .filter(|&&(d, c)| d > 0 && c > 0)
        .map(|&(d, c)| ((d as f64).ln(), (c as f64).ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Directedness;
    use crate::edgelist::EdgeList;
    use crate::types::WEdge;

    #[test]
    fn stats_on_simple_sequence() {
        let s = DegreeStats::from_degrees(&[0, 1, 2, 3, 4]);
        assert_eq!(s.n, 5);
        assert_eq!(s.arcs, 10);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2);
        assert_eq!(s.isolated, 1);
    }

    #[test]
    fn stats_empty() {
        let s = DegreeStats::from_degrees(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.arcs, 0);
    }

    #[test]
    fn star_graph_is_maximally_skewed() {
        let mut el = EdgeList::new();
        for i in 1..101 {
            el.push(WEdge::new(0, i, 1.0));
        }
        let csr = Csr::from_edges(101, &el, Directedness::Undirected);
        let s = DegreeStats::from_csr(&csr);
        assert_eq!(s.max, 100);
        assert_eq!(s.median, 1);
        // hub (top 1% = 1 vertex of 101) owns half of all arcs
        assert!(s.top1pct_arc_share > 0.49, "share {}", s.top1pct_arc_share);
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let degrees = vec![1usize, 1, 2, 3, 8, 16, 16, 100];
        let ccdf = ccdf_pow2(&degrees);
        assert_eq!(ccdf[0], (1, 8));
        for w in ccdf.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    fn powerlaw_slope_of_exact_powerlaw() {
        // ccdf(d) = 1024 / d  → slope -1
        let ccdf: Vec<(usize, usize)> = (0..10).map(|i| (1usize << i, 1024usize >> i)).collect();
        let slope = powerlaw_slope(&ccdf);
        assert!((slope + 1.0).abs() < 1e-9, "slope {slope}");
    }
}
