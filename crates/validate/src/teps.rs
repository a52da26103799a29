//! TEPS (traversed edges per second) statistics.
//!
//! Graph500 reports, over the 64 sampled roots, the full distribution of
//! per-root TEPS with the **harmonic** mean as the headline number (TEPS is
//! a rate, and the benchmark fixes work-per-root, so the harmonic mean is
//! the statistically meaningful average — the spec is explicit about this).

use g500_graph::EdgeList;

/// Count input edges with at least one endpoint in the reached set — the
/// TEPS numerator per the specification (self-loops and duplicates count,
/// exactly as generated).
pub fn count_traversed_edges(edges: &EdgeList, reached: impl Fn(u64) -> bool) -> u64 {
    edges
        .iter()
        .filter(|e| reached(e.u) || reached(e.v))
        .count() as u64
}

/// Distribution summary of per-root TEPS samples.
#[derive(Clone, Debug, PartialEq)]
pub struct TepsSummary {
    /// Number of (validated) runs.
    pub runs: usize,
    /// Minimum per-root TEPS.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum per-root TEPS.
    pub max: f64,
    /// Harmonic mean — the official headline statistic.
    pub harmonic_mean: f64,
    /// Arithmetic mean, reported for comparison.
    pub mean: f64,
}

impl TepsSummary {
    /// Build from `(traversed_edges, seconds)` samples. Panics on empty
    /// input or non-positive times.
    pub fn from_samples(samples: &[(u64, f64)]) -> Self {
        assert!(!samples.is_empty(), "need at least one run");
        let mut teps: Vec<f64> = samples
            .iter()
            .map(|&(m, t)| {
                assert!(t > 0.0, "non-positive run time");
                m as f64 / t
            })
            .collect();
        teps.sort_by(|a, b| a.total_cmp(b));
        let n = teps.len();
        let q = |f: f64| -> f64 {
            let idx = (f * (n - 1) as f64).round() as usize;
            teps[idx]
        };
        let mean = teps.iter().sum::<f64>() / n as f64;
        let harmonic_mean = n as f64 / teps.iter().map(|t| 1.0 / t).sum::<f64>();
        Self {
            runs: n,
            min: teps[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: teps[n - 1],
            harmonic_mean,
            mean,
        }
    }

    /// Render the official-style output block.
    pub fn render(&self, label: &str) -> String {
        format!(
            "{label}\n  runs:          {}\n  min_TEPS:      {:.4e}\n  q1_TEPS:       {:.4e}\n  median_TEPS:   {:.4e}\n  q3_TEPS:       {:.4e}\n  max_TEPS:      {:.4e}\n  harmonic_mean: {:.4e}\n  mean:          {:.4e}",
            self.runs, self.min, self.q1, self.median, self.q3, self.max,
            self.harmonic_mean, self.mean
        )
    }
}

simnet::json_fields! {
    TepsSummary:
    runs, min, q1, median, q3, max, harmonic_mean, mean,
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_graph::WEdge;

    #[test]
    fn traversed_edge_counting() {
        let el = EdgeList::from_edges([
            WEdge::new(0, 1, 0.1),
            WEdge::new(1, 2, 0.1),
            WEdge::new(3, 4, 0.1),
        ]);
        let reached = |v: u64| v <= 2;
        assert_eq!(count_traversed_edges(&el, reached), 2);
        assert_eq!(count_traversed_edges(&el, |_| false), 0);
        assert_eq!(count_traversed_edges(&el, |_| true), 3);
    }

    #[test]
    fn harmonic_mean_below_arithmetic() {
        // same edge count, times 1s and 4s → TEPS 100 and 25
        let s = TepsSummary::from_samples(&[(100, 1.0), (100, 4.0)]);
        assert_eq!(s.min, 25.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 62.5).abs() < 1e-12);
        assert!((s.harmonic_mean - 40.0).abs() < 1e-12);
        assert!(s.harmonic_mean < s.mean);
    }

    #[test]
    fn single_sample_quartiles_collapse() {
        let s = TepsSummary::from_samples(&[(1000, 2.0)]);
        assert_eq!(s.min, s.max);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.harmonic_mean, 500.0);
    }

    #[test]
    fn render_contains_headline() {
        let s = TepsSummary::from_samples(&[(100, 1.0)]);
        let out = s.render("SSSP scale 10");
        assert!(out.contains("harmonic_mean"));
        assert!(out.contains("SSSP scale 10"));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_samples_panic() {
        TepsSummary::from_samples(&[]);
    }
}
