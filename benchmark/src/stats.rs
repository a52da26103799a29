//! Order statistics shared by both passes: medians, and the tail rule
//! "the highest percentile that still has ten samples beyond it".

/// Samples a percentile must leave beyond itself to be reported as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of an unsorted sample (mean of the two middle values when even).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max - min) / median` of a sample: the run-to-run spread printed beside
/// every host-time median.
pub fn rel_spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m
    }
}

/// A reported tail: the value and which percentile of the sample it is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

/// The highest order statistic with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it. When no order statistic above the median qualifies the tail
/// *is* the median (percentile 50), so the metric never disappears.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // index n-1-TAIL_MIN_BEYOND has exactly TAIL_MIN_BEYOND samples above it
    if n > TAIL_MIN_BEYOND + 1 && n - 1 - TAIL_MIN_BEYOND > n / 2 {
        let i = n - 1 - TAIL_MIN_BEYOND;
        Tail {
            value: v[i],
            percentile: 100.0 * (i + 1) as f64 / n as f64,
        }
    } else {
        Tail {
            value: median(values),
            percentile: 50.0,
        }
    }
}

/// The tail rule for a report that only carries fixed percentiles (the
/// serving report: p95 and p99 by nearest rank): does `percentile` of `n`
/// samples leave [`TAIL_MIN_BEYOND`] samples beyond it?
pub fn leaves_a_tail(n: usize, percentile: f64) -> bool {
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + TAIL_MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_reps_ignores_one_outlier() {
        // three repetitions, one hit by a noisy neighbour
        assert_eq!(median(&[10.1, 31.0, 10.3]), 10.3);
        assert!((rel_spread(&[10.0, 11.0, 10.5]) - 1.0 / 10.5).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_falls_back_to_median_on_small_samples() {
        // 21 samples: index 10 has ten beyond it but is the median itself
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 50.0);
        assert_eq!(tail(&v).value, 11.0);
        // 24 samples: index 13 is above the median and has ten beyond
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 14.0);
        assert!(t.percentile > 50.0);
        // tiny samples
        assert_eq!(tail(&[5.0]).value, 5.0);
        assert_eq!(tail(&[1.0, 3.0]).value, 2.0);
    }

    #[test]
    fn fixed_percentiles_need_ten_beyond() {
        // p95 of 208 is rank 198: exactly ten beyond
        assert!(leaves_a_tail(208, 95.0) && !leaves_a_tail(208, 99.0));
        assert!(!leaves_a_tail(160, 95.0));
        assert!(leaves_a_tail(2000, 99.0));
    }
}
