//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here from the
//! raw `Instant` differences it recorded, never from a histogram.

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of sorted samples, with linear
/// interpolation between closest ranks (the "inclusive" method Python's
/// `statistics.quantiles(method="inclusive")` uses).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median and quartiles of a set of repeats.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// The highest of p99.9 / p99 / p95 / p90 / p50 that has at least ten
/// samples beyond it, with its value: `(label, value)`. `None` when
/// fewer than 20 samples exist (even the median lacks ten beyond it).
pub fn tail_percentile(sorted: &[f64]) -> Option<(&'static str, f64)> {
    const LADDER: [(&str, f64); 5] =
        [("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p50", 0.50)];
    let n = sorted.len() as f64;
    LADDER
        .iter()
        .find(|(_, q)| n * (1.0 - q) >= 10.0)
        .map(|&(label, q)| (label, quantile_sorted(sorted, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert!((quantile_sorted(&s, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s).unwrap().0, "p99");
        let s: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s).unwrap().0, "p99.9");
        assert!(tail_percentile(&s[..19]).is_none());
    }
}
