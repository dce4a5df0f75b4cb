//! Order statistics over timing samples.
//!
//! Every summary carries its sample count, and a percentile is only
//! reported once at least ten samples lie beyond it — with fewer, the
//! "tail" is one or two unlucky samples, not a property of the program.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (`None` for a zero
    /// median).
    pub fn spread(&self) -> Option<f64> {
        (self.median != 0.0).then(|| (self.q3 - self.q1) / self.median.abs())
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`: cut point `i` sits at rank
/// `i·(n+1)/4`, interpolated linearly. Needs at least two samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Transcribed from CPython's `statistics.quantiles`, including its
    // clamping of out-of-sample ranks and its interpolation formula.
    let cut = |i: usize| {
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Summary {
        n,
        q1: cut(1),
        median: median(&v)?,
        q3: cut(3),
    })
}

/// The `p`-th percentile (0 < p < 100, nearest rank), or `None` when
/// fewer than ten samples lie above it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= 10).then(|| v[idx])
}

/// Geometric mean of positive values; `None` if any is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|x| x.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 10);
        assert!((s.q1 - 2.75).abs() < 1e-12, "{s:?}");
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12, "{s:?}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let s = summarize(&[5.0, 7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.5, 6.0, 7.5));
        assert!(summarize(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_relative_to_median() {
        let s = summarize(&[9.0, 10.0, 10.0, 11.0]).unwrap();
        assert!((s.spread().unwrap() - (s.q3 - s.q1) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // Only nine samples above the 91st percentile.
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v[..15], 50.0), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
