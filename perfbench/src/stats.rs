//! Order statistics for timings.

/// Samples a reported tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Largest sample; 0 for no samples.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// A nearest-rank tail percentile with its sample counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The nearest-rank `p` percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it: a tail read from fewer
/// samples is one outlier, not a percentile.
pub fn tail(xs: &[f64], p: f64) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: v[rank - 1],
        samples: n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 0.9).expect("100 samples carry a p90");
        assert_eq!((t.value, t.samples, t.beyond), (90.0, 100, 10));
        assert!(tail(&xs[..99], 0.9).is_none(), "99 samples leave 9 beyond");
        let t = tail(&xs[..20], 0.5).expect("20 samples carry a p50");
        assert!(t.beyond >= MIN_BEYOND);
        assert!(tail(&[], 0.5).is_none());
    }

    #[test]
    fn quantiles_interpolate_and_ignore_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }
}
