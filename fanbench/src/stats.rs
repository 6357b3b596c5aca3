//! Order statistics under the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// `true` when `n` samples support percentile `p` under the rule.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND
}

/// Percentile `p` of `samples` (any order) when the rule allows it,
/// otherwise the highest percentile it does allow, with a warning on
/// stderr naming `what`; `0.0` for an empty sample.
pub fn percentile(samples: &[f64], p: f64, what: &str) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if supports(n, p) {
        return sorted[rank(n, p)];
    }
    let index = n.saturating_sub(MIN_BEYOND + 1);
    eprintln!(
        "fanbench: {what}: {n} samples do not support p{p}; reporting p{:.1}",
        100.0 * (index + 1) as f64 / n as f64
    );
    sorted[index]
}

/// Median (mean of the middle pair for an even count); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn supported_percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0, "t"), 990.0);
        assert_eq!(percentile(&samples, 50.0, "t"), 500.0);
        // Ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(samples.iter().filter(|&&s| s > 990.0).count(), MIN_BEYOND);
    }

    #[test]
    fn unsupported_percentile_falls_back_to_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let value = percentile(&samples, 99.0, "t");
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), MIN_BEYOND);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
