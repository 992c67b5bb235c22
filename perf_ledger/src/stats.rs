//! Percentiles under the "ten samples beyond" rule, medians and means.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support percentile `p` (in percent): at least
/// [`MIN_BEYOND`] samples lie above it.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    // Integer arithmetic in hundredths of a percent avoids float
    // rounding at the boundary (1000 samples do support p99).
    let beyond_hundredths = n as u128 * (10_000 - (p * 100.0).round() as u128);
    beyond_hundredths >= (MIN_BEYOND as u128) * 10_000
}

/// The highest percentile of the reporting ladder that `n` samples
/// support, if any.
#[must_use]
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports(n, p))
}

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`, or
/// `None` when the sample does not support it.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !supports(sorted.len(), p) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values`, 0 when empty.
#[must_use]
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(150), Some(90.0));
        assert_eq!(highest_supported(250), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(500));
        assert_eq!(percentile(&sorted, 99.0), Some(990));
        assert_eq!(percentile(&sorted, 99.9), None);
        assert_eq!(percentile(&sorted[..500], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
