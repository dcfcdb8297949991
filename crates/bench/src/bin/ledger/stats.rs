//! Order statistics: nearest-rank percentiles and the tail rule.

/// Percentiles the ledger may report as a tail, lowest first.
const TAILS: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank index (1-based) of percentile `p` among `n` samples,
/// in integer per-mille so that 99.9 of 10 000 is exactly rank 9990.
fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest of p50/p90/p99/p99.9 that has at least
/// [`TAIL_SAMPLES_BEYOND`] of `n` samples above its rank, or `None` when
/// even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_SAMPLES_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
