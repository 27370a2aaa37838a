//! Order statistics used by every reported timing.

/// Nearest-rank percentile of `samples` for `q` in (0, 1]: the smallest
/// sample such that at least `q` of all samples are at or below it. A
/// `None` sample is an operation that failed or was refused; it counts as
/// slower than every completed one, so failures push percentiles up
/// instead of vanishing from them. Returns `None` when the rank lands on a
/// failed operation or there are no samples.
pub fn nearest_rank(samples: &[Option<f64>], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut done: Vec<f64> = samples.iter().flatten().copied().collect();
    done.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    done.get(rank - 1).copied()
}

/// Median of completed values (nearest-rank p50); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let samples: Vec<Option<f64>> = values.iter().map(|v| Some(*v)).collect();
    nearest_rank(&samples, 0.5).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some(v: &[f64]) -> Vec<Option<f64>> {
        v.iter().map(|x| Some(*x)).collect()
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = some(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(nearest_rank(&s, 0.50), Some(50.0));
        assert_eq!(nearest_rank(&s, 0.90), Some(90.0));
        assert_eq!(nearest_rank(&s, 0.95), Some(95.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(100.0));
        // rank = ceil(q * n): 0.5 of 5 samples is the 3rd, never interpolated
        assert_eq!(
            nearest_rank(&some(&[5.0, 1.0, 4.0, 2.0, 3.0]), 0.5),
            Some(3.0)
        );
        assert_eq!(nearest_rank(&some(&[1.0, 2.0, 3.0, 4.0]), 0.5), Some(2.0));
        assert_eq!(nearest_rank(&some(&[7.0]), 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn failures_count_as_missing_the_percentile() {
        // 8 completed, 2 failed: p50 is still a completed sample, but p90
        // lands on a failure and so has no finite value
        let mut s = some(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        s.extend([None, None]);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.8), Some(8.0));
        assert_eq!(nearest_rank(&s, 0.9), None);
    }

    #[test]
    fn median_and_ratio_handle_empty_input() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
