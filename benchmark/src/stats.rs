//! The benchmark's own arithmetic: percentiles, quartile spread, and the
//! bound comparison behind `run.sh --compare`.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` without their lowest and highest quarter (rounded
/// down): steadier than the median on a short series, and as deaf to one
/// outlier. Used for restart times, which within one run step up and
/// down by whole 64 KB device reads.
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[v.len() / 4..v.len() - v.len() / 4];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Zero-based rank a tail percentile reads from `n` sorted samples: the
/// rank of quantile `q`, lowered until at least ten samples lie beyond it
/// so the figure is never one outlier. `None` below eleven samples.
pub fn tail_rank(n: usize, q: f64) -> Option<usize> {
    if n < 11 {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    Some(wanted.min(n - 11))
}

/// Value at quantile `q` of `sorted` under the [`tail_rank`] rule.
pub fn tail_percentile(sorted: &[u64], q: f64) -> Option<u64> {
    tail_rank(sorted.len(), q).map(|r| sorted[r])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one metric of one workload between two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second median is worse than the first by more than the bound.
    Worse,
    /// Within the bound, and the spread is narrow enough to say so.
    Same,
    /// The run-to-run spread of either side is wider than the bound, so
    /// "within the bound" would not mean "unchanged".
    Unresolved,
}

/// Apply a metric's bound. `bound` is a share of the first median;
/// `floor_abs` is an absolute allowance in the metric's unit (used by
/// `setup_s`, where a quarter of a few milliseconds is scheduler noise) —
/// the larger of the two applies.
pub fn compare(
    first: &[f64],
    second: &[f64],
    bound: f64,
    floor_abs: f64,
    better: Better,
) -> Verdict {
    let (a, b) = (median(first), median(second));
    let allowed = (bound * a.abs()).max(floor_abs);
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by > allowed {
        return Verdict::Worse;
    }
    let widest = spread(first).max(spread(second)) * a.abs();
    if widest > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 989 (990th value), ten lie beyond.
        assert_eq!(tail_rank(1000, 0.99), Some(989));
        // 200 samples: p99 would leave two beyond, so the rank drops to
        // the highest one with ten beyond it.
        assert_eq!(tail_rank(200, 0.99), Some(189));
        assert_eq!(tail_rank(100_000, 0.99), Some(98_999));
        assert_eq!(tail_rank(10, 0.5), None);
        // The median is never lowered once eleven samples exist.
        assert_eq!(tail_rank(21, 0.5), Some(10));
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_percentile(&sorted, 0.99), Some(190));
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), 3.0);
        // Nine values: two dropped from each end, the outlier among them.
        let v = [5.0, 1.0, 2.0, 3.0, 4.0, 900.0, 6.0, 7.0, 8.0];
        assert_eq!(midmean(&v), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_comparison() {
        let base = [100.0, 101.0, 99.0];
        // 4 % worse under a 5 % bound: same.
        assert_eq!(
            compare(&base, &[104.0, 104.5, 103.5], 0.05, 0.0, Better::Lower),
            Verdict::Same
        );
        // 8 % worse: worse; 8 % better: same.
        assert_eq!(
            compare(&base, &[108.0, 108.0, 108.0], 0.05, 0.0, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            compare(&base, &[92.0, 92.0, 92.0], 0.05, 0.0, Better::Lower),
            Verdict::Same
        );
        // Direction flips for a higher-is-better metric.
        assert_eq!(
            compare(&base, &[92.0, 92.0, 92.0], 0.05, 0.0, Better::Higher),
            Verdict::Worse
        );
        // Spread wider than the bound: unresolved, not unchanged.
        assert_eq!(
            compare(&[80.0, 100.0, 120.0], &base, 0.05, 0.0, Better::Lower),
            Verdict::Unresolved
        );
    }

    #[test]
    fn setup_floor_is_absolute() {
        // 0.004 s -> 0.2 s is fifty times worse but under the 0.25 s
        // floor; 0.004 s -> 0.3 s is over it.
        let base = [0.004, 0.004, 0.004];
        assert_eq!(
            compare(&base, &[0.2, 0.2, 0.2], 0.25, 0.25, Better::Lower),
            Verdict::Same
        );
        assert_eq!(
            compare(&base, &[0.3, 0.3, 0.3], 0.25, 0.25, Better::Lower),
            Verdict::Worse
        );
    }
}
