//! Order statistics for the benchmark's own reports.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, exactly as
/// Python's `statistics.quantiles(values, n=4)` computes them (including
/// its extrapolation for two values), so the spreads this benchmark prints
/// match the ones a reader recomputes from its results. A single value is
/// its own quartiles; an empty slice gives NaNs.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        len => {
            let m = (len + 1) as i64;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The highest whole percentile (50..=99) of `values` that still has at
/// least ten samples above it, by nearest rank, as `(percentile, value)`.
/// A tail figure from fewer samples would rest on fewer than ten
/// observations; when even the median has fewer than ten beyond it, the
/// median is returned as percentile 50.
#[must_use]
pub fn tail_percentile(values: &[f64]) -> (u32, f64) {
    let s = sorted(values);
    let n = s.len();
    for p in (50..=99u32).rev() {
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, s[rank - 1]);
        }
    }
    (50, median(values))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th value, ten lie above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (99, 990.0));
        // 100 samples: p90 is the highest with ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (90, 90.0));
        // 999 samples: p99 would have 9 beyond (rank 990), so p98.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, x) = tail_percentile(&v);
        assert_eq!(p, 98);
        assert_eq!(x, 980.0);
        assert!(999 - x as usize >= 10);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_percentile(&[1.0, 2.0, 3.0]), (50, 2.0));
    }
}
