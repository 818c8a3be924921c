//! Order statistics the benchmark reports: medians, quartiles, the percentile
//! rule for tails, and the geometric mean used to average across op types.

/// Sorted copy of `values` (NaNs are a bug upstream; they sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.total_cmp(b));
    out
}

/// Linear-interpolated percentile of an ascending slice, `q` in `[0, 1]`.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// Percentile `q` in `[0, 1]` of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The highest percentile, capped at `cap`, that still has at least ten
/// samples beyond it: with `n` samples that is `1 - 10/n`. Fewer than twenty
/// samples cannot support anything above the median, so the median is the
/// answer.
pub fn tail_quantile(samples: usize, cap: f64) -> f64 {
    if samples < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).clamp(0.5, cap)
}

/// Where in the spread of a run's windows a timing is read: the decile on
/// the better side. The host is shared; its loud phases slow every window
/// they touch and belong to the neighbours, not to the program, so a run
/// reports what its quietest windows measured. A change to the program moves
/// every window and with them this figure.
pub const QUIET: f64 = 0.1;

/// The quiet decile of per-window values: the low one for a metric where
/// lower is better, the high one otherwise.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    percentile(values, if lower_is_better { QUIET } else { 1.0 - QUIET })
}

/// `samples`, in the order they were taken, cut into consecutive windows of
/// `window` samples. What is left over after the last full window is dropped;
/// fewer samples than one window are the one window.
pub fn windows(samples: &[f64], window: usize) -> impl Iterator<Item = &[f64]> {
    samples.chunks_exact(window.clamp(1, samples.len().max(1)))
}

/// Sample count, quartiles and median of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        Summary {
            samples: sorted.len(),
            q1: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.5),
            q3: percentile_sorted(&sorted, 0.75),
        }
    }
}

/// Geometric mean of positive values; `NaN` for an empty input.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0, 0usize);
    for value in values {
        log_sum += value.ln();
        count += 1;
    }
    if count == 0 {
        f64::NAN
    } else {
        (log_sum / count as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        let summary = Summary::of(&values);
        assert_eq!(summary.samples, 4);
        assert_eq!(summary.q1, 1.75);
        assert_eq!(summary.q3, 3.25);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        // Too few samples for any tail: the median is all that can be reported.
        assert_eq!(tail_quantile(3, 0.9), 0.5);
        assert_eq!(tail_quantile(19, 0.9), 0.5);
        // 40 samples support p75 (ten beyond it), not p90.
        assert_eq!(tail_quantile(40, 0.9), 0.75);
        // 100 samples are exactly enough for p90; more do not raise the cap.
        assert!((tail_quantile(100, 0.9) - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(100_000, 0.9), 0.9);
        // The uncapped rule reaches p99 at 1000 samples.
        assert!((tail_quantile(1000, 0.999) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn windows_are_consecutive_and_full() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let cut: Vec<&[f64]> = windows(&samples, 2).collect();
        assert_eq!(cut, [&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        // Fewer samples than one window: they are the window.
        let cut: Vec<&[f64]> = windows(&samples, 8).collect();
        assert_eq!(cut, [&samples[..]]);
        assert_eq!(windows(&samples, 0).count(), 5);
    }

    #[test]
    fn quiet_decile_sits_on_the_better_side() {
        let values: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quiet(&values, true), 1.0);
        assert_eq!(quiet(&values, false), 9.0);
        assert_eq!(quiet(&[3.0], true), 3.0);
    }

    #[test]
    fn geomean_averages_ratios() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty()).is_nan());
    }
}
