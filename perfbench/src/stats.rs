//! Order statistics every workload reports with.

/// Samples a tail percentile must leave beyond it (the benchmark's
/// percentile rule).
pub const MIN_BEYOND: usize = 10;

/// A percentile as read from one run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the percentile.
    pub value: f64,
    /// The percentile actually read, as a fraction (`0.99` for p99).
    pub q: f64,
    /// How many samples it was read from.
    pub n: usize,
}

/// The nearest-rank percentile `target`, lowered when needed to the
/// highest one that still has at least [`MIN_BEYOND`] samples beyond
/// it. `None` when there are too few samples for any percentile.
pub fn quantile(samples: &[f64], target: f64) -> Option<Quantile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((target * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = wanted.min(n - 1 - MIN_BEYOND);
    Some(Quantile { value: sorted[k], q: (k + 1) as f64 / n as f64, n })
}

/// A tail percentile robust to one stall of the host: `samples` are
/// `(time, value)` pairs from one phase of `duration_s` seconds. They are
/// split by time into `windows` equal windows, each window's `target`
/// percentile is read by [`quantile`]'s rule, and the median over the
/// windows is returned, with the lowest percentile any window read and
/// the phase's sample count. `None` if a window is too small.
pub fn windowed_tail(
    samples: &[(f64, f64)],
    duration_s: f64,
    windows: usize,
    target: f64,
) -> Option<Quantile> {
    let mut tails = Vec::with_capacity(windows);
    let mut q = 1.0f64;
    for w in 0..windows {
        let lo = duration_s * w as f64 / windows as f64;
        let hi = duration_s * (w + 1) as f64 / windows as f64;
        let window: Vec<f64> =
            samples.iter().filter(|(t, _)| (lo..hi).contains(t)).map(|&(_, v)| v).collect();
        let tail = quantile(&window, target)?;
        q = q.min(tail.q);
        tails.push(tail.value);
    }
    Some(Quantile { value: median(&tails), q, n: samples.len() })
}

/// The middle of `samples` (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// First and third quartile (medians of the lower and upper halves).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.len() / 2;
    let upper = if sorted.len().is_multiple_of(2) { half } else { half + 1 };
    (median(&sorted[..half]), median(&sorted[upper..]))
}

/// Arithmetic mean; `0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the rule cannot rely on sorted input.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let q = quantile(&ramp(1000), 0.99).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!(q.q, 0.99);
        assert_eq!(q.n, 1000);
        // 10 samples (991..=1000) lie beyond the reported value.
    }

    #[test]
    fn tail_is_lowered_when_samples_are_few() {
        let q = quantile(&ramp(200), 0.99).unwrap();
        assert_eq!(q.value, 190.0, "index n-11 leaves exactly 10 beyond");
        assert_eq!(q.q, 0.95);
        let q = quantile(&ramp(11), 0.99).unwrap();
        assert_eq!(q.value, 1.0);
        assert!(quantile(&ramp(10), 0.5).is_none());
    }

    #[test]
    fn median_percentile_is_nearest_rank() {
        let q = quantile(&ramp(101), 0.5).unwrap();
        assert_eq!(q.value, 51.0);
        let q = quantile(&ramp(100), 0.5).unwrap();
        assert_eq!(q.value, 50.0);
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // 3 windows of 100 samples at 1 ms; a stall makes 15 samples of
        // the middle window take 50 ms.
        let samples: Vec<(f64, f64)> = (0..300)
            .map(|i| (i as f64 * 0.01, if (120..135).contains(&i) { 50.0 } else { 1.0 }))
            .collect();
        let values: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&values, 0.99).unwrap().value, 50.0, "the plain p99 sits in the stall");
        let t = windowed_tail(&samples, 3.0, 3, 0.99).unwrap();
        assert_eq!((t.value, t.q, t.n), (1.0, 0.9, 300));
        // Stalls in most windows do show.
        let busy: Vec<(f64, f64)> = samples
            .iter()
            .map(|&(t, v)| (t, if (t * 100.0) as usize % 100 >= 85 { 50.0 } else { v }))
            .collect();
        assert_eq!(windowed_tail(&busy, 3.0, 3, 0.99).unwrap().value, 50.0);
        assert!(windowed_tail(&samples[..20], 3.0, 3, 0.99).is_none(), "windows too small");
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), (2.5, 6.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
    }
}
