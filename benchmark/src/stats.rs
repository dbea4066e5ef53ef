//! Percentiles that survive a host stall, and the quartile arithmetic of
//! the A/A check.

/// A percentile is reported only where every window has at least this
/// many samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Latency samples cut into windows by due time. A percentile of the
/// whole is the median over windows of each window's percentile, so a
/// stall of the host spoils one window and not the run.
pub struct Windowed {
    windows: Vec<Vec<u32>>,
}

impl Windowed {
    /// Sorts `(due, latency)` samples into `windows` equal spans of
    /// `[from, to]` by due time.
    pub fn new(
        samples: impl Iterator<Item = (u64, u32)>,
        from: u64,
        to: u64,
        windows: usize,
    ) -> Self {
        let mut cut: Vec<Vec<u32>> = vec![Vec::new(); windows.max(1)];
        let span = (to.saturating_sub(from)).max(1) as u128;
        for (due, latency) in samples {
            let offset = due.saturating_sub(from) as u128;
            let w = ((offset * cut.len() as u128 / span) as usize).min(cut.len() - 1);
            cut[w].push(latency);
        }
        for window in &mut cut {
            window.sort_unstable();
        }
        Windowed { windows: cut }
    }

    /// Samples per window, for the report.
    pub fn counts(&self) -> Vec<usize> {
        self.windows.iter().map(Vec::len).collect()
    }

    /// The window-median `q` percentile, or `None` where some window has
    /// fewer than [`MIN_SAMPLES_BEYOND`] samples above the percentile's
    /// rank.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let mut per_window = Vec::with_capacity(self.windows.len());
        for window in &self.windows {
            let n = window.len();
            if n == 0 || n - rank(n, q) < MIN_SAMPLES_BEYOND {
                return None;
            }
            per_window.push(f64::from(percentile_sorted(window, q)));
        }
        Some(median(&mut per_window))
    }
}

/// Median of `values` (sorts them).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        cuts[slot] = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_hand_built_sample() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.95), 95);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    /// Three windows of 100 samples: two quiet ones (1..=100) and one
    /// that a stall shifted up by 10 000. The window median ignores it.
    #[test]
    fn window_median_ignores_one_spoiled_window() {
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 1..=100u32 {
                let latency = if w == 1 { i + 10_000 } else { i };
                samples.push((w * 1_000 + u64::from(i), latency));
            }
        }
        let cut = Windowed::new(samples.into_iter(), 0, 3_000, 3);
        assert_eq!(cut.counts(), vec![100, 100, 100]);
        assert_eq!(cut.percentile(0.50), Some(50.0));
        // p90 has exactly ten samples beyond it in each window.
        assert_eq!(cut.percentile(0.90), Some(90.0));
        // p95 has five: not supported.
        assert_eq!(cut.percentile(0.95), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it_in_every_window() {
        let plenty = (0..1_000u64).map(|i| (i, i as u32));
        let starved = (1_000..1_050u64).map(|i| (i, i as u32));
        let cut = Windowed::new(plenty.chain(starved), 0, 2_000, 2);
        assert_eq!(cut.counts(), vec![1_000, 50]);
        assert!(cut.percentile(0.50).is_some());
        assert_eq!(cut.percentile(0.95), None, "the second window has 2 samples beyond p95");
    }

    #[test]
    fn samples_on_the_edges_fall_in_the_first_and_last_window() {
        let cut = Windowed::new([(5, 1), (10, 2), (20, 3), (25, 4)].into_iter(), 10, 20, 2);
        assert_eq!(cut.counts(), vec![2, 2]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Values checked against `statistics.quantiles(..., n=4)`.
    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }
}
