//! Order statistics as the benchmark reports them.

/// Nearest-rank quantile of unsorted samples; 0 when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Consecutive samples of one group whose median is taken together: a
/// kernel's runs over a fraction of a second.
pub const BLOCK: usize = 32;

/// Geometric mean over groups of each group's block median: the mean of
/// the medians of its consecutive blocks of [`BLOCK`] samples (a short
/// trailing block is dropped unless it is the only one).
///
/// Per group, because the pooled median of a mix whose kernels differ in
/// cost by design sits in a gap between two kernels' clusters and jumps
/// between them with small speed changes. Per block, because one
/// kernel's latencies are tight too: when host speed changes regime
/// part-way through a run, a run-long median lands in whichever regime
/// holds just over half the samples and jumps with the split, while the
/// mean of block medians moves in proportion to it.
pub fn median_of_groups<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> f64 {
    let mut groups: std::collections::BTreeMap<K, Vec<f64>> = Default::default();
    for (k, v) in samples {
        groups.entry(k).or_default().push(v);
    }
    let logs: Vec<f64> = groups
        .values()
        .map(|g| {
            let blocks: Vec<f64> = g
                .chunks(BLOCK)
                .filter(|b| b.len() == BLOCK || g.len() < BLOCK)
                .map(median)
                .collect();
            mean(&blocks).ln()
        })
        .collect();
    mean(&logs).exp()
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The tail quantile reported as "p99": 0.99 when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, otherwise the highest
/// quantile that still leaves that many (never below the median).
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - TAIL_SAMPLES as f64 / n as f64).clamp(0.5, 0.99)
}

/// The tail latency: the [`tail_q`] quantile of the samples.
pub fn tail(samples: &[f64]) -> f64 {
    quantile(samples, tail_q(samples.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail_q(1000), 0.99);
        assert_eq!(tail_q(5000), 0.99);
        assert!((tail_q(500) - 0.98).abs() < 1e-12);
        assert!((tail_q(100) - 0.90).abs() < 1e-12);
        assert_eq!(tail_q(12), 0.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in [100usize, 250, 999, 1000, 1001, 4000] {
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let t = tail(&samples);
            let beyond = samples.iter().filter(|&&v| v > t).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: {beyond} beyond {t}");
            if n >= 1000 {
                assert_eq!(t, quantile(&samples, 0.99));
            } else {
                assert_eq!(beyond, TAIL_SAMPLES, "n={n}");
            }
        }
    }

    #[test]
    fn median_of_groups_weighs_each_group_once() {
        let samples = [("a", 1.0), ("a", 1.0), ("a", 9.0), ("b", 4.0), ("b", 4.0)];
        assert!((median_of_groups(samples) - 2.0).abs() < 1e-12);
        assert!((median_of_groups([("x", 3.0)]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_groups_averages_block_medians() {
        // Two regimes of equal length: a run-long median would read 1 or
        // 3; the block medians average to 2. The short tail is dropped.
        let samples = (0..2 * BLOCK + 5).map(|i| ("a", if i < BLOCK { 1.0 } else { 3.0 }));
        assert!((median_of_groups(samples) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&s), 3.0);
    }
}
