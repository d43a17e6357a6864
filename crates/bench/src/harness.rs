//! Timing and sweep-statistics helpers.

use std::time::{Duration, Instant};

use xmlpub_obs::nearest_rank;

/// Time a closure `reps` times and return the **minimum** duration (the
/// least-noise estimator for CPU-bound single-threaded work).
pub fn time_min<F: FnMut()>(mut f: F, reps: usize) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

/// Milliseconds as f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time a closure `reps` times and return every sample, in run order.
pub fn time_samples<F: FnMut()>(mut f: F, reps: usize) -> Vec<Duration> {
    (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect()
}

/// Median and 95th percentile of a timing series, in milliseconds.
///
/// Both use the nearest-rank method (no interpolation), so with few
/// reps the p95 is simply the worst sample — honest for the small
/// `--reps` counts the experiments binary defaults to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Nearest-rank 50th percentile, ms.
    pub median_ms: f64,
    /// Nearest-rank 95th percentile, ms.
    pub p95_ms: f64,
}

impl Percentiles {
    /// Summarise a non-empty series of samples.
    pub fn from_samples(samples: &[Duration]) -> Percentiles {
        assert!(!samples.is_empty(), "percentiles need at least one sample");
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        Percentiles {
            median_ms: ms(nearest_rank(&sorted, 50.0)),
            p95_ms: ms(nearest_rank(&sorted, 95.0)),
        }
    }
}

/// Table 1's three summary statistics over a series of benefit ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Best ratio observed.
    pub max: f64,
    /// Mean over all points.
    pub avg: f64,
    /// Mean over the points where the rule actually won (ratio > 1);
    /// equals `avg` for always-win rules.
    pub avg_over_wins: f64,
    /// Number of sweep points.
    pub points: usize,
}

impl SweepStats {
    /// Summarise a list of benefit ratios.
    pub fn from_ratios(ratios: &[f64]) -> SweepStats {
        assert!(!ratios.is_empty(), "sweep needs at least one point");
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let wins: Vec<f64> = ratios.iter().cloned().filter(|r| *r > 1.0).collect();
        let avg_over_wins =
            if wins.is_empty() { avg } else { wins.iter().sum::<f64>() / wins.len() as f64 };
        SweepStats { max, avg, avg_over_wins, points: ratios.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_stats_basic() {
        let s = SweepStats::from_ratios(&[2.0, 4.0]);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.avg, 3.0);
        assert_eq!(s.avg_over_wins, 3.0);
        assert_eq!(s.points, 2);
    }

    #[test]
    fn avg_over_wins_filters_losses() {
        // A rule that wins big sometimes and loses sometimes — the
        // paper's group-selection pattern.
        let s = SweepStats::from_ratios(&[0.5, 0.8, 3.0]);
        assert!((s.avg - (4.3 / 3.0)).abs() < 1e-9);
        assert_eq!(s.avg_over_wins, 3.0);
    }

    #[test]
    fn all_losses_fall_back_to_avg() {
        let s = SweepStats::from_ratios(&[0.5, 0.8]);
        assert!((s.avg_over_wins - s.avg).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<Duration> = (1..=20).map(Duration::from_millis).collect();
        let p = Percentiles::from_samples(&samples);
        assert_eq!(p.median_ms, 10.0);
        assert_eq!(p.p95_ms, 19.0);
        let single = Percentiles::from_samples(&[Duration::from_millis(7)]);
        assert_eq!(single.median_ms, 7.0);
        assert_eq!(single.p95_ms, 7.0);
    }

    #[test]
    fn time_min_runs() {
        let d = time_min(
            || {
                std::hint::black_box(1 + 1);
            },
            3,
        );
        assert!(d < Duration::from_secs(1));
        assert!(ms(Duration::from_millis(5)) >= 5.0);
    }
}
