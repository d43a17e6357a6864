//! Fixed-bucket latency histograms with order-independent merge.
//!
//! Buckets are powers of two over microseconds: bucket 0 holds the
//! value 0, bucket *i* (i ≥ 1) holds values in `[2^(i-1), 2^i)`, and the
//! last bucket absorbs everything larger. Fixed boundaries are the whole
//! point: merging two histograms is a field-wise saturating sum, which
//! makes merge **associative, commutative and exactly equivalent to
//! serial recording** for any interleaving of samples — the property the
//! proptest suite pins, and the reason per-worker recordings fold into
//! the same totals a single-threaded run would produce (mirroring
//! `ExecStats::merge` in the engine).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets. `2^38` µs ≈ 3.2 days; anything slower lands in
/// the overflow bucket.
pub const BUCKETS: usize = 40;

/// The bucket a microsecond value lands in.
#[inline]
fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The 1-based nearest rank of percentile `p` (0–100) among `n`
/// samples: ⌈p/100 · n⌉, at least 1.
fn nearest_rank_of(n: u64, p: f64) -> u64 {
    ((p / 100.0) * n as f64).ceil().max(1.0) as u64
}

/// Nearest-rank percentile (`p` in 0–100) of an ascending-sorted
/// sample: the smallest sample with at least `p` percent of the sample
/// at or below it, with no interpolation. Zero (`T::default()`) when
/// empty. The load driver and the bench harness both report with this
/// one definition; [`HistogramSnapshot::percentile_us`] applies the
/// same rank to bucketed counts.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    let n = sorted.len() as u64;
    if n == 0 {
        return T::default();
    }
    sorted[(nearest_rank_of(n, p).min(n) - 1) as usize]
}

/// Inclusive upper bound of a bucket (used as the percentile estimate).
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 63 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A concurrently recordable histogram: every slot is a relaxed atomic,
/// so recording is lock-free and threads never serialize against each
/// other. Totals are exact (counts are adds, not samples); only the
/// percentile *estimates* are quantized to bucket boundaries.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample (microseconds).
    #[inline]
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating: fetch_update never loses the increment race and a
        // pathological sum pegs at MAX instead of wrapping.
        let _ = self
            .sum_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(us)));
    }

    /// A point-in-time copy of the counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for (i, b) in self.buckets.iter().enumerate() {
            snap.buckets[i] = b.load(Ordering::Relaxed);
        }
        snap.count = self.count.load(Ordering::Relaxed);
        snap.sum_us = self.sum_us.load(Ordering::Relaxed);
        snap
    }
}

/// A plain (non-atomic) copy of a histogram's state, closed under
/// [`merge`](Self::merge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples (µs).
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// The empty (identity) snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum_us: 0 }
    }

    /// Record a sample serially (the reference semantics the atomic
    /// histogram and any merge order must reproduce).
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    /// Fold `other` into `self`: field-wise saturating sum. Associative
    /// and commutative by construction, with [`empty`](Self::empty) as
    /// identity.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }

    /// Mean sample value, 0.0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile estimate (`p` in 0–100), quantized to the
    /// containing bucket's upper bound. 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank_of(self.count, p);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&samples, 50.0), 50);
        assert_eq!(nearest_rank(&samples, 99.0), 99);
        assert_eq!(nearest_rank(&samples, 100.0), 100);
        assert_eq!(nearest_rank::<u64>(&[], 50.0), 0);
        assert_eq!(nearest_rank(&[7u64], 99.0), 7);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
    }

    #[test]
    fn atomic_and_serial_agree() {
        let h = Histogram::new();
        let mut s = HistogramSnapshot::empty();
        for v in [0u64, 1, 7, 900, 1024, 1_000_000, u64::MAX] {
            h.record(v);
            s.record(v);
        }
        assert_eq!(h.snapshot(), s);
    }

    #[test]
    fn percentiles_quantize_to_bucket_upper_bounds() {
        let mut s = HistogramSnapshot::empty();
        for _ in 0..90 {
            s.record(100); // bucket [64,128) → upper 127
        }
        for _ in 0..10 {
            s.record(5_000); // bucket [4096,8192) → upper 8191
        }
        assert_eq!(s.percentile_us(50.0), 127);
        assert_eq!(s.percentile_us(95.0), 8191);
        assert_eq!(HistogramSnapshot::empty().percentile_us(99.0), 0);
    }

    #[test]
    fn merge_is_sum() {
        let mut a = HistogramSnapshot::empty();
        let mut b = HistogramSnapshot::empty();
        a.record(10);
        b.record(10);
        b.record(999);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut serial = HistogramSnapshot::empty();
        for v in [10, 10, 999] {
            serial.record(v);
        }
        assert_eq!(merged, serial);
        // Identity.
        let mut with_id = serial.clone();
        with_id.merge(&HistogramSnapshot::empty());
        assert_eq!(with_id, serial);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let mut s = HistogramSnapshot::empty();
        s.record(u64::MAX);
        s.record(u64::MAX);
        assert_eq!(s.sum_us, u64::MAX);
        assert_eq!(s.count, 2);
    }
}
