//! Fixed-bucket power-of-two histograms over `u64` samples.

use serde::Serialize;

/// Number of buckets: one for zero plus one per possible leading-bit
/// position of a non-zero `u64`.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (virtual-time durations in
/// microseconds, queue depths, byte sizes…).
///
/// Bucket `0` holds exact zeros; bucket `i ≥ 1` holds samples `v` with
/// `2^(i-1) <= v < 2^i`. Recording is a handful of integer ops — no
/// allocation, no floating point — so it is safe on the simulator's hot
/// path, and the result depends only on the sample multiset, never on
/// wall-clock or thread scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// The bucket index of `value`.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, `0` when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Folds another histogram in (sweep-level aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The serializable view: summary statistics plus the non-empty
    /// buckets as `(index, count)` pairs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// Serializable summary of a [`Histogram`]. `buckets` lists only the
/// non-empty log₂ buckets, in ascending index order, as `[index, count]`
/// pairs (bucket `0` = exact zeros, bucket `i` = `[2^(i-1), 2^i)`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`0` when empty).
    pub min: u64,
    /// Largest sample (`0` when empty).
    pub max: u64,
    /// Non-empty `(bucket index, sample count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`), or `0` when empty. Because buckets are log₂
    /// ranges this is a conservative bound, not an interpolation: bucket
    /// `i ≥ 1` reports `2^i - 1`, bucket `0` reports `0`, and bucket `64`
    /// saturates at `u64::MAX` (as does any index beyond it, which no
    /// histogram records but a hand-edited snapshot may hold). Total and
    /// deterministic (pure integer walk over the bucket list), so safe for
    /// CI gates.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return match idx {
                    0 => 0,
                    i => 1u64.checked_shl(i).map_or(u64::MAX, |b| b - 1),
                };
            }
        }
        self.max
    }

    /// Folds another snapshot in (sum counters, min/max envelope, merge
    /// bucket counts by index).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), None);
        for v in [3, 0, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 12);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 9);
        assert_eq!(h.mean(), Some(4.0));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 5, 5, 700] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 900_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Snapshot-level merge agrees with histogram-level merge.
        let mut snap = Histogram::new().snapshot();
        let mut c = Histogram::new();
        for v in [1u64, 5, 5, 700] {
            c.record(v);
        }
        snap.merge(&c.snapshot());
        snap.merge(&b.snapshot());
        assert_eq!(snap, all.snapshot());
    }

    #[test]
    fn quantile_upper_bound_walks_buckets() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_bound(0.5), 1);
        assert_eq!(s.quantile_upper_bound(0.99), 1023);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), 0);
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.snapshot().quantile_upper_bound(0.5), 0);
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.snapshot().quantile_upper_bound(0.5), u64::MAX);
        // Indices no histogram records, and counts that overflow a sum,
        // still have a bound.
        let odd = HistogramSnapshot {
            count: 2,
            buckets: vec![(70, u64::MAX), (200, u64::MAX)],
            ..HistogramSnapshot::default()
        };
        assert_eq!(odd.quantile_upper_bound(1.0), u64::MAX);
    }

    #[test]
    fn snapshot_lists_only_nonempty_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(5);
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(0, 2), (3, 1)]);
    }
}
