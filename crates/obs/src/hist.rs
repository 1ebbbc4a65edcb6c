//! Log-bucketed latency histogram with a deterministic merge.
//!
//! The bucket layout is HDR-style: values below [`SUB_BUCKETS`] get one
//! bucket each (exact), and every power-of-two octave above that is split
//! into [`SUB_BUCKETS`] equal sub-buckets, so the relative quantization
//! error is bounded by `1/SUB_BUCKETS` at every magnitude. Counts, the sum,
//! the minimum and the maximum are exact; only quantiles are quantized.
//!
//! [`Histogram::merge`] is an element-wise add, which makes it associative
//! and commutative — per-client histograms can be merged in any order (or
//! grouping) and always produce the same aggregate, a property merged
//! reports rely on to be deterministic (and which the property tests in
//! this module pin down).

/// Sub-buckets per power-of-two octave; also the count of exact unit
/// buckets at the bottom of the range.
pub const SUB_BUCKETS: usize = 16;

/// Total number of buckets needed to cover the whole `u64` range.
///
/// Octave `o >= 1` (values in `[16 << (o-1), 16 << o)`) contributes
/// [`SUB_BUCKETS`] buckets; the top octave is capped by the width of `u64`.
pub const NUM_BUCKETS: usize = 61 * SUB_BUCKETS;

/// A fixed-size log-bucketed histogram of `u64` samples (the hub records
/// latencies in microseconds).
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Index of the bucket covering `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros() as usize; // >= 4
        (exp - 3) * SUB_BUCKETS + (value >> (exp - 4)) as usize - SUB_BUCKETS
    }
}

/// Lowest value covered by bucket `index` (the inverse of
/// [`bucket_index`], rounded down to the bucket boundary).
fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let octave = index / SUB_BUCKETS;
        let offset = (index % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + offset) << (octave - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.count += n;
        self.sum += value.saturating_mul(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of every recorded sample (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact smallest recorded sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`, quantized to its bucket's
    /// lower bound (and clamped into `[min, max]`, so `q = 0` and `q = 1`
    /// are exact). Uses the same rank convention as sorting the samples and
    /// indexing at `floor((count - 1) * q)`, so it agrees with an exact
    /// percentile within one bucket width. Returns 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).floor() as u64;
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_lower_bound(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Width of the bucket covering `value` — the quantization bound of
    /// [`Histogram::value_at_quantile`] at that magnitude.
    pub fn bucket_width(value: u64) -> u64 {
        let index = bucket_index(value);
        if index + 1 < NUM_BUCKETS {
            bucket_lower_bound(index + 1) - bucket_lower_bound(index)
        } else {
            u64::MAX - bucket_lower_bound(index)
        }
    }

    /// Element-wise merge of `other` into `self`. Associative and
    /// commutative: any merge order over a set of histograms yields the
    /// same result, which keeps multi-client aggregation deterministic.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference `self - earlier` for window accounting over a
    /// histogram that only ever grows (saturating per bucket). The window's
    /// min/max are recovered from the diffed buckets, so they are exact
    /// only up to one bucket width.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (index, (later, early)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            let n = later.saturating_sub(*early);
            if n > 0 {
                out.counts[index] = n;
                out.count += n;
                let bound = bucket_lower_bound(index);
                out.min = out.min.min(bound);
                out.max = out.max.max(bound);
            }
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        // The global max is monotone: if the later snapshot's max falls in a
        // bucket the window touched, it is the window's exact max.
        if out.count > 0 && bucket_index(self.max) == bucket_index(out.max) {
            out.max = self.max;
        }
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 15);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        for index in 1..NUM_BUCKETS {
            assert!(bucket_lower_bound(index) > bucket_lower_bound(index - 1));
        }
        for v in [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            1000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = bucket_index(v);
            assert!(bucket_lower_bound(index) <= v);
            if index + 1 < NUM_BUCKETS {
                assert!(
                    v < bucket_lower_bound(index + 1),
                    "value {v} beyond bucket {index}"
                );
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded_by_sub_bucket_resolution() {
        for v in [100u64, 999, 5_000, 1 << 20, (1 << 40) + 12345] {
            let err = v - bucket_lower_bound(bucket_index(v));
            assert!(err as f64 <= v as f64 / SUB_BUCKETS as f64);
        }
    }

    #[test]
    fn quantiles_match_exact_percentiles_within_one_bucket() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 37 % 9973).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).floor() as usize];
            let approx = h.value_at_quantile(q);
            assert!(approx <= exact, "q={q}: {approx} > {exact}");
            assert!(
                exact - approx <= Histogram::bucket_width(exact),
                "q={q}: {exact} - {approx} exceeds one bucket"
            );
        }
    }

    #[test]
    fn diff_isolates_a_window() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(100);
        let before = h.clone();
        h.record(100);
        h.record(2000);
        let window = h.diff(&before);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 2100);
        assert_eq!(window.value_at_quantile(0.0), 100);
        assert!(window.max() >= bucket_lower_bound(bucket_index(2000)));
    }

    #[test]
    fn mean_and_sum_are_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(33);
        assert_eq!(h.sum(), 63);
        assert!((h.mean() - 21.0).abs() < f64::EPSILON);
    }

    fn arb_histogram() -> impl Strategy<Value = Histogram> {
        prop::collection::vec((0u64..1_000_000, 1u64..4), 0..64).prop_map(|samples| {
            let mut h = Histogram::new();
            for (v, n) in samples {
                h.record_n(v, n);
            }
            h
        })
    }

    proptest! {
        #[test]
        fn merge_is_commutative(a in arb_histogram(), b in arb_histogram()) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_associative(
            a in arb_histogram(),
            b in arb_histogram(),
            c in arb_histogram(),
        ) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn merge_preserves_count_and_sum(a in arb_histogram(), b in arb_histogram()) {
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(merged.count(), a.count() + b.count());
            prop_assert_eq!(merged.sum(), a.sum() + b.sum());
        }
    }
}
