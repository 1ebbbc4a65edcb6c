//! Estimators: nearest-rank percentiles, medians and quartiles, and the
//! per-slice summaries every reported latency and rate goes through.
//!
//! The host is slow to hand the VM its CPU when load starts, and it stalls
//! or slows for seconds at a time, so a whole-window mean or percentile
//! mixes regimes. The window is cut into fixed slices, the metric is
//! computed per slice, and the reported value is the *median over slices*:
//! it ignores a burst at the start and a minority of stalled slices, and it
//! moves when the program itself is slow in most of them. The quartiles of
//! the slices go into the result file.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the method the driver uses to
/// judge spread). Fewer than two values have no spread: all three are the
/// value itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// One timed event: when it completed (nanoseconds into the measured
/// window) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    pub end_ns: u64,
    pub latency_ns: u64,
}

/// A metric computed once per slice of the window. `median` is the reported
/// value; the quartiles say how much the slices differ.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceSummary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub slices: usize,
    pub samples: usize,
}

fn summarize(per_slice: &[f64], samples: usize) -> Option<SliceSummary> {
    if per_slice.is_empty() {
        return None;
    }
    let [q1, _, q3] = quartiles(per_slice);
    Some(SliceSummary {
        median: median(per_slice),
        q1,
        q3,
        slices: per_slice.len(),
        samples,
    })
}

/// The latencies of `events` by slice of the window, and the width of a
/// slice in nanoseconds. The window holds its whole slices of `slice_ns`
/// (a trailing part is left out); a window shorter than one slice is a
/// single slice of its own length.
fn by_slice(events: &[Timed], window_ns: u64, slice_ns: u64) -> (Vec<Vec<u64>>, u64) {
    assert!(window_ns > 0, "an empty window has no slices");
    let width = slice_ns.min(window_ns);
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); (window_ns / width) as usize];
    for event in events {
        if let Some(slice) = slices.get_mut((event.end_ns / width) as usize) {
            slice.push(event.latency_ns);
        }
    }
    (slices, width)
}

/// Events completed per second, per slice. Empty slices count as 0: a
/// stalled second is a real observation of the rate.
pub fn rate_per_slice(events: &[Timed], window_ns: u64, slice_ns: u64) -> Option<SliceSummary> {
    let (slices, width) = by_slice(events, window_ns, slice_ns);
    let seconds = width as f64 / 1e9;
    let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64 / seconds).collect();
    summarize(&rates, slices.iter().map(Vec::len).sum())
}

/// Latency quantile `q` in microseconds, per slice. Slices without samples
/// are left out (there is no latency to report for them).
pub fn latency_per_slice(
    events: &[Timed],
    window_ns: u64,
    slice_ns: u64,
    q: f64,
) -> Option<SliceSummary> {
    let (mut slices, _) = by_slice(events, window_ns, slice_ns);
    let samples = slices.iter().map(Vec::len).sum();
    let per_slice: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.sort_unstable();
            quantile_sorted(s, q) as f64 / 1e3
        })
        .collect();
    summarize(&per_slice, samples)
}

/// Whole-window latency quantile in microseconds (information only).
pub fn latency_overall(events: &[Timed], q: f64) -> Option<f64> {
    if events.is_empty() {
        return None;
    }
    let mut latencies: Vec<u64> = events.iter().map(|e| e.latency_ns).collect();
    latencies.sort_unstable();
    Some(quantile_sorted(&latencies, q) as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECOND: u64 = 1_000_000_000;

    /// `per_second` events in every second of `seconds`, each taking
    /// `latency_us`, except where `shape` overrides `(rate, latency)`.
    fn series(seconds: u64, shape: impl Fn(u64) -> (u64, u64)) -> Vec<Timed> {
        let mut events = Vec::new();
        for s in 0..seconds {
            let (rate, latency_us) = shape(s);
            for i in 0..rate {
                events.push(Timed {
                    end_ns: s * SECOND + i * SECOND / rate.max(1),
                    latency_ns: latency_us * 1_000,
                });
            }
        }
        events
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[3.0]), [3.0, 3.0, 3.0]);
    }

    #[test]
    fn the_median_slice_ignores_a_burst_at_the_start() {
        // Three fast seconds (the VM's burst), then the steady rate.
        let events = series(25, |s| if s < 3 { (5000, 200) } else { (2000, 500) });
        let rate = rate_per_slice(&events, 25 * SECOND, SECOND).unwrap();
        assert_eq!(rate.median, 2000.0);
        assert_eq!(rate.slices, 25);
        let p50 = latency_per_slice(&events, 25 * SECOND, SECOND, 0.5).unwrap();
        assert_eq!(p50.median, 500.0);
        // The whole-window figures are pulled towards the burst.
        let mean_rate = events.len() as f64 / 25.0;
        assert!(mean_rate > 2300.0);
        assert_eq!(latency_overall(&events, 0.2), Some(200.0));
    }

    #[test]
    fn the_median_slice_ignores_a_stalled_slice_and_follows_the_majority() {
        // Second 7 completes nothing; second 8 drains slowly.
        let stalled = |s| match s {
            7 => (0, 0),
            8 => (300, 40_000),
            _ => (2000, 500),
        };
        let events = series(20, stalled);
        let rate = rate_per_slice(&events, 20 * SECOND, SECOND).unwrap();
        assert_eq!((rate.median, rate.q1, rate.q3), (2000.0, 2000.0, 2000.0));
        let p99 = latency_per_slice(&events, 20 * SECOND, 5 * SECOND, 0.99).unwrap();
        assert_eq!(p99.slices, 4);
        // Only the slice holding second 8 sees the stall in its p99: the
        // median of the four slices does not, their third quartile does.
        assert_eq!(p99.median, 500.0);
        assert!(p99.q3 > 500.0);
        // A slowdown in most slices is the program's own and is reported.
        let slow = series(20, |s| if s % 4 == 0 { (2000, 500) } else { (1000, 900) });
        let rate = rate_per_slice(&slow, 20 * SECOND, SECOND).unwrap();
        assert_eq!((rate.median, rate.q3), (1000.0, 1750.0));
        let p50 = latency_per_slice(&slow, 20 * SECOND, SECOND, 0.5).unwrap();
        assert_eq!((p50.median, p50.q1), (900.0, 600.0));
    }

    #[test]
    fn events_outside_the_window_and_short_windows() {
        let events = series(3, |_| (100, 10));
        let rate = rate_per_slice(&events, 2 * SECOND, SECOND).unwrap();
        assert_eq!((rate.slices, rate.samples), (2, 200));
        // A window shorter than a slice is one slice of the window's length.
        let short = rate_per_slice(&events, SECOND / 2, SECOND).unwrap();
        assert_eq!(short.slices, 1);
        assert_eq!(short.median, 100.0);
        assert!(latency_per_slice(&[], SECOND, SECOND, 0.5).is_none());
    }
}
