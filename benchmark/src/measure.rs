//! From completed transactions to the end-to-end estimates.

use crate::client::Sample;
use crate::stats::{latency_overall, latency_per_slice, rate_per_slice, SliceSummary, Timed};

/// Slice over which throughput and the latency medians are computed. The
/// reported value is the median over the slices (see `stats`).
pub const P50_SLICE_NS: u64 = 1_000_000_000;
/// Slice over which the tail percentiles are computed: two seconds, so that
/// the rarest class of any workload (read-only transactions in
/// `commit_path`, about 200 a second) has about twenty samples beyond the
/// percentile in every slice.
pub const P90_SLICE_NS: u64 = 2_000_000_000;
/// The tail percentile: the sturdier estimator that stands in for the 99th.
/// The 99th sits on a cliff in every workload (about one transaction in a
/// hundred is retried or parked, so p99 flips between the fast and the slow
/// mode from run to run), and the 95th does the same under contention,
/// where one update in five is retried once; the 90th repeats.
pub const TAIL: f64 = 0.90;

/// Latency of one transaction kind over a window.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyEstimate {
    pub p50_us: SliceSummary,
    pub p90_us: SliceSummary,
    /// Whole-window figures, for information.
    pub p999_us: f64,
    pub max_us: f64,
}

/// Everything derived from the completed transactions of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimates {
    pub attempted: u64,
    pub failed: u64,
    pub committed: u64,
    /// Update attempts beyond the first, over all update transactions.
    pub update_retries: u64,
    pub updates: u64,
    pub throughput_tps: SliceSummary,
    pub update: LatencyEstimate,
    pub read_only: LatencyEstimate,
}

fn latency(
    events: &[Timed],
    window_ns: u64,
    p50_slice: u64,
    p90_slice: u64,
) -> Option<LatencyEstimate> {
    Some(LatencyEstimate {
        p50_us: latency_per_slice(events, window_ns, p50_slice, 0.50)?,
        p90_us: latency_per_slice(events, window_ns, p90_slice, TAIL)?,
        p999_us: latency_overall(events, 0.999)?,
        max_us: latency_overall(events, 1.0)?,
    })
}

/// Estimates over `samples` (times relative to the window's start). Fails
/// when the window holds no committed transaction of either kind: every
/// workload issues both, so that is a broken run, not a measurement.
pub fn estimate(
    samples: &[Sample],
    window_ns: u64,
    p50_slice_ns: u64,
    p90_slice_ns: u64,
) -> Result<Estimates, String> {
    let timed = |keep: &dyn Fn(&Sample) -> bool| -> Vec<Timed> {
        samples
            .iter()
            .filter(|s| !s.failed && keep(s))
            .map(|s| Timed {
                end_ns: s.end_ns,
                latency_ns: s.latency_ns as u64,
            })
            .collect()
    };
    let committed = timed(&|_| true);
    let updates = timed(&|s| !s.read_only);
    let reads = timed(&|s| s.read_only);
    let throughput_tps = rate_per_slice(&committed, window_ns, p50_slice_ns)
        .ok_or("the window holds no committed transaction")?;
    let update = latency(&updates, window_ns, p50_slice_ns, p90_slice_ns)
        .ok_or("the window holds no committed update transaction")?;
    let read_only = latency(&reads, window_ns, p50_slice_ns, p90_slice_ns)
        .ok_or("the window holds no committed read-only transaction")?;
    let update_samples = samples.iter().filter(|s| !s.read_only);
    Ok(Estimates {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| s.failed).count() as u64,
        committed: committed.len() as u64,
        update_retries: update_samples
            .clone()
            .map(|s| s.attempts.saturating_sub(1) as u64)
            .sum(),
        updates: update_samples.count() as u64,
        throughput_tps,
        update,
        read_only,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_ms: u64, latency_us: u64, read_only: bool, failed: bool, attempts: u8) -> Sample {
        Sample {
            end_ns: end_ms * 1_000_000,
            latency_ns: (latency_us * 1_000) as u32,
            read_only,
            failed,
            attempts,
        }
    }

    #[test]
    fn failures_are_counted_and_kept_out_of_the_latencies() {
        let mut samples = Vec::new();
        for ms in 0..2000 {
            samples.push(sample(ms, 1000, false, false, 1));
            samples.push(sample(ms, 100, true, false, 1));
        }
        samples.push(sample(500, 900_000, false, true, 20));
        samples.push(sample(600, 5, true, true, 1));
        let e = estimate(&samples, 2_000_000_000, P50_SLICE_NS, P90_SLICE_NS).unwrap();
        assert_eq!((e.attempted, e.failed, e.committed), (4002, 2, 4000));
        assert_eq!(e.throughput_tps.median, 2000.0);
        assert_eq!(e.update.p50_us.median, 1000.0);
        assert_eq!(e.update.max_us, 1000.0);
        assert_eq!(e.read_only.p90_us.median, 100.0);
        assert_eq!((e.updates, e.update_retries), (2001, 19));
    }

    #[test]
    fn a_window_without_one_kind_is_an_error() {
        let samples: Vec<Sample> = (0..100).map(|ms| sample(ms, 10, true, false, 1)).collect();
        assert!(estimate(&samples, 1_000_000_000, P50_SLICE_NS, P90_SLICE_NS).is_err());
    }
}
