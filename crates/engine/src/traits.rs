//! The trait surface every engine exposes to drivers and tests.

use std::sync::Arc;
use std::time::Duration;

use sss_storage::{Key, Value};

/// Outcome of one transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed.
    Committed {
        /// Latency from begin to the client-visible (external) completion.
        latency: Duration,
        /// For engines with a delayed client response (SSS), the part of the
        /// latency spent before the internal commit; equal to `latency` for
        /// engines without the distinction.
        internal_latency: Duration,
    },
    /// The transaction aborted due to concurrency and may be retried.
    Aborted,
}

impl TxnOutcome {
    /// `true` if the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }

    /// Builds an outcome from the adapter convention used by the engine
    /// crates: `Some((latency, internal_latency))` for a commit, `None` for
    /// an abort.
    pub fn from_timings(timings: Option<(Duration, Duration)>) -> Self {
        match timings {
            Some((latency, internal_latency)) => TxnOutcome::Committed {
                latency,
                internal_latency,
            },
            None => TxnOutcome::Aborted,
        }
    }
}

/// A per-client handle bound to one node of the system under test.
///
/// Implementations execute whole transactions so that every engine keeps its
/// native client API (the driver does not need to micro-manage reads and
/// writes).
pub trait EngineSession: Send {
    /// Executes one update transaction that reads every key in `read_keys`
    /// and writes `writes`; also returns the value each read observed
    /// (parallel to `read_keys`; empty on an abort), so a history recorder
    /// can attribute observations to writers.
    fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (TxnOutcome, Vec<Option<Value>>);

    /// Executes one read-only transaction over `read_keys`; also returns
    /// the observed values (parallel to `read_keys`; empty on an abort).
    fn run_read_only_observed(&mut self, read_keys: &[Key]) -> (TxnOutcome, Vec<Option<Value>>);

    /// [`EngineSession::run_update_observed`] without the observed values.
    fn run_update(&mut self, read_keys: &[Key], writes: &[(Key, Value)]) -> TxnOutcome {
        self.run_update_observed(read_keys, writes).0
    }

    /// [`EngineSession::run_read_only_observed`] without the observed
    /// values.
    fn run_read_only(&mut self, read_keys: &[Key]) -> TxnOutcome {
        self.run_read_only_observed(read_keys).0
    }
}

impl<S: EngineSession + ?Sized> EngineSession for Box<S> {
    fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (TxnOutcome, Vec<Option<Value>>) {
        (**self).run_update_observed(read_keys, writes)
    }

    fn run_read_only_observed(&mut self, read_keys: &[Key]) -> (TxnOutcome, Vec<Option<Value>>) {
        (**self).run_read_only_observed(read_keys)
    }
}

/// A transactional key-value store that can be benchmarked by the driver.
pub trait TransactionEngine: Send + Sync {
    /// Human-readable engine name used in reports ("SSS", "2PC", ...).
    fn name(&self) -> &str;

    /// Number of nodes the engine is running.
    fn nodes(&self) -> usize;

    /// Opens a client session colocated with `node`.
    fn session(&self, node: usize) -> Box<dyn EngineSession>;

    /// Per-node liveness diagnostics (mailbox depths, queue entries, pause
    /// state), if the engine exposes them. Stuck-run detectors print this
    /// instead of hanging silently; `None` means the engine has no
    /// introspection surface.
    fn diagnostics(&self) -> Option<String> {
        None
    }

    /// Per-node liveness classification (alive / paused / crashed), indexed
    /// by node, if the engine exposes it. Watchdogs use this to distinguish
    /// "the fault plan took a node down" from a genuine livelock in stall
    /// reports; `None` means the engine cannot tell.
    fn node_liveness(&self) -> Option<Vec<sss_obs::NodeLiveness>> {
        None
    }

    /// Storage-layer counters summed over the engine's nodes (per-shard
    /// contention breakdowns included), if the engine exposes them. The
    /// counters are monotonic: benchmark harnesses snapshot them at window
    /// boundaries and diff (`StorageStats::diff`) for per-window numbers.
    fn storage_stats(&self) -> Option<sss_storage::StorageStats> {
        None
    }

    /// Mailbox traffic counters summed over the engine's nodes, if the
    /// engine exposes them. Monotonic; diff snapshots for per-window
    /// message accounting.
    fn mailbox_totals(&self) -> Option<sss_net::MailboxStats> {
        None
    }

    /// The observability hub the engine was built with, if tracing is on:
    /// per-phase latency histograms, trace rings and the metrics registry
    /// (see [`sss_obs::ObsHub`]). `None` when the engine was built without
    /// observability or does not support it.
    fn observability(&self) -> Option<Arc<sss_obs::ObsHub>> {
        None
    }
}

impl<E: TransactionEngine + ?Sized> TransactionEngine for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn nodes(&self) -> usize {
        (**self).nodes()
    }

    fn session(&self, node: usize) -> Box<dyn EngineSession> {
        (**self).session(node)
    }

    fn diagnostics(&self) -> Option<String> {
        (**self).diagnostics()
    }

    fn node_liveness(&self) -> Option<Vec<sss_obs::NodeLiveness>> {
        (**self).node_liveness()
    }

    fn storage_stats(&self) -> Option<sss_storage::StorageStats> {
        (**self).storage_stats()
    }

    fn mailbox_totals(&self) -> Option<sss_net::MailboxStats> {
        (**self).mailbox_totals()
    }

    fn observability(&self) -> Option<Arc<sss_obs::ObsHub>> {
        (**self).observability()
    }
}

impl<E: TransactionEngine + Send + Sync + ?Sized> TransactionEngine for Arc<E> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn nodes(&self) -> usize {
        (**self).nodes()
    }

    fn session(&self, node: usize) -> Box<dyn EngineSession> {
        (**self).session(node)
    }

    fn diagnostics(&self) -> Option<String> {
        (**self).diagnostics()
    }

    fn node_liveness(&self) -> Option<Vec<sss_obs::NodeLiveness>> {
        (**self).node_liveness()
    }

    fn storage_stats(&self) -> Option<sss_storage::StorageStats> {
        (**self).storage_stats()
    }

    fn mailbox_totals(&self) -> Option<sss_net::MailboxStats> {
        (**self).mailbox_totals()
    }

    fn observability(&self) -> Option<Arc<sss_obs::ObsHub>> {
        (**self).observability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification() {
        let committed = TxnOutcome::Committed {
            latency: Duration::from_millis(1),
            internal_latency: Duration::from_micros(700),
        };
        assert!(committed.is_committed());
        assert!(!TxnOutcome::Aborted.is_committed());
    }

    #[test]
    fn outcome_from_adapter_timings() {
        assert_eq!(TxnOutcome::from_timings(None), TxnOutcome::Aborted);
        assert_eq!(
            TxnOutcome::from_timings(Some((Duration::from_millis(2), Duration::from_millis(1)))),
            TxnOutcome::Committed {
                latency: Duration::from_millis(2),
                internal_latency: Duration::from_millis(1),
            }
        );
    }
}
