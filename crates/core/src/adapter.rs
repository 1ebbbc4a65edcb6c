//! The SSS engine adapter: whole-transaction execution on a cluster, in the
//! shape the workspace's engine layer (`sss-engine`) binds onto its
//! `TransactionEngine` / `EngineSession` traits.
//!
//! The adapter lives here — with the engine it adapts — so that the engine
//! layer can stay a thin binding-and-registry crate. Commit timings are
//! reported as `Option<(latency, internal_latency)>`: `Some` carries the
//! external (client-visible) latency and the internal-commit latency —
//! distinct for SSS, whose clients are answered only at external commit —
//! and `None` means the transaction aborted.

use std::time::Duration;

use sss_storage::{Key, Value};

use crate::cluster::SssCluster;
use crate::config::SssConfig;
use crate::error::SssError;
use crate::session::Session;

/// The SSS engine, ready to be driven one whole transaction at a time.
pub struct SssEngine {
    cluster: SssCluster,
}

impl SssEngine {
    /// Starts an SSS cluster of `nodes` nodes with `replication` replicas
    /// per key and the paper's default timeouts.
    ///
    /// # Panics
    ///
    /// Panics if the cluster fails to boot (worker spawn failure).
    pub fn start(nodes: usize, replication: usize) -> Self {
        Self::with_config(SssConfig::new(nodes).replication(replication))
    }

    /// Starts an SSS cluster with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the cluster fails to boot (worker spawn failure).
    pub fn with_config(config: SssConfig) -> Self {
        SssEngine {
            cluster: SssCluster::start(config).expect("failed to start SSS cluster"),
        }
    }

    /// The underlying cluster (e.g. for protocol statistics).
    pub fn cluster(&self) -> &SssCluster {
        &self.cluster
    }

    /// The fault injector the engine runs under, if any (see
    /// [`SssConfig::faults`]).
    pub fn fault_injector(&self) -> Option<&std::sync::Arc<crate::FaultInjector>> {
        self.cluster.fault_injector()
    }

    /// Number of nodes the engine runs.
    pub fn node_count(&self) -> usize {
        self.cluster.node_count()
    }

    /// Opens an adapter session colocated with `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn open_session(&self, node: usize) -> SssEngineSession {
        SssEngineSession {
            session: self.cluster.session(node),
        }
    }
}

impl std::fmt::Debug for SssEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SssEngine")
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// A per-client adapter session executing whole transactions.
pub struct SssEngineSession {
    session: Session,
}

impl SssEngineSession {
    /// Runs one update transaction reading `read_keys` and writing
    /// `writes`; returns `Some((latency, internal_latency))` on commit, and
    /// the value each read observed (parallel to `read_keys`), for history
    /// recording.
    pub fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        let start = sss_vclock::runtime::now();
        let mut observed = Vec::with_capacity(read_keys.len());
        let mut txn = self.session.begin_update();
        for key in read_keys {
            match txn.read(key.clone()) {
                Ok(value) => observed.push(value),
                Err(_) => return (None, Vec::new()),
            }
        }
        for (key, value) in writes {
            txn.write(key.clone(), value.clone());
        }
        match txn.commit() {
            Ok(info) => (
                Some((
                    sss_vclock::runtime::elapsed_since(start),
                    info.internal_latency,
                )),
                observed,
            ),
            // A timed-out external-commit confirmation round is still a
            // *committed* transaction: its writes are installed and visible.
            // Reporting it as aborted would make callers retry a committed
            // transaction, duplicating its effects.
            Err(SssError::ExternalCommitTimeout) => {
                let elapsed = sss_vclock::runtime::elapsed_since(start);
                (Some((elapsed, elapsed)), observed)
            }
            Err(_) => (None, Vec::new()),
        }
    }

    /// Runs one read-only transaction over `read_keys`; returns
    /// `Some((latency, latency))` on commit (read-only transactions have no
    /// internal/external split), and the observed values (parallel to
    /// `read_keys`), for history recording.
    pub fn run_read_only_observed(
        &mut self,
        read_keys: &[Key],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        let start = sss_vclock::runtime::now();
        let mut observed = Vec::with_capacity(read_keys.len());
        let mut txn = self.session.begin_read_only();
        for key in read_keys {
            match txn.read(key.clone()) {
                Ok(value) => observed.push(value),
                Err(_) => return (None, Vec::new()),
            }
        }
        match txn.commit() {
            Ok(()) => {
                let latency = sss_vclock::runtime::elapsed_since(start);
                (Some((latency, latency)), observed)
            }
            Err(_) => (None, Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapter_runs_whole_transactions() {
        let engine = SssEngine::start(2, 1);
        let mut session = engine.open_session(0);
        let writes = vec![(Key::new("a"), Value::from_u64(1))];
        assert!(session.run_update_observed(&[], &writes).0.is_some());
        let (latency, internal) = session
            .run_read_only_observed(&[Key::new("a")])
            .0
            .expect("read-only never aborts");
        assert_eq!(latency, internal);
        assert_eq!(engine.node_count(), 2);
        engine.cluster().shutdown();
    }
}
