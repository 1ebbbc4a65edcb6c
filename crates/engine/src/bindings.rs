//! Trait bindings: [`TransactionEngine`] / [`EngineSession`] implemented
//! directly on the engines — `SssEngine` and its session, and once for
//! every competitor on the generic `BaselineCluster<P>` / `BaselineSession<P>`.
//!
//! The bindings are deliberately mechanical — every substantive decision
//! (how a transaction executes, what counts as the internal latency) lives
//! next to its engine. Implementing the traits *here* rather than in the
//! engine crates keeps the dependency graph acyclic: the engine crates do
//! not know about the engine layer, and this crate can therefore host the
//! [`EngineKind`](crate::EngineKind) factory that constructs all of them.

use std::sync::Arc;

use sss_baselines::{BaselineCluster, BaselineSession, Observed, Protocol};
use sss_core::adapter::{SssEngine, SssEngineSession};
use sss_net::MailboxStats;
use sss_obs::{NodeLiveness, ObsHub};
use sss_storage::{Key, StorageStats, Value};

use crate::traits::{EngineSession, TransactionEngine, TxnOutcome};

impl TransactionEngine for SssEngine {
    fn name(&self) -> &str {
        "SSS"
    }

    fn nodes(&self) -> usize {
        self.node_count()
    }

    fn session(&self, node: usize) -> Box<dyn EngineSession> {
        Box::new(self.open_session(node))
    }

    fn diagnostics(&self) -> Option<String> {
        Some(self.cluster().diagnostics())
    }

    fn node_liveness(&self) -> Option<Vec<NodeLiveness>> {
        Some(self.cluster().node_liveness())
    }

    fn storage_stats(&self) -> Option<StorageStats> {
        Some(self.cluster().storage_stats())
    }

    fn mailbox_totals(&self) -> Option<MailboxStats> {
        Some(self.cluster().mailbox_totals())
    }

    fn observability(&self) -> Option<Arc<ObsHub>> {
        self.cluster().observability()
    }
}

impl EngineSession for SssEngineSession {
    fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (TxnOutcome, Vec<Option<Value>>) {
        let (timings, observed) = SssEngineSession::run_update_observed(self, read_keys, writes);
        (TxnOutcome::from_timings(timings), observed)
    }

    fn run_read_only_observed(&mut self, read_keys: &[Key]) -> (TxnOutcome, Vec<Option<Value>>) {
        let (timings, observed) = SssEngineSession::run_read_only_observed(self, read_keys);
        (TxnOutcome::from_timings(timings), observed)
    }
}

impl<P: Protocol> TransactionEngine for BaselineCluster<P> {
    fn name(&self) -> &str {
        P::NAME
    }

    fn nodes(&self) -> usize {
        self.node_count()
    }

    fn session(&self, node: usize) -> Box<dyn EngineSession> {
        Box::new(BaselineCluster::session(self, node))
    }

    fn storage_stats(&self) -> Option<StorageStats> {
        Some(BaselineCluster::storage_stats(self))
    }

    fn mailbox_totals(&self) -> Option<MailboxStats> {
        Some(BaselineCluster::mailbox_totals(self))
    }

    fn observability(&self) -> Option<Arc<ObsHub>> {
        BaselineCluster::observability(self)
    }
}

/// Times one baseline transaction and lines its observed values up with
/// `read_keys`. None of the baselines delays its client response past
/// commit, so the internal latency is the latency.
fn timed(
    read_keys: &[Key],
    txn: impl FnOnce() -> Option<Observed>,
) -> (TxnOutcome, Vec<Option<Value>>) {
    let start = sss_vclock::runtime::now();
    let Some(values) = txn() else {
        return (TxnOutcome::Aborted, Vec::new());
    };
    let latency = sss_vclock::runtime::elapsed_since(start);
    let outcome = TxnOutcome::Committed {
        latency,
        internal_latency: latency,
    };
    let observed = read_keys
        .iter()
        .map(|key| values.get(key).cloned().flatten())
        .collect();
    (outcome, observed)
}

impl<P: Protocol> EngineSession for BaselineSession<P> {
    fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (TxnOutcome, Vec<Option<Value>>) {
        timed(read_keys, || self.update(read_keys, writes))
    }

    fn run_read_only_observed(&mut self, read_keys: &[Key]) -> (TxnOutcome, Vec<Option<Value>>) {
        timed(read_keys, || self.read_only(read_keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_forward_to_the_adapters() {
        let engine = SssEngine::start(2, 1);
        let dynamic: &dyn TransactionEngine = &engine;
        assert_eq!(dynamic.name(), "SSS");
        assert_eq!(dynamic.nodes(), 2);
        let mut session = dynamic.session(0);
        let outcome = session.run_update(&[], &[(Key::new("k"), Value::from_u64(1))]);
        assert!(outcome.is_committed());
        assert!(session.run_read_only(&[Key::new("k")]).is_committed());
    }

    #[test]
    fn observed_reads_report_the_values_seen() {
        let engine = SssEngine::start(2, 1);
        let dynamic: &dyn TransactionEngine = &engine;
        let mut session = dynamic.session(0);
        session.run_update(&[], &[(Key::new("k"), Value::from_u64(7))]);
        let (outcome, observed) = session.run_read_only_observed(&[Key::new("k")]);
        assert!(outcome.is_committed());
        assert_eq!(observed, vec![Some(Value::from_u64(7))]);
        let (outcome, observed) =
            session.run_update_observed(&[Key::new("k")], &[(Key::new("k"), Value::from_u64(8))]);
        assert!(outcome.is_committed());
        assert_eq!(observed, vec![Some(Value::from_u64(7))]);
    }

    #[test]
    fn sss_exposes_diagnostics() {
        let engine = SssEngine::start(2, 1);
        let dynamic: &dyn TransactionEngine = &engine;
        let report = dynamic.diagnostics().expect("SSS has diagnostics");
        assert!(report.contains("node 0"), "unexpected report: {report}");
        assert!(report.contains("mailbox depth="));
    }
}
