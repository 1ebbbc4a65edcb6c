//! `Remove` handling and transitive forwarding (paper §III-C).

use sss_storage::TxnId;
use sss_vclock::NodeId;

use crate::messages::SssMessage;
use crate::stats::NodeCounters;

use super::SssNode;

impl SssNode {
    /// Handles `Remove[T..]`: deletes every snapshot-queue entry of the
    /// completed read-only transactions and releases any update transaction
    /// that was only waiting on them. Batches amortize the state lock and
    /// the unblock re-evaluation over the whole group.
    pub(super) fn handle_remove(&self, txns: Vec<TxnId>) {
        let mut state = self.state.lock();
        for txn in txns {
            NodeCounters::bump(&self.counters().removes_processed);
            // Remember the completion so that a propagated entry arriving
            // later (a Decide racing with this Remove) is suppressed instead
            // of blocking its writer forever.
            state.removed_ro.insert(txn);
            state.squeues.remove_txn_everywhere(txn);
        }
        self.release_unblocked_external_commits(&mut state);
    }

    /// Handles `RegisterForward[T, targets]` at the read-only transaction's
    /// coordinator node: either remembers the extra `Remove` targets or, if
    /// the transaction already returned to its client, forwards the `Remove`
    /// immediately.
    pub(super) fn handle_register_forward(&self, txn: TxnId, targets: Vec<NodeId>) {
        debug_assert_eq!(
            txn.origin,
            self.id(),
            "RegisterForward must be routed to the read-only transaction's origin"
        );
        let already_completed = {
            let mut state = self.state.lock();
            if state.completed_ro.contains(&txn) {
                true
            } else {
                state
                    .ro_forward_targets
                    .entry(txn)
                    .or_default()
                    .extend(targets.iter().copied());
                false
            }
        };
        if already_completed {
            for target in targets {
                let _ = self.send(target, SssMessage::Remove { txns: vec![txn] });
            }
        }
    }
}
