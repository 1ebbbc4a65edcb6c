//! Mutable per-node protocol state.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use sss_net::ReplySender;
use sss_storage::{Key, RecentTxnSet, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

use crate::commit_queue::CommitQueue;
use crate::messages::{Ack, PropagatedEntry, ReadReturn};
use crate::nlog::NLog;
use crate::squeue::SnapshotQueues;

/// Information a participant keeps for a transaction between the 2PC
/// prepare and decide phases.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTxn {
    /// Read keys replicated on this node (shared locks held).
    pub local_read_keys: Vec<Key>,
    /// Write-set entries replicated on this node (exclusive locks held).
    pub local_write_set: Vec<(Key, Value)>,
    /// `true` if this node replicates at least one written key.
    pub is_write_replica: bool,
    /// Decision payload, filled in when the `Decide` message arrives and
    /// consumed when the transaction reaches the head of the commit queue.
    pub decision: Option<DecisionInfo>,
}

/// The parts of a `Decide` message needed at internal-commit time.
#[derive(Debug, Clone)]
pub(crate) struct DecisionInfo {
    /// Read-only entries to propagate into the written keys' snapshot-queues
    /// (Algorithm 3 lines 4-6).
    pub propagated: Vec<PropagatedEntry>,
    /// Reply handle for the external-commit `Ack`.
    pub ack_reply: ReplySender<Ack>,
}

/// A read-only read waiting for the visibility condition of Algorithm 6
/// line 5 (`NLog.mostRecentVC[i] >= T.VC[i]`).
#[derive(Debug, Clone)]
pub(crate) struct PendingRead {
    pub txn: TxnId,
    pub key: Key,
    pub vc: VectorClock,
    pub has_read: Vec<bool>,
    /// Exclusion ceilings of the transaction's snapshot: the commit
    /// clocks of the writers excluded by the client's earlier reads,
    /// extended with the writers this read itself excluded. Version
    /// selection never returns a version whose commit clock dominates any
    /// of these.
    pub exclude: Vec<Arc<VectorClock>>,
    /// The ceilings *this* request discovered (a subset of `exclude`),
    /// preserved across deferrals and parks so the eventual `ReadReturn`
    /// still reports them to the client — later reads of the transaction
    /// on other nodes must keep filtering these writers.
    pub newly_excluded: Vec<Arc<VectorClock>>,
    /// `true` once a first read's `maxVC` has been computed and stored in
    /// `vc`: re-serving after a wait must reuse that bound instead of
    /// recomputing a fresh (ever-growing) one, or the read would chase
    /// newly committed writers forever under sustained write traffic.
    pub bound_pinned: bool,
    pub reply: ReplySender<ReadReturn>,
}

/// A read-only read whose selected version was produced by an update
/// transaction that has not yet *globally* externally committed. The read is
/// held until the writer's `ConfirmExternal` arrives, so that the value never
/// reaches a client before the writer's own client response — the
/// cross-node completion-order guarantee (paper §III-C).
#[derive(Debug, Clone)]
pub(crate) struct ParkedRead {
    /// The not-yet-confirmed writer the read is waiting for.
    pub writer: TxnId,
    /// The deferred read request.
    pub read: PendingRead,
}

/// An internally committed update transaction held in its Pre-Commit phase
/// by one or more read-only transactions (snapshot-queuing).
#[derive(Debug, Clone)]
pub(crate) struct WaitingExternal {
    pub txn: TxnId,
    /// Shared with the installed versions and snapshot-queue entries.
    pub commit_vc: Arc<VectorClock>,
    pub write_keys: Vec<Key>,
    pub ack_reply: ReplySender<Ack>,
    /// When the wait started; used for the latency-breakdown statistics.
    pub since: Instant,
}

/// All protocol state of one node that is protected by the node mutex.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    /// `NodeVC` (paper §III-A).
    pub node_vc: VectorClock,
    /// Entry-wise maximum over the commit vector clocks of every update
    /// transaction whose *global* external commit has been confirmed to this
    /// node. Transactions beginning here start from at least this snapshot,
    /// which makes every already-completed update transaction visible to
    /// them regardless of which keys this node replicates.
    pub confirmed_vc: VectorClock,
    /// `NLog` (internal-commit repository).
    pub nlog: NLog,
    /// `CommitQ`.
    pub commit_q: CommitQueue,
    /// Snapshot-queues of locally stored keys.
    pub squeues: SnapshotQueues,
    /// 2PC bookkeeping between prepare and internal commit.
    pub prepared: HashMap<TxnId, PreparedTxn>,
    /// Read-only reads deferred by the visibility wait.
    pub pending_reads: Vec<PendingRead>,
    /// Read-only reads held until the writer of their selected version is
    /// globally externally committed.
    pub parked_reads: Vec<ParkedRead>,
    /// Update transactions held in their Pre-Commit phase.
    pub waiting_external: Vec<WaitingExternal>,
    /// Update transactions that externally committed *on this node* (their
    /// write entries left the snapshot-queues) but whose coordinator has not
    /// yet confirmed the global external commit. Versions written by these
    /// transactions are not returned to read-only transactions yet.
    pub pending_global: RecentTxnSet,
    /// Insertion order and time of the live `pending_global` entries, used
    /// by the staleness sweep (`expire_stale_pending_global`): an entry
    /// whose coordinator died after its confirmation round completed but
    /// before the (volatile) release went out would otherwise park readers
    /// forever. Entries released normally stay in the queue as harmless
    /// stale records until the sweep pops them (membership is re-checked
    /// against `pending_global` at expiry).
    pub pending_global_at: std::collections::VecDeque<(TxnId, std::time::Instant)>,
    /// Update transactions whose `ReleaseExternal` has been processed here.
    /// Guards against the ack-timeout race where the coordinator's release
    /// overtakes this node's own external-commit completion: a transaction
    /// already released must neither (re-)enter `pending_global` nor keep
    /// parking reads on its lingering write entries.
    pub released_external: RecentTxnSet,
    /// Read-only transactions whose `Remove` has been processed here.
    pub removed_ro: RecentTxnSet,
    /// Transactions whose abort `Decide` arrived before their `Prepare`
    /// (the high-priority decide can overtake the lower-priority prepare in
    /// the mailbox). A late prepare for one of these must vote negatively
    /// and must not enqueue, or the commit queue would be wedged forever.
    pub aborted_early: RecentTxnSet,
    /// Update transactions whose `ConfirmExternal` this node has already
    /// acknowledged; duplicate deliveries are merged but not re-acked (see
    /// `handle_confirm_external`).
    pub confirm_acked: RecentTxnSet,
    /// Every transaction this node has ever started preparing. The network
    /// may duplicate messages; re-running a `Prepare` would re-increment
    /// `NodeVC` and enqueue a second commit-queue entry that no `Decide`
    /// ever resolves, wedging the queue head. Duplicates are dropped
    /// against this set instead (the reliable channel guarantees the
    /// original copy's vote reaches the coordinator).
    pub prepared_ever: RecentTxnSet,
    /// Coordinator-side: extra `Remove` targets registered for read-only
    /// transactions that originated on this node.
    pub ro_forward_targets: HashMap<TxnId, HashSet<NodeId>>,
    /// Coordinator-side: read-only transactions originated here that have
    /// already completed (so late `RegisterForward`s are answered
    /// immediately).
    pub completed_ro: RecentTxnSet,
}

impl NodeState {
    pub(crate) fn new(node_index: usize, width: usize, nlog_capacity: usize) -> Self {
        NodeState {
            node_vc: VectorClock::new(width),
            confirmed_vc: VectorClock::new(width),
            nlog: NLog::new(width, nlog_capacity),
            commit_q: CommitQueue::new(node_index),
            squeues: SnapshotQueues::new(),
            prepared: HashMap::new(),
            pending_reads: Vec::new(),
            parked_reads: Vec::new(),
            waiting_external: Vec::new(),
            pending_global: RecentTxnSet::new(1 << 16),
            pending_global_at: std::collections::VecDeque::new(),
            released_external: RecentTxnSet::new(1 << 16),
            removed_ro: RecentTxnSet::new(1 << 16),
            aborted_early: RecentTxnSet::new(1 << 16),
            confirm_acked: RecentTxnSet::new(1 << 16),
            prepared_ever: RecentTxnSet::new(1 << 16),
            ro_forward_targets: HashMap::new(),
            completed_ro: RecentTxnSet::new(1 << 16),
        }
    }

    /// `true` if any written key of `write_keys` still has a read-only entry
    /// with an insertion-snapshot smaller than `sid` — the Pre-Commit wait
    /// condition of Algorithm 4.
    pub(crate) fn blocks_external_commit(&self, write_keys: &[Key], sid: u64) -> bool {
        write_keys.iter().any(|k| {
            self.squeues
                .get(k)
                .map(|q| crate::protocol::squeue_blocks_external_commit(q, sid))
                .unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    #[test]
    fn external_commit_block_detection() {
        let mut state = NodeState::new(0, 2, 64);
        let x = Key::new("x");
        let y = Key::new("y");
        state.squeues.entry(&x).insert_read(txn(1), 5);
        assert!(state.blocks_external_commit(&[x.clone(), y.clone()], 8));
        assert!(!state.blocks_external_commit(std::slice::from_ref(&y), 8));
        assert!(!state.blocks_external_commit(&[x], 5));
    }
}
