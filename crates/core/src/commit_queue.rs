//! The per-node commit queue (`CommitQ`).
//!
//! "CommitQ is an ordered queue, one per node, which is used by SSS to
//! ensure that non-conflicting transactions are ordered in the same way on
//! the nodes where they commit" (paper §III-A). A transaction enters the
//! queue as *pending* during the 2PC prepare phase and becomes *ready* when
//! the Decide message carries its final commit vector clock; transactions
//! are applied (internal commit) strictly in the order of their commit
//! vector clock entry for this node, and only when they reach the head.

use sss_storage::TxnId;
use sss_vclock::VectorClock;

/// Status of a transaction in the commit queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitStatus {
    /// Prepared (voted) but the commit decision has not arrived yet.
    Pending,
    /// Commit decision received; waiting to reach the head of the queue.
    Ready,
}

/// One entry of the commit queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitEntry {
    /// The update transaction.
    pub txn: TxnId,
    /// Its (proposed or final) commit vector clock.
    pub vc: VectorClock,
    /// Whether the final decision has been received.
    pub status: CommitStatus,
}

/// The ordered commit queue of one node.
///
/// Entries are ordered by `vc[i]` (the entry of this node), with the
/// transaction identifier as a deterministic tie-breaker.
#[derive(Debug, Clone, Default)]
pub struct CommitQueue {
    node_index: usize,
    entries: Vec<CommitEntry>,
}

impl CommitQueue {
    /// Creates the commit queue of node `node_index`.
    pub fn new(node_index: usize) -> Self {
        CommitQueue {
            node_index,
            entries: Vec::new(),
        }
    }

    fn sort_key(&self, entry: &CommitEntry) -> (u64, TxnId) {
        (entry.vc.get(self.node_index), entry.txn)
    }

    fn resort(&mut self) {
        let idx = self.node_index;
        self.entries.sort_by_key(|e| (e.vc.get(idx), e.txn));
    }

    /// Inserts a transaction with its proposed vector clock as *pending*
    /// (Algorithm 2, line 11).
    ///
    /// The queue does not check for an id it already holds: a second `put`
    /// queues a second entry that [`CommitQueue::update`] never reaches, in
    /// every build profile. Keeping that from happening is the caller's job
    /// (the node's `prepared_ever` guard); the model checker reverts the
    /// guard and finds the wedged queue as a quiescence violation.
    pub fn put(&mut self, txn: TxnId, vc: VectorClock) {
        self.entries.push(CommitEntry {
            txn,
            vc,
            status: CommitStatus::Pending,
        });
        self.resort();
    }

    /// Updates a transaction to *ready* with its final commit vector clock,
    /// repositioning it in the queue (Algorithm 2, line 20).
    ///
    /// Returns `false` if the transaction is not in the queue (e.g. it was
    /// already removed by an abort).
    pub fn update(&mut self, txn: TxnId, vc: VectorClock) -> bool {
        let Some(entry) = self.entries.iter_mut().find(|e| e.txn == txn) else {
            return false;
        };
        entry.vc = vc;
        entry.status = CommitStatus::Ready;
        self.resort();
        true
    }

    /// Removes a transaction (abort path, Algorithm 2 line 25). Returns
    /// `true` if it was present.
    pub fn remove(&mut self, txn: TxnId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.txn != txn);
        before != self.entries.len()
    }

    /// The current head of the queue, if any.
    pub fn head(&self) -> Option<&CommitEntry> {
        self.entries.first()
    }

    /// Pops the head if (and only if) it is *ready* — the trigger of the
    /// "upon head ∧ ready" rule (Algorithm 2, lines 29-36).
    pub fn pop_ready_head(&mut self) -> Option<CommitEntry> {
        match self.entries.first() {
            Some(e) if e.status == CommitStatus::Ready => Some(self.entries.remove(0)),
            _ => None,
        }
    }

    /// Number of queued transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no transaction is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in queue order (for diagnostics).
    pub fn entries(&self) -> &[CommitEntry] {
        debug_assert!(self
            .entries
            .windows(2)
            .all(|w| self.sort_key(&w[0]) <= self.sort_key(&w[1])));
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_vclock::NodeId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    fn vc(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    #[test]
    fn ordering_follows_the_local_vc_entry() {
        let mut q = CommitQueue::new(1);
        q.put(txn(1), vc(&[0, 9]));
        q.put(txn(2), vc(&[0, 4]));
        q.put(txn(3), vc(&[0, 7]));
        let order: Vec<u64> = q.entries().iter().map(|e| e.vc.get(1)).collect();
        assert_eq!(order, vec![4, 7, 9]);
        assert_eq!(q.head().unwrap().txn, txn(2));
    }

    #[test]
    fn pending_head_blocks_ready_followers() {
        let mut q = CommitQueue::new(0);
        q.put(txn(1), vc(&[3]));
        q.put(txn(2), vc(&[5]));
        assert!(q.update(txn(2), vc(&[5])));
        // txn(1) is still pending at the head, so nothing pops.
        assert!(q.pop_ready_head().is_none());
        assert!(q.update(txn(1), vc(&[3])));
        assert_eq!(q.pop_ready_head().unwrap().txn, txn(1));
        assert_eq!(q.pop_ready_head().unwrap().txn, txn(2));
        assert!(q.is_empty());
    }

    #[test]
    fn decide_can_reposition_a_transaction() {
        // The final commit vector clock may be larger than the proposed one
        // (Algorithm 1 computes the max across participants), which can move
        // the transaction behind a later-prepared one.
        let mut q = CommitQueue::new(0);
        q.put(txn(1), vc(&[4]));
        q.put(txn(2), vc(&[5]));
        assert!(q.update(txn(1), vc(&[8])));
        let order: Vec<TxnId> = q.entries().iter().map(|e| e.txn).collect();
        assert_eq!(order, vec![txn(2), txn(1)]);
    }

    #[test]
    fn remove_handles_aborts() {
        let mut q = CommitQueue::new(0);
        q.put(txn(1), vc(&[4]));
        assert!(q.remove(txn(1)));
        assert!(!q.remove(txn(1)));
        assert!(q.is_empty());
        // Updating a removed transaction is a no-op.
        assert!(!q.update(txn(1), vc(&[4])));
    }

    #[test]
    fn a_second_put_of_one_id_queues_an_entry_no_decision_reaches() {
        // Debug and release alike: this is the wedge `prepared_ever` exists
        // to prevent and the checker's `DuplicatePrepare` mutation finds.
        let mut q = CommitQueue::new(0);
        q.put(txn(1), vc(&[1]));
        q.put(txn(1), vc(&[2]));
        assert!(q.update(txn(1), vc(&[1])));
        assert_eq!(q.pop_ready_head().unwrap().txn, txn(1));
        assert_eq!(q.head().unwrap().status, CommitStatus::Pending);
        assert!(q.pop_ready_head().is_none());
    }

    #[test]
    fn ties_are_broken_deterministically_by_txn_id() {
        let mut q = CommitQueue::new(0);
        q.put(txn(7), vc(&[5]));
        q.put(txn(3), vc(&[5]));
        let order: Vec<TxnId> = q.entries().iter().map(|e| e.txn).collect();
        assert_eq!(order, vec![txn(3), txn(7)]);
        assert_eq!(q.len(), 2);
    }
}
