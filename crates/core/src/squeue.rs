//! Snapshot-queues: the core new technique of SSS.
//!
//! "Each key is associated with a snapshot-queue. Only transactions that
//! will surely commit are inserted into the snapshot-queues of their
//! accessed keys in order to leave a trace of their existence to other
//! concurrent transactions. Read-only transactions are inserted into their
//! read keys' snapshot-queues at read time, while update transactions into
//! their modified keys' snapshot-queues after the commit decision is
//! reached." (paper §I)
//!
//! Entries carry an *insertion-snapshot*: "the value of T's vector clock in
//! position i at the time T is inserted in the snapshot-queue" on node `Ni`
//! (§III-A). SSS orders transactions with lesser insertion-snapshot before
//! conflicting transactions with higher insertion-snapshot in the external
//! schedule.
//!
//! As in the paper's implementation (§V), every key keeps two queues — one
//! for read-only entries and one for update (write) entries — so that scans
//! issued by read operations stay short in read-dominated workloads.

use std::collections::HashMap;
use std::sync::Arc;

use sss_storage::{Key, TxnId};
use sss_vclock::VectorClock;

/// Type of a snapshot-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// A read-only transaction that read the key ("R").
    Read,
    /// An update transaction that wrote the key and is in its Pre-Commit
    /// phase ("W").
    Write,
}

/// A read-only entry `<T.id, sid, "R">`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// The read-only transaction.
    pub txn: TxnId,
    /// Insertion-snapshot: entry `i` of the snapshot used for the read.
    pub sid: u64,
}

/// An update entry `<T.id, sid, "W">` for a transaction in its Pre-Commit
/// phase. The full commit vector clock is retained so that version-selection
/// (Algorithm 6) can exclude the versions this transaction produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteEntry {
    /// The update transaction.
    pub txn: TxnId,
    /// Insertion-snapshot: `commitVC[i]` on this node.
    pub sid: u64,
    /// The transaction's full commit vector clock, shared (`Arc`) with the
    /// versions the transaction installed and with its entries in other
    /// keys' queues — inserting and excluding entries never copies a clock.
    pub commit_vc: Arc<VectorClock>,
    /// When the entry was inserted; used by the starvation admission control
    /// (paper §III-E) to detect writers that have been waiting "for a
    /// pre-determined time".
    pub since: std::time::Instant,
}

/// The snapshot-queue of a single key (split into read and write sides).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotQueue {
    reads: Vec<ReadEntry>,
    writes: Vec<WriteEntry>,
}

impl SnapshotQueue {
    /// An empty queue.
    pub fn new() -> Self {
        SnapshotQueue::default()
    }

    /// Inserts a read-only entry, keeping the queue ordered by
    /// insertion-snapshot (ties broken by transaction id).
    ///
    /// Inserting the same transaction twice (a transaction may read the same
    /// key more than once) is idempotent: the entry with the smaller sid is
    /// kept.
    pub fn insert_read(&mut self, txn: TxnId, sid: u64) {
        if let Some(existing) = self.reads.iter_mut().find(|e| e.txn == txn) {
            existing.sid = existing.sid.min(sid);
        } else {
            self.reads.push(ReadEntry { txn, sid });
        }
        self.reads.sort_by_key(|e| (e.sid, e.txn));
    }

    /// Inserts (or refreshes) an update entry.
    pub fn insert_write(&mut self, txn: TxnId, sid: u64, commit_vc: impl Into<Arc<VectorClock>>) {
        self.writes.retain(|e| e.txn != txn);
        self.writes.push(WriteEntry {
            txn,
            sid,
            commit_vc: commit_vc.into(),
            since: sss_vclock::runtime::now(),
        });
        self.writes.sort_by_key(|a| (a.sid, a.txn));
    }

    /// `true` if an update entry with insertion-snapshot beyond `sid` has
    /// been waiting in this queue for longer than `threshold` — the trigger
    /// of the starvation admission control (paper §III-E).
    pub fn has_aged_writer_beyond(&self, sid: u64, threshold: std::time::Duration) -> bool {
        // Age against `runtime::now`, not `Instant::elapsed`: `since` is a
        // virtual instant under simulation, and the admission decision must
        // replay deterministically by seed.
        let now = sss_vclock::runtime::now();
        self.writes
            .iter()
            .any(|w| w.sid > sid && now.saturating_duration_since(w.since) >= threshold)
    }

    /// Removes every entry (read or write) belonging to `txn`. Returns `true`
    /// if something was removed.
    pub fn remove(&mut self, txn: TxnId) -> bool {
        let before = self.reads.len() + self.writes.len();
        self.reads.retain(|e| e.txn != txn);
        self.writes.retain(|e| e.txn != txn);
        before != self.reads.len() + self.writes.len()
    }

    /// Removes only the write entry of `txn` (done at external commit,
    /// Algorithm 4 line 4). Returns `true` if it was present.
    pub fn remove_write(&mut self, txn: TxnId) -> bool {
        let before = self.writes.len();
        self.writes.retain(|e| e.txn != txn);
        before != self.writes.len()
    }

    /// `true` if a read-only entry with insertion-snapshot strictly smaller
    /// than `sid` exists — the condition that keeps an update transaction in
    /// its Pre-Commit phase (Algorithm 4 / §III-B External Commit).
    pub fn has_read_before(&self, sid: u64) -> bool {
        self.reads.first().map(|e| e.sid < sid).unwrap_or(false)
    }

    /// Read-only entries, ordered by insertion-snapshot.
    pub fn reads(&self) -> &[ReadEntry] {
        &self.reads
    }

    /// Update entries, ordered by insertion-snapshot.
    pub fn writes(&self) -> &[WriteEntry] {
        &self.writes
    }

    /// `true` when the queue holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// All snapshot-queues of one node, keyed by the local keys that have (or
/// recently had) concurrent accesses.
///
/// Queues are created lazily and garbage-collected as soon as they become
/// empty — the "positive side effect of the Remove message" described in
/// §III-E.
#[derive(Debug, Clone, Default)]
pub struct SnapshotQueues {
    queues: HashMap<Key, SnapshotQueue>,
}

impl SnapshotQueues {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SnapshotQueues::default()
    }

    /// The queue of `key`, if it currently has entries.
    pub fn get(&self, key: &Key) -> Option<&SnapshotQueue> {
        self.queues.get(key)
    }

    /// Every non-empty queue with its key, in unspecified order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Key, &SnapshotQueue)> {
        self.queues.iter()
    }

    /// Mutable access to the queue of `key`, creating it if absent.
    pub fn entry(&mut self, key: &Key) -> &mut SnapshotQueue {
        self.queues.entry(key.clone()).or_default()
    }

    /// Removes every entry of `txn` from every queue, dropping queues that
    /// become empty. Returns the number of queues that were modified.
    pub fn remove_txn_everywhere(&mut self, txn: TxnId) -> usize {
        let mut touched = 0;
        self.queues.retain(|_, q| {
            if q.remove(txn) {
                touched += 1;
            }
            !q.is_empty()
        });
        touched
    }

    /// Removes the write entry of `txn` from the queues of `keys`.
    pub fn remove_write_entries<'a>(
        &mut self,
        txn: TxnId,
        keys: impl IntoIterator<Item = &'a Key>,
    ) {
        for key in keys {
            if let Some(q) = self.queues.get_mut(key) {
                q.remove_write(txn);
                if q.is_empty() {
                    self.queues.remove(key);
                }
            }
        }
    }

    /// Number of keys that currently have a non-empty queue.
    pub fn active_queues(&self) -> usize {
        self.queues.len()
    }

    /// Total number of entries across all queues.
    pub fn total_entries(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_vclock::NodeId;

    fn txn(node: usize, seq: u64) -> TxnId {
        TxnId::new(NodeId(node), seq)
    }

    fn vc(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    #[test]
    fn entries_are_ordered_by_insertion_snapshot() {
        let mut q = SnapshotQueue::new();
        q.insert_read(txn(0, 2), 9);
        q.insert_read(txn(0, 1), 7);
        q.insert_write(txn(1, 1), 8, vc(&[3, 8]));
        assert_eq!(q.reads()[0].sid, 7);
        assert_eq!(q.reads()[1].sid, 9);
        assert_eq!(q.writes()[0].sid, 8);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn paper_figure_1_wait_condition() {
        // Q(y) = {<T1, 7, "R">, <T2, 8, "W">}: T2 must wait because a
        // read-only entry with a smaller insertion-snapshot exists.
        let mut q = SnapshotQueue::new();
        q.insert_read(txn(0, 1), 7);
        q.insert_write(txn(1, 2), 8, vc(&[3, 8]));
        assert!(q.has_read_before(8));
        // After T1's Remove, T2 can commit externally.
        assert!(q.remove(txn(0, 1)));
        assert!(!q.has_read_before(8));
    }

    #[test]
    fn read_only_with_higher_snapshot_does_not_block() {
        let mut q = SnapshotQueue::new();
        q.insert_read(txn(0, 1), 12);
        assert!(!q.has_read_before(8));
    }

    #[test]
    fn duplicate_read_insertions_keep_smallest_sid() {
        let mut q = SnapshotQueue::new();
        q.insert_read(txn(0, 1), 9);
        q.insert_read(txn(0, 1), 7);
        q.insert_read(txn(0, 1), 11);
        assert_eq!(q.reads().len(), 1);
        assert_eq!(q.reads()[0].sid, 7);
    }

    #[test]
    fn remove_write_keeps_read_entries() {
        let mut q = SnapshotQueue::new();
        q.insert_read(txn(0, 1), 7);
        q.insert_write(txn(1, 1), 8, vc(&[1, 8]));
        assert!(q.remove_write(txn(1, 1)));
        assert!(!q.remove_write(txn(1, 1)));
        assert_eq!(q.reads().len(), 1);
    }

    #[test]
    fn registry_garbage_collects_empty_queues() {
        let mut queues = SnapshotQueues::new();
        let x = Key::new("x");
        let y = Key::new("y");
        queues.entry(&x).insert_read(txn(0, 1), 7);
        queues.entry(&y).insert_read(txn(0, 1), 7);
        queues.entry(&y).insert_write(txn(1, 1), 9, vc(&[0, 9]));
        assert_eq!(queues.active_queues(), 2);
        assert_eq!(queues.total_entries(), 3);

        let touched = queues.remove_txn_everywhere(txn(0, 1));
        assert_eq!(touched, 2);
        // x's queue became empty and was dropped; y still holds the writer.
        assert!(queues.get(&x).is_none());
        assert_eq!(queues.get(&y).unwrap().writes().len(), 1);

        queues.remove_write_entries(txn(1, 1), [&y]);
        assert_eq!(queues.active_queues(), 0);
    }
}
