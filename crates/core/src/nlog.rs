//! The per-node commit repository (`NLog`).
//!
//! When an update transaction completes its internal commit on a node, its
//! commit vector clock is appended to the node's `NLog`; "we identify the
//! most recent vc in the NLog as NLog.mostRecentVC" (paper §III-A). The log
//! is the source of:
//!
//! * the initial visibility bound of transactions beginning on this node,
//! * the visibility wait of Algorithm 6 line 5
//!   (`NLog.mostRecentVC[i] >= T.VC[i]`),
//! * the `VisibleSet` / `maxVC` computation of Algorithm 6 lines 6-9.
//!
//! We maintain `mostRecentVC` as the entry-wise maximum of every vector
//! clock ever appended; it is monotone and dominates the last appended
//! entry, which is exactly what the two waits above need.

use std::collections::VecDeque;
use std::sync::Arc;

use sss_storage::TxnId;
use sss_vclock::VectorClock;

/// One internal-commit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NLogEntry {
    /// The committing transaction.
    pub txn: TxnId,
    /// Its commit vector clock, shared (`Arc`) with the versions the
    /// transaction installed.
    pub vc: Arc<VectorClock>,
}

/// The ordered log of internal commits of one node.
#[derive(Debug, Clone)]
pub struct NLog {
    entries: VecDeque<NLogEntry>,
    most_recent: VectorClock,
    capacity: usize,
    appended: u64,
}

impl NLog {
    /// Creates an empty log for a cluster of `width` nodes, retaining at
    /// most `capacity` individual entries for the `VisibleSet` computation.
    ///
    /// `mostRecentVC` is exact regardless of the capacity; only the
    /// per-entry scan used when a transaction has already read from some
    /// nodes is bounded by it. The default capacity used by the cluster
    /// configuration is large enough that pruning never occurs in the tests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(width: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "NLog capacity must be non-zero");
        NLog {
            entries: VecDeque::new(),
            most_recent: VectorClock::new(width),
            capacity,
            appended: 0,
        }
    }

    /// Appends the commit vector clock of `txn` (Algorithm 2, line 33).
    pub fn add(&mut self, txn: TxnId, vc: impl Into<Arc<VectorClock>>) {
        let vc = vc.into();
        self.most_recent.merge(&vc);
        self.entries.push_back(NLogEntry { txn, vc });
        self.appended += 1;
        if self.entries.len() > self.capacity {
            self.entries.pop_front();
        }
    }

    /// `NLog.mostRecentVC`: the entry-wise maximum over every appended
    /// commit vector clock.
    pub fn most_recent_vc(&self) -> &VectorClock {
        &self.most_recent
    }

    /// Computes `maxVC` for a read-only transaction's first read on this
    /// node (Algorithm 6, lines 6-9).
    ///
    /// * `has_read[w]` constrains visibility on nodes the transaction has
    ///   already read from: only entries with `vc[w] <= bound[w]` are
    ///   visible.
    /// * `excluded` lists the commit vector clocks of update transactions
    ///   that are still in their Pre-Commit phase with an insertion-snapshot
    ///   beyond the transaction's bound; their entries — and the entries of
    ///   every transaction whose clock dominates one of them (a dependent
    ///   later writer) — are removed from the visible set.
    ///
    /// Returns the entry-wise maximum over the remaining visible entries
    /// (the zero clock if nothing is visible).
    pub fn visible_max(
        &self,
        has_read: &[bool],
        bound: &VectorClock,
        excluded: &[Arc<VectorClock>],
    ) -> VectorClock {
        let unconstrained = !has_read.iter().any(|b| *b);
        if unconstrained && excluded.is_empty() {
            // Fast path: every entry is visible, so the running maximum is
            // exact even if old entries were pruned.
            return self.most_recent.clone();
        }
        let mut max = VectorClock::new(self.most_recent.width());
        for entry in &self.entries {
            let visible = has_read
                .iter()
                .enumerate()
                .all(|(w, read)| !*read || entry.vc.get(w) <= bound.get(w));
            if !visible {
                continue;
            }
            // Exclusion ceilings share their clocks with squeue write
            // entries; an entry at or above any ceiling (the excluded
            // writer itself, or a later writer that depends on it) stays
            // out of the visible set.
            if excluded.iter().any(|e| entry.vc.dominates(e)) {
                continue;
            }
            max.merge(&entry.vc);
        }
        max
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no commit has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Total number of internal commits recorded on this node.
    pub fn total_commits(&self) -> u64 {
        self.appended
    }

    /// Iterates over the retained entries, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &NLogEntry> {
        self.entries.iter()
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
    fn most_recent_is_entrywise_max() {
        let mut log = NLog::new(2, 16);
        assert!(log.is_empty());
        log.add(txn(1), vc(&[5, 4]));
        log.add(txn(2), vc(&[3, 7]));
        assert_eq!(log.most_recent_vc(), &vc(&[5, 7]));
        assert!(!log.is_empty());
        assert_eq!(log.total_commits(), 2);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn visible_max_without_constraints_sees_everything() {
        let mut log = NLog::new(2, 16);
        log.add(txn(1), vc(&[5, 4]));
        log.add(txn(2), vc(&[3, 7]));
        let max = log.visible_max(&[false, false], &vc(&[0, 0]), &[]);
        assert_eq!(max, vc(&[5, 7]));
    }

    #[test]
    fn visible_max_respects_has_read_bound() {
        let mut log = NLog::new(2, 16);
        log.add(txn(1), vc(&[5, 4]));
        log.add(txn(2), vc(&[6, 9]));
        // The transaction already read from node 1 with bound 4: the entry
        // with vc[1] = 9 is beyond its visibility bound.
        let max = log.visible_max(&[false, true], &vc(&[0, 4]), &[]);
        assert_eq!(max, vc(&[5, 4]));
    }

    #[test]
    fn visible_max_excludes_pre_committing_writers() {
        let mut log = NLog::new(2, 16);
        log.add(txn(1), vc(&[5, 4]));
        log.add(txn(2), vc(&[6, 9]));
        let excluded = vec![Arc::new(vc(&[6, 9]))];
        let max = log.visible_max(&[false, true], &vc(&[0, 9]), &excluded);
        assert_eq!(max, vc(&[5, 4]));
    }

    #[test]
    fn visible_max_of_empty_log_is_zero() {
        let log = NLog::new(3, 4);
        assert_eq!(
            log.visible_max(&[true, false, false], &vc(&[9, 9, 9]), &[]),
            vc(&[0, 0, 0])
        );
    }

    #[test]
    fn pruning_keeps_most_recent_exact() {
        let mut log = NLog::new(1, 4);
        for i in 1..=10 {
            log.add(txn(i), vc(&[i]));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total_commits(), 10);
        assert_eq!(log.most_recent_vc(), &vc(&[10]));
        // The unconstrained fast path is unaffected by pruning.
        assert_eq!(log.visible_max(&[false], &vc(&[0]), &[]), vc(&[10]));
        let oldest_retained = log.iter().next().unwrap().vc.get(0);
        assert_eq!(oldest_retained, 7);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = NLog::new(1, 0);
    }
}
