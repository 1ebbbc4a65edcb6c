//! Bounded, insertion-ordered sets of recently seen protocol identifiers.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

use crate::txn_id::TxnId;

/// A bounded insertion-ordered set.
///
/// Protocol nodes use it to remember recently completed, aborted or removed
/// work so that *racing* messages — a high-priority `Decide` overtaking its
/// `Prepare` in the priority mailbox, a duplicate delivery of an
/// already-processed message, a late snapshot-queue insertion after the
/// `Remove` — are suppressed instead of leaking locks or queue entries that
/// nothing will ever clean up. The capacity bound keeps the memory of a
/// long-running node finite; the set evicts oldest-first, and the bound is
/// sized so that any message still plausibly in flight is remembered.
#[derive(Debug, Clone)]
pub struct RecentSet<T> {
    order: VecDeque<T>,
    set: HashSet<T>,
    capacity: usize,
}

/// The most common instantiation: a set of transaction identifiers.
pub type RecentTxnSet = RecentSet<TxnId>;

impl<T: Eq + Hash + Clone> RecentSet<T> {
    /// Creates an empty set remembering up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RecentSet {
            order: VecDeque::new(),
            set: HashSet::new(),
            capacity,
        }
    }

    /// Remembers `entry`; returns `true` if it was not already remembered.
    pub fn insert(&mut self, entry: T) -> bool {
        if self.set.insert(entry.clone()) {
            self.order.push_back(entry);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
            true
        } else {
            false
        }
    }

    /// `true` if `entry` is remembered.
    pub fn contains(&self, entry: &T) -> bool {
        self.set.contains(entry)
    }

    /// Forgets `entry` (e.g. once its global external commit is confirmed).
    /// Returns `true` if it was remembered.
    pub fn remove(&mut self, entry: &T) -> bool {
        if self.set.remove(entry) {
            self.order.retain(|t| t != entry);
            true
        } else {
            false
        }
    }

    /// The remembered entries, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> {
        self.order.iter()
    }

    /// Number of remembered entries.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_vclock::NodeId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut set = RecentTxnSet::new(2);
        assert!(set.insert(txn(1)));
        assert!(set.insert(txn(2)));
        assert!(set.insert(txn(3)));
        assert_eq!(set.len(), 2);
        assert!(!set.contains(&txn(1)));
        assert!(set.contains(&txn(2)));
        assert!(set.contains(&txn(3)));
    }

    #[test]
    fn reinsertion_reports_already_present() {
        let mut set = RecentTxnSet::new(4);
        assert!(set.insert(txn(1)));
        assert!(!set.insert(txn(1)));
        assert_eq!(set.len(), 1);
        assert!(set.remove(&txn(1)));
        assert!(!set.remove(&txn(1)));
        assert!(set.is_empty());
    }

    #[test]
    fn composite_keys_are_supported() {
        let mut set: RecentSet<(TxnId, u8)> = RecentSet::new(2);
        assert!(set.insert((txn(1), 0)));
        assert!(set.insert((txn(1), 1)));
        assert!(!set.insert((txn(1), 0)));
        assert!(set.contains(&(txn(1), 1)));
    }
}
