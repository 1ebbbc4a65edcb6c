//! Shared/exclusive lock table with bounded acquisition.
//!
//! During the 2PC prepare phase "all keys read/written by T and stored by Ni
//! are locked" (paper §III-B); SSS "uses timeout to prevent deadlock during
//! the commit phase's lock acquisition" (§III-E). The paper's evaluation sets
//! the timeout to 1ms on a cluster whose messages take ~20µs.
//!
//! The table is hash-partitioned into fixed-arity shards, each with its own
//! mutex and [`Signal`]: acquisitions on different shards proceed in
//! parallel, and a release only wakes the waiters blocked on its own shard
//! (instead of every waiter in the table). Timeout semantics are per
//! acquisition and unchanged by sharding — a request gives up once its
//! deadline passes (virtual time under a simulation scheduler), re-checking
//! one final time for a release that raced with the timeout.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use sss_vclock::runtime::{self, Signal};

use crate::key::Key;
use crate::shard;
use crate::txn_id::TxnId;

/// The mode of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockKind {
    /// Shared (read) lock: compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock: incompatible with everything else.
    Exclusive,
}

#[derive(Debug, Default, Clone)]
struct LockEntry {
    exclusive: Option<TxnId>,
    shared: HashSet<TxnId>,
}

impl LockEntry {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }

    fn can_grant(&self, txn: TxnId, kind: LockKind) -> bool {
        match kind {
            LockKind::Shared => match self.exclusive {
                // A transaction may read a key it already write-locked.
                Some(owner) => owner == txn,
                None => true,
            },
            LockKind::Exclusive => {
                let exclusive_ok = self.exclusive.map(|o| o == txn).unwrap_or(true);
                let shared_ok = self.shared.is_empty()
                    || (self.shared.len() == 1 && self.shared.contains(&txn));
                exclusive_ok && shared_ok
            }
        }
    }

    fn grant(&mut self, txn: TxnId, kind: LockKind) {
        match kind {
            LockKind::Shared => {
                if self.exclusive != Some(txn) {
                    self.shared.insert(txn);
                }
            }
            LockKind::Exclusive => {
                self.shared.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }

    fn release(&mut self, txn: TxnId) -> bool {
        let mut changed = false;
        if self.exclusive == Some(txn) {
            self.exclusive = None;
            changed = true;
        }
        changed |= self.shared.remove(&txn);
        changed
    }
}

/// One hash partition of the table: its own entry map, its own mutex, and
/// its own signal (so a release wakes only this shard's waiters). The
/// signal carries no scheduler handle: lock tables are only touched from
/// handlers, which run on simulation tasks when there is a simulation.
#[derive(Debug, Default)]
struct LockShard {
    entries: Mutex<HashMap<Key, LockEntry>>,
    /// Notified on every release that freed something.
    released: Signal,
    /// Requests that could not be granted on first check and had to wait
    /// (monotonic) — the per-shard contention signal of [`LockTableStats`].
    contended: AtomicU64,
}

/// Counters describing lock-table behaviour, used by the evaluation harness
/// to report contention.
///
/// All counters are monotonic; use [`LockTableStats::diff`] to derive
/// per-window numbers from two snapshots.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LockTableStats {
    /// Successfully granted lock requests.
    pub granted: u64,
    /// Requests that gave up after the acquisition timeout.
    pub timeouts: u64,
    /// Requests that could not be granted immediately and had to wait,
    /// across all shards.
    pub contended: u64,
    /// Per-shard breakdown of `contended`, indexed by shard.
    pub per_shard_contended: Vec<u64>,
}

impl LockTableStats {
    /// Counter difference `self - earlier` (entry-wise, saturating), for
    /// per-window reporting.
    pub fn diff(&self, earlier: &LockTableStats) -> LockTableStats {
        LockTableStats {
            granted: self.granted.saturating_sub(earlier.granted),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            contended: self.contended.saturating_sub(earlier.contended),
            per_shard_contended: self
                .per_shard_contended
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    c.saturating_sub(earlier.per_shard_contended.get(i).copied().unwrap_or(0))
                })
                .collect(),
        }
    }

    /// Entry-wise sum with `other` (shards matched by index), used to
    /// aggregate the per-node tables of a cluster.
    pub fn merge(&mut self, other: &LockTableStats) {
        self.granted += other.granted;
        self.timeouts += other.timeouts;
        self.contended += other.contended;
        if self.per_shard_contended.len() < other.per_shard_contended.len() {
            self.per_shard_contended
                .resize(other.per_shard_contended.len(), 0);
        }
        for (mine, theirs) in self
            .per_shard_contended
            .iter_mut()
            .zip(other.per_shard_contended.iter())
        {
            *mine += theirs;
        }
    }
}

/// A per-node lock table with shared/exclusive locks and timeout-bounded
/// acquisition, hash-partitioned into fixed-arity shards.
///
/// The table is internally synchronized; callers must **not** hold other
/// node-level locks while blocking on an acquisition (handlers acquire locks
/// first, then touch protocol state).
#[derive(Debug)]
pub struct LockTable {
    shards: Box<[LockShard]>,
    mask: usize,
    granted: AtomicU64,
    timeouts: AtomicU64,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable::new()
    }
}

/// A copy holding the same locks; its counters start at zero.
impl Clone for LockTable {
    fn clone(&self) -> Self {
        let copy = LockTable::with_shards(self.shards.len());
        for (to, from) in copy.shards.iter().zip(self.shards.iter()) {
            *to.entries.lock() = from.entries.lock().clone();
        }
        copy
    }
}

impl LockTable {
    /// Creates an empty lock table with [`shard::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        LockTable::with_shards(shard::DEFAULT_SHARDS)
    }

    /// Creates an empty table with `shards` shards (rounded up to a power
    /// of two, minimum 1). The arity is fixed for the table's lifetime.
    pub fn with_shards(shards: usize) -> Self {
        let arity = shard::arity(shards);
        LockTable {
            shards: (0..arity).map(|_| LockShard::default()).collect(),
            mask: arity - 1,
            granted: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        }
    }

    /// Number of shards the table was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to (stable across runs; see
    /// [`crate::shard`]).
    pub fn shard_of(&self, key: &Key) -> usize {
        shard::index_for(key, self.mask)
    }

    fn shard(&self, key: &Key) -> &LockShard {
        &self.shards[shard::index_for(key, self.mask)]
    }

    /// Tries to acquire `kind` on `key` for `txn`, waiting at most `timeout`.
    ///
    /// Returns `true` on success. Re-acquiring a lock already held by the
    /// same transaction (including reading a key it already write-locked)
    /// always succeeds immediately.
    pub fn acquire(&self, txn: TxnId, key: &Key, kind: LockKind, timeout: Duration) -> bool {
        let deadline = runtime::now() + timeout;
        let shard = self.shard(key);
        let mut entries = shard.entries.lock();
        let mut first_check = true;
        let mut timed_out = false;
        loop {
            let entry = entries.entry(key.clone()).or_default();
            if entry.can_grant(txn, kind) {
                entry.grant(txn, kind);
                self.granted.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // Checked after the grant test on every round: a release that
            // raced with the timeout still wins.
            if timed_out {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if first_check {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                first_check = false;
            }
            timed_out = shard.released.wait(&mut entries, Some(deadline));
        }
    }

    /// Acquires a batch of locks, all-or-nothing.
    ///
    /// Keys are locked in sorted order to keep the acquisition pattern
    /// deterministic; on the first failure all locks already granted to
    /// `txn` by this call chain are released and `false` is returned.
    pub fn acquire_many<'a>(
        &self,
        txn: TxnId,
        requests: impl IntoIterator<Item = (&'a Key, LockKind)>,
        timeout: Duration,
    ) -> bool {
        let mut sorted: Vec<(&Key, LockKind)> = requests.into_iter().collect();
        // Exclusive first for identical keys so that a later shared request
        // on the same key (read-and-written key) is granted reentrantly.
        sorted.sort_by(|a, b| {
            a.0.cmp(b.0).then_with(|| match (a.1, b.1) {
                (LockKind::Exclusive, LockKind::Shared) => std::cmp::Ordering::Less,
                (LockKind::Shared, LockKind::Exclusive) => std::cmp::Ordering::Greater,
                _ => std::cmp::Ordering::Equal,
            })
        });
        let deadline = runtime::now() + timeout;
        for (key, kind) in sorted {
            let remaining = deadline.saturating_duration_since(runtime::now());
            if !self.acquire(txn, key, kind, remaining) {
                self.release_all(txn);
                return false;
            }
        }
        true
    }

    /// Releases every lock held by `txn` on `key`.
    pub fn release(&self, txn: TxnId, key: &Key) {
        let shard = self.shard(key);
        let mut entries = shard.entries.lock();
        if let Some(entry) = entries.get_mut(key) {
            if entry.release(txn) {
                if entry.is_free() {
                    entries.remove(key);
                }
                shard.released.notify_all();
            }
        }
    }

    /// Releases every lock held by `txn` on the given keys.
    pub fn release_keys<'a>(&self, txn: TxnId, keys: impl IntoIterator<Item = &'a Key>) {
        for key in keys {
            self.release(txn, key);
        }
    }

    /// Releases every lock held by `txn` anywhere in the table.
    pub fn release_all(&self, txn: TxnId) {
        for shard in self.shards.iter() {
            let mut entries = shard.entries.lock();
            let mut any = false;
            entries.retain(|_, entry| {
                if entry.release(txn) {
                    any = true;
                }
                !entry.is_free()
            });
            if any {
                shard.released.notify_all();
            }
        }
    }

    /// `true` if `txn` currently holds a lock of `kind` on `key`.
    pub fn holds(&self, txn: TxnId, key: &Key, kind: LockKind) -> bool {
        let entries = self.shard(key).entries.lock();
        entries
            .get(key)
            .map(|e| match kind {
                LockKind::Shared => e.shared.contains(&txn) || e.exclusive == Some(txn),
                LockKind::Exclusive => e.exclusive == Some(txn),
            })
            .unwrap_or(false)
    }

    /// Every held lock as `(key, exclusive holder, shared holders)`, keys
    /// and holders sorted: the table's content without its hash order.
    pub fn held(&self) -> Vec<(Key, Option<TxnId>, Vec<TxnId>)> {
        let mut held = Vec::new();
        for shard in self.shards.iter() {
            for (key, entry) in shard.entries.lock().iter() {
                let mut shared: Vec<TxnId> = entry.shared.iter().copied().collect();
                shared.sort();
                held.push((key.clone(), entry.exclusive, shared));
            }
        }
        held.sort();
        held
    }

    /// Number of keys with at least one lock held.
    pub fn locked_keys(&self) -> usize {
        self.shards.iter().map(|s| s.entries.lock().len()).sum()
    }

    /// Counters snapshot, including the per-shard contention breakdown.
    pub fn stats(&self) -> LockTableStats {
        let per_shard_contended: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.contended.load(Ordering::Relaxed))
            .collect();
        LockTableStats {
            granted: self.granted.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            contended: per_shard_contended.iter().sum(),
            per_shard_contended,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_vclock::NodeId;
    use std::sync::Arc;

    const TIMEOUT: Duration = Duration::from_millis(20);

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let table = LockTable::new();
        let k = Key::new("x");
        assert!(table.acquire(txn(1), &k, LockKind::Shared, TIMEOUT));
        assert!(table.acquire(txn(2), &k, LockKind::Shared, TIMEOUT));
        assert!(table.holds(txn(1), &k, LockKind::Shared));
        assert!(table.holds(txn(2), &k, LockKind::Shared));
        assert_eq!(table.stats().granted, 2);
    }

    #[test]
    fn exclusive_conflicts_with_shared_until_released() {
        let table = LockTable::new();
        let k = Key::new("x");
        assert!(table.acquire(txn(1), &k, LockKind::Shared, TIMEOUT));
        assert!(!table.acquire(txn(2), &k, LockKind::Exclusive, Duration::from_millis(2)));
        let stats = table.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.contended, 1, "the blocked request is counted");
        assert_eq!(
            stats.per_shard_contended[table.shard_of(&k)],
            1,
            "contention is attributed to the key's shard"
        );
        table.release(txn(1), &k);
        assert!(table.acquire(txn(2), &k, LockKind::Exclusive, TIMEOUT));
        assert!(table.holds(txn(2), &k, LockKind::Exclusive));
    }

    #[test]
    fn reentrant_shared_on_own_exclusive() {
        let table = LockTable::new();
        let k = Key::new("x");
        assert!(table.acquire(txn(1), &k, LockKind::Exclusive, TIMEOUT));
        assert!(table.acquire(txn(1), &k, LockKind::Shared, TIMEOUT));
        assert!(table.holds(txn(1), &k, LockKind::Exclusive));
        // A single release of the transaction clears both.
        table.release_all(txn(1));
        assert!(!table.holds(txn(1), &k, LockKind::Exclusive));
        assert_eq!(table.locked_keys(), 0);
    }

    #[test]
    fn upgrade_succeeds_only_for_sole_reader() {
        let table = LockTable::new();
        let k = Key::new("x");
        assert!(table.acquire(txn(1), &k, LockKind::Shared, TIMEOUT));
        assert!(table.acquire(txn(1), &k, LockKind::Exclusive, TIMEOUT));
        table.release_all(txn(1));

        assert!(table.acquire(txn(1), &k, LockKind::Shared, TIMEOUT));
        assert!(table.acquire(txn(2), &k, LockKind::Shared, TIMEOUT));
        assert!(!table.acquire(txn(1), &k, LockKind::Exclusive, Duration::from_millis(2)));
    }

    #[test]
    fn acquire_many_is_all_or_nothing() {
        let table = LockTable::new();
        let a = Key::new("a");
        let b = Key::new("b");
        assert!(table.acquire(txn(9), &b, LockKind::Exclusive, TIMEOUT));
        let ok = table.acquire_many(
            txn(1),
            [(&a, LockKind::Exclusive), (&b, LockKind::Shared)],
            Duration::from_millis(2),
        );
        assert!(!ok);
        // The lock on `a` must have been rolled back.
        assert!(!table.holds(txn(1), &a, LockKind::Exclusive));
        assert!(table.acquire(txn(2), &a, LockKind::Exclusive, TIMEOUT));
    }

    #[test]
    fn acquire_many_handles_read_write_overlap() {
        let table = LockTable::new();
        let a = Key::new("a");
        let ok = table.acquire_many(
            txn(1),
            [(&a, LockKind::Shared), (&a, LockKind::Exclusive)],
            TIMEOUT,
        );
        assert!(ok);
        assert!(table.holds(txn(1), &a, LockKind::Exclusive));
    }

    #[test]
    fn waiting_acquirer_is_woken_by_release() {
        let table = Arc::new(LockTable::new());
        let k = Key::new("x");
        assert!(table.acquire(txn(1), &k, LockKind::Exclusive, TIMEOUT));
        let t2 = {
            let table = Arc::clone(&table);
            let k = k.clone();
            std::thread::spawn(move || {
                table.acquire(txn(2), &k, LockKind::Exclusive, Duration::from_millis(500))
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        table.release_all(txn(1));
        assert!(t2.join().unwrap());
    }

    #[test]
    fn release_keys_only_touches_named_keys() {
        let table = LockTable::new();
        let a = Key::new("a");
        let b = Key::new("b");
        assert!(table.acquire(txn(1), &a, LockKind::Shared, TIMEOUT));
        assert!(table.acquire(txn(1), &b, LockKind::Exclusive, TIMEOUT));
        table.release_keys(txn(1), [&a]);
        assert!(!table.holds(txn(1), &a, LockKind::Shared));
        assert!(table.holds(txn(1), &b, LockKind::Exclusive));
    }

    #[test]
    fn single_shard_table_behaves_like_the_unsharded_one() {
        let table = LockTable::with_shards(1);
        assert_eq!(table.shard_count(), 1);
        let a = Key::new("a");
        let b = Key::new("b");
        assert!(table.acquire_many(
            txn(1),
            [(&a, LockKind::Exclusive), (&b, LockKind::Exclusive)],
            TIMEOUT
        ));
        assert_eq!(table.locked_keys(), 2);
        table.release_all(txn(1));
        assert_eq!(table.locked_keys(), 0);
    }

    #[test]
    fn stats_diff_yields_per_window_counters() {
        let table = LockTable::new();
        let k = Key::new("x");
        assert!(table.acquire(txn(1), &k, LockKind::Exclusive, TIMEOUT));
        let before = table.stats();
        assert!(table.acquire(txn(1), &k, LockKind::Exclusive, TIMEOUT));
        let window = table.stats().diff(&before);
        assert_eq!(window.granted, 1);
        assert_eq!(window.timeouts, 0);
    }
}
