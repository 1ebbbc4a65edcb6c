//! Multi-version key-value repository.
//!
//! "Multiple versions are kept for each key. Each version stores the value
//! and the commit vector clock of the transaction that produced the version"
//! (paper §II). The version-selection logic of Algorithm 6 walks a key's
//! chain from the most recent version backwards; [`VersionChain`] exposes
//! exactly that traversal.
//!
//! The store is hash-partitioned into a fixed number of shards (see
//! [`MvStore::with_shards`]), each behind its own reader-writer lock, so
//! concurrent handlers touching different keys proceed in parallel. Version
//! chains are held behind `Arc`s: a read clones the `Arc` and drops the
//! shard lock immediately, so chain walks never hold any lock — writers
//! install new versions copy-on-write via [`Arc::make_mut`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sss_vclock::VectorClock;

use crate::key::{Key, Value};
use crate::shard;
use crate::txn_id::TxnId;

/// One committed version of a key.
///
/// The commit vector clock is held behind an [`Arc`]: a transaction that
/// writes several keys installs every version with the *same* shared clock,
/// and handing a version out of the store ([`MvStore::last`]) clones the
/// handle, not the clock — chain walks and snapshot comparisons on the read
/// hot path never copy clock entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The stored value.
    pub value: Value,
    /// Commit vector clock of the transaction that produced this version,
    /// shared with every other version that transaction installed.
    pub vc: Arc<VectorClock>,
    /// The transaction that produced this version.
    pub writer: TxnId,
}

/// The ordered version history of one key, oldest first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    /// An empty chain.
    pub fn new() -> Self {
        VersionChain {
            versions: Vec::new(),
        }
    }

    /// Appends a freshly committed version (it becomes `last`).
    pub fn push(&mut self, version: Version) {
        self.versions.push(version);
    }

    /// The most recent version (`k.last` in the paper's pseudocode).
    pub fn last(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// `true` if no version has ever been installed.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates versions from the most recent to the oldest, mirroring the
    /// `ver ← ver.prev` walk of Algorithm 6.
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &Version> {
        self.versions.iter().rev()
    }

    /// Iterates versions oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Version> {
        self.versions.iter()
    }

    /// Returns the most recent version that satisfies `accept`, walking
    /// newest-to-oldest. Returns `None` if no version qualifies.
    pub fn latest_matching<F>(&self, mut accept: F) -> Option<&Version>
    where
        F: FnMut(&Version) -> bool,
    {
        self.iter_newest_first().find(|v| accept(v))
    }

    /// Drops all but the newest `keep` versions. Returns how many versions
    /// were pruned. Used by garbage collection.
    pub fn prune_to(&mut self, keep: usize) -> usize {
        if self.versions.len() <= keep {
            return 0;
        }
        let excess = self.versions.len() - keep;
        self.versions.drain(0..excess);
        excess
    }
}

/// One hash partition of the store: its own key→chain map behind its own
/// contention-counting lock (see [`shard::ContendedRwLock`]), plus the
/// counters the contention report aggregates.
#[derive(Debug, Default)]
struct MvShard {
    chains: shard::ContendedRwLock<HashMap<Key, Arc<VersionChain>>>,
    installed: AtomicU64,
}

impl MvShard {
    fn read(&self) -> parking_lot::RwLockReadGuard<'_, HashMap<Key, Arc<VersionChain>>> {
        self.chains.read()
    }

    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, HashMap<Key, Arc<VersionChain>>> {
        self.chains.write()
    }
}

/// Counters describing one shard of an [`MvStore`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MvShardStats {
    /// Keys currently resident in the shard.
    pub keys: usize,
    /// Versions installed through the shard (monotonic).
    pub installed: u64,
    /// Lock acquisitions that found the shard lock held (monotonic).
    pub contended: u64,
}

/// Aggregated counters of an [`MvStore`], with the per-shard breakdown the
/// benchmark harness reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MvStoreStats {
    /// Versions installed across all shards (monotonic).
    pub installed_versions: u64,
    /// Versions currently retained across all shards.
    pub retained_versions: usize,
    /// Shard-lock acquisitions that had to block, across all shards
    /// (monotonic).
    pub contended: u64,
    /// Per-shard breakdown, indexed by shard.
    pub per_shard: Vec<MvShardStats>,
}

impl MvStoreStats {
    /// Counter difference `self - earlier` (entry-wise, saturating), for
    /// per-window reporting. Gauges (`keys`, `retained_versions`) keep the
    /// later snapshot's value.
    pub fn diff(&self, earlier: &MvStoreStats) -> MvStoreStats {
        MvStoreStats {
            installed_versions: self
                .installed_versions
                .saturating_sub(earlier.installed_versions),
            retained_versions: self.retained_versions,
            contended: self.contended.saturating_sub(earlier.contended),
            per_shard: self
                .per_shard
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let base = earlier.per_shard.get(i).cloned().unwrap_or_default();
                    MvShardStats {
                        keys: s.keys,
                        installed: s.installed.saturating_sub(base.installed),
                        contended: s.contended.saturating_sub(base.contended),
                    }
                })
                .collect(),
        }
    }

    /// Entry-wise sum with `other` (shards are matched by index), used to
    /// aggregate the per-node stores of a cluster.
    pub fn merge(&mut self, other: &MvStoreStats) {
        self.installed_versions += other.installed_versions;
        self.retained_versions += other.retained_versions;
        self.contended += other.contended;
        if self.per_shard.len() < other.per_shard.len() {
            self.per_shard
                .resize(other.per_shard.len(), MvShardStats::default());
        }
        for (mine, theirs) in self.per_shard.iter_mut().zip(other.per_shard.iter()) {
            mine.keys += theirs.keys;
            mine.installed += theirs.installed;
            mine.contended += theirs.contended;
        }
    }
}

/// A node-local multi-version store, hash-partitioned into fixed-arity
/// shards with per-shard reader-writer locks.
///
/// The store is internally synchronized: `apply` and the read accessors all
/// take `&self`, so engines may share it across worker threads without an
/// enclosing lock. Engines that already serialize access (the SSS node
/// state mutex) pay only an uncontended per-shard lock per operation.
#[derive(Debug)]
pub struct MvStore {
    shards: Box<[MvShard]>,
    mask: usize,
}

/// A copy holding the same chains (shared, copy-on-write); its counters
/// start at zero.
impl Clone for MvStore {
    fn clone(&self) -> Self {
        let copy = MvStore::with_shards(self.shards.len());
        for (to, from) in copy.shards.iter().zip(self.shards.iter()) {
            *to.write() = from.read().clone();
        }
        copy
    }
}

impl Default for MvStore {
    fn default() -> Self {
        MvStore::new()
    }
}

impl MvStore {
    /// Creates an empty store with [`shard::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        MvStore::with_shards(shard::DEFAULT_SHARDS)
    }

    /// Creates an empty store with `shards` shards (rounded up to a power
    /// of two, minimum 1). The arity is fixed for the store's lifetime.
    pub fn with_shards(shards: usize) -> Self {
        let arity = shard::arity(shards);
        MvStore {
            shards: (0..arity).map(|_| MvShard::default()).collect(),
            mask: arity - 1,
        }
    }

    /// Number of shards the store was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to (stable across runs; see
    /// [`crate::shard`]).
    pub fn shard_of(&self, key: &Key) -> usize {
        shard::index_for(key, self.mask)
    }

    fn shard(&self, key: &Key) -> &MvShard {
        &self.shards[shard::index_for(key, self.mask)]
    }

    /// Installs a new version of `key` (Algorithm 2, `apply(k, val, vc)`).
    ///
    /// Accepts either an owned [`VectorClock`] or an `Arc<VectorClock>`;
    /// multi-key transactions should install every key with a clone of one
    /// shared `Arc` so the clock is stored once.
    pub fn apply(&self, key: Key, value: Value, vc: impl Into<Arc<VectorClock>>, writer: TxnId) {
        let vc = vc.into();
        let shard = self.shard(&key);
        shard.installed.fetch_add(1, Ordering::Relaxed);
        let mut chains = shard.write();
        let chain = chains.entry(key).or_default();
        Arc::make_mut(chain).push(Version { value, vc, writer });
    }

    /// The version chain of `key`, if any version was ever installed.
    ///
    /// The returned handle is a snapshot: the shard lock is released before
    /// this method returns, so walking the chain (Algorithm 6) never blocks
    /// writers — a concurrent `apply` replaces the shard's `Arc` without
    /// touching the handle already returned.
    pub fn chain(&self, key: &Key) -> Option<Arc<VersionChain>> {
        self.shard(key).read().get(key).cloned()
    }

    /// The most recent version of `key` (`k.last`).
    pub fn last(&self, key: &Key) -> Option<Version> {
        self.shard(key)
            .read()
            .get(key)
            .and_then(|c| c.last().cloned())
    }

    /// Entry `i` of the most recent version's commit vector clock
    /// (`k.last.vid[i]`, used by the validation of Algorithm 1 line 29).
    /// Returns 0 when the key has never been written.
    pub fn last_vc_entry(&self, key: &Key, i: usize) -> u64 {
        self.shard(key)
            .read()
            .get(key)
            .and_then(|c| c.last().map(|v| v.vc.get(i)))
            .unwrap_or(0)
    }

    /// Number of keys with at least one version.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Total number of versions ever installed (monotonic counter).
    pub fn installed_versions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.installed.load(Ordering::Relaxed))
            .sum()
    }

    /// Total number of versions currently retained.
    pub fn retained_versions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().values().map(|c| c.len()).sum::<usize>())
            .sum()
    }

    /// Prunes every chain to at most `keep` versions; returns the number of
    /// versions discarded.
    pub fn prune_all(&self, keep: usize) -> usize {
        let mut pruned = 0;
        for shard in self.shards.iter() {
            let mut chains = shard.write();
            for chain in chains.values_mut() {
                if chain.len() > keep {
                    pruned += Arc::make_mut(chain).prune_to(keep);
                }
            }
        }
        pruned
    }

    /// Every key currently present, in unspecified order.
    pub fn keys(&self) -> Vec<Key> {
        self.shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Snapshot of the store's counters, including the per-shard breakdown.
    ///
    /// Each shard is visited once, with its gauges and counters read under
    /// the same guard, so `retained_versions` is always consistent with the
    /// per-shard breakdown in the returned snapshot.
    pub fn stats(&self) -> MvStoreStats {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut retained_versions = 0;
        for s in self.shards.iter() {
            let chains = s.read();
            retained_versions += chains.values().map(|c| c.len()).sum::<usize>();
            per_shard.push(MvShardStats {
                keys: chains.len(),
                installed: s.installed.load(Ordering::Relaxed),
                contended: s.chains.contended(),
            });
        }
        MvStoreStats {
            installed_versions: per_shard.iter().map(|s| s.installed).sum(),
            retained_versions,
            contended: per_shard.iter().map(|s| s.contended).sum(),
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_vclock::NodeId;

    fn vc(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    #[test]
    fn apply_makes_latest_visible() {
        let store = MvStore::new();
        let k = Key::new("x");
        store.apply(k.clone(), Value::from("v1"), vc(&[1, 0]), txn(1));
        store.apply(k.clone(), Value::from("v2"), vc(&[2, 0]), txn(2));
        assert_eq!(store.last(&k).unwrap().value, Value::from("v2"));
        assert_eq!(store.last_vc_entry(&k, 0), 2);
        assert_eq!(store.chain(&k).unwrap().len(), 2);
        assert_eq!(store.key_count(), 1);
        assert_eq!(store.installed_versions(), 2);
    }

    #[test]
    fn missing_key_has_no_versions() {
        let store = MvStore::new();
        let k = Key::new("missing");
        assert!(store.last(&k).is_none());
        assert_eq!(store.last_vc_entry(&k, 0), 0);
        assert!(store.chain(&k).is_none());
    }

    #[test]
    fn newest_first_walk_matches_algorithm_6() {
        let mut chain = VersionChain::new();
        for i in 1..=3 {
            chain.push(Version {
                value: Value::from_u64(i),
                vc: vc(&[i, 0]).into(),
                writer: txn(i),
            });
        }
        let seen: Vec<u64> = chain.iter_newest_first().map(|v| v.vc.get(0)).collect();
        assert_eq!(seen, vec![3, 2, 1]);
        // Select the newest version whose vc[0] <= 2, as a visibility bound
        // walk would.
        let ver = chain.latest_matching(|v| v.vc.get(0) <= 2).unwrap();
        assert_eq!(ver.vc.get(0), 2);
        assert!(chain.latest_matching(|v| v.vc.get(0) > 9).is_none());
    }

    #[test]
    fn pruning_keeps_the_newest_versions() {
        let store = MvStore::new();
        let k = Key::new("x");
        for i in 1..=10 {
            store.apply(k.clone(), Value::from_u64(i), vc(&[i]), txn(i));
        }
        let pruned = store.prune_all(3);
        assert_eq!(pruned, 7);
        assert_eq!(store.retained_versions(), 3);
        let chain = store.chain(&k).unwrap();
        let newest: Vec<u64> = chain.iter().map(|v| v.value.to_u64().unwrap()).collect();
        assert_eq!(newest, vec![8, 9, 10]);
        // Pruning below the retained count is a no-op.
        let mut chain = (*chain).clone();
        assert_eq!(chain.prune_to(5), 0);
    }

    #[test]
    fn keys_iterator_lists_written_keys() {
        let store = MvStore::new();
        store.apply(Key::new("a"), Value::from("1"), vc(&[1]), txn(1));
        store.apply(Key::new("b"), Value::from("2"), vc(&[2]), txn(2));
        let mut keys: Vec<String> = store.keys().iter().map(|k| k.to_string()).collect();
        keys.sort();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn shard_arity_is_fixed_and_routing_stable() {
        let store = MvStore::with_shards(5);
        assert_eq!(store.shard_count(), 8, "arity rounds up to a power of two");
        let k = Key::new("route-me");
        let shard = store.shard_of(&k);
        store.apply(k.clone(), Value::from("v"), vc(&[1]), txn(1));
        let stats = store.stats();
        assert_eq!(stats.per_shard.len(), 8);
        assert_eq!(stats.per_shard[shard].keys, 1, "key must land on its shard");
        assert_eq!(stats.per_shard[shard].installed, 1);
        assert_eq!(stats.installed_versions, 1);
    }

    #[test]
    fn chain_snapshot_survives_concurrent_apply() {
        let store = MvStore::with_shards(1);
        let k = Key::new("x");
        store.apply(k.clone(), Value::from_u64(1), vc(&[1]), txn(1));
        let snapshot = store.chain(&k).unwrap();
        store.apply(k.clone(), Value::from_u64(2), vc(&[2]), txn(2));
        // The handle taken before the second apply still sees one version;
        // a fresh lookup sees both (copy-on-write chains).
        assert_eq!(snapshot.len(), 1);
        assert_eq!(store.chain(&k).unwrap().len(), 2);
    }

    #[test]
    fn stats_diff_subtracts_counters_and_keeps_gauges() {
        let store = MvStore::with_shards(2);
        let k = Key::new("x");
        store.apply(k.clone(), Value::from_u64(1), vc(&[1]), txn(1));
        let before = store.stats();
        store.apply(k.clone(), Value::from_u64(2), vc(&[2]), txn(2));
        let window = store.stats().diff(&before);
        assert_eq!(window.installed_versions, 1);
        assert_eq!(window.retained_versions, 2, "gauge keeps the later value");
    }

    #[test]
    fn stats_merge_sums_nodes() {
        let a = MvStore::with_shards(2);
        let b = MvStore::with_shards(2);
        a.apply(Key::new("x"), Value::from_u64(1), vc(&[1]), txn(1));
        b.apply(Key::new("y"), Value::from_u64(2), vc(&[2]), txn(2));
        let mut total = a.stats();
        total.merge(&b.stats());
        assert_eq!(total.installed_versions, 2);
        assert_eq!(total.retained_versions, 2);
    }
}
