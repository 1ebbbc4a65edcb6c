//! The two-phase-commit participant the lock-based baselines share.
//!
//! 2PC and Walter prepare and decide alike: a prepare claims its
//! transaction, locks the keys this node stores, re-checks that no decide
//! overtook it, validates and is recorded; a decide tombstones the
//! transaction, installs or discards what was prepared and releases the
//! locks. [`Participant`] does both once. A protocol supplies its
//! validation and its install as closures, and keeps its own state `S`
//! under the same ledger lock.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_obs::{ObsHub, Phase};
use sss_storage::{
    Key, LockKind, LockTable, LockTableStats, RecentTxnSet, ReplicaMap, TxnId, Value,
};
use sss_vclock::NodeId;

use crate::cluster::BaselineConfig;

/// Lock-acquisition timeout of a prepare (1ms in the paper's evaluation, as
/// for SSS).
const LOCK_TIMEOUT: Duration = Duration::from_millis(1);

/// A participant's answer to a prepare: whether it votes to commit, and what
/// it proposes with the vote (`()` for 2PC, a vector clock for Walter).
#[derive(Debug, Clone)]
pub struct Vote<V> {
    pub(crate) from: NodeId,
    pub(crate) ok: bool,
    pub(crate) proposed: V,
}

/// The prepare/decide state of one node, behind one lock.
struct Ledger<S> {
    /// Transactions a prepare has claimed and no decide has cleared yet:
    /// `None` while the claiming copy acquires locks (or after it refused),
    /// the local writes once it voted yes.
    prepared: HashMap<TxnId, Option<Vec<(Key, Value)>>>,
    /// Transactions whose decide has been processed here. The
    /// high-priority decide can overtake its lower-priority prepare in the
    /// mailbox; a late prepare for a decided transaction must not keep
    /// locks, or they would never be released and every later transaction
    /// touching those keys would abort forever.
    decided: RecentTxnSet,
    /// The protocol's own state, read and written by its closures.
    state: S,
}

/// The server half of two-phase commit on one node of a lock-based
/// baseline.
pub(crate) struct Participant<S> {
    id: NodeId,
    replicas: ReplicaMap,
    locks: LockTable,
    obs: Option<Arc<ObsHub>>,
    ledger: Mutex<Ledger<S>>,
}

impl<S> Participant<S> {
    /// The participant of node `id`, starting from the protocol state
    /// `state`.
    pub(crate) fn new(
        id: NodeId,
        config: &BaselineConfig,
        placement: &ReplicaMap,
        state: S,
    ) -> Self {
        Participant {
            id,
            replicas: placement.clone(),
            locks: LockTable::new(),
            obs: config.observability.clone(),
            ledger: Mutex::new(Ledger {
                prepared: HashMap::new(),
                decided: RecentTxnSet::new(1 << 16),
                state,
            }),
        }
    }

    /// The node this participant runs on.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The entries of `pairs` whose key this node stores.
    pub(crate) fn local<T>(&self, pairs: Vec<(Key, T)>) -> Vec<(Key, T)> {
        pairs
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect()
    }

    /// Runs `f` on the protocol state, under the ledger lock.
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.ledger.lock().state)
    }

    /// The lock table's counters.
    pub(crate) fn lock_stats(&self) -> LockTableStats {
        self.locks.stats()
    }

    /// Prepares `txn`: write-locks `local_writes` and read-locks
    /// `local_read_keys`, then asks `validate` for the vote. `validate` runs
    /// under the ledger lock with the locks held, sees the local writes, and
    /// returns what a yes (`Ok`) or a no (`Err`) vote proposes; `refused`
    /// makes the proposal of a no vote the protocol did not decide on (the
    /// transaction was decided, or a lock timed out).
    ///
    /// `None` means no vote is sent: this is a duplicate of a prepare this
    /// node already claimed, whose first copy votes (a second vote could
    /// crowd a distinct one out of the coordinator's bounded reply
    /// channel). The claim is taken before any lock, because locks are
    /// reentrant per transaction: a second copy acquiring alongside the
    /// first would alias its locks, and its timeout would release the ones
    /// the first copy holds.
    pub(crate) fn prepare<'a, V>(
        &self,
        txn: TxnId,
        local_writes: Vec<(Key, Value)>,
        local_read_keys: impl IntoIterator<Item = &'a Key>,
        refused: impl FnOnce() -> V,
        validate: impl FnOnce(&mut S, &[(Key, Value)]) -> Result<V, V>,
    ) -> Option<Vote<V>> {
        {
            let mut ledger = self.ledger.lock();
            // The coordinator already decided (an abort decide overtaking
            // this prepare): vote no without acquiring anything.
            if ledger.decided.contains(&txn) {
                return Some(self.vote(false, refused()));
            }
            if ledger.prepared.contains_key(&txn) {
                return None;
            }
            ledger.prepared.insert(txn, None);
        }
        let requests = local_writes
            .iter()
            .map(|(k, _)| (k, LockKind::Exclusive))
            .chain(local_read_keys.into_iter().map(|k| (k, LockKind::Shared)));
        let lock_started = self.obs.as_ref().map(|_| sss_vclock::runtime::now());
        let acquired = self.locks.acquire_many(txn, requests, LOCK_TIMEOUT);
        if let (Some(hub), Some(started)) = (self.obs.as_ref(), lock_started) {
            hub.record_server_span(self.id.index(), Phase::LockAcquire, started);
        }
        if !acquired {
            return Some(self.vote(false, refused()));
        }
        let mut ledger = self.ledger.lock();
        // A decide processed while the locks were being acquired has
        // already released them (or never will): roll back instead of
        // leaving locked keys behind.
        let verdict = if ledger.decided.contains(&txn) {
            Err(refused())
        } else {
            validate(&mut ledger.state, &local_writes)
        };
        match verdict {
            Ok(proposed) => {
                ledger.prepared.insert(txn, Some(local_writes));
                Some(self.vote(true, proposed))
            }
            Err(proposed) => {
                drop(ledger);
                self.locks.release_all(txn);
                Some(self.vote(false, proposed))
            }
        }
    }

    /// Decides `txn`: on commit, `install` receives the protocol state and
    /// the writes this node prepared (if it voted yes); either way the
    /// transaction's locks are released. Returns `true` for the first copy
    /// of the decide, so a protocol acknowledges it only once.
    pub(crate) fn decide(
        &self,
        txn: TxnId,
        outcome: bool,
        install: impl FnOnce(&mut S, Vec<(Key, Value)>),
    ) -> bool {
        let first_copy = {
            let mut ledger = self.ledger.lock();
            // Tombstone before clearing the claim, so a prepare racing with
            // this decide observes the decision however the two interleave.
            let first_copy = ledger.decided.insert(txn);
            if let Some(Some(writes)) = ledger.prepared.remove(&txn) {
                if outcome {
                    install(&mut ledger.state, writes);
                }
            }
            first_copy
        };
        self.locks.release_all(txn);
        first_copy
    }

    fn vote<V>(&self, ok: bool, proposed: V) -> Vote<V> {
        Vote {
            from: self.id,
            ok,
            proposed,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sss_net::{reply_channel, Priority, ReplySender, Transport};
    use sss_sim::SimRuntime;
    use sss_storage::{Key, TxnId, Value};
    use sss_vclock::{NodeId, VectorClock};

    use super::Vote;
    use crate::cluster::{BaselineCluster, BaselineConfig, Protocol, RPC_TIMEOUT};
    use crate::twopc::{TwoPc, TwoPcMessage};
    use crate::walter::{Walter, WalterMessage};

    /// In virtual time: a first transaction prepares a write of one key and
    /// keeps its lock (no decide follows), then two copies of a second
    /// transaction's prepare of the same key arrive at the same instant.
    /// Returns the votes the second transaction received.
    fn votes_on_a_duplicated_prepare<P: Protocol, V: Send + 'static>(
        prepare: fn(TxnId, Key, ReplySender<Vote<V>>) -> P::Message,
    ) -> Vec<Vote<V>> {
        let sim = SimRuntime::new(1);
        let cluster = BaselineCluster::<P>::start(BaselineConfig {
            replication: 1,
            scheduler: Some(sim.handle()),
            ..BaselineConfig::new(2)
        });
        let shared = Arc::clone(&cluster.shared);
        let votes = sim.block_on("driver", move || {
            let key = Key::new("contended");
            let target = shared.placement.primary(&key);
            let send = |msg: P::Message| {
                shared
                    .host
                    .transport()
                    .send(NodeId(1), target, msg, Priority::Normal)
                    .unwrap();
            };
            let (reply, rx) = reply_channel(1);
            send(prepare(TxnId::new(NodeId(1), 0), key.clone(), reply));
            let holder = rx.recv_timeout(RPC_TIMEOUT).expect("the holder votes");
            assert!(holder.ok, "the holder's prepare locks the key");

            let (reply, rx) = reply_channel(2);
            let duplicated = prepare(TxnId::new(NodeId(1), 1), key, reply);
            send(duplicated.clone());
            send(duplicated);
            std::iter::from_fn(|| rx.recv_timeout(RPC_TIMEOUT)).collect()
        });
        sim.wait_quiescent();
        cluster.shutdown();
        votes
    }

    /// Locks are reentrant per transaction, so a second copy of a prepare
    /// that reached the lock table would share the first copy's locks, and
    /// its lock timeout would release them. The claim taken before locking
    /// drops the copy instead: the transaction gets exactly one vote, a
    /// refusal (the holder's lock outlasts the lock timeout).
    #[test]
    fn a_duplicate_prepare_never_reaches_the_lock_table() {
        let twopc =
            votes_on_a_duplicated_prepare::<TwoPc, ()>(|txn, key, reply| TwoPcMessage::Prepare {
                txn,
                read_versions: vec![],
                write_set: vec![(key, Value::from_u64(1))],
                reply,
            });
        assert_eq!(twopc.len(), 1, "2PC: one vote per prepare");
        assert!(!twopc[0].ok, "2PC: the key is held");

        let walter = votes_on_a_duplicated_prepare::<Walter, VectorClock>(|txn, key, reply| {
            WalterMessage::Prepare {
                txn,
                snapshot: VectorClock::new(2),
                write_set: vec![(key, Value::from_u64(1))],
                reply,
            }
        });
        assert_eq!(walter.len(), 1, "Walter: one vote per prepare");
        assert!(!walter[0].ok, "Walter: the key is held");
    }
}
