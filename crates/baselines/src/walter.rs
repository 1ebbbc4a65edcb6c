//! A Walter-style Parallel Snapshot Isolation (PSI) engine.
//!
//! Walter (Sovran et al., SOSP 2011) is included in the paper's evaluation
//! because, like SSS, it synchronizes nodes with vector clocks — but it only
//! provides PSI, "a weaker isolation level than external consistency and
//! even serializability" (§V). The engine below captures the properties the
//! comparison relies on:
//!
//! * multi-version storage stamped with vector clocks,
//! * transactions read from the snapshot defined by their start vector
//!   clock; read-only transactions never validate, never wait and never
//!   abort,
//! * update transactions detect only write-write conflicts
//!   (first-committer-wins on the written keys) through a lightweight
//!   prepare/decide round — there is no read validation and no
//!   client-response delay, which is exactly why Walter outperforms SSS
//!   while offering weaker guarantees (long forks are possible).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sss_net::{reply_channel, Envelope, Gather, NodeService, Priority, ReplySender, TransportExt};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{
    Key, LockKind, LockTable, MvStore, RecentTxnSet, ReplicaMap, StorageStats, TxnId, Value,
};
use sss_vclock::{NodeId, VectorClock};

use crate::cluster::{
    BaselineCluster, BaselineConfig, BaselineSession, Observed, Protocol, LOCK_TIMEOUT, RPC_TIMEOUT,
};

#[derive(Debug, Clone)]
pub struct VoteReply {
    from: NodeId,
    ok: bool,
    proposed: VectorClock,
}

/// The Walter wire protocol.
#[derive(Debug, Clone)]
pub enum WalterMessage {
    Read {
        key: Key,
        snapshot: VectorClock,
        reply: ReplySender<Option<Value>>,
    },
    Prepare {
        txn: TxnId,
        snapshot: VectorClock,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    },
    Decide {
        txn: TxnId,
        commit_vc: VectorClock,
        outcome: bool,
    },
}

impl WalterMessage {
    fn kind_index(&self) -> usize {
        match self {
            WalterMessage::Read { .. } => 0,
            WalterMessage::Prepare { .. } => 1,
            WalterMessage::Decide { .. } => 2,
        }
    }
}

#[derive(Debug)]
struct PreparedTxn {
    local_writes: Vec<(Key, Value)>,
}

/// The server side of one Walter node.
pub struct WalterNode {
    id: NodeId,
    replicas: ReplicaMap,
    state: Mutex<WalterNodeState>,
    /// Sharded and internally synchronized, held *outside* the state mutex:
    /// snapshot reads walk version chains without serializing on the node's
    /// protocol state, and commit-time installs only take the written key's
    /// shard lock.
    store: MvStore,
    locks: LockTable,
    obs: Option<Arc<ObsHub>>,
}

struct WalterNodeState {
    node_vc: VectorClock,
    prepared: HashMap<TxnId, PreparedTxn>,
    /// Transactions whose `Decide` has been processed here. A
    /// high-priority decide can overtake its lower-priority `Prepare` in
    /// the mailbox; a late prepare for a decided transaction must not
    /// keep locks, or they would never be released (see the 2PC baseline
    /// for the same race).
    decided: RecentTxnSet,
}

impl WalterNode {
    fn handle_read(&self, key: Key, snapshot: VectorClock, reply: ReplySender<Option<Value>>) {
        // PSI visibility: the newest version whose commit vector clock is
        // contained in the reader's start snapshot. No protocol-state lock
        // is needed: every version inside the snapshot was installed before
        // the snapshot's clock was published (decide applies writes before
        // merging `node_vc`), and the chain handle is an immutable
        // copy-on-write snapshot.
        let value = self.store.chain(&key).and_then(|chain| {
            chain
                .latest_matching(|v| v.vc.le(&snapshot))
                .map(|v| v.value.clone())
        });
        reply.send(value);
    }

    fn handle_prepare(
        &self,
        txn: TxnId,
        snapshot: VectorClock,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    ) {
        // The coordinator may already have decided (an abort decide
        // overtaking this prepare): vote no without acquiring anything.
        // Duplicate deliveries of a prepare already being processed are
        // dropped without a second vote (the original copy's vote is
        // guaranteed to arrive, and extra votes can crowd distinct ones out
        // of the coordinator's bounded reply channel).
        {
            let state = self.state.lock();
            if state.prepared.contains_key(&txn) {
                return;
            }
            if state.decided.contains(&txn) {
                drop(state);
                reply.send(VoteReply {
                    from: self.id,
                    ok: false,
                    proposed: snapshot,
                });
                return;
            }
        }
        let local_writes: Vec<(Key, Value)> = write_set
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect();
        let lock_requests = local_writes.iter().map(|(k, _)| (k, LockKind::Exclusive));
        let lock_started = self.obs.as_ref().map(|_| sss_vclock::runtime::now());
        let acquired = self.locks.acquire_many(txn, lock_requests, LOCK_TIMEOUT);
        if let (Some(hub), Some(started)) = (self.obs.as_ref(), lock_started) {
            hub.record_server_span(self.id.index(), Phase::LockAcquire, started);
        }
        if !acquired {
            let snapshot_out = snapshot.clone();
            reply.send(VoteReply {
                from: self.id,
                ok: false,
                proposed: snapshot_out,
            });
            return;
        }
        let mut state = self.state.lock();
        // First-committer-wins: abort if any written key already has a
        // version outside the transaction's start snapshot. The exclusive
        // locks acquired above pin the written keys' latest versions.
        let conflict = local_writes.iter().any(|(k, _)| {
            self.store
                .last(k)
                .map(|v| !v.vc.le(&snapshot))
                .unwrap_or(false)
        });
        if conflict {
            // The refusal carries this node's clock, which covers the
            // version that won (`handle_decide` installs before it merges):
            // the loser's next snapshot must include it, or a client whose
            // node hears of the winner from nobody else retries from the
            // same stale snapshot forever.
            let proposed = state.node_vc.clone();
            drop(state);
            self.locks.release_all(txn);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
                proposed,
            });
            return;
        }
        // Re-check under the state lock (the decide also runs under it):
        // a decide processed while we were acquiring key locks has already
        // released them, so the prepare must roll back instead of leaving
        // locked keys behind. A duplicate that raced past the entry check
        // is dropped before it can double-prepare — *without* releasing:
        // the lock table is reentrant per transaction, so the duplicate's
        // acquisition aliased the original's locks, which must stay held
        // until the decide.
        if state.prepared.contains_key(&txn) {
            return;
        }
        if state.decided.contains(&txn) {
            drop(state);
            self.locks.release_all(txn);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
                proposed: snapshot,
            });
            return;
        }
        let i = self.id.index();
        state.node_vc.increment(i);
        let proposed = state.node_vc.clone();
        state.prepared.insert(txn, PreparedTxn { local_writes });
        drop(state);
        reply.send(VoteReply {
            from: self.id,
            ok: true,
            proposed,
        });
    }

    fn handle_decide(&self, txn: TxnId, commit_vc: VectorClock, outcome: bool) {
        let mut state = self.state.lock();
        state.decided.insert(txn);
        if let Some(prep) = state.prepared.remove(&txn) {
            if outcome {
                // Install the versions *before* merging `node_vc` (still
                // under the state lock): a snapshot that covers `commit_vc`
                // can only be taken after the merge, by which point every
                // version it admits is already in the store.
                // One shared clock for every version this transaction
                // installs.
                let shared_vc = std::sync::Arc::new(commit_vc.clone());
                for (key, value) in prep.local_writes {
                    self.store
                        .apply(key, value, std::sync::Arc::clone(&shared_vc), txn);
                }
                state.node_vc.merge(&commit_vc);
            }
        }
        drop(state);
        self.locks.release_all(txn);
    }

    fn snapshot(&self) -> VectorClock {
        self.state.lock().node_vc.clone()
    }

    /// Folds a commit vector clock observed by a colocated client into the
    /// node's knowledge, so later transactions started here include it in
    /// their snapshot (Walter's background propagation, collapsed to the
    /// synchronous paths we exercise).
    fn observe(&self, vc: &VectorClock) {
        self.state.lock().node_vc.merge(vc);
    }
}

impl NodeService<WalterMessage> for WalterNode {
    fn handle(&self, envelope: Envelope<WalterMessage>) {
        match envelope.payload {
            WalterMessage::Read {
                key,
                snapshot,
                reply,
            } => self.handle_read(key, snapshot, reply),
            WalterMessage::Prepare {
                txn,
                snapshot,
                write_set,
                reply,
            } => self.handle_prepare(txn, snapshot, write_set, reply),
            WalterMessage::Decide {
                txn,
                commit_vc,
                outcome,
            } => self.handle_decide(txn, commit_vc, outcome),
        }
    }
}

/// The Walter-style PSI protocol (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Walter;

/// A running Walter-style PSI cluster.
pub type WalterCluster = BaselineCluster<Walter>;

impl Protocol for Walter {
    const NAME: &'static str = "Walter";
    type Message = WalterMessage;
    type Node = WalterNode;

    fn kind_index(message: &WalterMessage) -> usize {
        message.kind_index()
    }

    fn node(id: NodeId, config: &BaselineConfig, placement: &ReplicaMap) -> WalterNode {
        WalterNode {
            id,
            replicas: placement.clone(),
            state: Mutex::new(WalterNodeState {
                node_vc: VectorClock::new(config.nodes),
                prepared: HashMap::new(),
                decided: RecentTxnSet::new(1 << 16),
            }),
            store: MvStore::new(),
            locks: LockTable::new(),
            obs: config.observability.clone(),
        }
    }

    fn storage_stats(node: &WalterNode) -> StorageStats {
        StorageStats {
            mv: Some(node.store.stats()),
            sv: None,
            locks: Some(node.locks.stats()),
        }
    }

    /// Reads `read_keys` from the start snapshot, then commits `writes` if
    /// no write-write conflict occurred. Phase spans open at the read /
    /// prepare / decide boundaries.
    fn update(
        session: &BaselineSession<Walter>,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        mut trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        let snapshot = session.local().snapshot();
        let observed = read_all(session, read_keys, &snapshot, trace.as_deref_mut())?;
        if writes.is_empty() {
            return Some(observed);
        }
        let txn = session.next_txn();
        let participants = session
            .placement()
            .replicas_of_all(writes.iter().map(|(k, _)| k));
        let (reply, rx) = reply_channel(participants.len());
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Prepare);
        }
        let prepare = WalterMessage::Prepare {
            txn,
            snapshot: snapshot.clone(),
            write_set: writes.to_vec(),
            reply,
        };
        let _ = session.transport().multicast(
            session.node(),
            participants.iter().copied(),
            prepare,
            Priority::Normal,
        );
        let mut commit_vc = snapshot;
        let votes = rx.gather(
            participants.len(),
            RPC_TIMEOUT,
            |vote| Some(vote.from),
            |vote| {
                if vote.ok {
                    commit_vc.merge(&vote.proposed);
                } else {
                    session.local().observe(&vote.proposed);
                }
                vote.ok
            },
        );
        let ok = votes == Gather::Complete;
        if let Some(trace) = trace {
            trace.enter(Phase::Decide);
        }
        let decide = WalterMessage::Decide {
            txn,
            commit_vc: commit_vc.clone(),
            outcome: ok,
        };
        let _ = session.transport().multicast(
            session.node(),
            participants.iter().copied(),
            decide,
            Priority::High,
        );
        if !ok {
            return None;
        }
        // The client observed its own commit: make it visible to the
        // snapshots of later transactions started on this node.
        session.local().observe(&commit_vc);
        Some(observed)
    }

    /// Served from the start snapshot: never validates, never waits, never
    /// aborts (`None` only if the cluster is shutting down and a read timed
    /// out).
    fn read_only(
        session: &BaselineSession<Walter>,
        read_keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        read_all(session, read_keys, &session.local().snapshot(), trace)
    }
}

/// Reads every key at `snapshot` (one `read` span over all of them).
fn read_all(
    session: &BaselineSession<Walter>,
    read_keys: &[Key],
    snapshot: &VectorClock,
    trace: Option<&mut TxnTrace>,
) -> Option<Observed> {
    if !read_keys.is_empty() {
        if let Some(trace) = trace {
            trace.enter(Phase::Read);
        }
    }
    let mut observed = Observed::new();
    for key in read_keys {
        let replicas = session.placement().replicas(key);
        let (reply, rx) = reply_channel(replicas.len());
        let msg = WalterMessage::Read {
            key: key.clone(),
            snapshot: snapshot.clone(),
            reply,
        };
        let _ = session
            .transport()
            .multicast(session.node(), replicas, msg, Priority::Normal);
        observed.insert(key.clone(), rx.recv_timeout(RPC_TIMEOUT)?);
    }
    Some(observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::Transport;

    #[test]
    fn committed_writes_become_visible() {
        let cluster = WalterCluster::start(BaselineConfig::new(3));
        let mut session = cluster.session(0);
        let k = Key::new("x");
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(5))])
            .is_some());
        // A later snapshot (taken on the coordinating node) sees the write.
        let observed = session.read_only(std::slice::from_ref(&k)).unwrap();
        assert_eq!(observed[&k], Some(Value::from_u64(5)));
        cluster.shutdown();
    }

    #[test]
    fn read_only_transactions_never_abort() {
        let cluster = WalterCluster::start(BaselineConfig::new(2));
        let mut session = cluster.session(1);
        for _ in 0..10 {
            assert!(session.read_only(&[Key::new("a"), Key::new("b")]).is_some());
        }
        cluster.shutdown();
    }

    #[test]
    fn write_write_conflicts_use_first_committer_wins() {
        let cluster = WalterCluster::start(BaselineConfig::new(2));
        let mut session = cluster.session(0);
        let k = Key::new("contended");
        // Install an initial version.
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(1))])
            .is_some());

        // A writer whose start snapshot predates a concurrent committed
        // write must abort. Simulate by capturing the snapshot, committing
        // another write, then preparing against the stale snapshot.
        let stale_snapshot = cluster.shared.nodes[0].snapshot();
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(2))])
            .is_some());

        let replicas = cluster.shared.placement.replicas(&k);
        let (reply, rx) = reply_channel(replicas.len());
        let prepare = WalterMessage::Prepare {
            txn: TxnId::new(NodeId(0), 999),
            snapshot: stale_snapshot,
            write_set: vec![(k.clone(), Value::from_u64(3))],
            reply,
        };
        for target in &replicas {
            cluster
                .shared
                .host
                .transport()
                .send(NodeId(0), *target, prepare.clone(), Priority::Normal)
                .unwrap();
        }
        let vote = rx.recv().unwrap();
        assert!(!vote.ok, "stale writer must lose first-committer-wins");
        cluster.shutdown();
    }

    /// A writer that loses first-committer-wins learns the winner's clock
    /// from the refusal. Its node is neither a replica of the key nor the
    /// winner's coordinator and no other traffic spreads clocks, so nothing
    /// else would ever move its snapshot past the winning version.
    #[test]
    fn a_refused_writer_catches_up_in_a_quiet_cluster() {
        let cluster = WalterCluster::start(BaselineConfig::new(3));
        let k = (0..)
            .map(|i| Key::new(format!("quiet-{i}")))
            .find(|k| cluster.shared.placement.replicas(k) == [NodeId(0), NodeId(1)])
            .expect("some key lives on nodes 0 and 1 only");
        assert!(cluster
            .session(0)
            .update(&[], &[(k.clone(), Value::from_u64(1))])
            .is_some());
        let mut outsider = cluster.session(2);
        let attempts = (1..=200)
            .find(|_| {
                outsider
                    .update(std::slice::from_ref(&k), &[(k.clone(), Value::from_u64(2))])
                    .is_some()
            })
            .expect("the outsider never commits: every retry reuses its stale snapshot");
        assert_eq!(attempts, 2, "one refusal is enough to catch up");
        cluster.shutdown();
    }
}
