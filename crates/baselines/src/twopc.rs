//! The 2PC-baseline engine.
//!
//! Per the paper (§V): every transaction — including read-only ones —
//! executes like an SSS update transaction: reads return the current value
//! of a single-version store, writes are buffered, and at commit time the
//! transaction locks its read and write sets, validates that no read key was
//! overwritten, and installs its writes through two-phase commit. Read-only
//! transactions can therefore abort, which is the behaviour the paper's
//! scalability comparison hinges on. The protocol is external consistent:
//! a transaction holds its locks until its writes are installed, so its
//! client-visible completion happens after its serialization point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_net::{reply_channel, Envelope, Gather, NodeService, Priority, ReplySender, TransportExt};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{
    Key, LockKind, LockTable, RecentTxnSet, ReplicaMap, StorageStats, SvStore, TxnId, Value,
};
use sss_vclock::NodeId;

use crate::cluster::{
    BaselineCluster, BaselineConfig, BaselineSession, Observed, Protocol, LOCK_TIMEOUT, RPC_TIMEOUT,
};

/// Reply to a read.
#[derive(Debug, Clone)]
pub struct ReadReply {
    value: Option<Value>,
    version: u64,
}

/// Reply to a prepare.
#[derive(Debug, Clone, Copy)]
pub struct VoteReply {
    from: NodeId,
    ok: bool,
}

/// Acknowledgement that a participant processed a commit decide (its local
/// writes are installed and its locks released).
#[derive(Debug, Clone, Copy)]
pub struct DecideAck {
    from: NodeId,
}

/// The 2PC-baseline wire protocol.
#[derive(Debug, Clone)]
pub enum TwoPcMessage {
    Read {
        key: Key,
        reply: ReplySender<ReadReply>,
    },
    Prepare {
        txn: TxnId,
        read_versions: Vec<(Key, u64)>,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    },
    Decide {
        txn: TxnId,
        outcome: bool,
        /// Commit decides are acknowledged so the coordinator can delay the
        /// client response until every participant installed the writes —
        /// the client-visible completion must follow the serialization
        /// point (paper §V). Abort decides carry no reply.
        ack: Option<ReplySender<DecideAck>>,
    },
}

impl TwoPcMessage {
    fn kind_index(&self) -> usize {
        match self {
            TwoPcMessage::Read { .. } => 0,
            TwoPcMessage::Prepare { .. } => 1,
            TwoPcMessage::Decide { .. } => 2,
        }
    }
}

#[derive(Debug)]
struct PreparedTxn {
    local_writes: Vec<(Key, Value)>,
}

/// The server side of one 2PC-baseline node.
pub struct TwoPcNode {
    id: NodeId,
    replicas: ReplicaMap,
    /// Sharded and internally synchronized — read and written concurrently
    /// by the node's workers without an enclosing lock.
    store: SvStore,
    prepared: Mutex<HashMap<TxnId, PreparedTxn>>,
    /// Transactions whose `Decide` has been processed here. The
    /// high-priority decide can overtake its lower-priority `Prepare` in
    /// the mailbox; a late prepare for a decided transaction must not
    /// (re-)acquire locks, or they would never be released and every later
    /// transaction touching those keys would abort forever.
    decided: Mutex<RecentTxnSet>,
    locks: LockTable,
    lock_timeout: Duration,
    aborts: AtomicU64,
    commits: AtomicU64,
    obs: Option<Arc<ObsHub>>,
}

impl TwoPcNode {
    fn handle_read(&self, key: Key, reply: ReplySender<ReadReply>) {
        // One sharded read returns the whole cell, so the value/version
        // pair is consistent (it is read under the key's shard lock).
        let cell = self.store.read(&key);
        reply.send(ReadReply {
            version: cell.as_ref().map(|c| c.version).unwrap_or(0),
            value: cell.map(|c| c.value),
        });
    }

    fn handle_prepare(
        &self,
        txn: TxnId,
        read_versions: Vec<(Key, u64)>,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    ) {
        // The coordinator may already have decided (an abort decide
        // overtaking this prepare): vote no without acquiring anything.
        if self.decided.lock().contains(&txn) {
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        // Duplicate delivery of a prepare already being processed: drop it
        // without a second vote (the original copy's vote is guaranteed to
        // arrive, and extra votes can crowd distinct ones out of the
        // coordinator's bounded reply channel).
        if self.prepared.lock().contains_key(&txn) {
            return;
        }
        let local_reads: Vec<(Key, u64)> = read_versions
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect();
        let local_writes: Vec<(Key, Value)> = write_set
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect();
        let requests = local_writes
            .iter()
            .map(|(k, _)| (k, LockKind::Exclusive))
            .chain(local_reads.iter().map(|(k, _)| (k, LockKind::Shared)));
        let lock_started = self.obs.as_ref().map(|_| sss_vclock::runtime::now());
        let acquired = self.locks.acquire_many(txn, requests, self.lock_timeout);
        if let (Some(hub), Some(started)) = (self.obs.as_ref(), lock_started) {
            hub.record_server_span(self.id.index(), Phase::LockAcquire, started);
        }
        if !acquired {
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        // Validation: every locally stored read key must still have the
        // version observed during execution. The shared locks acquired
        // above pin the versions, so per-key sharded reads suffice.
        let valid = local_reads
            .iter()
            .all(|(k, version)| self.store.version(k) == *version);
        if !valid {
            self.locks.release_all(txn);
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        self.prepared
            .lock()
            .insert(txn, PreparedTxn { local_writes });
        // Re-check after publishing the prepared entry: a decide processed
        // between the entry check above and this point has already released
        // (or will never release) our locks, so roll the prepare back
        // instead of leaving locked keys behind.
        if self.decided.lock().contains(&txn) {
            if self.prepared.lock().remove(&txn).is_some() {
                self.locks.release_all(txn);
            }
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        reply.send(VoteReply {
            from: self.id,
            ok: true,
        });
    }

    fn handle_decide(&self, txn: TxnId, outcome: bool, ack: Option<ReplySender<DecideAck>>) {
        // Tombstone before touching the prepared map, so a prepare racing
        // with this decide observes the decision no matter how the two
        // interleave (see `TwoPcNode::decided`).
        let first_copy = self.decided.lock().insert(txn);
        let prepared = self.prepared.lock().remove(&txn);
        if let Some(prep) = prepared {
            if outcome {
                // The exclusive locks held by `txn` serialize these writes
                // against concurrent validation of the same keys.
                for (key, value) in prep.local_writes {
                    self.store.write(key, value, txn);
                }
                self.commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.locks.release_all(txn);
        // Acknowledge only the first delivery: the coordinator's reply
        // channel is bounded by the participant count, and a duplicated
        // decide's extra ack could crowd a distinct participant's ack out
        // of it (same race as the SSS `ConfirmExternal` dedup).
        if first_copy {
            if let Some(ack) = ack {
                ack.send(DecideAck { from: self.id });
            }
        }
    }
}

impl NodeService<TwoPcMessage> for TwoPcNode {
    fn handle(&self, envelope: Envelope<TwoPcMessage>) {
        match envelope.payload {
            TwoPcMessage::Read { key, reply } => self.handle_read(key, reply),
            TwoPcMessage::Prepare {
                txn,
                read_versions,
                write_set,
                reply,
            } => self.handle_prepare(txn, read_versions, write_set, reply),
            TwoPcMessage::Decide { txn, outcome, ack } => self.handle_decide(txn, outcome, ack),
        }
    }
}

/// The 2PC-baseline protocol (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct TwoPc;

/// A running 2PC-baseline cluster.
pub type TwoPcCluster = BaselineCluster<TwoPc>;

impl Protocol for TwoPc {
    const NAME: &'static str = "2PC";
    type Message = TwoPcMessage;
    type Node = TwoPcNode;

    fn kind_index(message: &TwoPcMessage) -> usize {
        message.kind_index()
    }

    fn node(id: NodeId, config: &BaselineConfig, placement: &ReplicaMap) -> TwoPcNode {
        TwoPcNode {
            id,
            replicas: placement.clone(),
            store: SvStore::with_shards(config.storage_shards),
            prepared: Mutex::new(HashMap::new()),
            decided: Mutex::new(RecentTxnSet::new(1 << 16)),
            locks: LockTable::with_shards(config.storage_shards),
            lock_timeout: LOCK_TIMEOUT,
            aborts: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            obs: config.observability.clone(),
        }
    }

    fn storage_stats(node: &TwoPcNode) -> StorageStats {
        StorageStats {
            mv: None,
            sv: Some(node.store.stats()),
            locks: Some(node.locks.stats()),
        }
    }

    /// Reads `read_keys`, then locks, validates and installs through
    /// two-phase commit. Phase spans open at the read / prepare / decide /
    /// install-ack boundaries.
    fn update(
        session: &BaselineSession<TwoPc>,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        mut trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        let txn = session.next_txn();
        let mut observed = Observed::new();
        let mut read_versions = Vec::with_capacity(read_keys.len());
        if !read_keys.is_empty() {
            if let Some(trace) = trace.as_deref_mut() {
                trace.enter(Phase::Read);
            }
        }
        for key in read_keys {
            let (value, version) = read(session, key)?;
            observed.insert(key.clone(), value);
            read_versions.push((key.clone(), version));
        }

        let write_keys = writes.iter().map(|(k, _)| k);
        let participants = session
            .placement()
            .replicas_of_all(read_keys.iter().chain(write_keys));
        if participants.is_empty() {
            return Some(observed);
        }

        let (reply, rx) = reply_channel(participants.len());
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Prepare);
        }
        let prepare = TwoPcMessage::Prepare {
            txn,
            read_versions,
            write_set: writes.to_vec(),
            reply,
        };
        let _ = session.transport().multicast(
            session.node(),
            participants.iter().copied(),
            prepare,
            Priority::Normal,
        );
        let votes = rx.gather(
            participants.len(),
            RPC_TIMEOUT,
            |vote| Some(vote.from),
            |vote| vote.ok,
        );
        // Anything short of every participant voting yes aborts.
        let ok = votes == Gather::Complete;
        // Commit decides are acknowledged: the client is answered only once
        // every participant installed the writes and released its locks, so
        // the client-visible completion follows the serialization point
        // even though the decide itself travels asynchronously. Abort
        // decides are fire-and-forget.
        let (ack_reply, ack_rx) = reply_channel(participants.len());
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Decide);
        }
        let decide = TwoPcMessage::Decide {
            txn,
            outcome: ok,
            ack: ok.then_some(ack_reply),
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
        // A timeout does not change the outcome — the transaction *is*
        // committed — it only stops the client from waiting on a wedged
        // participant forever.
        if let Some(trace) = trace {
            trace.enter(Phase::InstallAck);
        }
        ack_rx.gather(
            participants.len(),
            RPC_TIMEOUT,
            |ack| Some(ack.from),
            |_| true,
        );
        Some(observed)
    }

    /// Read-only transactions validate like updates and therefore may
    /// abort.
    fn read_only(
        session: &BaselineSession<TwoPc>,
        read_keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        Self::update(session, read_keys, &[], trace)
    }
}

/// Reads `key` from its fastest replica: the value and its version.
fn read(session: &BaselineSession<TwoPc>, key: &Key) -> Option<(Option<Value>, u64)> {
    let replicas = session.placement().replicas(key);
    let (reply, rx) = reply_channel(replicas.len());
    let msg = TwoPcMessage::Read {
        key: key.clone(),
        reply,
    };
    let _ = session
        .transport()
        .multicast(session.node(), replicas, msg, Priority::Normal);
    rx.recv_timeout(RPC_TIMEOUT).map(|r| (r.value, r.version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::Transport;

    #[test]
    fn committed_writes_are_visible_to_later_reads() {
        let cluster = TwoPcCluster::start(BaselineConfig::new(3));
        let mut session = cluster.session(0);
        let k = Key::new("x");
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(7))])
            .is_some());
        let observed = session.read_only(std::slice::from_ref(&k));
        assert_eq!(observed.unwrap()[&k], Some(Value::from_u64(7)));
        let applied: u64 = cluster
            .shared
            .nodes
            .iter()
            .map(|n| n.commits.load(Ordering::Relaxed))
            .sum();
        assert!(applied >= 1);
        cluster.shutdown();
    }

    #[test]
    fn conflicting_writer_forces_validation_abort() {
        let cluster = TwoPcCluster::start(BaselineConfig::new(2));
        let mut s0 = cluster.session(0);
        let k = Key::new("hot");
        assert!(s0.update(&[], &[(k.clone(), Value::from_u64(1))]).is_some());

        // A transaction that read version 1 and prepares after a concurrent
        // writer installed version 2 must fail validation. `update` is
        // atomic here, so the stale prepare is sent by hand.
        let stale_version = 1u64;
        let replicas = cluster.shared.placement.replicas(&k);
        let (reply, rx) = reply_channel(replicas.len());
        assert!(s0.update(&[], &[(k.clone(), Value::from_u64(2))]).is_some());
        let prepare = TwoPcMessage::Prepare {
            txn: TxnId::new(NodeId(1), 999),
            read_versions: vec![(k.clone(), stale_version)],
            write_set: vec![],
            reply,
        };
        for target in &replicas {
            cluster
                .shared
                .host
                .transport()
                .send(NodeId(1), *target, prepare.clone(), Priority::Normal)
                .unwrap();
        }
        let vote = rx.recv().unwrap();
        assert!(!vote.ok, "stale read version must fail validation");
        cluster.shutdown();
    }

    #[test]
    fn read_only_transactions_go_through_2pc() {
        let cluster = TwoPcCluster::start(BaselineConfig::new(2));
        let mut session = cluster.session(1);
        let observed = session.read_only(&[Key::new("missing")]);
        assert_eq!(observed.unwrap()[&Key::new("missing")], None);
        cluster.shutdown();
    }
}
