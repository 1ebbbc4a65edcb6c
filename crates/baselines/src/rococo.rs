//! A ROCOCO-style dependency-tracking engine.
//!
//! ROCOCO (Mu et al., OSDI 2014) is "an external consistent two-round
//! protocol where transactions are divided into pieces and dependencies are
//! collected to establish the execution order" (paper §V). The paper's
//! benchmark configures every piece as *deferrable* and disables
//! replication, and observes two behaviours that this reproduction
//! preserves:
//!
//! * update transactions are lock-free and never abort: their pieces are
//!   buffered at the owning server in a first round (collecting the set of
//!   concurrently pending transactions as dependencies) and executed in a
//!   second round once the commit message arrives, in queue order;
//! * read-only transactions are *not* abort-free: they execute a
//!   multi-round protocol that must wait for conflicting in-flight update
//!   transactions to drain and re-validates that the observed versions did
//!   not change between rounds, retrying (and eventually aborting) otherwise
//!   — which is why their cost grows with the number of read keys
//!   (Figure 8).
//!
//! See `DESIGN.md` for the fidelity notes: the reproduction targets the
//! performance profile the paper's comparison relies on rather than a
//! complete re-implementation of ROCOCO's reordering proof.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use parking_lot::Mutex;
use sss_net::{
    reply_channel, Envelope, NodeService, Priority, ReplyReceiver, ReplySender, Transport,
};
use sss_obs::{Phase, TxnTrace};
use sss_storage::{Key, RecentSet, ReplicaMap, StorageStats, SvStore, TxnId, Value};
use sss_vclock::NodeId;

use crate::cluster::{
    BaselineCluster, BaselineConfig, BaselineSession, Observed, Protocol, RPC_TIMEOUT,
};

/// Maximum snapshot-validation rounds a read-only transaction attempts
/// before aborting.
const READ_ONLY_MAX_ROUNDS: usize = 8;

/// Pause between read-only validation rounds while waiting for conflicting
/// update transactions to drain.
const READ_ONLY_BACKOFF: Duration = Duration::from_micros(100);

#[derive(Debug, Clone)]
pub struct DispatchReply {
    /// Transactions already pending on the key (the collected dependencies).
    deps: Vec<TxnId>,
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // carries protocol metadata useful for tracing
pub struct ExecuteReply {
    from: NodeId,
    txn: TxnId,
}

#[derive(Debug, Clone)]
pub struct SnapshotReply {
    value: Option<Value>,
    version: u64,
    /// Number of dispatched-but-not-yet-executed pieces on the key.
    pending: usize,
}

/// The ROCOCO wire protocol.
#[derive(Debug, Clone)]
pub enum RococoMessage {
    /// Round 1 of an update transaction: buffer the piece, return deps.
    Dispatch {
        txn: TxnId,
        key: Key,
        value: Value,
        reply: ReplySender<DispatchReply>,
    },
    /// Round 2 of an update transaction: the piece may execute.
    Commit {
        txn: TxnId,
        key: Key,
        reply: ReplySender<ExecuteReply>,
    },
    /// One round of a read-only transaction: value + version + pending info.
    SnapshotRead {
        key: Key,
        reply: ReplySender<SnapshotReply>,
    },
}

impl RococoMessage {
    fn kind_index(&self) -> usize {
        match self {
            RococoMessage::Dispatch { .. } => 0,
            RococoMessage::Commit { .. } => 1,
            RococoMessage::SnapshotRead { .. } => 2,
        }
    }
}

#[derive(Debug)]
struct PendingPiece {
    txn: TxnId,
    value: Value,
    committed: bool,
    reply: Option<ReplySender<ExecuteReply>>,
}

#[derive(Debug)]
struct RococoNodeState {
    store: SvStore,
    queues: HashMap<Key, VecDeque<PendingPiece>>,
    /// Every `(txn, key)` piece this node has accepted a dispatch for. The
    /// network may duplicate messages; re-enqueuing a piece would leave a
    /// phantom entry that no `Commit` resolves, wedging the key's queue.
    dispatched: RecentSet<(TxnId, Key)>,
}

impl RococoNodeState {
    fn new() -> Self {
        RococoNodeState {
            store: SvStore::new(),
            queues: HashMap::new(),
            dispatched: RecentSet::new(1 << 16),
        }
    }
}

/// The server side of one ROCOCO node.
pub struct RococoNode {
    id: NodeId,
    state: Mutex<RococoNodeState>,
}

impl RococoNode {
    fn handle_dispatch(
        &self,
        txn: TxnId,
        key: Key,
        value: Value,
        reply: ReplySender<DispatchReply>,
    ) {
        let mut state = self.state.lock();
        // Duplicate delivery (concurrent or after the piece already
        // executed): drop it without enqueuing or replying — the original
        // copy's reply is guaranteed to arrive, and a re-enqueued piece
        // would never be committed again.
        if !state.dispatched.insert((txn, key.clone())) {
            return;
        }
        let queue = state.queues.entry(key).or_default();
        let deps: Vec<TxnId> = queue.iter().map(|p| p.txn).collect();
        queue.push_back(PendingPiece {
            txn,
            value,
            committed: false,
            reply: None,
        });
        drop(state);
        reply.send(DispatchReply { deps });
    }

    fn handle_commit(&self, txn: TxnId, key: Key, reply: ReplySender<ExecuteReply>) {
        let mut state = self.state.lock();
        if let Some(queue) = state.queues.get_mut(&key) {
            if let Some(piece) = queue.iter_mut().find(|p| p.txn == txn) {
                piece.committed = true;
                piece.reply = Some(reply);
            }
        }
        self.drain_queue(&mut state, &key);
    }

    /// Executes committed pieces at the head of the key's queue, in
    /// dispatch order (deferrable pieces execute once their transaction's
    /// commit decision is known and every earlier-dispatched piece has
    /// executed).
    fn drain_queue(&self, state: &mut RococoNodeState, key: &Key) {
        loop {
            let Some(queue) = state.queues.get_mut(key) else {
                return;
            };
            let ready = queue.front().map(|p| p.committed).unwrap_or(false);
            if !ready {
                if queue.is_empty() {
                    state.queues.remove(key);
                }
                return;
            }
            let piece = queue.pop_front().expect("checked non-empty");
            state.store.write(key.clone(), piece.value, piece.txn);
            if let Some(reply) = piece.reply {
                reply.send(ExecuteReply {
                    from: self.id,
                    txn: piece.txn,
                });
            }
        }
    }

    fn handle_snapshot_read(&self, key: Key, reply: ReplySender<SnapshotReply>) {
        let state = self.state.lock();
        let pending = state.queues.get(&key).map(|q| q.len()).unwrap_or(0);
        reply.send(SnapshotReply {
            value: state.store.read(&key).map(|c| c.value.clone()),
            version: state.store.version(&key),
            pending,
        });
    }
}

impl NodeService<RococoMessage> for RococoNode {
    fn handle(&self, envelope: Envelope<RococoMessage>) {
        match envelope.payload {
            RococoMessage::Dispatch {
                txn,
                key,
                value,
                reply,
            } => self.handle_dispatch(txn, key, value, reply),
            RococoMessage::Commit { txn, key, reply } => self.handle_commit(txn, key, reply),
            RococoMessage::SnapshotRead { key, reply } => self.handle_snapshot_read(key, reply),
        }
    }
}

/// The ROCOCO-style protocol (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Rococo;

/// A running ROCOCO-style cluster (replication disabled, as in the paper's
/// comparison).
pub type RococoCluster = BaselineCluster<Rococo>;

impl Protocol for Rococo {
    const NAME: &'static str = "ROCOCO";
    type Message = RococoMessage;
    type Node = RococoNode;

    fn kind_index(message: &RococoMessage) -> usize {
        message.kind_index()
    }

    fn placement(config: &BaselineConfig) -> ReplicaMap {
        ReplicaMap::new(config.nodes, 1)
    }

    fn node(id: NodeId, _config: &BaselineConfig, _placement: &ReplicaMap) -> RococoNode {
        RococoNode {
            id,
            state: Mutex::new(RococoNodeState::new()),
        }
    }

    /// ROCOCO runs no lock table — update pieces are lock-free by design.
    fn storage_stats(node: &RococoNode) -> StorageStats {
        StorageStats {
            mv: None,
            sv: Some(node.state.lock().store.stats()),
            locks: None,
        }
    }

    /// Writes `writes`, one deferrable piece per key: one `dispatch` span
    /// over round 1 and one `execute` span over round 2. Update pieces never
    /// read (the observations are all unattributed) and never abort: `None`
    /// only if the cluster is shutting down.
    fn update(
        session: &BaselineSession<Rococo>,
        _read_keys: &[Key],
        writes: &[(Key, Value)],
        mut trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        if writes.is_empty() {
            return Some(Observed::new());
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Dispatch);
        }
        let txn = session.next_txn();
        // Round 1: dispatch every piece and collect dependencies.
        let (dispatch_reply, dispatch_rx) = reply_channel(writes.len());
        for (key, value) in writes {
            let msg = RococoMessage::Dispatch {
                txn,
                key: key.clone(),
                value: value.clone(),
                reply: dispatch_reply.clone(),
            };
            send_to_owner(session, key, msg, Priority::Normal)?;
        }
        let _deps: Vec<TxnId> = recv_all(&dispatch_rx, writes.len())?
            .into_iter()
            .flat_map(|reply| reply.deps)
            .collect();

        // Round 2: commit every piece; the servers execute them in dispatch
        // order, which realizes the aggregated dependency order for
        // deferrable pieces.
        if let Some(trace) = trace {
            trace.enter(Phase::Execute);
        }
        let (exec_reply, exec_rx) = reply_channel(writes.len());
        for (key, _) in writes {
            let msg = RococoMessage::Commit {
                txn,
                key: key.clone(),
                reply: exec_reply.clone(),
            };
            send_to_owner(session, key, msg, Priority::High)?;
        }
        recv_all(&exec_rx, writes.len())?;
        Some(Observed::new())
    }

    /// Repeated rounds of per-key reads (one `read` span over all of them)
    /// until a round observes no pending conflicting pieces and the same
    /// versions as the previous round; `None` if the snapshot could not be
    /// validated within `READ_ONLY_MAX_ROUNDS`.
    fn read_only(
        session: &BaselineSession<Rococo>,
        keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        if !keys.is_empty() {
            if let Some(trace) = trace {
                trace.enter(Phase::Read);
            }
        }
        // The replies do not identify their key (a shared reply channel
        // would interleave them), so issue the reads key by key: this also
        // mirrors ROCOCO's per-piece read-only rounds.
        let mut previous_versions: Option<Vec<u64>> = None;
        for _round in 0..READ_ONLY_MAX_ROUNDS {
            let mut values = Observed::new();
            let mut versions = Vec::with_capacity(keys.len());
            let mut pending_conflicts = false;
            for key in keys {
                let (reply, rx) = reply_channel(1);
                let msg = RococoMessage::SnapshotRead {
                    key: key.clone(),
                    reply,
                };
                send_to_owner(session, key, msg, Priority::Normal)?;
                let reply = rx.recv_timeout(RPC_TIMEOUT)?;
                pending_conflicts |= reply.pending > 0;
                versions.push(reply.version);
                values.insert(key.clone(), reply.value);
            }
            if !pending_conflicts {
                if let Some(prev) = &previous_versions {
                    if *prev == versions {
                        return Some(values);
                    }
                } else if keys.len() <= 1 {
                    // A single-key read is trivially consistent.
                    return Some(values);
                }
            }
            previous_versions = Some(versions);
            // Back off only while pieces are pending: they resolve on their
            // own and re-reading immediately would spin. A bare version
            // mismatch means a concurrent committed write; retrying at once
            // keeps the two-round validation window as short as the reads
            // themselves, which is what bounds livelock under sustained
            // write pressure.
            if pending_conflicts {
                sss_vclock::runtime::sleep(READ_ONLY_BACKOFF);
            }
        }
        None
    }
}

/// Sends `msg` to the node owning `key`; `None` if the cluster is shutting
/// down.
fn send_to_owner(
    session: &BaselineSession<Rococo>,
    key: &Key,
    msg: RococoMessage,
    priority: Priority,
) -> Option<()> {
    let owner = session.placement().primary(key);
    session
        .transport()
        .send(session.node(), owner, msg, priority)
        .ok()
}

/// Waits for `count` replies (one per piece; several may come from the same
/// node) within one [`RPC_TIMEOUT`].
fn recv_all<T>(rx: &ReplyReceiver<T>, count: usize) -> Option<Vec<T>> {
    let deadline = sss_vclock::runtime::now() + RPC_TIMEOUT;
    (0..count)
        .map(|_| rx.recv_timeout(deadline.saturating_duration_since(sss_vclock::runtime::now())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn updates_never_abort_and_become_visible() {
        let cluster = RococoCluster::start(BaselineConfig::new(3));
        let mut session = cluster.session(0);
        let k = Key::new("x");
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(9))])
            .is_some());
        let values = session.read_only(std::slice::from_ref(&k)).unwrap();
        assert_eq!(values[&k], Some(Value::from_u64(9)));
        cluster.shutdown();
    }

    #[test]
    fn multi_key_read_only_requires_stable_versions() {
        let cluster = RococoCluster::start(BaselineConfig::new(2));
        let mut session = cluster.session(0);
        let a = Key::new("a");
        let b = Key::new("b");
        let writes = [
            (a.clone(), Value::from_u64(1)),
            (b.clone(), Value::from_u64(1)),
        ];
        assert!(session.update(&[], &writes).is_some());
        let values = session.read_only(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(values[&a], Some(Value::from_u64(1)));
        assert_eq!(values[&b], Some(Value::from_u64(1)));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_writers_are_serialized_per_key() {
        let cluster = Arc::new(RococoCluster::start(BaselineConfig::new(2)));
        let k = Key::new("hot");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let cluster = Arc::clone(&cluster);
                let k = k.clone();
                std::thread::spawn(move || {
                    let mut session = cluster.session(i % 2);
                    for j in 0..10 {
                        let value = Value::from_u64(i as u64 * 100 + j);
                        assert!(session.update(&[], &[(k.clone(), value)]).is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut session = cluster.session(0);
        let values = session.read_only(std::slice::from_ref(&k)).unwrap();
        assert!(values[&k].is_some());
        cluster.shutdown();
    }
}
