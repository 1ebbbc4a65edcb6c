//! The server side of the SSS protocol: one [`SssNode`] per cluster node.
//!
//! A node owns its protocol state ([`state::NodeState`]) behind a mutex, a
//! [`LockTable`] used during the 2PC prepare phase, and a handle to the
//! cluster [`ChannelTransport`]. All interaction with other nodes goes
//! through messages; a node never touches another node's state.
//!
//! Handlers are non-blocking: protocol waits are represented as deferred
//! work re-evaluated when the relevant state changes —
//!
//! * the read visibility wait (Algorithm 6 line 5) parks the request in
//!   `pending_reads` and is re-checked after every internal commit,
//! * the Pre-Commit wait (Algorithm 4) parks the transaction in
//!   `waiting_external` and is re-checked after every `Remove`.

mod commit;
mod confirm;
mod read;
mod remove;
mod state;
pub(crate) mod step;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sss_net::{
    reply_channel, ChannelTransport, Envelope, NodeService, Priority, Transport, TransportError,
    TransportExt,
};
use sss_storage::{Key, LockTable, MvStore, ReplicaMap, TxnId};
use sss_vclock::{NodeId, VectorClock};

use crate::config::{SssConfig, NLOG_CAPACITY, RECOVERY_TIMEOUT, VERSIONS_PER_KEY};
use crate::messages::SssMessage;
use crate::stats::{NodeCounters, NodeStats};

pub(crate) use state::NodeState;

/// One logical SSS server node.
///
/// Nodes are created by [`SssCluster::start`](crate::SssCluster::start); the
/// public surface exposed here is limited to identification and statistics —
/// clients interact with the cluster through
/// [`Session`](crate::Session)s.
pub struct SssNode {
    id: NodeId,
    config: SssConfig,
    replicas: ReplicaMap,
    transport: Arc<ChannelTransport<SssMessage>>,
    state: Mutex<NodeState>,
    /// Multi-version data repository. Sharded and internally synchronized,
    /// held *outside* the state mutex: prepare-phase validation reads it
    /// concurrently from every worker (the 2PC locks pin the validated
    /// versions), while handlers that hold the state mutex read and write
    /// it with only an uncontended per-shard lock on top.
    store: MvStore,
    locks: LockTable,
    counters: NodeCounters,
    next_txn_seq: AtomicU64,
    /// Epoch-grouped external-commit confirmation state (see
    /// [`confirm`] module docs); used when `config.confirm_epoch_max > 1`.
    confirm: confirm::ConfirmCoalescer,
    /// `false` while the node is inside a crash window or restarted but not
    /// yet recovered from its peers. Colocated clients consult this before
    /// starting work and degrade to
    /// [`SssError::NodeUnavailable`](crate::SssError::NodeUnavailable)
    /// after bounded retries.
    available: AtomicBool,
    /// A historical bug reverted in the handlers, for the model checker to
    /// find again. `None` in every node an engine builds: only
    /// [`step::SteppedCluster::new`] can set it.
    seeded: Option<step::SeededBug>,
}

impl SssNode {
    pub(crate) fn new(
        id: NodeId,
        config: SssConfig,
        transport: Arc<ChannelTransport<SssMessage>>,
    ) -> Self {
        let replicas = config.replica_map();
        let state = NodeState::new(id.index(), config.nodes, NLOG_CAPACITY);
        SssNode {
            id,
            replicas,
            transport,
            state: Mutex::new(state),
            store: MvStore::with_shards(config.storage_shards),
            locks: LockTable::with_shards(config.storage_shards),
            counters: NodeCounters::default(),
            next_txn_seq: AtomicU64::new(0),
            confirm: confirm::ConfirmCoalescer::default(),
            available: AtomicBool::new(true),
            seeded: None,
            config,
        }
    }

    /// `true` while the node serves colocated clients (not crashed and not
    /// mid-recovery).
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::Acquire)
    }

    /// Crash-stop: wipes the node's *volatile* protocol state and marks the
    /// node unavailable. Called by the cluster's crash hook right after the
    /// mailbox was purged.
    ///
    /// The durable/volatile split mirrors classic 2PC write-ahead logging —
    /// what a real node would have forced to its log (and its data files)
    /// before answering survives; everything else is in-memory bookkeeping
    /// a restart legitimately forgets:
    ///
    /// * **Durable**: the store's versions and the lock table (installed
    ///   data and prepare records), `prepared` / `commit_q` / `nlog` /
    ///   `node_vc` (prepare and commit records), the idempotency sets
    ///   (`prepared_ever` etc. — replay guards a WAL recovery rebuilds) and
    ///   the transaction-id counter.
    /// * **Volatile**: deferred and parked reads (their reply channels die
    ///   with the process; with reliable delivery the *requests* are
    ///   retransmitted and served after restart), Pre-Commit holds
    ///   (`waiting_external` — the coordinator's ack times out, the
    ///   degraded path it already handles), the snapshot-queues and forward
    ///   targets (read-only bookkeeping), the confirmation coalescer
    ///   (pending waiters observe a failed round), and `confirmed_vc` —
    ///   re-learned from peers by [`SssNode::recover_from_peers`] before
    ///   the node comes back available.
    pub(crate) fn on_crash(&self) {
        self.available.store(false, Ordering::Release);
        let mut state = self.state.lock();
        state.pending_reads.clear();
        state.parked_reads.clear();
        state.waiting_external.clear();
        state.squeues = crate::squeue::SnapshotQueues::new();
        state.ro_forward_targets.clear();
        state.confirmed_vc = VectorClock::new(self.config.nodes);
        drop(state);
        self.confirm.reset();
    }

    /// Recovery round: re-learns the confirmed snapshot from peers via
    /// `StateQuery`/`StateReply`, then marks the node available again.
    /// Called by the cluster's restart hook on a dedicated task (never on a
    /// mailbox worker — the round blocks on replies).
    ///
    /// Waits up to [`RECOVERY_TIMEOUT`] for every peer; peers that are
    /// themselves down simply do not answer in time, and the node comes
    /// back with whatever subset it merged (the same guarantee degradation
    /// as a confirmation-round timeout).
    pub(crate) fn recover_from_peers(&self) {
        let peers: Vec<NodeId> = (0..self.config.nodes)
            .map(NodeId)
            .filter(|n| *n != self.id)
            .collect();
        if !peers.is_empty() {
            let (reply, receiver) = reply_channel(peers.len());
            let sent = self
                .multicast(peers.iter().copied(), SssMessage::StateQuery { reply })
                .is_ok();
            if sent {
                let mut merged = VectorClock::new(self.config.nodes);
                receiver.gather(
                    peers.len(),
                    RECOVERY_TIMEOUT,
                    |answer| Some(answer.from),
                    |answer| {
                        merged.merge(&answer.vc);
                        true
                    },
                );
                self.state.lock().confirmed_vc.merge(&merged);
            }
        }
        self.available.store(true, Ordering::Release);
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Snapshot of this node's protocol counters.
    pub fn stats(&self) -> NodeStats {
        self.counters.snapshot()
    }

    /// Number of entries currently stored across this node's
    /// snapshot-queues (diagnostic; should converge to zero when idle).
    pub fn snapshot_queue_entries(&self) -> usize {
        self.state.lock().squeues.total_entries()
    }

    /// Number of update transactions currently held in their Pre-Commit
    /// phase on this node.
    pub fn waiting_external_commits(&self) -> usize {
        self.state.lock().waiting_external.len()
    }

    /// Number of versions currently retained by this node's store.
    pub fn retained_versions(&self) -> usize {
        self.store.retained_versions()
    }

    /// Snapshot of this node's storage-layer counters (multi-version store
    /// and lock table, with per-shard contention breakdowns).
    pub fn storage_stats(&self) -> sss_storage::StorageStats {
        sss_storage::StorageStats {
            mv: Some(self.store.stats()),
            sv: None,
            locks: Some(self.locks.stats()),
        }
    }

    pub(crate) fn config(&self) -> &SssConfig {
        &self.config
    }

    pub(crate) fn replica_map(&self) -> &ReplicaMap {
        &self.replicas
    }

    /// Sends `message` from this node to `to`. Every SSS send goes through
    /// this, [`SssNode::multicast`] or [`SssNode::send_batch`], which ask
    /// the message for its priority class ([`SssMessage::priority`]): no
    /// send site names one.
    pub(crate) fn send(&self, to: NodeId, message: SssMessage) -> Result<(), TransportError> {
        let priority = message.priority();
        self.transport.send(self.id, to, message, priority)
    }

    /// Sends a copy of `message` from this node to every node in `targets`.
    pub(crate) fn multicast(
        &self,
        targets: impl IntoIterator<Item = NodeId>,
        message: SssMessage,
    ) -> Result<(), TransportError> {
        let priority = message.priority();
        self.transport
            .multicast(self.id, targets, message, priority)
    }

    /// Sends `batch` from this node to `to` as one delivery batch. Its
    /// messages share one priority class (an envelope batch has one).
    pub(crate) fn send_batch(
        &self,
        to: NodeId,
        batch: Vec<SssMessage>,
    ) -> Result<(), TransportError> {
        let priority = batch.first().map_or(Priority::Normal, SssMessage::priority);
        debug_assert!(batch.iter().all(|message| message.priority() == priority));
        self.transport.send_batch(self.id, to, batch, priority)
    }

    pub(crate) fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    pub(crate) fn lock_table(&self) -> &LockTable {
        &self.locks
    }

    pub(crate) fn store(&self) -> &MvStore {
        &self.store
    }

    /// Allocates a fresh transaction identifier originating on this node.
    pub(crate) fn next_txn_id(&self) -> TxnId {
        TxnId::new(self.id, self.next_txn_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// The vector clock a transaction beginning on this node starts from:
    /// `NLog.mostRecentVC` (Algorithm 5 line 6) merged with the node's
    /// `confirmed_vc`, so the initial snapshot covers every update
    /// transaction whose client response has already been delivered
    /// anywhere in the cluster.
    pub(crate) fn begin_vc(&self) -> VectorClock {
        let state = self.state.lock();
        state.nlog.most_recent_vc().merged(&state.confirmed_vc)
    }

    /// Called by a colocated client when its read-only transaction returns:
    /// marks the transaction completed and sends `Remove` to every node that
    /// may hold one of its snapshot-queue entries (replicas of the read keys
    /// plus any registered forward targets, §III-C).
    pub(crate) fn finish_read_only(&self, txn: TxnId, read_keys: &[Key]) {
        let extra = self.complete_read_only(txn);
        // Piggyback (round-reduction optimisation): when a grouped
        // confirmation round is already in flight, the `Remove` rides its
        // broadcast — which covers every node, a superset of the targeted
        // multicast — instead of travelling as dedicated messages. Bounded
        // delay: the leader is actively looping, so the remove is sent at
        // the next round boundary.
        if self.config.confirm_epoch_max > 1 && self.queue_remove_on_next_round(txn) {
            return;
        }
        let mut targets = self.replicas.replicas_of_all(read_keys.iter());
        targets.extend(extra);
        targets.sort();
        targets.dedup();
        let _ = self.multicast(targets, SssMessage::Remove { txns: vec![txn] });
    }

    /// The node-state half of [`SssNode::finish_read_only`]: marks `txn`
    /// completed and takes the forward targets registered for it.
    fn complete_read_only(&self, txn: TxnId) -> Vec<NodeId> {
        let mut state = self.state.lock();
        state.completed_ro.insert(txn);
        state
            .ro_forward_targets
            .remove(&txn)
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }

    /// Garbage-collects old versions on this node, keeping the configured
    /// number of versions per key. Returns how many versions were dropped.
    /// The store is internally synchronized, so collection runs without
    /// taking the node's protocol-state mutex.
    pub fn collect_garbage(&self) -> usize {
        self.store.prune_all(VERSIONS_PER_KEY)
    }

    /// Human-readable dump of the transactions currently held in their
    /// Pre-Commit phase on this node and of the snapshot-queue entries
    /// blocking them. Intended for debugging and operational visibility.
    pub fn pending_external_report(&self) -> String {
        let state = self.state.lock();
        let mut out = String::new();
        if !state.commit_q.is_empty() {
            let entries: Vec<String> = state
                .commit_q
                .entries()
                .iter()
                .map(|e| format!("{}:{:?}@{}", e.txn, e.status, e.vc.get(self.id.index())))
                .collect();
            out.push_str(&format!(
                "{}: CommitQ = [{}]\n",
                self.id,
                entries.join(", ")
            ));
        }
        for waiting in &state.waiting_external {
            let sid = waiting.commit_vc.get(self.id.index());
            out.push_str(&format!(
                "{}: txn {} waiting {:?} (sid {}) on keys:",
                self.id,
                waiting.txn,
                sss_vclock::runtime::now().saturating_duration_since(waiting.since),
                sid
            ));
            for key in &waiting.write_keys {
                if let Some(queue) = state.squeues.get(key) {
                    let blockers: Vec<String> = queue
                        .reads()
                        .iter()
                        .filter(|r| r.sid < sid)
                        .map(|r| format!("{}@{}", r.txn, r.sid))
                        .collect();
                    if !blockers.is_empty() {
                        out.push_str(&format!(" {key}=[{}]", blockers.join(",")));
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

impl NodeService<SssMessage> for SssNode {
    fn handle(&self, envelope: Envelope<SssMessage>) {
        if let Some(scheduler) = sss_vclock::runtime::current() {
            if scheduler.tracing() {
                let mut line = format!("{}<-{} {:?}", envelope.to, envelope.from, envelope.payload);
                line.truncate(400);
                scheduler.trace(&line);
            }
        }
        match envelope.payload {
            SssMessage::ReadRequest {
                txn,
                key,
                vc,
                has_read,
                exclude,
                is_update,
                reply,
            } => self.handle_read_request(txn, key, vc, has_read, exclude, is_update, reply),
            SssMessage::Prepare {
                txn,
                vc,
                read_set,
                write_set,
                reply,
            } => self.handle_prepare(txn, vc, read_set, write_set, reply),
            SssMessage::Decide {
                txn,
                commit_vc,
                outcome,
                propagated,
                ack_reply,
            } => self.handle_decide(txn, commit_vc, outcome, propagated, ack_reply),
            SssMessage::Remove { txns } => self.handle_remove(txns),
            SssMessage::RegisterForward { txn, targets } => {
                self.handle_register_forward(txn, targets)
            }
            SssMessage::ConfirmExternal {
                entries,
                release,
                remove,
                reply,
            } => self.handle_confirm_external(entries, release, remove, reply),
            SssMessage::ReleaseExternal { txns } => self.handle_release_external(txns),
            SssMessage::StateQuery { reply } => {
                // Recovery round: answer with this node's begin snapshot so
                // the restarting peer's `confirmed_vc` covers every update
                // transaction this node knows to be globally confirmed.
                let vc = self.begin_vc();
                reply.send(crate::messages::StateReply { from: self.id, vc });
            }
        }
    }
}

impl std::fmt::Debug for SssNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SssNode")
            .field("id", &self.id)
            .field("nodes", &self.config.nodes)
            .field("replication", &self.config.replication)
            .finish()
    }
}
