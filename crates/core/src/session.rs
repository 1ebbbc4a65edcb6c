//! Client-side transaction execution (the coordinator logic of
//! Algorithms 1 and 5).
//!
//! Clients are colocated with nodes (paper §II): a [`Session`] is bound to
//! one node and issues transactions whose coordinator is that node. The
//! programmer declares up front whether a transaction is an update or a
//! read-only transaction (paper §II), by calling
//! [`Session::begin_update`] or [`Session::begin_read_only`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_net::{reply_channel, Gather};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{Key, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

use crate::config::{ACK_TIMEOUT, READ_TIMEOUT, UNAVAILABLE_RETRY_MAX, VOTE_TIMEOUT};
use crate::error::{AbortReason, SssError};
use crate::messages::{PropagatedEntry, SssMessage};
use crate::node::SssNode;

/// Latency breakdown of a committed update transaction, mirroring the
/// measurements of Figure 5 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitInfo {
    /// Time from the transaction's begin to its *internal* commit (the 2PC
    /// decision being reached and disseminated).
    pub internal_latency: Duration,
    /// Time from the transaction's begin to its *external* commit (all write
    /// replicas acknowledged that no concurrent read-only transaction holds
    /// it in a snapshot-queue).
    pub external_latency: Duration,
}

impl CommitInfo {
    /// Time spent in the Pre-Commit phase (the snapshot-queue wait).
    pub fn pre_commit_wait(&self) -> Duration {
        self.external_latency.saturating_sub(self.internal_latency)
    }
}

/// A client handle bound to (colocated with) one node of the cluster.
#[derive(Debug, Clone)]
pub struct Session {
    node: Arc<SssNode>,
    /// Observability hub and this session's trace lane, when tracing is on.
    obs: Option<(Arc<ObsHub>, u64)>,
}

impl Session {
    pub(crate) fn new(node: Arc<SssNode>) -> Self {
        let obs = node
            .config()
            .observability
            .as_ref()
            .map(|hub| (Arc::clone(hub), hub.next_lane()));
        Session { node, obs }
    }

    fn begin_trace(&self, txn: TxnId) -> Option<TxnTrace> {
        self.obs.as_ref().map(|(hub, lane)| {
            TxnTrace::begin(Arc::clone(hub), self.node.id().index(), *lane, txn.seq)
        })
    }

    /// The node this session is colocated with.
    pub fn node_id(&self) -> NodeId {
        self.node.id()
    }

    /// Begins an update transaction.
    pub fn begin_update(&self) -> UpdateTransaction {
        let id = self.node.next_txn_id();
        let vc = self.node.begin_vc();
        UpdateTransaction {
            node: Arc::clone(&self.node),
            id,
            vc,
            has_read: vec![false; self.node.config().nodes],
            read_set: Vec::new(),
            write_set: BTreeMap::new(),
            propagated: Vec::new(),
            started: sss_vclock::runtime::now(),
            trace: self.begin_trace(id),
        }
    }

    /// Begins an abort-free read-only transaction.
    pub fn begin_read_only(&self) -> ReadOnlyTransaction {
        let id = self.node.next_txn_id();
        ReadOnlyTransaction {
            node: Arc::clone(&self.node),
            id,
            vc: None,
            has_read: vec![false; self.node.config().nodes],
            read_keys: Vec::new(),
            excluded: Vec::new(),
            finished: false,
            trace: self.begin_trace(id),
        }
    }
}

/// Waits out a colocated node's crash window: retries the availability
/// check with capped exponential backoff up to the configured budget, then
/// degrades to a typed [`SssError::NodeUnavailable`] instead of letting the
/// client hang against a dead node (or begin from a wiped — stale —
/// snapshot).
fn ensure_available(node: &SssNode) -> Result<(), SssError> {
    if node.is_available() {
        return Ok(());
    }
    let backoff = sss_vclock::runtime::Backoff::exponential(
        Duration::from_micros(50),
        Duration::from_millis(2),
    );
    for attempt in 1..=UNAVAILABLE_RETRY_MAX {
        backoff.pause(attempt);
        if node.is_available() {
            return Ok(());
        }
    }
    Err(SssError::NodeUnavailable)
}

/// Issues a read request to every replica of `key` and returns the fastest
/// answer (Algorithm 5 line 9-10).
fn remote_read(
    node: &SssNode,
    txn: TxnId,
    key: &Key,
    vc: &VectorClock,
    has_read: &[bool],
    exclude: &[Arc<VectorClock>],
    is_update: bool,
) -> Result<crate::messages::ReadReturn, SssError> {
    let replicas = node.replica_map().replicas(key);
    let (reply, receiver) = reply_channel(replicas.len());
    let message = SssMessage::ReadRequest {
        txn,
        key: key.clone(),
        vc: vc.clone(),
        has_read: has_read.to_vec(),
        exclude: exclude.to_vec(),
        is_update,
        reply,
    };
    node.multicast(replicas.iter().copied(), message)
        .map_err(|_| SssError::ClusterShutdown)?;
    receiver
        .recv_timeout(READ_TIMEOUT)
        .ok_or_else(|| SssError::ReadTimeout { key: key.clone() })
}

/// Collects `Ack` replies for `txn` from `expected` distinct nodes, waiting
/// at most [`ACK_TIMEOUT`]. Returns `false` on timeout or channel loss.
pub(crate) fn collect_acks(
    receiver: &sss_net::ReplyReceiver<crate::messages::Ack>,
    txn: TxnId,
    expected: usize,
) -> bool {
    let acked = |ack: &crate::messages::Ack| (ack.txn == txn).then_some(ack.from);
    receiver.gather(expected, ACK_TIMEOUT, acked, |_| true) == Gather::Complete
}

/// An update transaction: reads observe the most recent committed versions,
/// writes are buffered and installed at commit time through 2PC.
#[derive(Debug)]
pub struct UpdateTransaction {
    node: Arc<SssNode>,
    id: TxnId,
    vc: VectorClock,
    has_read: Vec<bool>,
    read_set: Vec<(Key, Option<TxnId>)>,
    write_set: BTreeMap<Key, Value>,
    propagated: Vec<PropagatedEntry>,
    started: Instant,
    /// Phase trace flushed to the observability hub at commit/abort.
    trace: Option<TxnTrace>,
}

impl UpdateTransaction {
    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Reads `key`, returning `None` if it has never been written.
    ///
    /// Reads of keys previously written by this transaction observe the
    /// buffered value (Algorithm 5 lines 2-4).
    ///
    /// # Errors
    ///
    /// Returns [`SssError::ReadTimeout`] if no replica answered in time and
    /// [`SssError::ClusterShutdown`] if the cluster was shut down.
    pub fn read(&mut self, key: impl Into<Key>) -> Result<Option<Value>, SssError> {
        let key = key.into();
        if let Some(value) = self.write_set.get(&key) {
            return Ok(Some(value.clone()));
        }
        ensure_available(&self.node)?;
        if let Some(trace) = self.trace.as_mut() {
            trace.enter(Phase::Read);
        }
        let response = remote_read(
            &self.node,
            self.id,
            &key,
            &self.vc,
            &self.has_read,
            &[],
            true,
        )?;
        self.has_read[response.from.index()] = true;
        self.vc.merge(&response.vc);
        self.propagated.extend(response.propagated.iter().copied());
        self.read_set.push((key, response.writer));
        Ok(response.value)
    }

    /// Buffers a write of `value` under `key`; it becomes visible only when
    /// the transaction commits.
    pub fn write(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.write_set.insert(key.into(), value.into());
    }

    /// Keys read so far, with the writer of the version each read observed.
    pub fn read_set(&self) -> &[(Key, Option<TxnId>)] {
        &self.read_set
    }

    /// Number of buffered writes.
    pub fn write_set_len(&self) -> usize {
        self.write_set.len()
    }

    /// Discards the transaction without attempting to commit. Nothing was
    /// made visible to other transactions, so this is always safe.
    pub fn rollback(self) {}

    /// Commits the transaction (Algorithm 1).
    ///
    /// The call returns only at the *external* commit: once every write
    /// replica confirmed that no concurrent read-only transaction serialized
    /// before this transaction is still in flight. The returned
    /// [`CommitInfo`] exposes the internal/external latency split.
    ///
    /// # Errors
    ///
    /// Returns [`SssError::Aborted`] when locks could not be acquired, a
    /// read key was overwritten (validation), or a participant did not vote
    /// in time. Aborted transactions can simply be retried by the client.
    pub fn commit(mut self) -> Result<CommitInfo, SssError> {
        let mut trace = self.trace.take();
        let node = &self.node;
        ensure_available(node)?;
        let replica_map = node.replica_map();

        if self.write_set.is_empty() {
            // A declared-update transaction that performed no writes
            // degenerates to a read-only commit (Algorithm 1 lines 2-8).
            // Its reads did not enqueue in any snapshot-queue, so there is
            // nothing to remove.
            if let Some(trace) = trace {
                trace.finish(true);
            }
            return Ok(CommitInfo {
                internal_latency: sss_vclock::runtime::elapsed_since(self.started),
                external_latency: sss_vclock::runtime::elapsed_since(self.started),
            });
        }

        let write_keys: Vec<Key> = self.write_set.keys().cloned().collect();
        let write_set: Vec<(Key, Value)> = self
            .write_set
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();

        // Participants: replicas of every accessed key plus the coordinator.
        let read_keys: Vec<Key> = self.read_set.iter().map(|(k, _)| k.clone()).collect();
        let mut participants =
            replica_map.replicas_of_all(read_keys.iter().chain(write_keys.iter()));
        if !participants.contains(&node.id()) {
            participants.push(node.id());
            participants.sort();
        }
        let write_replicas = replica_map.replicas_of_all(write_keys.iter());

        // Prepare phase. The multicast moves the message into the last
        // send, so a fan-out to N participants clones it N-1 times.
        if let Some(trace) = trace.as_mut() {
            trace.enter(Phase::PreCommit);
        }
        let (vote_reply, vote_receiver) = reply_channel(participants.len());
        let prepare = SssMessage::Prepare {
            txn: self.id,
            vc: self.vc.clone(),
            read_set: self.read_set.clone(),
            write_set: write_set.clone(),
            reply: vote_reply,
        };
        node.multicast(participants.iter().copied(), prepare)
            .map_err(|_| SssError::ClusterShutdown)?;

        let mut commit_vc = self.vc.clone();
        let vote = vote_receiver.gather(
            participants.len(),
            VOTE_TIMEOUT,
            |vote| (vote.txn == self.id).then_some(vote.from),
            |vote| {
                if vote.ok {
                    commit_vc.merge(&vote.vc);
                }
                vote.ok
            },
        );
        let abort_reason = match vote {
            Gather::Complete => None,
            Gather::Rejected => Some(AbortReason::ValidationFailed { key: None }),
            Gather::TimedOut => Some(AbortReason::VoteTimeout),
        };
        let outcome = abort_reason.is_none();

        // Compute the final commit vector clock (Algorithm 1 lines 21-24,
        // via the pure step shared with the model checker).
        if outcome {
            let write_indices: Vec<usize> = write_replicas.iter().map(|n| n.index()).collect();
            crate::protocol::finalize_commit_vc(&mut commit_vc, &write_indices);
        }

        // Decide phase. On a commit, the RegisterForward messages that
        // register extra Remove targets for propagated read-only entries
        // (§III-C, transitive anti-dependencies) ride in the same
        // per-destination batch as the Decide — both are high priority, so
        // a destination that is a participant *and* a read-only origin gets
        // one enqueue and one wakeup instead of two.
        if let Some(trace) = trace.as_mut() {
            trace.enter(Phase::CommitQueueWait);
        }
        let (ack_reply, ack_receiver) = reply_channel(write_replicas.len().max(1));
        let decide = SssMessage::Decide {
            txn: self.id,
            commit_vc: commit_vc.clone(),
            outcome,
            propagated: self.propagated.clone(),
            ack_reply,
        };
        let mut per_dest: BTreeMap<NodeId, Vec<SssMessage>> = BTreeMap::new();
        for target in &participants {
            per_dest.entry(*target).or_default().push(decide.clone());
        }
        if outcome {
            // BTreeSet, not HashSet: several propagated read-only entries can
            // share an origin, and hash-order iteration would put their
            // RegisterForward messages on the wire in a run-dependent order,
            // breaking seeded-replay determinism under the simulator.
            let distinct_ro: std::collections::BTreeSet<TxnId> =
                self.propagated.iter().map(|p| p.txn).collect();
            for ro in distinct_ro {
                per_dest
                    .entry(ro.origin)
                    .or_default()
                    .push(SssMessage::RegisterForward {
                        txn: ro,
                        targets: write_replicas.clone(),
                    });
            }
        }
        // The coordinator's own batch goes last: a self-addressed send can
        // run the handler inline (local fast path), and internally
        // committing here mid-loop would delay the remote destinations'
        // Decides behind it.
        let own_batch = per_dest.remove(&node.id());
        for (target, batch) in per_dest {
            node.send_batch(target, batch)
                .map_err(|_| SssError::ClusterShutdown)?;
        }
        if let Some(batch) = own_batch {
            node.send_batch(node.id(), batch)
                .map_err(|_| SssError::ClusterShutdown)?;
        }

        if let Some(reason) = abort_reason {
            if let Some(trace) = trace {
                trace.finish(false);
            }
            return Err(SssError::Aborted(reason));
        }

        let internal_latency = sss_vclock::runtime::elapsed_since(self.started);

        // External commit: wait for every write replica's acknowledgement.
        let timed_out = !collect_acks(&ack_receiver, self.id, write_replicas.len());

        // Global external-commit confirmation round (completion-order
        // barrier, see `serve_or_park_read_only` and `begin_vc`): every node
        // acknowledges a `ConfirmExternal` carrying this transaction before
        // the client is answered. This guarantees that any transaction
        // starting *after* this client response — on any node — begins from
        // a snapshot that covers this transaction, and that read-only
        // transactions never return this transaction's versions before this
        // response. The coalescer runs one round per coordinator epoch
        // covering every transaction that pre-committed in that window, and
        // handles the release phase itself (piggybacked on the next round or
        // flushed standalone), on success and failure alike — for rounds it
        // *finished*. The confirmation also runs on the ack-timeout path so
        // that parked reads are eventually released even when this
        // coordinator gave up waiting — by then the system has been wedged
        // for the whole (very generous) ack timeout and consistency is
        // best-effort anyway.
        if let Some(trace) = trace.as_mut() {
            trace.enter(Phase::ConfirmWait);
        }
        let confirmed = node.confirm_external_grouped(self.id, commit_vc);
        if !confirmed {
            // A round that died without an answer (the leader's node crashed
            // and the reset coalescer dropped its waiters, or the wait timed
            // out) never releases its members, and a never-released writer
            // wedges the write replicas permanently: every read-only attempt
            // selecting its version parks in `pending_global` until the read
            // timeout, aborts, and parks again on retry. Release explicitly
            // before answering the client; `handle_release_external` is
            // idempotent, so racing a late round that does complete is
            // harmless.
            let _ = node.multicast(
                write_replicas.iter().copied(),
                SssMessage::ReleaseExternal {
                    txns: vec![self.id],
                },
            );
        }

        // The transaction is committed from here on (even a timed-out
        // confirmation round installed its writes), so the trace reports a
        // commit on both return paths.
        if let Some(trace) = trace {
            trace.finish(true);
        }

        if timed_out || !confirmed {
            return Err(SssError::ExternalCommitTimeout);
        }

        Ok(CommitInfo {
            internal_latency,
            external_latency: sss_vclock::runtime::elapsed_since(self.started),
        })
    }
}

/// A read-only transaction. Never aborts due to concurrency; every read
/// observes a consistent snapshot that is also externally consistent with
/// every committed update transaction.
#[derive(Debug)]
pub struct ReadOnlyTransaction {
    node: Arc<SssNode>,
    id: TxnId,
    vc: Option<VectorClock>,
    has_read: Vec<bool>,
    read_keys: Vec<Key>,
    /// Exclusion ceilings of this transaction's snapshot (commit clocks of
    /// pre-committing writers its first read excluded): the transaction
    /// serialized before them, so no later read may observe their versions
    /// — or any version carrying a dominating clock — on any key.
    excluded: Vec<Arc<VectorClock>>,
    finished: bool,
    /// Phase trace flushed to the observability hub at completion.
    trace: Option<TxnTrace>,
}

impl ReadOnlyTransaction {
    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Reads `key`, returning `None` if no version is visible.
    ///
    /// # Errors
    ///
    /// Returns [`SssError::ReadTimeout`] if no replica answered in time and
    /// [`SssError::ClusterShutdown`] if the cluster was shut down.
    pub fn read(&mut self, key: impl Into<Key>) -> Result<Option<Value>, SssError> {
        if self.finished {
            return Err(SssError::InvalidOperation(
                "read on an already committed read-only transaction",
            ));
        }
        let key = key.into();
        // Algorithm 5 lines 5-7: the first read pins the visibility bound to
        // the latest snapshot committed on the colocated node. The node must
        // be available for the bound to be trustworthy: a crash wipes
        // `confirmed_vc`, and pinning against the wiped clock would start
        // the snapshot *before* already-confirmed writers.
        if self.vc.is_none() {
            ensure_available(&self.node)?;
            self.vc = Some(self.node.begin_vc());
        }
        // Track the key *before* issuing the request: even when the read
        // fails (e.g. times out while deferred or parked on a replica), the
        // replicas may already hold this transaction's snapshot-queue entry
        // for the key, and the `Remove`s sent at completion must reach them
        // or a writer could be blocked forever.
        if let Some(trace) = self.trace.as_mut() {
            trace.enter(Phase::Read);
        }
        self.read_keys.push(key.clone());
        let vc = self.vc.as_ref().expect("initialized above");
        let response = remote_read(
            &self.node,
            self.id,
            &key,
            vc,
            &self.has_read,
            &self.excluded,
            false,
        )?;
        self.has_read[response.from.index()] = true;
        for ceiling in response.excluded {
            if !self.excluded.contains(&ceiling) {
                self.excluded.push(ceiling);
            }
        }
        let vc = self.vc.as_mut().expect("initialized above");
        vc.merge(&response.vc);
        Ok(response.value)
    }

    /// Keys read so far.
    pub fn read_set(&self) -> &[Key] {
        &self.read_keys
    }

    /// Commits the transaction. This never fails due to concurrency: the
    /// client is answered immediately and the `Remove` notifications are
    /// sent to the nodes holding this transaction's snapshot-queue entries.
    ///
    /// # Errors
    ///
    /// Returns [`SssError::InvalidOperation`] if called twice.
    pub fn commit(mut self) -> Result<(), SssError> {
        if self.finished {
            return Err(SssError::InvalidOperation(
                "commit on an already committed read-only transaction",
            ));
        }
        self.finish();
        Ok(())
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            if !self.read_keys.is_empty() {
                self.node.finish_read_only(self.id, &self.read_keys);
            }
            if let Some(trace) = self.trace.take() {
                trace.finish(true);
            }
        }
    }
}

impl Drop for ReadOnlyTransaction {
    fn drop(&mut self) {
        // An abandoned read-only transaction must still release the update
        // transactions it may be holding in their Pre-Commit phase.
        self.finish();
    }
}
