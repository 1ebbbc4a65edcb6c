//! Client-side transaction execution: the blocking driver of the
//! coordinator of Algorithms 1 and 5 ([`crate::coordinator`]).
//!
//! Clients are colocated with nodes (paper §II): a [`Session`] is bound to
//! one node and issues transactions whose coordinator is that node. The
//! programmer declares up front whether a transaction is an update or a
//! read-only transaction (paper §II), by calling
//! [`Session::begin_update`] or [`Session::begin_read_only`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_net::{reply_channel, Gather, ReplySender};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{Key, TxnId, Value};

use crate::config::{ACK_TIMEOUT, READ_TIMEOUT, UNAVAILABLE_RETRY_MAX, VOTE_TIMEOUT};
use crate::coordinator::{Participants, ReadOnlyCoordinator, UpdateCoordinator};
use crate::error::{AbortReason, SssError};
use crate::messages::{Ack, ReadReturn, SssMessage};
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

    /// Begins an update transaction.
    pub fn begin_update(&self) -> UpdateTransaction {
        let id = self.node.next_txn_id();
        UpdateTransaction {
            node: Arc::clone(&self.node),
            coord: UpdateCoordinator::begin(id, self.node.begin_vc()),
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
            coord: None,
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

/// Sends the read request `request` builds to every replica of `key` and
/// returns the fastest answer (Algorithm 5 line 9-10).
fn remote_read(
    node: &SssNode,
    key: &Key,
    request: impl FnOnce(ReplySender<ReadReturn>) -> SssMessage,
) -> Result<ReadReturn, SssError> {
    let replicas = node.replica_map().replicas(key);
    let (reply, receiver) = reply_channel(replicas.len());
    node.multicast(replicas.iter().copied(), request(reply))
        .map_err(|_| SssError::ClusterShutdown)?;
    receiver
        .recv_timeout(READ_TIMEOUT)
        .ok_or_else(|| SssError::ReadTimeout { key: key.clone() })
}

/// An update transaction: reads observe the most recent committed versions,
/// writes are buffered and installed at commit time through 2PC.
#[derive(Debug)]
pub struct UpdateTransaction {
    node: Arc<SssNode>,
    coord: UpdateCoordinator,
    started: Instant,
    /// Phase trace flushed to the observability hub at commit/abort.
    trace: Option<TxnTrace>,
}

impl UpdateTransaction {
    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.coord.id()
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
        if let Some(value) = self.coord.buffered(&key) {
            return Ok(Some(value.clone()));
        }
        ensure_available(&self.node)?;
        if let Some(trace) = self.trace.as_mut() {
            trace.enter(Phase::Read);
        }
        let coord = &mut self.coord;
        let response = remote_read(&self.node, &key, |reply| coord.read_request(&key, reply))?;
        coord.read_returned(key, &response);
        Ok(response.value)
    }

    /// Buffers a write of `value` under `key`; it becomes visible only when
    /// the transaction commits.
    pub fn write(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.coord.write(key.into(), value.into());
    }

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
        let (node, coord) = (&self.node, &mut self.coord);
        ensure_available(node)?;
        let parts = coord.participants(node.replica_map());
        let Participants { all, writers } = &parts;

        if writers.is_empty() {
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
        let id = coord.id();

        // Prepare phase. The multicast moves the message into the last
        // send, so a fan-out to N participants clones it N-1 times.
        if let Some(trace) = trace.as_mut() {
            trace.enter(Phase::PreCommit);
        }
        let (vote_reply, vote_receiver) = reply_channel(all.len());
        node.multicast(all.iter().copied(), coord.prepare(vote_reply))
            .map_err(|_| SssError::ClusterShutdown)?;
        let vote = vote_receiver.gather(
            all.len(),
            VOTE_TIMEOUT,
            |vote| (vote.txn == id).then_some(vote.from),
            |vote| coord.voted(&vote),
        );
        let abort_reason = match vote {
            Gather::Complete => None,
            Gather::Rejected => Some(AbortReason::ValidationFailed { key: None }),
            Gather::TimedOut => Some(AbortReason::VoteTimeout),
        };

        // Decide phase. On a commit, the RegisterForward messages that
        // register extra Remove targets for propagated read-only entries
        // (§III-C, transitive anti-dependencies) ride in the same
        // per-destination batch as the Decide — both are high priority, so
        // a destination that is a participant *and* a read-only origin gets
        // one enqueue and one wakeup instead of two.
        if let Some(trace) = trace.as_mut() {
            trace.enter(Phase::CommitQueueWait);
        }
        let (ack_reply, ack_receiver) = reply_channel(writers.len().max(1));
        // The Decides get a clone and `ack_reply` lives until `commit`
        // returns: every sender's drop is a notify the simulator's replay
        // records, so dropping it earlier would move seeded interleavings.
        for (target, batch) in coord.decide(&parts, abort_reason.is_none(), ack_reply.clone()) {
            node.send_batch(target, batch)
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
        let acked = |ack: &Ack| (ack.txn == id).then_some(ack.from);
        let acks = ack_receiver.gather(writers.len(), ACK_TIMEOUT, acked, |_| true);
        let timed_out = acks != Gather::Complete;

        // Global external-commit confirmation round (the completion-order
        // barrier, see `node/confirm.rs`): every node acknowledges a
        // `ConfirmExternal` carrying this transaction before the client is
        // answered, so a transaction starting after this response — on any
        // node — begins from a snapshot covering it, and no read-only
        // transaction returns its versions before then. It also runs on the
        // ack-timeout path so that parked reads are eventually released; by
        // then the system has been wedged for the whole (very generous) ack
        // timeout and consistency is best-effort anyway.
        if let Some(trace) = trace.as_mut() {
            trace.enter(Phase::ConfirmWait);
        }
        let confirmed = node.confirm_external_grouped(id, coord.vc().clone());
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
                writers.iter().copied(),
                SssMessage::ReleaseExternal { txns: vec![id] },
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
    /// Begun by the first read, which pins the visibility bound.
    coord: Option<ReadOnlyCoordinator>,
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
        if self.coord.is_none() {
            ensure_available(&self.node)?;
            self.coord = Some(ReadOnlyCoordinator::begin(self.id, self.node.begin_vc()));
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.enter(Phase::Read);
        }
        let coord = self.coord.as_mut().expect("begun above");
        let response = remote_read(&self.node, &key, |reply| coord.read_request(&key, reply))?;
        coord.read_returned(&response);
        Ok(response.value)
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
            if let Some(coord) = &self.coord {
                self.node.finish_read_only(coord);
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
