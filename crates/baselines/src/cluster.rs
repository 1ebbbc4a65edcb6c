//! What the three competitors share: one configuration, one cluster and one
//! client session, generic over the [`Protocol`] that tells them apart.
//!
//! The paper re-implemented its competitors "using the same software
//! infrastructure of SSS" (§V). Here that is literal: a baseline boots on
//! the same `sss-net` chassis ([`NodeHost`]) as SSS with the same latency
//! model, fault interposer, delivery batching and local fast path, and a
//! protocol contributes only its messages, its node and its client-side
//! transaction logic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sss_net::{
    reply_channel, ChannelTransport, FaultInterposer, Gather, LatencyModel, MailboxStats, NodeHost,
    NodeService, Priority, ReplySender, TransportConfig, TransportExt,
};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{Key, ReplicaMap, StorageStats, TxnId, Value};
use sss_vclock::runtime::SchedulerHandle;
use sss_vclock::NodeId;

use crate::participant::Vote;

/// How long a client waits for the replies to one request round (reads,
/// votes, acknowledgements).
pub const RPC_TIMEOUT: Duration = Duration::from_secs(1);

/// The values a committed transaction read, by key.
pub type Observed = BTreeMap<Key, Option<Value>>;

/// Configuration of a [`BaselineCluster`], whatever its protocol.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Replication degree. ROCOCO ignores it: the paper's comparison always
    /// runs it without replication.
    pub replication: usize,
    /// One-way network latency model.
    pub latency: LatencyModel,
    /// Optional observability hub: sessions trace protocol phases and the
    /// nodes record server-side lock-acquisition spans into it. When `None`
    /// — the default — every instrumentation site is one branch.
    pub observability: Option<Arc<ObsHub>>,
    /// Optional deterministic-simulation scheduler (see `sss-sim`): when
    /// set, the cluster's transport and workers run in virtual time.
    pub scheduler: Option<SchedulerHandle>,
    /// Optional fault interposer on the cluster transport: the baselines run
    /// on the same substrate as SSS, so injected faults hit them
    /// identically.
    pub interposer: Option<Arc<dyn FaultInterposer>>,
}

impl BaselineConfig {
    /// Defaults matching the paper's setup.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        BaselineConfig {
            nodes,
            replication: 2.min(nodes),
            latency: LatencyModel::ZERO,
            observability: None,
            scheduler: None,
            interposer: None,
        }
    }
}

/// One competitor protocol: its wire messages, its server node and the
/// client-side logic of its two transaction kinds.
pub trait Protocol: Sized + 'static {
    /// Display name used in reports (matches the paper's legends).
    const NAME: &'static str;
    /// The wire protocol.
    type Message: Send + Clone + 'static;
    /// The server side of one node.
    type Node: NodeService<Self::Message>;

    /// Dense index of the message's kind: its slot in the per-kind mailbox
    /// counters (`MailboxStats::per_kind`).
    fn kind_index(message: &Self::Message) -> usize;

    /// Where keys live.
    fn placement(config: &BaselineConfig) -> ReplicaMap {
        ReplicaMap::new(config.nodes, config.replication)
    }

    /// Builds node `id`.
    fn node(id: NodeId, config: &BaselineConfig, placement: &ReplicaMap) -> Self::Node;

    /// Snapshot of one node's storage-layer counters.
    fn storage_stats(node: &Self::Node) -> StorageStats;

    /// Runs one update transaction reading `read_keys` and installing
    /// `writes`; `None` if it aborted.
    fn update(
        session: &BaselineSession<Self>,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        trace: Option<&mut TxnTrace>,
    ) -> Option<Observed>;

    /// Runs one read-only transaction over `read_keys`; `None` if it
    /// aborted.
    fn read_only(
        session: &BaselineSession<Self>,
        read_keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> Option<Observed>;
}

/// State shared by a cluster handle and the sessions opened on it.
pub(crate) struct Shared<P: Protocol> {
    pub(crate) host: NodeHost<P::Message>,
    pub(crate) nodes: Vec<Arc<P::Node>>,
    pub(crate) placement: ReplicaMap,
    next_txn: AtomicU64,
    observability: Option<Arc<ObsHub>>,
}

/// A running cluster of one competitor protocol.
pub struct BaselineCluster<P: Protocol> {
    pub(crate) shared: Arc<Shared<P>>,
}

impl<P: Protocol> BaselineCluster<P> {
    /// Boots the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero or a worker thread cannot be
    /// spawned.
    pub fn start(config: BaselineConfig) -> Self {
        let mut transport = TransportConfig::new(config.nodes).latency(config.latency);
        if let Some(interposer) = &config.interposer {
            transport = transport.interposer(Arc::clone(interposer));
        }
        if let Some(scheduler) = &config.scheduler {
            transport = transport.scheduler(Arc::clone(scheduler));
        }
        let placement = P::placement(&config);
        let (host, nodes) = NodeHost::boot(transport, P::kind_index, |id, _| {
            Arc::new(P::node(id, &config, &placement))
        });
        BaselineCluster {
            shared: Arc::new(Shared {
                host,
                nodes,
                placement,
                next_txn: AtomicU64::new(0),
                observability: config.observability,
            }),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.shared.nodes.len()
    }

    /// The observability hub the cluster was started with, if any.
    pub fn observability(&self) -> Option<Arc<ObsHub>> {
        self.shared.observability.clone()
    }

    /// Storage-layer counters (with per-shard contention breakdowns) summed
    /// over every node.
    pub fn storage_stats(&self) -> StorageStats {
        let mut total = StorageStats::default();
        for node in &self.shared.nodes {
            total.merge(&P::storage_stats(node));
        }
        total
    }

    /// Mailbox traffic counters summed over every node.
    pub fn mailbox_totals(&self) -> MailboxStats {
        self.shared.host.mailbox_totals()
    }

    /// Opens a session colocated with `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn session(&self, node: usize) -> BaselineSession<P> {
        assert!(node < self.node_count(), "node index out of range");
        BaselineSession {
            obs: self.shared.observability.as_ref().map(|hub| SessionObs {
                hub: Arc::clone(hub),
                lane: hub.next_lane(),
                txns: 0,
            }),
            cluster: Arc::clone(&self.shared),
            node: NodeId(node),
        }
    }

    /// Shuts the cluster down. Idempotent; also happens when the handle and
    /// every session are gone.
    pub fn shutdown(&self) {
        self.shared.host.shutdown();
    }
}

impl<P: Protocol> std::fmt::Debug for BaselineCluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineCluster")
            .field("protocol", &P::NAME)
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// Trace state of one session: the cluster's hub, the session's client lane
/// and a session-local transaction counter used as the trace label (the
/// protocols allocate their `TxnId`s mid-transaction, and not for every
/// transaction).
struct SessionObs {
    hub: Arc<ObsHub>,
    lane: u64,
    txns: u64,
}

/// A client colocated with one node, running whole transactions.
pub struct BaselineSession<P: Protocol> {
    cluster: Arc<Shared<P>>,
    node: NodeId,
    obs: Option<SessionObs>,
}

impl<P: Protocol> BaselineSession<P> {
    /// Runs one update transaction reading `read_keys` and installing
    /// `writes`. Returns the values read, or `None` if it aborted and may
    /// be retried.
    pub fn update(&mut self, read_keys: &[Key], writes: &[(Key, Value)]) -> Option<Observed> {
        self.traced(|session, trace| P::update(session, read_keys, writes, trace))
    }

    /// Runs one read-only transaction over `read_keys`. Returns the values
    /// read, or `None` if it aborted.
    pub fn read_only(&mut self, read_keys: &[Key]) -> Option<Observed> {
        self.traced(|session, trace| P::read_only(session, read_keys, trace))
    }

    /// Runs `txn` under a phase trace when the cluster has an observability
    /// hub; the trace is finished with the transaction's outcome (which
    /// also closes the span left open on return).
    fn traced(
        &mut self,
        txn: impl FnOnce(&Self, Option<&mut TxnTrace>) -> Option<Observed>,
    ) -> Option<Observed> {
        let node = self.node.index();
        let mut trace = self.obs.as_mut().map(|obs| {
            obs.txns += 1;
            TxnTrace::begin(Arc::clone(&obs.hub), node, obs.lane, obs.txns - 1)
        });
        let observed = txn(self, trace.as_mut());
        if let Some(trace) = trace {
            trace.finish(observed.is_some());
        }
        observed
    }

    /// The node this session is colocated with.
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// The colocated node's server side.
    pub(crate) fn local(&self) -> &P::Node {
        &self.cluster.nodes[self.node.index()]
    }

    pub(crate) fn transport(&self) -> &ChannelTransport<P::Message> {
        self.cluster.host.transport()
    }

    pub(crate) fn placement(&self) -> &ReplicaMap {
        &self.cluster.placement
    }

    /// Allocates a transaction identifier originating on this session's
    /// node.
    pub(crate) fn next_txn(&self) -> TxnId {
        TxnId::new(
            self.node,
            self.cluster.next_txn.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// Sends the request `build` wraps around a reply sender to every node
    /// of `targets` and returns the first reply; `None` if none came within
    /// [`RPC_TIMEOUT`].
    pub(crate) fn first_reply<T>(
        &self,
        targets: Vec<NodeId>,
        build: impl FnOnce(ReplySender<T>) -> P::Message,
    ) -> Option<T> {
        let (reply, rx) = reply_channel(targets.len());
        let _ = self
            .transport()
            .multicast(self.node, targets, build(reply), Priority::Normal);
        rx.recv_timeout(RPC_TIMEOUT)
    }

    /// The voting round of two-phase commit, under a `prepare` span: sends
    /// the prepare `build` wraps around the vote channel to every
    /// participant and gathers one vote from each, showing every counted
    /// vote to `accept`. `true` only if every participant voted yes.
    pub(crate) fn vote<V>(
        &self,
        participants: &[NodeId],
        trace: Option<&mut TxnTrace>,
        build: impl FnOnce(ReplySender<Vote<V>>) -> P::Message,
        mut accept: impl FnMut(&Vote<V>),
    ) -> bool {
        let (reply, rx) = reply_channel(participants.len());
        if let Some(trace) = trace {
            trace.enter(Phase::Prepare);
        }
        let _ = self.transport().multicast(
            self.node,
            participants.iter().copied(),
            build(reply),
            Priority::Normal,
        );
        let votes = rx.gather(
            participants.len(),
            RPC_TIMEOUT,
            |vote| Some(vote.from),
            |vote| {
                accept(&vote);
                vote.ok
            },
        );
        // Anything short of every participant voting yes aborts.
        votes == Gather::Complete
    }

    /// The decision round of two-phase commit, under a `decide` span: sends
    /// `decide` to every participant at high priority, so it overtakes
    /// queued prepares.
    pub(crate) fn decide(
        &self,
        participants: &[NodeId],
        trace: Option<&mut TxnTrace>,
        decide: P::Message,
    ) {
        if let Some(trace) = trace {
            trace.enter(Phase::Decide);
        }
        let _ = self.transport().multicast(
            self.node,
            participants.iter().copied(),
            decide,
            Priority::High,
        );
    }
}
