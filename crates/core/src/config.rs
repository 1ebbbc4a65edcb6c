//! Cluster configuration.

use std::sync::Arc;
use std::time::Duration;

use sss_faults::{FaultInjector, FaultPlan};
use sss_net::LatencyModel;
use sss_obs::ObsHub;
use sss_storage::ReplicaMap;
use sss_vclock::runtime::SchedulerHandle;

/// Default epoch window of the grouped external-commit confirmation: up to
/// this many update transactions share one `ConfirmExternal` round.
pub const DEFAULT_CONFIRM_EPOCH: usize = 32;

/// How long a round leader waits between consecutive grouped confirmation
/// rounds of one burst before launching the next (under-full) round, letting
/// more committers join and giving piggybacked releases a carrier. Applied
/// only *after* the leader's first round, so a lone committer's round is
/// immediate — but its return is not: the leader is the committing client's
/// own thread, the release it queued after its round makes the next plan
/// `Linger`, and the client sleeps this long before flushing the release and
/// returning (see the `node::confirm` module docs). An uncontended update
/// therefore costs one round plus this constant; ROADMAP item 1 deletes it.
/// Only meaningful when `confirm_epoch_max > 1`.
pub const CONFIRM_LINGER: Duration = Duration::from_micros(800);

/// Worker threads per node draining the priority mailbox.
pub const WORKERS_PER_NODE: usize = 4;

/// Lock-acquisition timeout used during the 2PC prepare phase (1ms in the
/// paper's evaluation, §V).
pub const LOCK_TIMEOUT: Duration = Duration::from_millis(1);

/// How long a coordinator waits for 2PC votes before aborting.
pub const VOTE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a read operation waits for the fastest replica.
pub const READ_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a coordinator waits for external-commit acknowledgements. This
/// covers the snapshot-queue wait of the Pre-Commit phase, so it is
/// deliberately generous.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Seed of the transport's latency sampler.
pub const LATENCY_SEED: u64 = 0;

/// Number of internal-commit records each node retains for the `VisibleSet`
/// computation.
pub const NLOG_CAPACITY: usize = 4096;

/// Versions retained per key before garbage collection trims the chain.
pub const VERSIONS_PER_KEY: usize = 64;

/// Starvation admission control (paper §III-E): a read-only read that would
/// serialize before an update transaction which has already been waiting in
/// a snapshot-queue for this long is briefly delayed.
pub const ADMISSION_THRESHOLD: Duration = Duration::from_millis(2);

/// Base delay of the exponential back-off applied by the admission control;
/// doubled on every retry.
pub const ADMISSION_BACKOFF: Duration = Duration::from_micros(250);

/// Maximum number of admission back-off rounds before the read proceeds
/// anyway.
pub const ADMISSION_MAX_RETRIES: u32 = 5;

/// Upper bound on the Pre-Commit hold: an update transaction held in a
/// snapshot-queue by slower read-only transactions externally commits
/// anyway once it has waited this long. Bounding the hold cannot break
/// strict serializability — a reader whose entry blocks a writer has a
/// pinned snapshot that can never cover that writer, so it will not observe
/// it later — but it breaks wait cycles between writers held by parked
/// readers and readers parked on unconfirmed writers.
// TODO(protocol): replace the bound with proper wait-cycle avoidance
// (e.g. client-side exclusion sets) so the paper's strict
// completion-order property also holds unconditionally.
pub const PRECOMMIT_HOLD_MAX: Duration = Duration::from_millis(250);

/// How long a restarting node waits for its peers' `StateReply` before
/// coming back available anyway. Peer answers re-establish the node's
/// `confirmed_vc` (wiped by the crash); a peer that is itself down when
/// asked simply does not answer within the timeout.
pub const RECOVERY_TIMEOUT: Duration = Duration::from_secs(1);

/// Upper bound on how long an externally-committed transaction may sit in
/// `pending_global` (parking read-only reads on its versions) without its
/// coordinator's `ReleaseExternal` arriving. The release is volatile
/// coordinator state: a crash can swallow it after the confirmation round
/// already completed (the grouped coalescer buffers releases for
/// piggybacking, and a crash-stop reset drops that buffer), and without a
/// bound every read selecting such a writer's version parks, times out and
/// re-parks forever. Expiring the entry is safe by then: the coordinator's
/// confirmation phase is itself bounded by [`ACK_TIMEOUT`], so once this
/// (longer) hold elapses the writer's client has either been answered long
/// ago or received the degraded `ExternalCommitTimeout` — in both cases
/// serving the version cannot precede the client response. Mirrors
/// [`PRECOMMIT_HOLD_MAX`]: a liveness valve for state whose owner died,
/// swept by read traffic.
pub const PENDING_GLOBAL_HOLD_MAX: Duration = Duration::from_secs(30);

/// How many times a client operation retries (with capped backoff) against
/// a down colocated node before surfacing
/// [`SssError::NodeUnavailable`](crate::SssError::NodeUnavailable). Sized
/// so the retries ride out a typical scheduled crash window.
pub const UNAVAILABLE_RETRY_MAX: u32 = 100;

/// Configuration of an [`SssCluster`](crate::SssCluster): the values some
/// harness, test or benchmark sets. Everything else the protocol is tuned by
/// is a constant of this module.
///
/// The defaults mirror the paper's evaluation setup where applicable: every
/// key is replicated on two nodes and clients are colocated with nodes.
#[derive(Debug, Clone)]
pub struct SssConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Replication degree (replicas per key).
    pub replication: usize,
    /// One-way network latency model.
    pub latency: LatencyModel,
    /// Optional fault injector interposed on the cluster transport and
    /// attached to the per-node pause gates. Inert until armed — see
    /// [`SssConfig::faults`]. A plan that can lose messages (link loss, or
    /// crash windows that purge mailboxes) also turns on the transport's
    /// reliable-delivery layer
    /// ([`sss_faults::FaultPlan::needs_reliable_delivery`]); without one
    /// the layer stays off, which keeps the handler-level idempotency
    /// guards exercised by duplicate faults.
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Shard arity of every node's storage structures (multi-version store
    /// and lock table). Rounded up to a power of two; higher values reduce
    /// contention between a node's worker threads at a small memory cost.
    pub storage_shards: usize,
    /// Messages a node worker drains from its mailbox per wakeup (clamped
    /// to at least 1). Batch size 1 reproduces one-message-per-wakeup
    /// delivery; larger values amortize the per-message wakeup and lock
    /// cost under load without affecting protocol behaviour.
    pub delivery_batch: usize,
    /// Maximum number of update transactions covered by one grouped
    /// `ConfirmExternal` round (the coordinator *epoch window*). Values `<=
    /// 1` disable grouping entirely and reproduce the per-transaction
    /// confirmation round of the base protocol. Grouping is self-clocking:
    /// a round covers whatever pre-committed while the previous round was
    /// in flight (up to this bound), so loaded coordinators amortize one
    /// broadcast over the whole window; what it costs a lone committer is
    /// [`CONFIRM_LINGER`].
    pub confirm_epoch_max: usize,
    /// Optional observability hub: when set, client sessions carry a
    /// phase trace through every transaction (spans recorded into the
    /// hub's per-node trace rings and per-phase latency histograms). When
    /// `None` — the default — every instrumentation site reduces to one
    /// branch, keeping the tracing-off cost near zero.
    pub observability: Option<Arc<ObsHub>>,
    /// Optional deterministic-simulation scheduler (see `sss-sim`). When
    /// set, the transport delivers messages as virtual-time events, node
    /// workers run as cooperative simulation tasks, and any fault plan's
    /// windows are scheduled on the virtual clock. When `None` — the
    /// default — the cluster runs on real threads and the wall clock.
    pub scheduler: Option<SchedulerHandle>,
}

impl SssConfig {
    /// Configuration for a cluster of `nodes` nodes with the paper's
    /// defaults.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        SssConfig {
            nodes,
            replication: 2.min(nodes),
            latency: LatencyModel::ZERO,
            fault_injector: None,
            storage_shards: sss_storage::DEFAULT_SHARDS,
            delivery_batch: sss_net::DEFAULT_DELIVERY_BATCH,
            confirm_epoch_max: DEFAULT_CONFIRM_EPOCH,
            observability: None,
            scheduler: None,
        }
    }

    /// Runs the cluster under `plan`: a [`FaultInjector`] is created,
    /// interposed on the transport and attached to every node's pause gate.
    ///
    /// The plan is **inert until armed**: call
    /// [`SssCluster::fault_injector`](crate::SssCluster::fault_injector)
    /// and [`FaultInjector::arm`] once the cluster is populated, so the
    /// plan's scheduled windows cover the measured phase instead of the
    /// warm-up. Cluster shutdown disarms the injector.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_injector = Some(FaultInjector::new(plan));
        self
    }

    /// Like [`SssConfig::faults`] but with a caller-owned injector, so a
    /// harness can keep the handle and arm it at the right moment.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault_injector = Some(injector);
        self
    }

    /// Sets the replication degree.
    pub fn replication(mut self, degree: usize) -> Self {
        self.replication = degree;
        self
    }

    /// Sets the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the shard arity of every node's storage structures (rounded up
    /// to a power of two at construction).
    pub fn storage_shards(mut self, shards: usize) -> Self {
        self.storage_shards = shards;
        self
    }

    /// Sets the per-wakeup mailbox delivery batch size of every node's
    /// workers (clamped to at least 1).
    pub fn delivery_batch(mut self, batch: usize) -> Self {
        self.delivery_batch = batch;
        self
    }

    /// Sets the epoch window of the grouped external-commit confirmation
    /// (`<= 1` disables grouping, reproducing per-transaction rounds).
    pub fn confirm_epoch_max(mut self, window: usize) -> Self {
        self.confirm_epoch_max = window;
        self
    }

    /// Attaches an observability hub: sessions trace protocol phases into
    /// its rings and histograms (see [`sss_obs::ObsHub`]).
    pub fn observability(mut self, hub: Arc<ObsHub>) -> Self {
        self.observability = Some(hub);
        self
    }

    /// Runs the cluster under a deterministic-simulation scheduler: message
    /// delivery, worker execution and every protocol timeout move in virtual
    /// time (see `sss-sim`).
    pub fn scheduler(mut self, scheduler: SchedulerHandle) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Builds the key-placement map described by this configuration.
    pub fn replica_map(&self) -> ReplicaMap {
        ReplicaMap::new(self.nodes, self.replication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = SssConfig::new(5);
        assert_eq!(cfg.nodes, 5);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.storage_shards, sss_storage::DEFAULT_SHARDS);
        assert_eq!(LOCK_TIMEOUT, Duration::from_millis(1));
        assert!(cfg.latency.is_zero());
        assert_eq!(cfg.replica_map().degree(), 2);
        assert_eq!(cfg.confirm_epoch_max, DEFAULT_CONFIRM_EPOCH);
    }

    #[test]
    fn single_node_cluster_caps_replication() {
        let cfg = SssConfig::new(1);
        assert_eq!(cfg.replication, 1);
    }

    #[test]
    fn builder_methods_override_defaults() {
        let cfg = SssConfig::new(4)
            .replication(3)
            .latency(LatencyModel::cloudlab_like());
        assert_eq!(cfg.replication, 3);
        assert!(!cfg.latency.is_zero());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = SssConfig::new(0);
    }

    #[test]
    fn fault_plans_create_an_inert_injector() {
        let cfg = SssConfig::new(2).faults(FaultPlan::new(3));
        let injector = cfg.fault_injector.as_ref().expect("injector created");
        assert!(!injector.is_armed(), "plans must stay inert until armed");
        assert!(SssConfig::new(2).fault_injector.is_none());
    }
}
