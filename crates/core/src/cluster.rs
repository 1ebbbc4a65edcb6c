//! Cluster bootstrap: boots the nodes on the shared `sss-net` chassis
//! ([`NodeHost`]), adds what only SSS has (crash-stop recovery, reliable
//! delivery derived from the fault plan) and hands out client sessions.

use std::sync::Arc;

use parking_lot::Mutex;
use sss_faults::{FaultInjector, FaultInterposer};
use sss_net::{NodeHost, TransportConfig};
use sss_vclock::{runtime, NodeId};

use crate::config::{SssConfig, LATENCY_SEED, WORKERS_PER_NODE};
use crate::error::SssError;
use crate::messages::SssMessage;
use crate::node::SssNode;
use crate::session::Session;
use crate::stats::{ClusterStats, NodeStats};

/// A running SSS cluster (in-process: every node is an actor with its own
/// worker pool, communicating only through the message transport).
///
/// # Example
///
/// ```rust
/// use sss_core::{SssCluster, SssConfig};
/// use sss_storage::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = SssCluster::start(SssConfig::new(3))?;
/// let session = cluster.session(0);
///
/// let mut txn = session.begin_update();
/// txn.write("greeting", "hello");
/// txn.commit()?;
///
/// let mut ro = session.begin_read_only();
/// assert_eq!(ro.read("greeting")?, Some(Value::from("hello")));
/// ro.commit()?;
/// cluster.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct SssCluster {
    config: SssConfig,
    host: NodeHost<SssMessage>,
    nodes: Vec<Arc<SssNode>>,
    /// Recovery rounds spawned by the restart hook. Joined at shutdown.
    recovery_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl SssCluster {
    /// Boots a cluster with the given configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice, but kept fallible for forward
    /// compatibility (e.g. resource exhaustion while spawning workers).
    pub fn start(config: SssConfig) -> Result<Self, SssError> {
        let injector = config.fault_injector.clone();
        // The reliable-delivery layer is on exactly when the fault plan can
        // lose messages (link loss, or crash windows that purge mailboxes):
        // running such a plan on the bare transport would wedge the
        // protocol by design, and every other plan keeps exercising the
        // handlers' own idempotency guards.
        let mut transport_config = TransportConfig::new(config.nodes)
            .latency(config.latency)
            .seed(LATENCY_SEED)
            .reliable(
                injector
                    .as_ref()
                    .is_some_and(|i| i.fault_plan().needs_reliable_delivery()),
            );
        if let Some(injector) = &injector {
            transport_config =
                transport_config.interposer(Arc::clone(injector) as Arc<dyn FaultInterposer>);
        }
        if let Some(scheduler) = &config.scheduler {
            transport_config = transport_config.scheduler(Arc::clone(scheduler));
        }
        let (host, nodes) = NodeHost::boot(
            transport_config,
            WORKERS_PER_NODE,
            config.delivery_batch,
            SssMessage::kind_index,
            |id, transport| Arc::new(SssNode::new(id, config.clone(), Arc::clone(transport))),
        );
        let recovery_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        if let Some(injector) = &injector {
            // Crash-stop hook: a crash purges the node's mailbox (undelivered
            // messages stay outstanding in the reliable layer and are
            // retransmitted after restart) and wipes its volatile protocol
            // state; a restart re-opens the mailbox and runs the peer
            // recovery round on its own task — never on the fault
            // scheduler, which must move on to the next window, and never
            // on a mailbox worker, which must not block on replies.
            //
            // Weak captures: every node holds the injector through its
            // config, so strong handles here would cycle and leak the
            // cluster.
            let hook_nodes: Vec<std::sync::Weak<SssNode>> =
                nodes.iter().map(Arc::downgrade).collect();
            let hook_transport = Arc::downgrade(host.transport());
            let hook_scheduler = config.scheduler.clone();
            let hook_recovery = Arc::clone(&recovery_threads);
            injector.attach_crash_hook(Arc::new(move |index, down| {
                let (Some(node), Some(transport)) = (
                    hook_nodes.get(index).and_then(std::sync::Weak::upgrade),
                    hook_transport.upgrade(),
                ) else {
                    return;
                };
                if down {
                    transport.mailbox(NodeId(index)).crash();
                    node.on_crash();
                } else {
                    transport.mailbox(NodeId(index)).restart();
                    // Not a daemon: under the simulator quiescence waits
                    // for the recovery round, so a seeded run always replays
                    // it to completion.
                    let handle = runtime::spawn(
                        hook_scheduler.as_ref(),
                        format!("sss-recovery-{index}"),
                        false,
                        move || node.recover_from_peers(),
                    );
                    hook_recovery.lock().push(handle);
                }
            }));
        }
        Ok(SssCluster {
            config,
            host,
            nodes,
            recovery_threads,
        })
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration the cluster was started with.
    pub fn config(&self) -> &SssConfig {
        &self.config
    }

    /// Opens a client session colocated with node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn session(&self, node: usize) -> Session {
        Session::new(Arc::clone(&self.nodes[node]))
    }

    /// Per-node protocol counters.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes.iter().map(|n| n.stats()).collect()
    }

    /// Aggregated protocol counters.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats::aggregate(self.node_stats())
    }

    /// Aggregated storage-layer counters (multi-version store and lock
    /// table, with per-shard contention breakdowns) summed over every node.
    /// The counters are monotonic; harnesses snapshot them at window
    /// boundaries and diff (see `sss_storage::StorageStats::diff`).
    pub fn storage_stats(&self) -> sss_storage::StorageStats {
        let mut total = sss_storage::StorageStats::default();
        for node in &self.nodes {
            total.merge(&node.storage_stats());
        }
        total
    }

    /// Aggregated mailbox traffic counters summed over every node, for
    /// per-window message accounting by benchmark harnesses.
    pub fn mailbox_totals(&self) -> sss_net::MailboxStats {
        self.host.mailbox_totals()
    }

    /// Total number of snapshot-queue entries across the cluster
    /// (diagnostic; converges to zero when the system is idle, thanks to the
    /// implicit garbage collection performed by `Remove`).
    pub fn snapshot_queue_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.snapshot_queue_entries()).sum()
    }

    /// Runs multi-version garbage collection on every node; returns the
    /// number of versions discarded.
    pub fn collect_garbage(&self) -> usize {
        self.nodes.iter().map(|n| n.collect_garbage()).sum()
    }

    /// Concatenated [`SssNode::pending_external_report`] of every node —
    /// transactions currently held in their Pre-Commit phase and the
    /// read-only entries blocking them. Diagnostic aid.
    pub fn pending_reports(&self) -> String {
        self.nodes
            .iter()
            .map(|n| n.pending_external_report())
            .collect()
    }

    /// The observability hub the cluster was started with, if any (see
    /// [`SssConfig::observability`]): phase traces, per-phase latency
    /// histograms and the per-node trace rings.
    pub fn observability(&self) -> Option<std::sync::Arc<sss_obs::ObsHub>> {
        self.config.observability.clone()
    }

    /// The fault injector the cluster was started under, if any. Arm it
    /// once the key space is populated so that the plan's scheduled windows
    /// cover the measured phase.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.config.fault_injector.as_ref()
    }

    /// Per-node liveness classification for stuck-run reports: `Crashed`
    /// while a crash window is open or a restarted node is still running
    /// its recovery round, `Paused` while a pause window holds the mailbox,
    /// `Alive` otherwise. Lets a watchdog distinguish "the fault plan took
    /// a node down" from a genuine protocol livelock.
    pub fn node_liveness(&self) -> Vec<sss_obs::NodeLiveness> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(index, node)| {
                let crashed = !node.is_available()
                    || self
                        .fault_injector()
                        .is_some_and(|i| i.is_node_crashed(index));
                if crashed {
                    sss_obs::NodeLiveness::Crashed
                } else if self
                    .host
                    .transport()
                    .mailbox(NodeId(index))
                    .pause_control()
                    .is_paused()
                {
                    sss_obs::NodeLiveness::Paused
                } else {
                    sss_obs::NodeLiveness::Alive
                }
            })
            .collect()
    }

    /// Per-node liveness diagnostics: mailbox traffic and queue depth,
    /// pause and availability state, snapshot-queue entries and commits
    /// awaiting external acknowledgement. Used by stuck-run detectors to
    /// explain *where* a faulted scenario wedged.
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for node in &self.nodes {
            let id = node.id();
            let mailbox = self.host.transport().mailbox(id);
            let stats = mailbox.stats();
            let _ = writeln!(
                out,
                "node {}: mailbox depth={} enqueued={} dequeued={} paused={} available={} \
                 snapshot-queue-entries={} waiting-external-commits={}",
                id.index(),
                mailbox.len(),
                stats.total_enqueued(),
                stats.total_dequeued(),
                mailbox.pause_control().is_paused(),
                node.is_available(),
                node.snapshot_queue_entries(),
                node.waiting_external_commits(),
            );
        }
        out.push_str(&self.pending_reports());
        out
    }

    /// Shuts the cluster down: disarms any fault injector, closes the
    /// transport and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        if let Some(injector) = self.fault_injector() {
            injector.disarm();
        }
        self.host.shutdown();
        // Joined after the transport shutdown: a recovery round still
        // waiting for peer replies unblocks as soon as its channels die.
        let recoveries = std::mem::take(&mut *self.recovery_threads.lock());
        for handle in recoveries {
            let _ = handle.join();
        }
    }
}

impl Drop for SssCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SssCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SssCluster")
            .field("nodes", &self.nodes.len())
            .field("replication", &self.config.replication)
            .finish()
    }
}
