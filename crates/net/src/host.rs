//! The cluster chassis: one transport, one worker pool per node, one way to
//! bring them up and down.

use std::sync::Arc;

use parking_lot::Mutex;
use sss_vclock::NodeId;

use crate::mailbox::MailboxStats;
use crate::runtime::{NodeRuntime, NodeService};
use crate::transport::{ChannelTransport, Transport, TransportConfig};

/// Worker threads draining each hosted node's mailbox.
pub const WORKERS_PER_NODE: usize = 4;

/// Hosts the nodes of one in-process cluster: owns the transport and the
/// worker runtimes that feed each node's mailbox to its [`NodeService`].
///
/// Every engine boots on this (SSS and the three baselines), so what a
/// comparison charges for the network — latency, fault plans, delivery
/// batching, the local fast path — is the same code with the same inputs.
/// Shutdown is idempotent and also runs on drop, so a host abandoned
/// mid-scenario never leaves workers behind.
pub struct NodeHost<M: Send + Clone + 'static> {
    transport: Arc<ChannelTransport<M>>,
    runtimes: Mutex<Vec<NodeRuntime>>,
}

impl<M: Send + Clone + 'static> NodeHost<M> {
    /// Boots a cluster: creates the transport described by `config`,
    /// attributes its traffic per message kind through `kind_index`, hands
    /// the pause gates and the transport's timers to the config's fault
    /// interposer, builds one service per node with
    /// `service`, registers each as the target of its node's local fast
    /// path and starts [`WORKERS_PER_NODE`] mailbox workers per node (see
    /// [`NodeRuntime::spawn`]).
    ///
    /// `service` receives the transport because nodes that send messages
    /// from their handlers hold it; the host only keeps weak handles to the
    /// services inside the transport, so that does not form a cycle.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero or a worker thread cannot be
    /// spawned.
    pub fn boot<S: NodeService<M>>(
        config: TransportConfig,
        kind_index: fn(&M) -> usize,
        mut service: impl FnMut(NodeId, &Arc<ChannelTransport<M>>) -> Arc<S>,
    ) -> (Self, Vec<Arc<S>>) {
        let nodes = config.nodes;
        let interposer = config.interposer.clone();
        let transport = Arc::new(ChannelTransport::new(config));
        transport.set_message_classifier(kind_index);
        if let Some(interposer) = interposer {
            let gates = (0..nodes)
                .map(|i| transport.mailbox(NodeId(i)).pause_control())
                .collect();
            interposer.attach(gates, transport.timers());
        }
        let services: Vec<Arc<S>> = (0..nodes).map(|i| service(NodeId(i), &transport)).collect();
        // Self-addressed messages skip the mailbox and run the handler on
        // the sending thread; registered before the workers start so the
        // path is available from the first send.
        for (i, service) in services.iter().enumerate() {
            let handler = Arc::downgrade(service);
            transport.set_local_dispatch(
                NodeId(i),
                Arc::new(move |envelope| {
                    if let Some(service) = handler.upgrade() {
                        service.handle(envelope);
                    }
                }),
            );
        }
        let runtimes = services
            .iter()
            .enumerate()
            .map(|(i, service)| {
                NodeRuntime::spawn(
                    NodeId(i),
                    transport.mailbox(NodeId(i)),
                    Arc::clone(service),
                    WORKERS_PER_NODE,
                )
            })
            .collect();
        let host = NodeHost {
            transport,
            runtimes: Mutex::new(runtimes),
        };
        (host, services)
    }

    /// The transport the hosted nodes communicate through.
    pub fn transport(&self) -> &Arc<ChannelTransport<M>> {
        &self.transport
    }

    /// Mailbox traffic counters summed over every node. Monotonic: diff two
    /// snapshots for per-window message accounting.
    pub fn mailbox_totals(&self) -> MailboxStats {
        let mut total = MailboxStats::default();
        for node in 0..self.transport.num_nodes() {
            total.merge(&self.transport.mailbox_stats(NodeId(node)));
        }
        total
    }

    /// Closes the transport and joins every worker once it has drained what
    /// was already queued. Idempotent.
    pub fn shutdown(&self) {
        self.transport.shutdown();
        for runtime in std::mem::take(&mut *self.runtimes.lock()) {
            runtime.join();
        }
    }
}

impl<M: Send + Clone + 'static> Drop for NodeHost<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: Send + Clone + 'static> std::fmt::Debug for NodeHost<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHost")
            .field("transport", &self.transport)
            .finish()
    }
}
