//! Worker pools that drive a node's message handlers.

use std::sync::Arc;

use sss_vclock::{runtime, NodeId};

use crate::mailbox::{Mailbox, DEFAULT_DELIVERY_BATCH};
use crate::transport::Envelope;

/// A node's message handler.
///
/// Handlers must not block indefinitely: protocol waits (e.g. the visibility
/// wait of Algorithm 6 line 5 or the pre-commit wait of Algorithm 4) are
/// implemented as *deferred work* re-evaluated on later state changes, so a
/// handler invocation always terminates promptly. Bounded waits (the 2PC
/// lock-acquisition timeout) are allowed.
pub trait NodeService<M>: Send + Sync + 'static {
    /// Processes one incoming envelope.
    fn handle(&self, envelope: Envelope<M>);
}

impl<M, F> NodeService<M> for F
where
    F: Fn(Envelope<M>) + Send + Sync + 'static,
{
    fn handle(&self, envelope: Envelope<M>) {
        self(envelope)
    }
}

/// A pool of worker threads draining one node's mailbox.
///
/// The runtime owns a shutdown guard for its mailbox: dropping it closes
/// the mailbox and joins every worker, so a harness abandoned mid-scenario
/// (e.g. on a stuck-run abort) can never deadlock on un-joined workers.
/// Explicitly calling [`NodeRuntime::join`] does the same and is idempotent
/// with the drop path.
pub struct NodeRuntime {
    node: NodeId,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Closes the mailbox the workers drain; erased so the runtime stays
    /// non-generic over the message type.
    close_mailbox: Arc<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("node", &self.node)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl NodeRuntime {
    /// Spawns `workers` threads that pop envelopes from `mailbox` and feed
    /// them to `service` until the mailbox is closed and drained, draining
    /// up to [`DEFAULT_DELIVERY_BATCH`] messages per wakeup.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread cannot be spawned.
    pub fn spawn<M, S>(
        node: NodeId,
        mailbox: Arc<Mailbox<Envelope<M>>>,
        service: Arc<S>,
        workers: usize,
    ) -> Self
    where
        M: Send + 'static,
        S: NodeService<M>,
    {
        Self::spawn_batched(node, mailbox, service, workers, DEFAULT_DELIVERY_BATCH)
    }

    /// Like [`NodeRuntime::spawn`], but each worker drains up to `batch`
    /// messages of the same priority class per mailbox wakeup and processes
    /// the whole batch before re-parking. `batch` is clamped to at least 1;
    /// batch size 1 reproduces one-message-per-wakeup delivery exactly.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread cannot be spawned.
    pub fn spawn_batched<M, S>(
        node: NodeId,
        mailbox: Arc<Mailbox<Envelope<M>>>,
        service: Arc<S>,
        workers: usize,
        batch: usize,
    ) -> Self
    where
        M: Send + 'static,
        S: NodeService<M>,
    {
        assert!(workers > 0, "a node needs at least one worker thread");
        let batch = batch.max(1);
        // Under the mailbox's simulation scheduler workers are daemon tasks:
        // same loop, idle-parked at quiescence.
        let scheduler = mailbox.scheduler();
        let handles = (0..workers)
            .map(|w| {
                let mailbox = Arc::clone(&mailbox);
                let service = Arc::clone(&service);
                let name = format!("sss-node-{}-w{}", node.index(), w);
                let body = move || {
                    let mut drained = Vec::with_capacity(batch);
                    while mailbox.pop_batch(batch, &mut drained) > 0 {
                        for envelope in drained.drain(..) {
                            // A pause that lands mid-batch must freeze
                            // the node at the next message boundary,
                            // exactly as unbatched delivery would.
                            mailbox.pause_point();
                            service.handle(envelope);
                        }
                    }
                };
                runtime::spawn(scheduler.as_ref(), name, true, body)
            })
            .collect();
        let close_mailbox = Arc::new(move || mailbox.close());
        NodeRuntime {
            node,
            workers: handles,
            close_mailbox,
        }
    }

    /// The node this runtime serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Closes the mailbox (idempotent) and waits for every worker to exit,
    /// which happens once the remaining queued messages have been drained.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Closing first guarantees the joins below terminate: workers exit
        // as soon as the closed mailbox runs dry (a pause gate is overridden
        // by the close).
        (self.close_mailbox)();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Priority;
    use crate::transport::{ChannelTransport, Transport, TransportConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_process_messages_and_exit_on_close() {
        let transport: ChannelTransport<u64> = ChannelTransport::new(TransportConfig::new(1));
        let counter = Arc::new(AtomicUsize::new(0));
        let service = {
            let counter = Arc::clone(&counter);
            Arc::new(move |env: Envelope<u64>| {
                counter.fetch_add(env.payload as usize, Ordering::SeqCst);
            })
        };
        let runtime = NodeRuntime::spawn(NodeId(0), transport.mailbox(NodeId(0)), service, 3);
        assert_eq!(runtime.worker_count(), 3);
        assert_eq!(runtime.node(), NodeId(0));
        for _ in 0..100 {
            transport
                .send(NodeId(0), NodeId(0), 2, Priority::Normal)
                .unwrap();
        }
        transport.shutdown();
        runtime.join();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn dropping_the_runtime_closes_the_mailbox_and_joins_workers() {
        let transport: ChannelTransport<u64> = ChannelTransport::new(TransportConfig::new(1));
        let counter = Arc::new(AtomicUsize::new(0));
        let service = {
            let counter = Arc::clone(&counter);
            Arc::new(move |_env: Envelope<u64>| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
        };
        let runtime = NodeRuntime::spawn(NodeId(0), transport.mailbox(NodeId(0)), service, 2);
        for _ in 0..10 {
            transport
                .send(NodeId(0), NodeId(0), 1, Priority::Normal)
                .unwrap();
        }
        // No transport shutdown: the drop alone must terminate the workers
        // (after draining what was already queued).
        drop(runtime);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert!(transport.mailbox(NodeId(0)).is_closed());
    }

    #[test]
    fn join_after_drop_path_is_idempotent_with_transport_shutdown() {
        let transport: ChannelTransport<u64> = ChannelTransport::new(TransportConfig::new(1));
        let service = Arc::new(|_env: Envelope<u64>| {});
        let runtime = NodeRuntime::spawn(NodeId(0), transport.mailbox(NodeId(0)), service, 1);
        transport.shutdown();
        transport.shutdown();
        runtime.join();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let transport: ChannelTransport<u64> = ChannelTransport::new(TransportConfig::new(1));
        let service = Arc::new(|_env: Envelope<u64>| {});
        let _ = NodeRuntime::spawn(NodeId(0), transport.mailbox(NodeId(0)), service, 0);
    }
}
