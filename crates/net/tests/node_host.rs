//! The cluster chassis every engine boots on: `NodeHost` wires a transport,
//! the per-node services and their worker pools together, and takes them
//! down again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sss_net::{
    Envelope, FaultInterposer, MailboxStats, NodeHost, NodeService, PauseControl, Priority,
    SendPlan, Transport, TransportConfig,
};
use sss_vclock::runtime::Timers;
use sss_vclock::NodeId;

const NODES: usize = 3;

/// Adds each payload it handles to its node's counter.
struct Adder {
    node: usize,
    handled: Arc<Vec<AtomicU64>>,
}

impl NodeService<u64> for Adder {
    fn handle(&self, envelope: Envelope<u64>) {
        self.handled[self.node].fetch_add(envelope.payload, Ordering::SeqCst);
    }
}

/// Boots one [`Adder`] per node, traffic classified by payload parity.
fn boot(
    config: TransportConfig,
    handled: &Arc<Vec<AtomicU64>>,
) -> (NodeHost<u64>, Vec<Arc<Adder>>) {
    NodeHost::boot(
        config,
        |payload| (*payload % 2) as usize,
        |id, _| {
            Arc::new(Adder {
                node: id.index(),
                handled: Arc::clone(handled),
            })
        },
    )
}

fn counters() -> Arc<Vec<AtomicU64>> {
    Arc::new((0..NODES).map(|_| AtomicU64::new(0)).collect())
}

#[test]
fn self_sends_take_the_local_fast_path() {
    let handled = counters();
    let (host, _services) = boot(TransportConfig::new(NODES), &handled);
    host.transport()
        .send(NodeId(1), NodeId(1), 5, Priority::Normal)
        .unwrap();
    // Handled on the sending thread, before `send` returned, and never
    // queued.
    assert_eq!(handled[1].load(Ordering::SeqCst), 5);
    let totals = host.mailbox_totals();
    assert_eq!(totals.local_delivered, 1);
    assert_eq!(totals.total_enqueued(), 0);
    assert_eq!(
        totals.per_kind[1], 1,
        "classified by the boot-time classifier"
    );
}

#[test]
fn traffic_is_delivered_counted_and_conserved_across_shutdown() {
    let handled = counters();
    let (host, _services) = boot(TransportConfig::new(NODES), &handled);
    let before = host.mailbox_totals();
    for i in 0..30u64 {
        let (from, to) = (NodeId((i % 3) as usize), NodeId(((i + 1) % 3) as usize));
        host.transport()
            .send(from, to, 1, Priority::Normal)
            .unwrap();
    }
    // Shutdown closes the transport and joins the workers once they have
    // drained what was queued; a second call has nothing left to do.
    host.shutdown();
    host.shutdown();
    let after = host.mailbox_totals();
    assert!(MailboxStats::conserves(&before, &after));
    assert_eq!(after.total_enqueued(), 30);
    assert_eq!(after.total_dequeued(), 30);
    let total: u64 = handled.iter().map(|n| n.load(Ordering::SeqCst)).sum();
    assert_eq!(total, 30);
    assert!(host
        .transport()
        .send(NodeId(0), NodeId(1), 1, Priority::Normal)
        .is_err());
}

#[test]
fn dropping_the_host_joins_every_worker() {
    let handled = counters();
    let (host, services) = boot(TransportConfig::new(NODES), &handled);
    for to in 0..NODES {
        host.transport()
            .send(NodeId(0), NodeId(to), 1, Priority::Normal)
            .unwrap();
    }
    assert!(services.iter().all(|s| Arc::strong_count(s) > 1));
    drop(host);
    // Each worker held a handle to its node's service; none is left, so
    // every worker thread has exited (and the transport's local-dispatch
    // entries only ever held weak ones).
    assert!(services.iter().all(|s| Arc::strong_count(s) == 1));
    let total: u64 = handled.iter().map(|n| n.load(Ordering::SeqCst)).sum();
    assert_eq!(total, NODES as u64, "queued messages drain before the join");
}

/// An interposer that plans nothing and records what the host hands it.
#[derive(Debug, Default)]
struct Recorder {
    gates: Mutex<Vec<Arc<PauseControl>>>,
}

impl FaultInterposer for Recorder {
    fn plan(&self, _from: NodeId, _to: NodeId, _now: Instant) -> SendPlan {
        SendPlan::pass()
    }

    fn attach(&self, pause_controls: Vec<Arc<PauseControl>>, _timers: &Arc<Timers>) {
        *self.gates.lock() = pause_controls;
    }
}

#[test]
fn the_interposer_receives_the_nodes_pause_gates() {
    let handled = counters();
    let recorder = Arc::new(Recorder::default());
    let config = TransportConfig::new(NODES).interposer(Arc::clone(&recorder) as _);
    let (host, _services) = boot(config, &handled);
    let gates = recorder.gates.lock().clone();
    assert_eq!(gates.len(), NODES);
    // The gates are the mailboxes' own: pausing one holds that node's
    // deliveries (even self-sends leave the fast path) until it resumes.
    gates[2].pause();
    host.transport()
        .send(NodeId(2), NodeId(2), 9, Priority::Normal)
        .unwrap();
    assert_eq!(handled[2].load(Ordering::SeqCst), 0);
    assert_eq!(host.mailbox_totals().total_enqueued(), 1);
    gates[2].resume();
    host.shutdown();
    assert_eq!(handled[2].load(Ordering::SeqCst), 9);
}
