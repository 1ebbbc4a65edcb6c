//! Integration tests of the message-passing substrate: request/reply over
//! worker pools, latency injection and reordering, priority handling under
//! load, and clean shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_net::{
    reply_channel, ChannelTransport, Envelope, LatencyModel, NodeId, NodeRuntime, Priority,
    ReplySender, Transport, TransportConfig, TransportExt,
};

/// A miniature echo protocol used to exercise the substrate end to end.
#[derive(Debug, Clone)]
enum EchoMessage {
    Ping {
        payload: u64,
        reply: ReplySender<u64>,
    },
    Burst {
        priority_class: Priority,
    },
}

struct EchoService {
    node: NodeId,
    processed: AtomicUsize,
    high_before_normal: AtomicUsize,
    normal_seen: AtomicUsize,
}

impl sss_net::NodeService<EchoMessage> for EchoService {
    fn handle(&self, envelope: Envelope<EchoMessage>) {
        assert_eq!(envelope.to, self.node, "envelope routed to the wrong node");
        match envelope.payload {
            EchoMessage::Ping { payload, reply } => {
                reply.send(payload * 2);
            }
            EchoMessage::Burst { priority_class } => match priority_class {
                Priority::High => {
                    if self.normal_seen.load(Ordering::SeqCst) == 0 {
                        self.high_before_normal.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Priority::Normal => {
                    self.normal_seen.fetch_add(1, Ordering::SeqCst);
                }
            },
        }
        self.processed.fetch_add(1, Ordering::SeqCst);
    }
}

fn start_cluster(
    nodes: usize,
    latency: LatencyModel,
) -> (
    Arc<ChannelTransport<EchoMessage>>,
    Vec<Arc<EchoService>>,
    Vec<NodeRuntime>,
) {
    let transport = Arc::new(ChannelTransport::new(
        TransportConfig::new(nodes).latency(latency).seed(7),
    ));
    let services: Vec<Arc<EchoService>> = (0..nodes)
        .map(|i| {
            Arc::new(EchoService {
                node: NodeId(i),
                processed: AtomicUsize::new(0),
                high_before_normal: AtomicUsize::new(0),
                normal_seen: AtomicUsize::new(0),
            })
        })
        .collect();
    let runtimes = services
        .iter()
        .map(|s| NodeRuntime::spawn(s.node, transport.mailbox(s.node), Arc::clone(s), 2))
        .collect();
    (transport, services, runtimes)
}

#[test]
fn request_reply_round_trips_across_many_nodes() {
    let (transport, services, runtimes) = start_cluster(6, LatencyModel::ZERO);
    for target in 0..6usize {
        let (reply, rx) = reply_channel(1);
        transport
            .send(
                NodeId(0),
                NodeId(target),
                EchoMessage::Ping {
                    payload: target as u64,
                    reply,
                },
                Priority::Normal,
            )
            .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Some(target as u64 * 2)
        );
    }
    transport.shutdown();
    for r in runtimes {
        r.join();
    }
    let processed: usize = services
        .iter()
        .map(|s| s.processed.load(Ordering::SeqCst))
        .sum();
    assert_eq!(processed, 6);
}

#[test]
fn fastest_replica_wins_with_latency_injection() {
    // One request fanned out to three "replicas": the reply used is whichever
    // arrives first; the others are absorbed by the channel capacity.
    let (transport, _services, runtimes) = start_cluster(
        4,
        LatencyModel::new(Duration::from_micros(200), Duration::from_micros(800)),
    );
    let (reply, rx) = reply_channel(3);
    let targets = [NodeId(1), NodeId(2), NodeId(3)];
    let msg = EchoMessage::Ping { payload: 21, reply };
    transport
        .multicast(NodeId(0), targets, msg, Priority::Normal)
        .unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Some(42));
    transport.shutdown();
    for r in runtimes {
        r.join();
    }
}

#[test]
fn high_priority_messages_overtake_queued_low_priority_traffic() {
    // Saturate a single-worker node with normal-priority traffic, then send a
    // high-priority message: it must be processed before most of the backlog.
    let transport: Arc<ChannelTransport<EchoMessage>> =
        Arc::new(ChannelTransport::new(TransportConfig::new(1)));
    let service = Arc::new(EchoService {
        node: NodeId(0),
        processed: AtomicUsize::new(0),
        high_before_normal: AtomicUsize::new(0),
        normal_seen: AtomicUsize::new(0),
    });
    // Queue the backlog BEFORE starting the worker so the ordering is
    // deterministic.
    for _ in 0..64 {
        transport
            .send(
                NodeId(0),
                NodeId(0),
                EchoMessage::Burst {
                    priority_class: Priority::Normal,
                },
                Priority::Normal,
            )
            .unwrap();
    }
    transport
        .send(
            NodeId(0),
            NodeId(0),
            EchoMessage::Burst {
                priority_class: Priority::High,
            },
            Priority::High,
        )
        .unwrap();
    let runtime = NodeRuntime::spawn(
        NodeId(0),
        transport.mailbox(NodeId(0)),
        Arc::clone(&service),
        1,
    );
    let deadline = Instant::now() + Duration::from_secs(2);
    while service.processed.load(Ordering::SeqCst) < 65 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service.processed.load(Ordering::SeqCst), 65);
    assert_eq!(
        service.high_before_normal.load(Ordering::SeqCst),
        1,
        "the high-priority message should have been handled before the normal-priority backlog"
    );
    transport.shutdown();
    runtime.join();
}

#[test]
fn latency_injection_delays_but_delivers_everything() {
    let (transport, services, runtimes) = start_cluster(
        2,
        LatencyModel::new(Duration::from_millis(1), Duration::from_millis(2)),
    );
    let start = Instant::now();
    for i in 0..50u64 {
        let (reply, _rx) = reply_channel(1);
        transport
            .send(
                NodeId(0),
                NodeId(1),
                EchoMessage::Ping { payload: i, reply },
                Priority::Normal,
            )
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while services[1].processed.load(Ordering::SeqCst) < 50 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(services[1].processed.load(Ordering::SeqCst), 50);
    assert!(
        start.elapsed() >= Duration::from_millis(1),
        "delivery should not be instantaneous with latency injection"
    );
    transport.shutdown();
    for r in runtimes {
        r.join();
    }
}

#[test]
fn shutdown_rejects_new_sends_and_joins_workers() {
    let (transport, services, runtimes) = start_cluster(3, LatencyModel::ZERO);
    transport.shutdown();
    let (reply, _rx) = reply_channel(1);
    assert!(transport
        .send(
            NodeId(0),
            NodeId(1),
            EchoMessage::Ping { payload: 1, reply },
            Priority::Normal
        )
        .is_err());
    for r in runtimes {
        r.join();
    }
    // Shutdown is idempotent.
    transport.shutdown();
    assert_eq!(services[1].processed.load(Ordering::SeqCst), 0);
}

#[test]
fn mailbox_statistics_reflect_traffic() {
    let (transport, _services, runtimes) = start_cluster(2, LatencyModel::ZERO);
    for i in 0..10u64 {
        let (reply, rx) = reply_channel(1);
        transport
            .send(
                NodeId(0),
                NodeId(1),
                EchoMessage::Ping { payload: i, reply },
                Priority::Normal,
            )
            .unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_some());
    }
    let stats = transport.mailbox_stats(NodeId(1));
    assert_eq!(stats.total_enqueued(), 10);
    assert_eq!(stats.total_dequeued(), 10);
    assert_eq!(
        stats.enqueued[1], 10,
        "all pings travelled on the normal class"
    );
    transport.shutdown();
    for r in runtimes {
        r.join();
    }
}
