//! The reliable-delivery layer under message loss, driven by the
//! deterministic simulator: retransmissions fire on virtual-time deadlines,
//! receiver-side dedup turns the at-least-once wire into effectively-once
//! handler delivery, and the layer's counters conserve (everything sent is
//! eventually acknowledged, nothing outstanding at quiescence).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sss_net::{
    ChannelTransport, Envelope, FaultInterposer, NodeRuntime, Priority, SendPlan, Transport,
    TransportConfig, RETRANSMIT_RTO,
};
use sss_sim::SimRuntime;
use sss_vclock::NodeId;

/// SplitMix64 finalizer: a pure hash so the loss draws below are a
/// deterministic function of the draw counter alone (no RNG state to seed).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drops `percent`% of the wire attempts on one directed link (first sends
/// and retransmissions alike; acks travel the reverse link and pass). The
/// draw sequence is a pure function of an attempt counter, so every run —
/// and every seed — replays the same loss pattern.
#[derive(Debug)]
struct LossyLink {
    from: NodeId,
    to: NodeId,
    percent: u64,
    draws: AtomicU64,
}

impl LossyLink {
    fn new(from: NodeId, to: NodeId, percent: u64) -> Self {
        LossyLink {
            from,
            to,
            percent,
            draws: AtomicU64::new(0),
        }
    }
}

impl FaultInterposer for LossyLink {
    fn plan(&self, from: NodeId, to: NodeId, _now: Instant) -> SendPlan {
        if from != self.from || to != self.to {
            return SendPlan::pass();
        }
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        if mix(draw) % 100 < self.percent {
            SendPlan::lost()
        } else {
            SendPlan::pass()
        }
    }
}

/// Duplicates every wire attempt on every link.
#[derive(Debug)]
struct DuplicateEverything;

impl FaultInterposer for DuplicateEverything {
    fn plan(&self, _from: NodeId, _to: NodeId, _now: Instant) -> SendPlan {
        SendPlan::pass().duplicate(Duration::ZERO)
    }
}

/// What one simulated lossy run observed, for determinism comparisons.
#[derive(Debug, PartialEq, Eq)]
struct LossyRunSummary {
    delivered: Vec<(u64, u64)>,
    retransmits: u64,
    virtual_nanos: u128,
}

/// Runs `messages` distinct payloads from node 0 to node 1 over a link
/// dropping `loss_percent`% of wire attempts, under the reliable layer, and
/// returns `(per-payload delivery counts, reliability stats, summary)`.
fn lossy_run(seed: u64, messages: u64, loss_percent: u64) -> (HashMap<u64, u64>, LossyRunSummary) {
    let sim = SimRuntime::new(seed);
    let config = TransportConfig::new(2)
        .seed(seed)
        .scheduler(sim.handle())
        .interposer(Arc::new(LossyLink::new(NodeId(0), NodeId(1), loss_percent)))
        .reliable(true);
    let transport: Arc<ChannelTransport<u64>> = Arc::new(ChannelTransport::new(config));
    let seen: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let service = {
        let seen = Arc::clone(&seen);
        Arc::new(move |env: Envelope<u64>| {
            *seen.lock().entry(env.payload).or_insert(0) += 1;
        })
    };
    let rt0 = NodeRuntime::spawn(
        NodeId(0),
        transport.mailbox(NodeId(0)),
        Arc::clone(&service),
        1,
    );
    let rt1 = NodeRuntime::spawn(NodeId(1), transport.mailbox(NodeId(1)), service, 1);

    let driver_transport = Arc::clone(&transport);
    sim.block_on("driver", move || {
        for payload in 0..messages {
            driver_transport
                .send(NodeId(0), NodeId(1), payload, Priority::Normal)
                .unwrap();
        }
    });
    // Quiescence drains everything the layer scheduled: in-flight copies,
    // ack crossings and every armed retransmission timer.
    sim.wait_quiescent();

    let stats = transport
        .reliability_stats()
        .expect("the reliable layer is enabled");
    assert_eq!(stats.sent, messages, "every send enters the layer once");
    assert_eq!(
        stats.outstanding, 0,
        "nothing may remain unacknowledged at quiescence"
    );
    assert_eq!(stats.gave_up, 0, "no message may exhaust its attempts");
    assert_eq!(
        stats.acks, messages,
        "counters conserve: every sequence number is eventually acknowledged"
    );

    let counts = seen.lock().clone();
    let mut delivered: Vec<(u64, u64)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    delivered.sort_unstable();
    let summary = LossyRunSummary {
        delivered,
        retransmits: stats.retransmits,
        virtual_nanos: sim.virtual_elapsed().as_nanos(),
    };
    transport.shutdown();
    rt0.join();
    rt1.join();
    (counts, summary)
}

#[test]
fn loss_rate_sweep_delivers_everything_exactly_once() {
    for loss_percent in [0, 10, 25, 50] {
        let (counts, summary) = lossy_run(42, 60, loss_percent);
        assert_eq!(
            counts.len(),
            60,
            "{loss_percent}% loss: every payload must reach the handler"
        );
        for (payload, times) in &counts {
            assert_eq!(
                *times, 1,
                "{loss_percent}% loss: payload {payload} handled more than once"
            );
        }
        if loss_percent == 0 {
            assert_eq!(summary.retransmits, 0, "lossless run never retransmits");
        } else {
            assert!(
                summary.retransmits > 0,
                "{loss_percent}% loss: lost first attempts must be retransmitted"
            );
        }
    }
}

#[test]
fn lossy_runs_replay_bit_identically_by_seed() {
    let (_, a) = lossy_run(7, 40, 30);
    let (_, b) = lossy_run(7, 40, 30);
    assert_eq!(
        a, b,
        "same seed: same deliveries, same retransmit count, same virtual time"
    );
}

#[test]
fn retransmit_waits_for_its_virtual_time_deadline() {
    // A link that loses exactly the first wire attempt: delivery can only
    // happen through the retransmission, whose timer is armed at the
    // jittered base RTO — at least RTO/2 of *virtual* time after the send.
    #[derive(Debug)]
    struct LoseFirstAttempt {
        draws: AtomicU64,
    }
    impl FaultInterposer for LoseFirstAttempt {
        fn plan(&self, from: NodeId, to: NodeId, _now: Instant) -> SendPlan {
            if from == NodeId(0)
                && to == NodeId(1)
                && self.draws.fetch_add(1, Ordering::Relaxed) == 0
            {
                SendPlan::lost()
            } else {
                SendPlan::pass()
            }
        }
    }
    let sim = SimRuntime::new(3);
    let config = TransportConfig::new(2)
        .scheduler(sim.handle())
        .interposer(Arc::new(LoseFirstAttempt {
            draws: AtomicU64::new(0),
        }))
        .reliable(true);
    let transport: Arc<ChannelTransport<u64>> = Arc::new(ChannelTransport::new(config));
    let handled = Arc::new(AtomicU64::new(0));
    let service = {
        let handled = Arc::clone(&handled);
        Arc::new(move |_env: Envelope<u64>| {
            handled.fetch_add(1, Ordering::SeqCst);
        })
    };
    let rt0 = NodeRuntime::spawn(
        NodeId(0),
        transport.mailbox(NodeId(0)),
        Arc::clone(&service),
        1,
    );
    let rt1 = NodeRuntime::spawn(NodeId(1), transport.mailbox(NodeId(1)), service, 1);
    let driver_transport = Arc::clone(&transport);
    sim.block_on("driver", move || {
        driver_transport
            .send(NodeId(0), NodeId(1), 9, Priority::Normal)
            .unwrap();
    });
    sim.wait_quiescent();

    assert_eq!(handled.load(Ordering::SeqCst), 1);
    let stats = transport.reliability_stats().unwrap();
    assert!(stats.retransmits >= 1, "delivery required a retransmission");
    assert_eq!(stats.outstanding, 0);
    // The jittered exponential backoff schedules the first retransmit in
    // [rto/2, rto): virtual time must have advanced at least that far — the
    // timer really waited for its deadline instead of firing immediately.
    assert!(
        sim.virtual_elapsed() >= RETRANSMIT_RTO / 2,
        "virtual time only advanced {:?}, expected at least {:?}",
        sim.virtual_elapsed(),
        RETRANSMIT_RTO / 2
    );
    transport.shutdown();
    rt0.join();
    rt1.join();
}

#[test]
fn wire_duplicates_are_suppressed_before_the_handler() {
    let sim = SimRuntime::new(11);
    let config = TransportConfig::new(2)
        .scheduler(sim.handle())
        .interposer(Arc::new(DuplicateEverything))
        .reliable(true);
    let transport: Arc<ChannelTransport<u64>> = Arc::new(ChannelTransport::new(config));
    let seen: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let service = {
        let seen = Arc::clone(&seen);
        Arc::new(move |env: Envelope<u64>| {
            *seen.lock().entry(env.payload).or_insert(0) += 1;
        })
    };
    let rt0 = NodeRuntime::spawn(
        NodeId(0),
        transport.mailbox(NodeId(0)),
        Arc::clone(&service),
        1,
    );
    let rt1 = NodeRuntime::spawn(NodeId(1), transport.mailbox(NodeId(1)), service, 1);
    let driver_transport = Arc::clone(&transport);
    sim.block_on("driver", move || {
        for payload in 0..32u64 {
            driver_transport
                .send(NodeId(0), NodeId(1), payload, Priority::Normal)
                .unwrap();
        }
    });
    sim.wait_quiescent();

    let counts = seen.lock().clone();
    assert_eq!(counts.len(), 32);
    for (payload, times) in &counts {
        assert_eq!(*times, 1, "payload {payload} leaked a duplicate");
    }
    let stats = transport.reliability_stats().unwrap();
    assert!(
        stats.duplicates_suppressed >= 32,
        "every duplicated wire copy must be suppressed (got {})",
        stats.duplicates_suppressed
    );
    assert_eq!(stats.outstanding, 0);
    transport.shutdown();
    rt0.join();
    rt1.join();
}

#[test]
fn lost_acks_cost_duplicates_never_deliveries() {
    // Loss on the *reverse* link only: every message arrives on the first
    // attempt, but its ack is often dropped, so the sender retransmits and
    // the receiver suppresses + re-acks until one crossing survives.
    let sim = SimRuntime::new(19);
    let config = TransportConfig::new(2)
        .scheduler(sim.handle())
        .interposer(Arc::new(LossyLink::new(NodeId(1), NodeId(0), 60)))
        .reliable(true);
    let transport: Arc<ChannelTransport<u64>> = Arc::new(ChannelTransport::new(config));
    let seen: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let service = {
        let seen = Arc::clone(&seen);
        Arc::new(move |env: Envelope<u64>| {
            *seen.lock().entry(env.payload).or_insert(0) += 1;
        })
    };
    let rt0 = NodeRuntime::spawn(
        NodeId(0),
        transport.mailbox(NodeId(0)),
        Arc::clone(&service),
        1,
    );
    let rt1 = NodeRuntime::spawn(NodeId(1), transport.mailbox(NodeId(1)), service, 1);
    let driver_transport = Arc::clone(&transport);
    sim.block_on("driver", move || {
        for payload in 0..40u64 {
            driver_transport
                .send(NodeId(0), NodeId(1), payload, Priority::Normal)
                .unwrap();
        }
    });
    sim.wait_quiescent();

    let counts = seen.lock().clone();
    assert_eq!(counts.len(), 40);
    for (payload, times) in &counts {
        assert_eq!(*times, 1, "payload {payload} handled more than once");
    }
    let stats = transport.reliability_stats().unwrap();
    assert_eq!(stats.acks, 40, "every message is eventually retired");
    assert_eq!(stats.outstanding, 0);
    assert!(
        stats.duplicates_suppressed > 0,
        "lost acks must have produced suppressed duplicates"
    );
    transport.shutdown();
    rt0.join();
    rt1.join();
}
