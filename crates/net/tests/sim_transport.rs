//! The full net pipeline — transport, mailboxes, node workers, reply
//! channels — driven by the discrete-event simulator instead of threads and
//! sleeps: latency becomes virtual-time delivery events, workers become
//! daemon tasks, and a fixed seed replays the run exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_net::{
    ChannelTransport, Envelope, LatencyModel, NodeRuntime, Priority, Transport, TransportConfig,
};
use sss_sim::SimRuntime;
use sss_vclock::NodeId;

/// Summary of one simulated run, used to assert seed determinism.
#[derive(Debug, PartialEq, Eq)]
struct RunSummary {
    handled: u64,
    virtual_nanos: u128,
    enqueued: [u64; 3],
}

fn echo_run(seed: u64, messages: u64) -> RunSummary {
    let sim = SimRuntime::new(seed);
    let config = TransportConfig::new(2)
        .latency(LatencyModel::new(
            Duration::from_millis(3),
            Duration::from_millis(1),
        ))
        .seed(7)
        .scheduler(sim.handle());
    let transport: Arc<ChannelTransport<u64>> = Arc::new(ChannelTransport::new(config));
    let handled = Arc::new(AtomicU64::new(0));
    let service = {
        let handled = Arc::clone(&handled);
        Arc::new(move |env: Envelope<u64>| {
            handled.fetch_add(env.payload, Ordering::SeqCst);
        })
    };
    let rt0 = NodeRuntime::spawn(
        NodeId(0),
        transport.mailbox(NodeId(0)),
        Arc::clone(&service),
        2,
    );
    let rt1 = NodeRuntime::spawn(NodeId(1), transport.mailbox(NodeId(1)), service, 2);

    let driver_transport = Arc::clone(&transport);
    sim.block_on("driver", move || {
        for i in 0..messages {
            let to = NodeId((i % 2) as usize);
            driver_transport
                .send(NodeId(0), to, 1, Priority::Normal)
                .unwrap();
            if i % 8 == 0 {
                sss_vclock::runtime::sleep(Duration::from_millis(1));
            }
        }
    });
    // Scheduled deliveries keep firing after the driver exits; quiescence
    // means every message has been delivered and every worker is parked.
    sim.wait_quiescent();

    let mut enqueued = [0u64; 3];
    for node in [NodeId(0), NodeId(1)] {
        let stats = transport.mailbox_stats(node);
        for (total, n) in enqueued.iter_mut().zip(stats.enqueued) {
            *total += n;
        }
    }
    let summary = RunSummary {
        handled: handled.load(Ordering::SeqCst),
        virtual_nanos: sim.virtual_elapsed().as_nanos(),
        enqueued,
    };
    transport.shutdown();
    rt0.join();
    rt1.join();
    summary
}

#[test]
fn simulated_pipeline_delivers_everything_in_virtual_time() {
    let wall_start = Instant::now();
    let summary = echo_run(42, 200);
    assert_eq!(summary.handled, 200, "every message must be handled");
    assert_eq!(summary.enqueued.iter().sum::<u64>(), 200);
    // 200 messages at >=3ms simulated latency each: virtual time moved, but
    // none of it was slept on the wall clock.
    assert!(summary.virtual_nanos >= Duration::from_millis(3).as_nanos());
    assert!(
        wall_start.elapsed() < Duration::from_secs(30),
        "virtual latency must not consume wall-clock time at scale"
    );
}

#[test]
fn same_seed_replays_the_run_exactly() {
    let a = echo_run(7, 120);
    let b = echo_run(7, 120);
    assert_eq!(a, b, "a fixed seed must replay bit-identically");
}

#[test]
fn reply_channels_work_against_the_virtual_clock() {
    let sim = SimRuntime::new(1);
    let config = TransportConfig::new(1)
        .latency(LatencyModel::new(Duration::from_millis(5), Duration::ZERO))
        .scheduler(sim.handle());
    // The node echoes each payload back through a reply channel handed over
    // out-of-band (keyed by payload here, since the message type is just u64).
    let (reply_tx, reply_rx) = sss_net::reply_channel::<u64>(1);
    let transport: Arc<ChannelTransport<u64>> = Arc::new(ChannelTransport::new(config));
    let reply_tx = Arc::new(parking_lot::Mutex::new(Some(reply_tx)));
    let service = {
        let reply_tx = Arc::clone(&reply_tx);
        Arc::new(move |env: Envelope<u64>| {
            if let Some(tx) = reply_tx.lock().take() {
                tx.send(env.payload * 2);
            }
        })
    };
    let rt = NodeRuntime::spawn(NodeId(0), transport.mailbox(NodeId(0)), service, 1);
    let driver_transport = Arc::clone(&transport);
    let got = sim.block_on("requester", move || {
        driver_transport
            .send(NodeId(0), NodeId(0), 21, Priority::High)
            .unwrap();
        // The reply can only arrive after >=5ms of *virtual* latency; the
        // timeout is also virtual, so this returns promptly on the wall
        // clock either way.
        reply_rx.recv_timeout(Duration::from_secs(60))
    });
    assert_eq!(got, Some(42));
    sim.wait_quiescent();
    assert!(sim.virtual_elapsed() >= Duration::from_millis(5));
    transport.shutdown();
    rt.join();
}

#[test]
fn a_gather_deadline_is_virtual() {
    let sim = SimRuntime::new(3);
    let handle = sim.handle();
    let wall_start = Instant::now();
    let outcome = sim.block_on("coordinator", move || {
        // One of two participants answers (from another task, one virtual
        // second in); the other never does.
        let (reply, replies) = sss_net::reply_channel::<NodeId>(2);
        let silent = reply.clone();
        let _ = handle.spawn_task(
            "participant".into(),
            false,
            Box::new(move || {
                sss_vclock::runtime::sleep(Duration::from_secs(1));
                reply.send(NodeId(0));
            }),
        );
        let mut answered = Vec::new();
        let outcome = replies.gather(
            2,
            Duration::from_secs(3600),
            |from| Some(*from),
            |from| {
                answered.push(from);
                true
            },
        );
        drop(silent);
        (outcome, answered)
    });
    assert_eq!(outcome, (sss_net::Gather::TimedOut, vec![NodeId(0)]));
    // The coordinator waited out the whole hour on the virtual clock and
    // none of it on the wall clock.
    assert!(sim.virtual_elapsed() >= Duration::from_secs(3600));
    assert!(wall_start.elapsed() < Duration::from_secs(600));
}
