//! Multi-threaded batched-delivery tests: strict priority order and zero
//! message loss across pause/resume and close, plus the transport-level
//! batch and local-delivery surfaces.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sss_net::{
    ChannelTransport, Envelope, Mailbox, NodeId, NodeRuntime, Priority, Transport, TransportConfig,
};

/// A `(producer, class, sequence)` tag pushed through the mailbox under test.
type Tagged = (usize, Priority, usize);

/// Four producer threads push tagged messages of every priority class while
/// four consumer threads drain with `pop_batch`; after close, every message
/// must have been delivered exactly once, and each drained batch must be
/// single-class with intra-batch FIFO order per producer.
#[test]
fn pop_batch_delivers_everything_exactly_once_across_threads() {
    const PRODUCERS: usize = 4;
    const PER_CLASS: usize = 500;
    let mailbox: Arc<Mailbox<Tagged>> = Arc::new(Mailbox::new());
    let consumed: Arc<Mutex<Vec<Vec<Tagged>>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let mailbox = Arc::clone(&mailbox);
            scope.spawn(move || {
                for seq in 0..PER_CLASS {
                    for priority in Priority::ALL {
                        assert!(mailbox.push((p, priority, seq), priority));
                    }
                }
            });
        }
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let mailbox = Arc::clone(&mailbox);
                let consumed = Arc::clone(&consumed);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while mailbox.pop_batch(7, &mut out) > 0 {
                        consumed.lock().unwrap().push(out.clone());
                        out.clear();
                    }
                })
            })
            .collect();
        // Give producers time to finish, then close so consumers exit after
        // draining the backlog.
        loop {
            let stats = mailbox.stats();
            if stats.total_enqueued() as usize == PRODUCERS * PER_CLASS * Priority::ALL.len() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        mailbox.close();
        for c in consumers {
            c.join().unwrap();
        }
    });

    let batches = consumed.lock().unwrap();
    // No loss, no duplication.
    let mut seen: HashSet<(usize, Priority, usize)> = HashSet::new();
    for batch in batches.iter() {
        // Batches never mix priority classes.
        assert!(
            batch.windows(2).all(|w| w[0].1 == w[1].1),
            "mixed-priority batch: {batch:?}"
        );
        for msg in batch {
            assert!(seen.insert(*msg), "duplicated message: {msg:?}");
        }
    }
    assert_eq!(
        seen.len(),
        PRODUCERS * PER_CLASS * Priority::ALL.len(),
        "messages were lost"
    );
    let stats = mailbox.stats();
    assert!(stats.is_coherent());
    assert_eq!(stats.total_dequeued(), stats.total_enqueued());
    assert!(
        stats.messages_per_wakeup() >= 1.0,
        "batching should average at least one message per wakeup"
    );
}

/// Per-producer FIFO within a priority class survives batched draining by a
/// single consumer.
#[test]
fn pop_batch_preserves_fifo_within_a_class() {
    let mailbox: Mailbox<usize> = Mailbox::new();
    for seq in 0..100 {
        mailbox.push(seq, Priority::Normal);
    }
    let mut out = Vec::new();
    let mut drained = Vec::new();
    while mailbox.try_pop().map(|m| drained.push(m)).is_some() {}
    assert_eq!(drained, (0..100).collect::<Vec<_>>());
    for seq in 100..200 {
        mailbox.push(seq, Priority::Normal);
    }
    while !mailbox.is_empty() {
        mailbox.pop_batch(9, &mut out);
    }
    assert_eq!(out, (100..200).collect::<Vec<_>>());
}

/// Messages pushed while paused are all delivered after resume; messages
/// pushed before a close are all delivered after it; nothing is lost or
/// reordered across the transitions, and higher classes still drain first.
#[test]
fn no_loss_across_pause_resume_and_close() {
    let mailbox: Arc<Mailbox<(Priority, usize)>> = Arc::new(Mailbox::new());
    let received: Arc<Mutex<Vec<(Priority, usize)>>> = Arc::new(Mutex::new(Vec::new()));

    let consumer = {
        let mailbox = Arc::clone(&mailbox);
        let received = Arc::clone(&received);
        std::thread::spawn(move || {
            let mut out = Vec::new();
            while mailbox.pop_batch(4, &mut out) > 0 {
                received.lock().unwrap().extend(out.drain(..));
            }
        })
    };

    let pause = mailbox.pause_control();
    for round in 0..50 {
        pause.pause();
        for seq in 0..4 {
            mailbox.push((Priority::Normal, round * 100 + seq), Priority::Normal);
            mailbox.push((Priority::High, round * 100 + seq), Priority::High);
        }
        pause.resume();
    }
    // Push a final burst and close while it is still queued.
    pause.pause();
    for seq in 0..10 {
        mailbox.push((Priority::Normal, 9000 + seq), Priority::Normal);
    }
    mailbox.close();
    consumer.join().unwrap();

    let received = received.lock().unwrap();
    assert_eq!(received.len(), 50 * 8 + 10, "no message may be lost");
    // Per class, per-sequence order is preserved.
    for class in Priority::ALL {
        let seqs: Vec<usize> = received
            .iter()
            .filter(|(p, _)| *p == class)
            .map(|(_, s)| *s)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "class {class:?} was reordered");
    }
    let stats = mailbox.stats();
    assert!(stats.is_coherent());
    assert_eq!(stats.total_dequeued(), stats.total_enqueued());
}

/// `Transport::send_batch` delivers the whole batch in order with a single
/// enqueue operation at the destination.
#[test]
fn transport_send_batch_is_one_enqueue_op() {
    let t: ChannelTransport<u32> = ChannelTransport::new(TransportConfig::new(2));
    t.send_batch(NodeId(0), NodeId(1), vec![1, 2, 3], Priority::High)
        .unwrap();
    let stats = t.mailbox_stats(NodeId(1));
    assert_eq!(stats.total_enqueued(), 3);
    assert_eq!(stats.enqueue_ops, 1, "a batch is one enqueue operation");
    let mb = t.mailbox(NodeId(1));
    let mut out = Vec::new();
    assert_eq!(mb.pop_batch(8, &mut out), 3);
    assert_eq!(
        out.into_iter().map(|e| e.payload).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
}

/// A registered local dispatch receives self-addressed messages without any
/// queueing; other destinations and paused nodes still go through the
/// mailbox.
#[test]
fn local_dispatch_bypasses_the_mailbox_for_self_sends_only() {
    let t: Arc<ChannelTransport<u32>> = Arc::new(ChannelTransport::new(TransportConfig::new(2)));
    let handled = Arc::new(AtomicUsize::new(0));
    {
        let handled = Arc::clone(&handled);
        t.set_local_dispatch(
            NodeId(0),
            Arc::new(move |env: Envelope<u32>| {
                handled.fetch_add(env.payload as usize, Ordering::SeqCst);
            }),
        );
    }
    t.send(NodeId(0), NodeId(0), 5, Priority::Normal).unwrap();
    t.send_batch(NodeId(0), NodeId(0), vec![1, 2], Priority::Normal)
        .unwrap();
    assert_eq!(handled.load(Ordering::SeqCst), 8, "handled synchronously");
    let stats = t.mailbox_stats(NodeId(0));
    assert_eq!(stats.total_enqueued(), 0, "nothing was queued");
    assert_eq!(stats.local_delivered, 3);

    // A remote destination still queues.
    t.send(NodeId(0), NodeId(1), 9, Priority::Normal).unwrap();
    assert_eq!(t.mailbox_stats(NodeId(1)).total_enqueued(), 1);

    // A paused node must not make progress through the fast path: the
    // self-send lands in the mailbox instead.
    t.mailbox(NodeId(0)).pause_control().pause();
    t.send(NodeId(0), NodeId(0), 7, Priority::Normal).unwrap();
    assert_eq!(handled.load(Ordering::SeqCst), 8, "paused: not dispatched");
    assert_eq!(t.mailbox_stats(NodeId(0)).total_enqueued(), 1);
    t.mailbox(NodeId(0)).pause_control().resume();
    assert_eq!(t.mailbox(NodeId(0)).pop().unwrap().payload, 7);
}

/// Workers draining in batches process everything that was queued, across
/// priorities, and exit cleanly on close.
#[test]
fn batched_runtime_processes_all_messages() {
    let transport: ChannelTransport<u64> = ChannelTransport::new(TransportConfig::new(1));
    let sum = Arc::new(AtomicUsize::new(0));
    let service = {
        let sum = Arc::clone(&sum);
        Arc::new(move |env: Envelope<u64>| {
            sum.fetch_add(env.payload as usize, Ordering::SeqCst);
        })
    };
    let runtime = NodeRuntime::spawn(NodeId(0), transport.mailbox(NodeId(0)), service, 3);
    let mut expected = 0usize;
    for i in 0..300u64 {
        let priority = Priority::ALL[i as usize % Priority::ALL.len()];
        transport.send(NodeId(0), NodeId(0), i, priority).unwrap();
        expected += i as usize;
    }
    transport.shutdown();
    runtime.join();
    assert_eq!(sum.load(Ordering::SeqCst), expected);
    let stats = transport.mailbox_stats(NodeId(0));
    assert_eq!(stats.total_dequeued(), 300);
    assert!(
        stats.dequeue_ops <= 300,
        "batching never exceeds one op per message"
    );
}
