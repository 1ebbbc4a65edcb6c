//! Micro-timings of each layer's public functions, taken from outside the
//! program: the median of `BATCHES` timed batches of the call. They do not
//! depend on the workload.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    reply_channel, ChannelTransport, CoalescerCore, CommitQueue, Envelope, Histogram, Key,
    LatencyModel, LockKind, LockTable, Mailbox, MvStore, NLog, NodeId, NodeRuntime, Priority,
    ReplicaMap, ReplySender, RoundPlan, SnapshotQueue, Transport, TransportConfig, TxnId, Value,
    VectorClock, NODES, REPLICATION,
};
use crate::client::{run_client, sample_buffer, Attempt, RssMark, Stop, TxnRunner};
use crate::gen::{Mix, TxnGen};
use crate::report::Metric;
use crate::stats::median;

/// Timed batches per micro-timing.
const BATCHES: usize = 7;
/// Length of the version chains the storage timings walk.
const CHAIN: u64 = 64;
/// The delay of the transport-overshoot timing, in microseconds.
const INJECTED_DELAY_US: f64 = 50.0;

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(0), seq)
}

fn clock(seed: u64) -> VectorClock {
    VectorClock::from_entries((0..NODES as u64).map(|i| seed + i).collect())
}

/// Median over the batches of the mean nanoseconds one call of `op` takes;
/// `fresh` builds the state a batch works on (not timed).
fn per_call_ns<S>(
    calls: u64,
    mut fresh: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, u64),
) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = fresh();
            let started = Instant::now();
            for i in 0..calls {
                op(&mut state, i);
            }
            let elapsed = started.elapsed();
            black_box(&state);
            elapsed.as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

fn chain_store() -> (MvStore, Key) {
    let store = MvStore::new();
    let key = Key::new("chain");
    for i in 1..=CHAIN {
        store.apply(key.clone(), Value::from_u64(i), clock(i), txn(i));
    }
    (store, key)
}

fn vclock() -> Vec<Metric> {
    let (a, b) = (clock(10), clock(12));
    vec![
        Metric::new(
            "vclock.merge_ns",
            per_call_ns(200_000, || a.clone(), |c, _| c.merge(black_box(&b))),
            "ns",
        ),
        Metric::new(
            "vclock.dominates_ns",
            per_call_ns(
                200_000,
                || (),
                |_, _| {
                    black_box(black_box(&a).dominates(black_box(&b)));
                },
            ),
            "ns",
        ),
        Metric::new(
            "vclock.clone_ns",
            per_call_ns(
                200_000,
                || (),
                |_, _| {
                    black_box(black_box(&a).clone());
                },
            ),
            "ns",
        ),
    ]
}

fn storage() -> Vec<Metric> {
    let keys: Vec<Key> = (0..64).map(|i| Key::new(format!("m{i:02}"))).collect();
    let shared = Arc::new(clock(5));
    let apply = per_call_ns(2048, MvStore::new, |store, i| {
        store.apply(
            keys[(i % 64) as usize].clone(),
            Value::from_u64(i),
            Arc::clone(&shared),
            txn(i),
        )
    });
    let (store, key) = chain_store();
    let read_head = per_call_ns(
        50_000,
        || (),
        |_, _| {
            let chain = store.chain(&key).expect("populated");
            black_box(chain.latest_matching(|v| v.vc.get(0) <= CHAIN).is_some());
        },
    );
    let read_tail = per_call_ns(
        50_000,
        || (),
        |_, _| {
            let chain = store.chain(&key).expect("populated");
            black_box(chain.latest_matching(|v| v.vc.get(0) <= 1).is_some());
        },
    );
    // A reader holding the chain's handle forces the install to copy it.
    let apply_shared = per_call_ns(CHAIN, chain_store, |(store, key), i| {
        let held = store.chain(key);
        store.apply(
            key.clone(),
            Value::from_u64(i),
            Arc::clone(&shared),
            txn(1000 + i),
        );
        black_box(held);
    });
    let map = ReplicaMap::new(NODES, REPLICATION);
    let replica_lookup = per_call_ns(
        100_000,
        || (),
        |_, i| {
            black_box(map.replicas(&keys[(i % 64) as usize]));
        },
    );
    let table = LockTable::new();
    let lock_cycle = per_call_ns(
        50_000,
        || (),
        |_, i| {
            let id = txn(i);
            let pair = [&keys[(i % 64) as usize], &keys[((i + 1) % 64) as usize]];
            let granted = table.acquire_many(
                id,
                pair.into_iter().map(|k| (k, LockKind::Exclusive)),
                Duration::from_millis(1),
            );
            assert!(granted, "uncontended locks are granted");
            table.release_all(id);
        },
    );
    vec![
        Metric::new("storage.mv_apply_ns", apply, "ns"),
        Metric::new("storage.mv_read_head_ns", read_head, "ns"),
        Metric::new("storage.mv_read_tail_ns", read_tail, "ns"),
        Metric::new("storage.mv_apply_shared_ns", apply_shared, "ns"),
        Metric::new("storage.replica_lookup_ns", replica_lookup, "ns"),
        Metric::new("storage.lock_cycle_ns", lock_cycle, "ns"),
    ]
}

/// Median over the batches of the median hand-off latency in microseconds.
/// `round_trip` performs one hand-off to an idle receiver and returns how
/// long the message took from send to receipt.
fn handoff_us(mut round_trip: impl FnMut() -> Duration) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let one_way: Vec<f64> = (0..60)
                .map(|_| {
                    // Long enough for the receiver to be parked again: the
                    // timing is of waking an idle thread, which is what a
                    // message finds at 2 clients.
                    std::thread::sleep(Duration::from_micros(150));
                    round_trip().as_nanos() as f64 / 1e3
                })
                .collect();
            median(&one_way)
        })
        .collect();
    median(&batches)
}

fn mailbox_handoff() -> f64 {
    let mailbox: Arc<Mailbox<Instant>> = Arc::new(Mailbox::new());
    let (results, received) = mpsc::channel();
    let receiver = {
        let mailbox = Arc::clone(&mailbox);
        std::thread::spawn(move || {
            while let Some(sent) = mailbox.pop() {
                if results.send(sent.elapsed()).is_err() {
                    break;
                }
            }
        })
    };
    let us = handoff_us(|| {
        mailbox.push(Instant::now(), Priority::Normal);
        received.recv().expect("the receiver is alive")
    });
    mailbox.close();
    receiver.join().expect("the receiver did not panic");
    us
}

fn reply_handoff() -> f64 {
    // The replier waits for a go-ahead, then answers on a fresh reply
    // channel whose receiver is already blocked in `recv`.
    let (go, wait) = mpsc::channel::<ReplySender<Instant>>();
    let replier = std::thread::spawn(move || {
        for reply in wait {
            std::thread::sleep(Duration::from_micros(150));
            reply.send(Instant::now());
        }
    });
    let us = handoff_us(|| {
        let (reply, receiver) = reply_channel(1);
        go.send(reply).expect("the replier is alive");
        receiver.recv().expect("a reply arrives").elapsed()
    });
    drop(go);
    replier.join().expect("the replier did not panic");
    us
}

/// One-way latency of `ChannelTransport::send` into a node worker.
fn transport_send(latency: LatencyModel) -> f64 {
    let transport: ChannelTransport<Instant> =
        ChannelTransport::new(TransportConfig::new(2).latency(latency));
    let (results, received) = mpsc::channel();
    let results = std::sync::Mutex::new(results);
    let service = Arc::new(move |envelope: Envelope<Instant>| {
        let _ = results
            .lock()
            .expect("the handler does not panic")
            .send(envelope.payload.elapsed());
    });
    let worker = NodeRuntime::spawn(NodeId(1), transport.mailbox(NodeId(1)), service, 1);
    let us = handoff_us(|| {
        transport
            .send(NodeId(0), NodeId(1), Instant::now(), Priority::Normal)
            .expect("the transport is open");
        received.recv().expect("the worker is alive")
    });
    transport.shutdown();
    worker.join();
    us
}

fn net() -> Vec<Metric> {
    let mailbox: Mailbox<u64> = Mailbox::new();
    let push_pop = per_call_ns(
        100_000,
        || (),
        |_, i| {
            mailbox.push(i, Priority::Normal);
            black_box(mailbox.pop());
        },
    );
    let delayed = LatencyModel::new(
        Duration::from_nanos((INJECTED_DELAY_US * 1e3) as u64),
        Duration::ZERO,
    );
    vec![
        Metric::new("net.mailbox_push_pop_ns", push_pop, "ns"),
        Metric::new("net.mailbox_handoff_us", mailbox_handoff(), "us"),
        Metric::new("net.reply_handoff_us", reply_handoff(), "us"),
        Metric::new(
            "net.transport_send_us",
            transport_send(LatencyModel::ZERO),
            "us",
        ),
        Metric::new(
            "net.transport_delay_overshoot_us",
            transport_send(delayed) - INJECTED_DELAY_US,
            "us",
        ),
    ]
}

fn core() -> Vec<Metric> {
    let commit_queue = per_call_ns(
        64,
        || CommitQueue::new(0),
        |queue, round| {
            let base = round * 32;
            for i in base..base + 32 {
                queue.put(txn(i), VectorClock::from_entries(vec![i + 1]));
            }
            for i in base..base + 32 {
                queue.update(txn(i), VectorClock::from_entries(vec![i + 1]));
            }
            while queue.pop_ready_head().is_some() {}
        },
    ) / 32.0;
    let squeue = per_call_ns(64, SnapshotQueue::new, |queue, round| {
        let base = round * 64;
        for i in base..base + 64 {
            queue.insert_read(txn(i), i);
        }
        for i in base..base + 64 {
            queue.remove(txn(i));
        }
    }) / 64.0;
    let full_log = || {
        let mut log = NLog::new(NODES, 4096);
        for i in 0..4096 {
            log.add(txn(i), clock(i));
        }
        log
    };
    let nlog_add = per_call_ns(20_000, full_log, |log, i| {
        log.add(txn(5000 + i), clock(5000 + i))
    });
    let log = full_log();
    let bound = clock(2048);
    // A transaction that already read from node 0: the bounded scan over
    // every retained entry, not the unconstrained fast path.
    let has_read = [true, false, false, false];
    let visible_max = per_call_ns(
        200,
        || (),
        |_, _| {
            black_box(log.visible_max(&has_read, &bound, &[]));
        },
    );
    let commit_vc = Arc::new(clock(9));
    let coalescer = per_call_ns(5_000, CoalescerCore::<()>::new, |coalescer, round| {
        for i in 0..8 {
            coalescer.enqueue(txn(round * 8 + i), Arc::clone(&commit_vc), ());
        }
        while let RoundPlan::Round { batch, .. } = coalescer.next_round(32, false) {
            let members = batch.iter().map(|p| p.txn).collect();
            black_box(coalescer.round_completed(members, true));
        }
        // The drained queue still holds the piggybacked releases: flush
        // them and hand leadership back, as the production leader does.
        while !matches!(coalescer.next_round(32, false), RoundPlan::Exit) {}
    });
    vec![
        Metric::new("core.commit_queue_cycle_ns", commit_queue, "ns"),
        Metric::new("core.squeue_cycle_ns", squeue, "ns"),
        Metric::new("core.nlog_add_ns", nlog_add, "ns"),
        Metric::new("core.nlog_visible_max_ns", visible_max, "ns"),
        Metric::new("core.coalescer_round_ns", coalescer, "ns"),
    ]
}

/// Every workload-independent micro-timing (about 3 s).
pub fn all() -> Vec<Metric> {
    let mut metrics = vclock();
    metrics.extend(storage());
    metrics.extend(net());
    metrics.extend(core());
    let mut histogram = Histogram::new();
    metrics.push(Metric::new(
        "obs.hist_record_ns",
        per_call_ns(200_000, || (), |_, i| histogram.record(black_box(i % 5000))),
        "ns",
    ));
    metrics
}

/// Mean nanoseconds of the benchmark's own client loop per transaction of
/// `mix` (generating it, building its keys and values, timestamps, the
/// sample), measured against a runner that does nothing: the numerator of
/// `bench.generator_share`.
pub fn client_loop_ns(mix: Mix, key_table: &[Key]) -> f64 {
    struct Nothing;
    impl TxnRunner for Nothing {
        fn update(&mut self, keys: &[Key], writes: &[(Key, Value)]) -> Attempt {
            black_box((keys, writes));
            Attempt::Committed
        }
        fn read_only(&mut self, keys: &[Key]) -> Attempt {
            black_box(keys);
            Attempt::Committed
        }
    }
    const TXNS: usize = 20_000;
    let mark = RssMark::new(0);
    per_call_ns(
        1,
        || (TxnGen::new(1, 0, mix), sample_buffer(TXNS)),
        |(gen, samples), _| {
            run_client(
                &mut Nothing,
                gen,
                key_table,
                Instant::now(),
                Stop::After(TXNS),
                &mark,
                samples,
            )
        },
    ) / TXNS as f64
}
