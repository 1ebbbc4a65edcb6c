//! Property tests for the simulator's primitives: the virtual clock and
//! the cancellable event queue. These are the two pieces every determinism
//! guarantee rests on — timer ordering, same-instant tie-breaking, and
//! cancel/reschedule semantics — so they are exercised against randomized
//! operation sequences rather than hand-picked cases.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use sss_sim::{EventQueue, SimClock};

/// One randomized mutation of an [`EventQueue`], chosen by proptest.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule a payload at the given virtual time.
    Push(u64),
    /// Cancel the `n`-th token handed out so far (mod the count), if any.
    Cancel(usize),
    /// Pop everything due at the given virtual time.
    PopDue(u64),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u64..1_000).prop_map(QueueOp::Push),
        (0usize..64).prop_map(QueueOp::Cancel),
        (0u64..1_000).prop_map(QueueOp::PopDue),
    ]
}

proptest! {
    /// Draining the queue always yields events in `(time, seq)` order:
    /// non-decreasing times, and among same-time events strictly
    /// increasing tokens (the order they were scheduled).
    #[test]
    fn drain_is_ordered_by_time_then_schedule_order(times in prop::collection::vec(0u64..500, 1..50)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(t, t);
        }
        let mut previous: Option<(u64, u64)> = None;
        let mut drained = 0;
        while let Some((time, seq, payload)) = q.pop_due(u64::MAX) {
            prop_assert_eq!(payload, time, "payload rides with its scheduled time");
            if let Some((pt, ps)) = previous {
                prop_assert!(time > pt || (time == pt && seq > ps),
                    "events must drain in (time, seq) order: ({pt},{ps}) then ({time},{seq})");
            }
            previous = Some((time, seq));
            drained += 1;
        }
        prop_assert_eq!(drained, times.len());
        prop_assert!(q.is_empty());
    }

    /// Same-instant events fire in the order they were scheduled, whatever
    /// that order's interleaving with other instants was.
    #[test]
    fn same_instant_ties_break_by_schedule_order(labels in prop::collection::vec(0u64..4, 2..40)) {
        let mut q = EventQueue::new();
        // All events share one instant; payloads record the schedule order.
        for (i, _) in labels.iter().enumerate() {
            q.push(7, i);
        }
        let mut seen = Vec::new();
        while let Some((_, _, payload)) = q.pop_due(7) {
            seen.push(payload);
        }
        prop_assert_eq!(seen, (0..labels.len()).collect::<Vec<_>>());
    }

    /// The queue agrees with a reference model (a sorted map keyed by
    /// `(time, token)`) under arbitrary push/cancel/pop interleavings, and
    /// a cancelled event is never popped.
    #[test]
    fn queue_matches_reference_model(ops in prop::collection::vec(queue_op(), 1..200)) {
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut tokens: Vec<(u64, u64)> = Vec::new(); // (token, time)

        for op in ops {
            match op {
                QueueOp::Push(time) => {
                    let token = q.push(time, time);
                    model.insert((time, token), time);
                    tokens.push((token, time));
                }
                QueueOp::Cancel(n) => {
                    if tokens.is_empty() {
                        continue;
                    }
                    let (token, time) = tokens[n % tokens.len()];
                    let expected = model.remove(&(time, token));
                    prop_assert_eq!(q.cancel(token), expected,
                        "cancel must succeed exactly when the event is still live");
                }
                QueueOp::PopDue(now) => {
                    loop {
                        let expected = model.first_key_value().map(|(&k, _)| k);
                        match q.pop_due(now) {
                            Some((time, seq, payload)) => {
                                prop_assert!(time <= now);
                                prop_assert_eq!(Some((time, seq)), expected,
                                    "pop must yield the model's earliest live event");
                                prop_assert_eq!(payload, time);
                                model.remove(&(time, seq));
                            }
                            None => {
                                if let Some((time, _)) = expected {
                                    prop_assert!(time > now, "queue stopped early: {time} is due at {now}");
                                }
                                break;
                            }
                        }
                    }
                }
            }
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.next_time(), model.first_key_value().map(|(&(t, _), _)| t));
    }

    /// Cancelling and rescheduling keeps `len`, `next_time` and the drain
    /// order consistent: the rescheduled event fires at its new time with a
    /// fresh token, never at the old one.
    #[test]
    fn cancel_then_reschedule_moves_the_event(old in 0u64..500, new in 0u64..500, other in 0u64..500) {
        let mut q = EventQueue::new();
        let moved = q.push(old, "moved");
        let _stay = q.push(other, "stays");
        prop_assert_eq!(q.cancel(moved), Some("moved"));
        prop_assert_eq!(q.cancel(moved), None, "double cancel is a no-op");
        let moved2 = q.push(new, "moved");
        prop_assert!(moved2 > moved, "tokens are never reused");
        prop_assert_eq!(q.len(), 2);
        prop_assert_eq!(q.next_time(), Some(new.min(other)));

        // The old instant no longer fires the moved event.
        let mut fired_at: Vec<(u64, &str)> = Vec::new();
        while let Some((time, _, payload)) = q.pop_due(u64::MAX) {
            fired_at.push((time, payload));
        }
        prop_assert!(fired_at.contains(&(new, "moved")));
        prop_assert!(fired_at.contains(&(other, "stays")));
        prop_assert_eq!(fired_at.len(), 2);
    }

    /// Virtual instants round-trip exactly through the nanosecond domain,
    /// and arithmetic on fabricated instants matches the nanosecond math.
    #[test]
    fn clock_instants_round_trip(advances in prop::collection::vec(0u64..1_000_000_000, 1..20), offset in 0u64..1_000_000_000) {
        let mut clock = SimClock::new();
        let epoch = clock.now();
        let mut total = 0u64;
        for a in advances {
            total = total.max(a);
            clock.advance_to(a);
            prop_assert_eq!(clock.nanos(), total, "virtual time is monotonic");
            let now = clock.now();
            prop_assert_eq!(clock.nanos_at(now), total);
            prop_assert_eq!(now - epoch, Duration::from_nanos(total));
            let later = now + Duration::from_nanos(offset);
            prop_assert_eq!(clock.nanos_at(later), total + offset);
            prop_assert_eq!(clock.instant_at(total + offset), later);
        }
    }

    /// Deadlines computed as `now + timeout` in the `Instant` domain land
    /// on the exact nanosecond the timeout names — the property the
    /// simulated lock table and reply channels rely on for virtual-time
    /// timeouts.
    #[test]
    fn instant_deadlines_are_exact_in_nanos(start in 0u64..1_000_000_000, timeout_ns in 0u64..10_000_000_000) {
        let mut clock = SimClock::new();
        clock.advance_to(start);
        let deadline = clock.now() + Duration::from_nanos(timeout_ns);
        prop_assert_eq!(clock.nanos_at(deadline), start + timeout_ns);
    }
}

/// The contract of the stack's one deadline executor,
/// `sss_vclock::runtime::Timers`, checked on both of its runtimes: the same
/// ordering guarantees as the event queue above, whether an event is a
/// virtual-time event of a `SimRuntime` or an entry in the threaded heap.
mod timers_contract {
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use sss_sim::SimRuntime;
    use sss_vclock::runtime::Timers;

    /// `settle` returns once every event due within `horizon` has run.
    fn check(timers: &Timers, horizon: Duration, settle: &dyn Fn()) {
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let record = |tag: &'static str| {
            let log = Arc::clone(&log);
            move || log.lock().unwrap().push(tag)
        };
        let start = timers.now();

        // Same-instant events run in scheduling order; an earlier instant
        // scheduled later still runs first.
        let at = start + horizon / 2;
        for tag in ["b1", "b2", "b3", "b4"] {
            timers.schedule(at, record(tag));
        }
        timers.schedule(start + horizon / 4, record("a"));
        // Cancelled before it fires: never runs, and only the first cancel
        // reports that it stopped anything.
        let cancelled = timers.schedule(at, record("cancelled"));
        assert!(timers.cancel(cancelled));
        assert!(!timers.cancel(cancelled));
        settle();
        assert_eq!(*log.lock().unwrap(), ["a", "b1", "b2", "b3", "b4"]);
        assert!(!timers.cancel(cancelled), "a token is never reused");

        // A deadline already past runs at once rather than never.
        log.lock().unwrap().clear();
        timers.schedule(start, record("past"));
        settle();
        assert_eq!(*log.lock().unwrap(), ["past"]);

        // Stop drops what is pending, without waiting for its deadline, and
        // refuses what comes later.
        log.lock().unwrap().clear();
        timers.schedule(timers.now() + Duration::from_secs(3600), record("pending"));
        let wall = Instant::now();
        timers.stop();
        assert!(wall.elapsed() < Duration::from_secs(5));
        timers.schedule(timers.now(), record("after stop"));
        settle();
        timers.stop();
        assert!(log.lock().unwrap().is_empty());
    }

    #[test]
    fn threaded() {
        let horizon = Duration::from_millis(40);
        let timers = Timers::new(None);
        // A sentinel at the horizon: when it has run, so has everything due
        // before it, however late the timer thread was scheduled. A stopped
        // executor drops the sentinel, which ends the wait at once.
        let settle = || {
            let (done, wait) = std::sync::mpsc::channel();
            timers.schedule(timers.now() + horizon, move || {
                let _ = done.send(());
            });
            let _ = wait.recv();
        };
        check(&timers, horizon, &settle);
    }

    #[test]
    fn simulated() {
        let sim = SimRuntime::new(9);
        // Frozen between settles, so scheduling from this host thread never
        // races the firing of what it scheduled a moment ago.
        let settle = || {
            sim.start();
            sim.freeze();
        };
        check(
            &Timers::new(Some(sim.handle())),
            Duration::from_millis(40),
            &settle,
        );
        assert!(
            sim.virtual_elapsed() >= Duration::from_secs(3600),
            "a stopped executor's events stay on the scheduler as no-ops"
        );
    }
}

/// The contract of the stack's one way to block,
/// `sss_vclock::runtime::Signal` (with `runtime::spawn` beside it), checked
/// on both of its runtimes: as threads on a condvar and as tasks parked on a
/// `SimRuntime`.
mod signal_contract {
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    use parking_lot::Mutex;
    use sss_sim::SimRuntime;
    use sss_vclock::runtime::{self, Signal};

    /// Polls `cond` on the current runtime's clock until it holds; `false`
    /// after a generous bound. A sleep is the one blocking point that lets
    /// simulated waiters run without notifying anything.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        for _ in 0..100_000 {
            if cond() {
                return true;
            }
            runtime::sleep(Duration::from_micros(50));
        }
        cond()
    }

    /// Permits to take, and how many waiters have taken one and left.
    #[derive(Default)]
    struct Gate {
        permits: usize,
        passed: usize,
    }

    fn spawn_waiter(name: &str, gate: &Arc<(Mutex<Gate>, Signal)>) -> JoinHandle<()> {
        let gate = Arc::clone(gate);
        runtime::spawn(None, name.to_string(), false, move || {
            let (state, signal) = &*gate;
            let mut state = state.lock();
            while state.permits == 0 {
                signal.wait(&mut state, None);
            }
            state.permits -= 1;
            state.passed += 1;
        })
    }

    /// Runs on the runtime under test (a thread, or a simulation task) and
    /// returns the waiters it spawned, all of which have finished.
    fn check(horizon: Duration) -> Vec<JoinHandle<()>> {
        let gate = Arc::new((Mutex::new(Gate::default()), Signal::default()));
        let (state, signal) = &*gate;
        let mut waiters = vec![spawn_waiter("a", &gate), spawn_waiter("b", &gate)];

        // `waiting` counts the blocked: both, then whoever is left.
        assert!(eventually(|| signal.waiting() == 2));
        // One permit and `notify_one`: at least one waiter wakes to take it
        // (a second may wake too, find nothing, and block again).
        state.lock().permits = 1;
        signal.notify_one();
        assert!(eventually(|| state.lock().passed == 1));
        assert!(eventually(|| signal.waiting() == 1));

        // `notify_all` reaches every waiter.
        waiters.push(spawn_waiter("c", &gate));
        assert!(eventually(|| signal.waiting() == 2));
        state.lock().permits = 2;
        signal.notify_all();
        assert!(eventually(|| state.lock().passed == 3));
        assert_eq!(signal.waiting(), 0);

        // Nobody notifies: the wait ends at the deadline, on this runtime's
        // clock, and says so.
        let mut state = state.lock();
        let deadline = runtime::now() + horizon;
        while !signal.wait(&mut state, Some(deadline)) {}
        assert!(runtime::now() >= deadline);
        // A deadline already reached does not block at all.
        assert!(signal.wait(&mut state, Some(deadline)));
        waiters
    }

    #[test]
    fn threaded() {
        for waiter in check(Duration::from_millis(20)) {
            waiter.join().expect("waiter exits cleanly");
        }
    }

    #[test]
    fn simulated() {
        let sim = SimRuntime::new(9);
        let wall = Instant::now();
        let hour = Duration::from_secs(3600);
        for waiter in sim.block_on("check", move || check(hour)) {
            waiter.join().expect("waiter exits cleanly");
        }
        assert!(sim.virtual_elapsed() >= hour, "the deadline was virtual");
        assert!(
            wall.elapsed() < Duration::from_secs(60),
            "and nobody slept through it on the wall clock"
        );
    }

    /// The `Mailbox::close` / injector-`resume` case: the notifier is a host
    /// thread with no scheduler installed, so the waiter is only reachable
    /// through the handle the signal was built with.
    #[test]
    fn a_host_thread_notify_reaches_a_simulated_waiter() {
        let sim = SimRuntime::new(9);
        let shared = Arc::new((Mutex::new(false), Signal::new(Some(sim.handle()))));
        let waiter = {
            let shared = Arc::clone(&shared);
            // A daemon, like a node worker: parked with no deadline at
            // quiescence is idling, not a deadlock.
            runtime::spawn(Some(&sim.handle()), "waiter".into(), true, move || {
                let (open, signal) = &*shared;
                let mut open = open.lock();
                while !*open {
                    signal.wait(&mut open, None);
                }
            })
        };
        sim.start();
        sim.wait_quiescent();
        let (open, signal) = &*shared;
        assert_eq!(signal.waiting(), 1);
        assert!(runtime::current().is_none());
        *open.lock() = true;
        signal.notify_all();
        waiter.join().expect("the waiter saw the notify and left");
    }
}
