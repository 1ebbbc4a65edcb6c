//! The runtime abstraction behind every blocking or time-reading primitive
//! in the stack: real threads and the wall clock by default, a deterministic
//! discrete-event simulator (`sss-sim`) when a [`SimScheduler`] is installed.
//!
//! # Why this lives in `sss-vclock`
//!
//! Every crate that blocks or reads time — `sss-net` (mailboxes, reply
//! channels, timed deliveries and retransmissions), `sss-storage`
//! (lock-table waits), `sss-faults` (fault-plan windows),
//! `sss-core`/`sss-baselines` (protocol timeouts and backoffs) — already
//! depends on this crate for [`crate::NodeId`] and [`crate::VectorClock`].
//! Hosting the scheduler trait here lets all of them consult the simulation
//! hooks without introducing a single new dependency edge.
//!
//! # The two modes
//!
//! **Threaded (default).** No scheduler is installed anywhere. The free
//! functions [`now`] and [`sleep`] fall through to [`Instant::now`] and
//! [`std::thread::sleep`], a [`Signal`] is a condition variable and
//! [`spawn`] starts an OS thread.
//!
//! **Simulated.** A [`SimScheduler`] implementation (the `SimRuntime` in
//! `sss-sim`) owns a virtual clock and a seeded run queue. Node workers and
//! workload clients run as *cooperative tasks*: exactly one task executes at
//! any moment, and a task gives up its turn only at a blocking point
//! ([`SimScheduler::park`], [`SimScheduler::sleep`]). Each task's thread has
//! the scheduler installed in thread-local storage (see [`current`]), so
//! deep call sites — a lock-table wait inside a prepare handler, a protocol
//! timeout in a session — discover the simulation without any plumbing.
//!
//! # Block until X or a deadline
//!
//! Everything that blocks — a worker on an empty or paused mailbox, a
//! client on a reply, a prepare handler on a held lock — waits on a
//! [`Signal`] with its own mutex held and is woken through the same
//! `Signal`; everything that starts a worker goes through [`spawn`]. Both
//! find the scheduler by one rule: **the handle given at construction (or
//! to the call), else the one installed on the calling thread**. A
//! primitive that host threads also touch — a mailbox is closed by the
//! thread tearing the cluster down, a pause gate is resumed by the fault
//! injector's timer — is therefore built with the handle; one that only
//! tasks touch (a reply channel, a lock table) needs nothing.
//!
//! # Run this at time T
//!
//! Work that must happen at a deadline without a task waiting for it — a
//! delayed message delivery, a retransmission timer, the start and end of a
//! fault window — goes through one executor, [`Timers`]: an event on the
//! scheduler when simulated, otherwise one heap served by one thread. It is
//! the only place outside the simulator that owns a timer heap or a timer
//! thread, so callers never branch on which runtime they are under.
//!
//! # Virtual instants
//!
//! A simulated clock still hands out [`std::time::Instant`] values so that
//! every existing `Instant`-typed API (fault-plan epochs, history records,
//! snapshot-queue ages, trace timestamps) works unchanged: the simulator
//! anchors a real `Instant` at construction and returns
//! `anchor + virtual_elapsed`. Virtual instants from one simulation compare
//! and subtract exactly like real ones; they must simply never be compared
//! against `Instant::now()` taken outside the simulation — which is why all
//! protocol code reads time through [`now`].

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scheduler that owns time and task execution for one simulated world.
///
/// Implementations must be internally synchronized: methods are called from
/// the simulation's task threads (which carry the thread-local handle) *and*
/// from host threads (e.g. `Mailbox::close` during shutdown).
///
/// # Parking protocol
///
/// [`park`](SimScheduler::park) is level-triggered with spurious wakeups,
/// exactly like a condvar: a caller re-checks its predicate in a loop.
/// [`wake`](SimScheduler::wake) makes *all* parked tasks runnable. Because
/// only one task executes at a time, the check-then-park race of real
/// condvars cannot occur: no other task can run (and thus no wakeup can be
/// produced) between a task's predicate check and its park.
pub trait SimScheduler: Send + Sync {
    /// The current virtual time, as a fabricated [`Instant`].
    fn now(&self) -> Instant;

    /// Blocks the calling task for `duration` of virtual time. Must be
    /// called from a simulation task (a thread spawned via
    /// [`spawn_task`](SimScheduler::spawn_task)).
    fn sleep(&self, duration: Duration);

    /// Parks the calling task until a [`wake`](SimScheduler::wake) or until
    /// virtual time reaches `deadline` (if given). Spurious returns are
    /// allowed; callers loop on their predicate. Must be called from a
    /// simulation task.
    fn park(&self, deadline: Option<Instant>);

    /// Makes every parked task runnable. Callable from any thread,
    /// including host threads and event closures; kick-starts the scheduler
    /// if it was idle.
    fn wake(&self);

    /// Schedules `event` to run when virtual time reaches `at` (clamped to
    /// the current time if already past). Events scheduled for the same
    /// instant run in scheduling order. Returns a token for
    /// [`cancel`](SimScheduler::cancel).
    fn schedule(&self, at: Instant, event: Box<dyn FnOnce() + Send>) -> u64;

    /// Cancels a scheduled event. Returns `true` if the event had not yet
    /// run (and now never will).
    fn cancel(&self, token: u64) -> bool;

    /// Spawns a cooperative task on its own OS thread. The task starts
    /// runnable, executes only when the scheduler hands it the turn, and
    /// carries the scheduler in its thread-local storage.
    ///
    /// `daemon` tasks (node workers, service loops) are expected to park
    /// indefinitely while idle and do not count toward quiescence; a
    /// deadlock is declared only when a *non-daemon* (foreground) task is
    /// parked forever with no timer or runnable task left.
    fn spawn_task(&self, name: String, daemon: bool, f: Box<dyn FnOnce() + Send>)
        -> JoinHandle<()>;

    /// Appends `line` to the scheduler's debug trace, if one is active
    /// (see the simulator's `SSS_SIM_TRACE`). Instrumentation points in
    /// protocol code use this to interleave data-level events (message
    /// sends, state transitions) with the schedule when chasing a
    /// determinism bug; the default is a no-op.
    fn trace(&self, line: &str) {
        let _ = line;
    }

    /// `true` when a debug trace is active, so instrumentation points can
    /// skip formatting their (possibly expensive) trace lines.
    fn tracing(&self) -> bool {
        false
    }
}

impl std::fmt::Debug for dyn SimScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimScheduler")
    }
}

/// Shared handle to a scheduler.
pub type SchedulerHandle = Arc<dyn SimScheduler>;

thread_local! {
    static CURRENT: std::cell::RefCell<Option<SchedulerHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// Returns the scheduler installed on this thread, if any. Simulation task
/// threads carry one; host threads and threaded-mode workers return `None`.
pub fn current() -> Option<SchedulerHandle> {
    CURRENT.with(|cell| cell.borrow().clone())
}

/// Runs `f` with `scheduler` installed as this thread's current scheduler,
/// restoring the previous value afterwards (also on panic). Used by the
/// simulator's task wrappers; tests may use it to run inline code "inside"
/// a simulation.
pub fn enter<R>(scheduler: &SchedulerHandle, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SchedulerHandle>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|cell| *cell.borrow_mut() = self.0.take());
        }
    }
    let previous = CURRENT.with(|cell| cell.borrow_mut().replace(Arc::clone(scheduler)));
    let _restore = Restore(previous);
    f()
}

/// The current time: virtual when called on a simulation task, real
/// otherwise. Protocol code reads time through this so the same binary runs
/// under both runtimes.
pub fn now() -> Instant {
    match current() {
        Some(scheduler) => scheduler.now(),
        None => Instant::now(),
    }
}

/// Time elapsed since `start`, measured against [`now`] — virtual when
/// called on a simulation task, real otherwise. Protocol code must use this
/// instead of [`Instant::elapsed`]: under simulation `start` is a virtual
/// instant, and measuring it against the real clock both yields a
/// meaningless duration and (when the result gates a decision) makes runs
/// wall-clock-dependent, breaking seeded replay.
pub fn elapsed_since(start: Instant) -> Duration {
    now().saturating_duration_since(start)
}

/// Sleeps for `duration`: virtual when called on a simulation task (other
/// tasks run and the clock advances), real otherwise.
pub fn sleep(duration: Duration) {
    match current() {
        Some(scheduler) => scheduler.sleep(duration),
        None => std::thread::sleep(duration),
    }
}

/// The scheduler a blocking primitive runs under: `given` (the handle it was
/// built with) if any, else the one installed on the calling thread.
fn resolve(given: Option<&SchedulerHandle>) -> Option<SchedulerHandle> {
    given.cloned().or_else(current)
}

/// Starts `body` as a worker named `name`: a cooperative task of the
/// scheduler found by the module's rule (`scheduler`, else the calling
/// thread's), otherwise an OS thread. `daemon` is
/// [`SimScheduler::spawn_task`]'s flag and means nothing to a thread.
///
/// # Panics
///
/// Panics if the operating system refuses the thread.
pub fn spawn(
    scheduler: Option<&SchedulerHandle>,
    name: String,
    daemon: bool,
    body: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    match resolve(scheduler) {
        Some(scheduler) => scheduler.spawn_task(name, daemon, Box::new(body)),
        None => std::thread::Builder::new()
            .name(name)
            .spawn(body)
            .expect("failed to spawn a worker thread"),
    }
}

/// The one way to block until a condition holds or a deadline passes.
///
/// Used like a condition variable: the state a waiter tests lives behind
/// the caller's own [`parking_lot::Mutex`]; the waiter holds that lock,
/// tests, and calls [`Signal::wait`] in a loop; whoever changes the state
/// does so under the same lock and then notifies. Without a scheduler (see
/// the module's rule) a wait *is* a condvar wait. Under one it releases the
/// lock, [`SimScheduler::park`]s the task and takes the lock again, and a
/// notify is a [`SimScheduler::wake`] — which today makes every parked task
/// of the simulation re-check, not only this signal's.
///
/// Waits may return spuriously on either runtime. A notify reaches waiters
/// of both kinds, so a host thread may wait on what a task notifies.
#[derive(Debug, Default)]
pub struct Signal {
    scheduler: Option<SchedulerHandle>,
    condvar: parking_lot::Condvar,
    waiting: AtomicUsize,
}

impl Signal {
    /// A signal under `scheduler`; with `None`, under whatever scheduler
    /// the calling thread of each operation has installed.
    pub fn new(scheduler: Option<SchedulerHandle>) -> Self {
        Signal {
            scheduler,
            ..Signal::default()
        }
    }

    /// The scheduler this signal was built with.
    pub fn scheduler(&self) -> Option<&SchedulerHandle> {
        self.scheduler.as_ref()
    }

    /// Releases `guard`, blocks until notified or until `deadline` (an
    /// instant of [`now`]'s clock), and re-acquires it. Returns `true` when
    /// the deadline has been reached — at once, without blocking, if it
    /// already had been on entry.
    pub fn wait<T>(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, T>,
        deadline: Option<Instant>,
    ) -> bool {
        // Relaxed: a gauge for tests and reports; the caller's mutex is
        // what orders the wait against the notifier.
        self.waiting.fetch_add(1, Ordering::Relaxed);
        let timed_out = match (resolve(self.scheduler.as_ref()), deadline) {
            (None, None) => {
                self.condvar.wait(guard);
                false
            }
            (None, Some(deadline)) => self.condvar.wait_until(guard, deadline).timed_out(),
            (Some(scheduler), _) => {
                let expired = || deadline.is_some_and(|deadline| scheduler.now() >= deadline);
                expired() || {
                    // Only one task runs at a time, so nothing can change
                    // the state between the caller's test and this park.
                    parking_lot::MutexGuard::unlocked(guard, || scheduler.park(deadline));
                    expired()
                }
            }
        };
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        timed_out
    }

    /// Wakes one waiter (under a scheduler: every parked task).
    pub fn notify_one(&self) {
        self.condvar.notify_one();
        self.wake_tasks();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.condvar.notify_all();
        self.wake_tasks();
    }

    fn wake_tasks(&self) {
        if let Some(scheduler) = resolve(self.scheduler.as_ref()) {
            scheduler.wake();
        }
    }

    /// Threads and tasks currently inside [`Signal::wait`]. A waiter counts
    /// from before it releases the caller's lock, so once a test has seen
    /// it here a notify sent after taking that lock cannot be lost.
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::Relaxed)
    }
}

/// The deadline executor: runs closures at instants.
///
/// Under a [`SchedulerHandle`] an event *is* a [`SimScheduler::schedule`]
/// event in virtual time; otherwise events sit in one heap served by one
/// thread (`sss-timers`, spawned by the first [`Timers::schedule`]). Either
/// way events scheduled for the same instant run in scheduling order, a
/// deadline already past runs as soon as possible, and an event runs with
/// no executor lock held, so it may schedule or cancel others.
///
/// Sharing one `Timers` between the components of a cluster (the transport
/// lends its own to the fault interposer) keeps a threaded cluster at one
/// timer thread however many of them have deadlines. Dropping the last
/// handle stops it.
pub struct Timers {
    scheduler: Option<SchedulerHandle>,
    shared: Arc<TimerShared>,
}

struct TimerShared {
    queue: Mutex<TimerQueue>,
    /// Signalled on every push and on stop; only the timer thread waits.
    changed: Condvar,
}

struct TimerQueue {
    heap: BinaryHeap<Timer>,
    next_token: u64,
    thread: Option<JoinHandle<()>>,
    /// Set by [`Timers::stop`]: nothing runs or is accepted any more.
    stopped: bool,
}

struct Timer {
    at: Instant,
    token: u64,
    event: Box<dyn FnOnce() + Send>,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: reversed, so the earliest deadline and,
        // within an instant, the earliest scheduled event surfaces first.
        (other.at, other.token).cmp(&(self.at, self.token))
    }
}

/// Token of an event refused because the executor had stopped; no live
/// event ever carries it.
const REFUSED: u64 = u64::MAX;

impl TimerShared {
    fn lock(&self) -> MutexGuard<'_, TimerQueue> {
        // Events run outside the lock, so only a panic inside this module
        // could poison it.
        self.queue.lock().expect("timer queue poisoned")
    }

    fn serve(&self) {
        let mut queue = self.lock();
        while !queue.stopped {
            let now = Instant::now();
            match queue.heap.peek().map(|next| next.at) {
                Some(at) if at <= now => {
                    let due = queue.heap.pop().expect("peeked timer vanished");
                    drop(queue);
                    (due.event)();
                    queue = self.lock();
                }
                Some(at) => {
                    let (guard, _) = self
                        .changed
                        .wait_timeout(queue, at - now)
                        .expect("timer queue poisoned");
                    queue = guard;
                }
                None => queue = self.changed.wait(queue).expect("timer queue poisoned"),
            }
        }
    }
}

impl Timers {
    /// An executor on `scheduler`'s virtual time, or on the wall clock and
    /// its own thread when there is none.
    pub fn new(scheduler: Option<SchedulerHandle>) -> Self {
        Timers {
            scheduler,
            shared: Arc::new(TimerShared {
                queue: Mutex::new(TimerQueue {
                    heap: BinaryHeap::new(),
                    next_token: 0,
                    thread: None,
                    stopped: false,
                }),
                changed: Condvar::new(),
            }),
        }
    }

    /// The instant deadlines are measured against: virtual under a
    /// scheduler, the wall clock otherwise.
    pub fn now(&self) -> Instant {
        match &self.scheduler {
            Some(scheduler) => scheduler.now(),
            None => Instant::now(),
        }
    }

    /// Runs `event` once the clock reaches `at`. Returns a token for
    /// [`Timers::cancel`]. After [`Timers::stop`] the event is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the timer thread cannot be spawned.
    pub fn schedule(&self, at: Instant, event: impl FnOnce() + Send + 'static) -> u64 {
        let mut queue = self.shared.lock();
        if queue.stopped {
            return REFUSED;
        }
        if let Some(scheduler) = &self.scheduler {
            drop(queue);
            let shared = Arc::clone(&self.shared);
            return scheduler.schedule(
                at,
                Box::new(move || {
                    let stopped = shared.lock().stopped;
                    if !stopped {
                        event();
                    }
                }),
            );
        }
        let token = queue.next_token;
        queue.next_token += 1;
        queue.heap.push(Timer {
            at,
            token,
            event: Box::new(event),
        });
        if queue.thread.is_none() {
            let shared = Arc::clone(&self.shared);
            queue.thread = Some(
                std::thread::Builder::new()
                    .name("sss-timers".into())
                    .spawn(move || shared.serve())
                    .expect("failed to spawn the timer thread"),
            );
        }
        drop(queue);
        self.shared.changed.notify_one();
        token
    }

    /// Cancels a scheduled event. Returns `true` if it had not yet started
    /// (and now never will); an event already running is not waited for.
    pub fn cancel(&self, token: u64) -> bool {
        if let Some(scheduler) = &self.scheduler {
            return scheduler.cancel(token);
        }
        let mut queue = self.shared.lock();
        let before = queue.heap.len();
        queue.heap.retain(|timer| timer.token != token);
        queue.heap.len() < before
    }

    /// Stops the executor: pending events never run (the heap drops them;
    /// under a scheduler they stay queued there as no-ops, so the simulated
    /// schedule does not change shape), later ones are refused, and the
    /// timer thread is joined once the event it is running (if any)
    /// returns. Idempotent.
    ///
    /// # Panics
    ///
    /// Resumes the panic of an event that panicked on the timer thread.
    pub fn stop(&self) {
        if let Err(panic) = self.halt() {
            std::panic::resume_unwind(panic);
        }
    }

    fn halt(&self) -> std::thread::Result<()> {
        let (pending, thread) = {
            let mut queue = self.shared.lock();
            queue.stopped = true;
            (std::mem::take(&mut queue.heap), queue.thread.take())
        };
        self.shared.changed.notify_one();
        // Outside the lock: dropping an event may run arbitrary destructors.
        drop(pending);
        match thread {
            // An event that stops its own executor cannot wait for itself.
            Some(thread) if thread.thread().id() != std::thread::current().id() => thread.join(),
            _ => Ok(()),
        }
    }
}

impl Drop for Timers {
    fn drop(&mut self) {
        // A drop must not panic; `stop` is where an event's panic surfaces.
        let _ = self.halt();
    }
}

/// An attempt-scaled pause policy shared by every retry loop in the stack:
/// scenario-driver abort retries, client unavailable-node retries, and the
/// reliable-delivery retransmission timers.
///
/// Two growth modes — linear (`base * attempt`) and exponential
/// (`base * 2^(attempt-1)`) — both clamped to `cap`, with optional
/// *deterministic* jitter: the jitter for `(seed, attempt)` is a pure hash,
/// so seeded replays (and the simulator's fingerprint checks) observe
/// identical pauses. Attempt numbering starts at 1; attempt 0 yields
/// [`Duration::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    exponential: bool,
    /// Jitter seed; `None` disables jitter entirely.
    jitter_seed: Option<u64>,
}

impl Backoff {
    /// Linear backoff: `base * attempt`, clamped to `cap`, no jitter.
    pub fn linear(base: Duration, cap: Duration) -> Self {
        Backoff {
            base,
            cap,
            exponential: false,
            jitter_seed: None,
        }
    }

    /// Exponential backoff: `base * 2^(attempt-1)`, clamped to `cap`,
    /// no jitter.
    pub fn exponential(base: Duration, cap: Duration) -> Self {
        Backoff {
            base,
            cap,
            exponential: true,
            jitter_seed: None,
        }
    }

    /// Adds deterministic jitter seeded by `seed`: each attempt's pause is
    /// scaled by a factor in `[0.5, 1.0)` derived from a pure hash of
    /// `(seed, attempt)`.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The pause before retry number `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let nanos = self.base.as_nanos() as u64;
        let scaled = if self.exponential {
            nanos.saturating_mul(1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX))
        } else {
            nanos.saturating_mul(attempt as u64)
        };
        let clamped = scaled.min(self.cap.as_nanos() as u64);
        let jittered = match self.jitter_seed {
            // Factor in [1/2, 1): full-throughput retries keep their order
            // of magnitude while seeded runs stay reproducible.
            Some(seed) => clamped / 2 + mix(seed, attempt as u64) % (clamped / 2).max(1),
            None => clamped,
        };
        Duration::from_nanos(jittered)
    }

    /// Sleeps for [`Backoff::delay`]`(attempt)` on the current runtime
    /// (virtual time under simulation).
    pub fn pause(&self, attempt: u32) {
        let delay = self.delay(attempt);
        if !delay.is_zero() {
            sleep(delay);
        }
    }
}

/// SplitMix64-style finalizer over `(seed, attempt)`; a pure function so
/// jittered backoff stays deterministic under seeded replay.
fn mix(seed: u64, attempt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A scheduler stub that only records calls; enough to test the
    /// thread-local plumbing without pulling in the simulator.
    struct Stub {
        base: Instant,
        offset: Duration,
        slept: AtomicU64,
        spawned: AtomicU64,
    }

    impl Stub {
        fn at(offset: Duration) -> Arc<Stub> {
            Arc::new(Stub {
                base: Instant::now(),
                offset,
                slept: AtomicU64::new(0),
                spawned: AtomicU64::new(0),
            })
        }
    }

    impl SimScheduler for Stub {
        fn now(&self) -> Instant {
            self.base + self.offset
        }
        fn sleep(&self, duration: Duration) {
            self.slept
                .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
        }
        fn park(&self, _deadline: Option<Instant>) {}
        fn wake(&self) {}
        fn schedule(&self, _at: Instant, _event: Box<dyn FnOnce() + Send>) -> u64 {
            0
        }
        fn cancel(&self, _token: u64) -> bool {
            false
        }
        fn spawn_task(
            &self,
            name: String,
            _daemon: bool,
            f: Box<dyn FnOnce() + Send>,
        ) -> JoinHandle<()> {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new().name(name).spawn(f).unwrap()
        }
    }

    #[test]
    fn now_falls_back_to_real_time_without_a_scheduler() {
        assert!(current().is_none());
        let before = Instant::now();
        let observed = now();
        assert!(observed >= before);
    }

    #[test]
    fn enter_installs_and_restores_the_scheduler() {
        let stub = Stub::at(Duration::from_secs(1000));
        let base = stub.base;
        let stub: SchedulerHandle = stub;
        assert!(current().is_none());
        enter(&stub, || {
            assert!(current().is_some());
            assert_eq!(now(), base + Duration::from_secs(1000));
            sleep(Duration::from_millis(5));
        });
        assert!(current().is_none());
    }

    #[test]
    fn sleep_routes_to_the_installed_scheduler() {
        let stub = Stub::at(Duration::ZERO);
        let handle: SchedulerHandle = Arc::clone(&stub) as SchedulerHandle;
        enter(&handle, || sleep(Duration::from_nanos(42)));
        assert_eq!(stub.slept.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn spawn_finds_the_scheduler_given_first_then_the_threads_own_else_starts_a_thread() {
        let (given, own) = (Stub::at(Duration::ZERO), Stub::at(Duration::ZERO));
        let given_handle: SchedulerHandle = Arc::clone(&given) as SchedulerHandle;
        let own_handle: SchedulerHandle = Arc::clone(&own) as SchedulerHandle;
        let name = || std::thread::current().name().map(str::to_string);
        let spawn_named = |scheduler: Option<&SchedulerHandle>| {
            let (tell, told) = std::sync::mpsc::channel();
            spawn(scheduler, "worker".into(), true, move || {
                tell.send(name()).unwrap()
            })
            .join()
            .unwrap();
            told.recv().unwrap()
        };
        assert_eq!(spawn_named(None).as_deref(), Some("worker"));
        enter(&own_handle, || {
            spawn_named(None);
            spawn_named(Some(&given_handle));
        });
        let spawned = |stub: &Stub| stub.spawned.load(Ordering::Relaxed);
        assert_eq!((spawned(&own), spawned(&given)), (1, 1));
    }

    /// The race a condvar exists to close: the notifier acts after the
    /// waiter tested its predicate but before the waiter blocks.
    #[test]
    fn a_notify_between_the_predicate_check_and_the_wait_is_not_lost() {
        let shared = Arc::new((parking_lot::Mutex::new(false), Signal::default()));
        let (checked, wait_checked) = std::sync::mpsc::channel();
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (ready, signal) = &*shared;
                let mut ready = ready.lock();
                let deadline = Instant::now() + Duration::from_secs(30);
                while !*ready {
                    // The predicate is tested; only now may the notifier
                    // start, and it gets the lock when `wait` releases it.
                    checked.send(()).unwrap();
                    assert!(!signal.wait(&mut ready, Some(deadline)), "lost");
                }
            })
        };
        wait_checked.recv().unwrap();
        let (ready, signal) = &*shared;
        *ready.lock() = true;
        signal.notify_one();
        waiter.join().expect("the waiter was woken, not timed out");
    }

    #[test]
    fn stopping_the_timers_waits_for_the_event_in_flight_and_ends_the_thread() {
        let timers = Timers::new(None);
        let (started, wait_started) = std::sync::mpsc::channel();
        let (release, wait_release) = std::sync::mpsc::channel::<()>();
        let finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&finished);
        timers.schedule(Instant::now(), move || {
            started.send(std::thread::current().id()).unwrap();
            let _ = wait_release.recv_timeout(Duration::from_millis(50));
            flag.store(true, Ordering::SeqCst);
        });
        let timer_thread = wait_started.recv().unwrap();
        assert_ne!(timer_thread, std::thread::current().id());
        // The event is mid-flight (it holds `wait_release`): stop must not
        // return before it has.
        timers.stop();
        assert!(finished.load(Ordering::SeqCst));
        drop(release);
        assert!(
            timers.shared.lock().thread.is_none(),
            "the timer thread was joined"
        );
    }

    #[test]
    fn an_event_may_stop_its_own_executor() {
        let timers = Arc::new(Timers::new(None));
        let (done, wait) = std::sync::mpsc::channel();
        let own = Arc::clone(&timers);
        timers.schedule(Instant::now(), move || {
            own.stop();
            done.send(()).unwrap();
        });
        wait.recv_timeout(Duration::from_secs(5))
            .expect("stop on the timer thread must not join itself");
    }

    #[test]
    fn linear_backoff_scales_and_caps() {
        let b = Backoff::linear(Duration::from_micros(50), Duration::from_millis(2));
        assert_eq!(b.delay(0), Duration::ZERO);
        assert_eq!(b.delay(1), Duration::from_micros(50));
        assert_eq!(b.delay(3), Duration::from_micros(150));
        assert_eq!(b.delay(40), Duration::from_millis(2));
        assert_eq!(b.delay(10_000), Duration::from_millis(2));
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let b = Backoff::exponential(Duration::from_millis(1), Duration::from_millis(100));
        assert_eq!(b.delay(1), Duration::from_millis(1));
        assert_eq!(b.delay(2), Duration::from_millis(2));
        assert_eq!(b.delay(5), Duration::from_millis(16));
        assert_eq!(b.delay(32), Duration::from_millis(100));
        assert_eq!(b.delay(1_000), Duration::from_millis(100));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let b =
            Backoff::exponential(Duration::from_millis(4), Duration::from_secs(1)).with_jitter(42);
        for attempt in 1..16 {
            let d = b.delay(attempt);
            assert_eq!(d, b.delay(attempt), "same (seed, attempt) → same delay");
            let full = Backoff::exponential(Duration::from_millis(4), Duration::from_secs(1))
                .delay(attempt);
            assert!(d >= full / 2 && d < full, "jitter stays in [full/2, full)");
        }
        let other =
            Backoff::exponential(Duration::from_millis(4), Duration::from_secs(1)).with_jitter(43);
        assert_ne!(b.delay(3), other.delay(3), "different seeds differ");
    }

    #[test]
    fn enter_restores_on_nesting() {
        let a: SchedulerHandle = Stub::at(Duration::from_secs(1));
        let b: SchedulerHandle = Stub::at(Duration::from_secs(2));
        enter(&a, || {
            let outer = now();
            enter(&b, || {
                assert_ne!(now(), outer);
            });
            assert_eq!(now(), outer);
        });
    }
}
