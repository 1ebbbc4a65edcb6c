//! Priority mailboxes: one queue per message class, drained by worker threads.
//!
//! All queues of a mailbox live behind a single mutex with one
//! [`Signal`], which buys three properties the earlier channel-per-class
//! implementation lacked:
//!
//! * **Wakeups are immediate for every class.** A worker parked on an empty
//!   mailbox is notified by the next push regardless of its priority; there
//!   is no polling interval on the pop path.
//! * **Batched draining.** [`Mailbox::pop_batch`] hands a worker up to K
//!   messages of the same (highest non-empty) priority class per wakeup, so
//!   the per-message synchronization cost is amortized under load while the
//!   strict priority bias is preserved.
//! * **Coherent statistics.** Enqueue/dequeue counters are updated and
//!   snapshotted under the queue mutex, so a [`MailboxStats`] snapshot can
//!   never observe more dequeues than enqueues.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use sss_vclock::runtime::{SchedulerHandle, Signal};

/// Number of per-message-kind counter slots carried by [`MailboxStats`].
///
/// Kept as a fixed array so the stats stay `Copy`; protocols classify their
/// messages into slot indices via
/// [`ChannelTransport::set_message_classifier`](crate::ChannelTransport::set_message_classifier)
/// and publish the slot labels alongside. Unused slots stay zero.
pub const MESSAGE_KIND_SLOTS: usize = 8;

/// A pause gate shared between a [`Mailbox`] and a fault injector.
///
/// While paused, [`Mailbox::pop`] stops handing out messages — the node's
/// workers idle and traffic accumulates in the queues, which models a node
/// that is alive (messages addressed to it are not lost) but not making
/// progress (GC pause, CPU starvation, VM migration). Pausing never loses
/// messages: once [`PauseControl::resume`] is called the workers drain the
/// backlog in priority order. Closing the mailbox overrides the pause so
/// shutdown can never deadlock on a paused node.
///
/// Waiters block on a [`Signal`] while paused; [`PauseControl::resume`]
/// (and a mailbox close) wakes them, so a paused node burns no CPU and its
/// resume latency is one wakeup, not a poll interval.
#[derive(Debug, Default)]
pub struct PauseControl {
    paused: AtomicBool,
    /// Guards the pause-state transitions observed by blocked waiters; held
    /// only while flipping `paused` or blocking, never across user code.
    transition: Mutex<()>,
    resumed: Signal,
}

impl PauseControl {
    /// Creates a control in the running (not paused) state.
    pub fn new() -> Self {
        PauseControl::default()
    }

    /// A control whose waiters and wakers run under `scheduler` (see
    /// [`Mailbox::with_scheduler`]).
    fn with_scheduler(scheduler: Option<SchedulerHandle>) -> Self {
        PauseControl {
            resumed: Signal::new(scheduler),
            ..PauseControl::default()
        }
    }

    /// Stops the associated mailbox from handing out messages.
    pub fn pause(&self) {
        let _guard = self.transition.lock();
        self.paused.store(true, Ordering::Release);
    }

    /// Lets the associated mailbox hand out messages again, waking every
    /// parked worker.
    pub fn resume(&self) {
        {
            let _guard = self.transition.lock();
            self.paused.store(false, Ordering::Release);
        }
        self.resumed.notify_all();
    }

    /// `true` while paused.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    /// Blocks the calling worker while `gated` holds — the owning mailbox's
    /// "paused or crashed, and not closed". The predicate is re-checked
    /// under the transition lock, so a resume (or a restart or close, which
    /// call [`PauseControl::wake_all`] after setting their flag) can never
    /// be missed. Pause and crash share this one parking spot.
    pub(crate) fn block_while(&self, gated: impl Fn() -> bool) {
        let mut guard = self.transition.lock();
        while gated() {
            self.resumed.wait(&mut guard, None);
        }
    }

    /// Number of threads currently parked on the pause gate (test hook).
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.resumed.waiting()
    }

    /// Wakes every parked waiter without changing the pause state; called by
    /// [`Mailbox::close`] so a close always unblocks paused workers.
    pub(crate) fn wake_all(&self) {
        drop(self.transition.lock());
        self.resumed.notify_all();
    }
}

/// Priority class of a protocol message.
///
/// The SSS implementation assigns "priorities to different messages and
/// avoid\[s\] protocol slow down in some critical steps due to network
/// congestion caused by lower priority messages (e.g., the Remove message
/// has a very high priority because it enables external commits)" (paper §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Critical protocol steps: `Remove`, `Decide`, commit acknowledgements.
    High,
    /// Regular protocol traffic: reads, prepares, votes.
    Normal,
}

impl Priority {
    /// All priorities, highest first.
    pub const ALL: [Priority; 2] = [Priority::High, Priority::Normal];

    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
        }
    }
}

/// Counters describing the traffic that went through a [`Mailbox`].
///
/// All counters are monotonic; harnesses snapshot them at window boundaries
/// and [`MailboxStats::diff`]. Snapshots are taken under the mailbox's queue
/// mutex, so a single snapshot is always *coherent*: per class,
/// `dequeued <= enqueued` (see [`MailboxStats::is_coherent`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MailboxStats {
    /// Messages enqueued per priority class (high, normal).
    pub enqueued: [u64; Priority::ALL.len()],
    /// Messages dequeued per priority class (high, normal).
    pub dequeued: [u64; Priority::ALL.len()],
    /// Messages currently sitting in the queues per priority class — a
    /// *gauge*, not a counter, snapshotted under the same mutex as the
    /// counters so `queued[i] == enqueued[i] - dequeued[i]` holds exactly
    /// per snapshot. Carrying the backlog in the snapshot is what lets a
    /// window diff be reconciled exactly (see [`MailboxStats::conserves`]):
    /// without it, backlog draining inside a window shows up as more
    /// dequeues than enqueues with nothing to balance the books against.
    pub queued: [u64; Priority::ALL.len()],
    /// Enqueue operations: each push or push_batch counts once, however
    /// many messages it carried.
    pub enqueue_ops: u64,
    /// Dequeue operations (worker wakeups that drained at least one
    /// message): each pop or non-empty pop_batch counts once.
    pub dequeue_ops: u64,
    /// Messages delivered directly to a colocated handler without ever
    /// entering a queue (the transport's local fast path); not included in
    /// `enqueued`/`dequeued`.
    pub local_delivered: u64,
    /// Messages sent to this mailbox per protocol-message kind, as
    /// classified by the transport's message classifier (see
    /// [`MESSAGE_KIND_SLOTS`]). Counted once per logical send — queued and
    /// locally-delivered messages both — so with no fault-injected
    /// duplication `sum(per_kind) == total_enqueued + local_delivered`.
    /// All-zero when no classifier is registered.
    pub per_kind: [u64; MESSAGE_KIND_SLOTS],
}

impl MailboxStats {
    /// Total number of messages enqueued across all classes.
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued.iter().sum()
    }

    /// Total number of messages dequeued across all classes.
    pub fn total_dequeued(&self) -> u64 {
        self.dequeued.iter().sum()
    }

    /// Average messages drained per dequeue wakeup; 0 when nothing was
    /// dequeued. The direct signal for how much batching ([`Mailbox::pop_batch`])
    /// amortizes worker wakeups.
    pub fn messages_per_wakeup(&self) -> f64 {
        if self.dequeue_ops == 0 {
            0.0
        } else {
            self.total_dequeued() as f64 / self.dequeue_ops as f64
        }
    }

    /// `true` when the snapshot is internally consistent: no class has
    /// observed more dequeues than enqueues. Snapshots taken through
    /// [`Mailbox::stats`] always are; the interleaving harness asserts it.
    pub fn is_coherent(&self) -> bool {
        self.enqueued
            .iter()
            .zip(self.dequeued.iter())
            .all(|(e, d)| d <= e)
    }

    /// Exact message conservation between two snapshots of the same mailbox
    /// (or of the same *set* of mailboxes merged node-by-node): per class,
    /// every message queued at the `earlier` snapshot or enqueued in the
    /// window was either dequeued in the window or is still queued at the
    /// `later` snapshot. This is the accounting identity that window diffs
    /// alone cannot express — a diff with `dequeued > enqueued` is backlog
    /// from before the window draining inside it, and the `queued` gauges
    /// on both sides are exactly what balance the books. The identity is
    /// linear, so it holds for cluster-merged totals as long as each node's
    /// earlier/later snapshots are paired.
    pub fn conserves(earlier: &MailboxStats, later: &MailboxStats) -> bool {
        let window = later.diff(earlier);
        (0..Priority::ALL.len())
            .all(|i| earlier.queued[i] + window.enqueued[i] == window.dequeued[i] + later.queued[i])
    }

    /// Total number of messages currently queued across all classes (the
    /// snapshot's backlog gauge).
    pub fn total_queued(&self) -> u64 {
        self.queued.iter().sum()
    }

    /// Entry-wise sum with `other`, used to aggregate per-node mailboxes
    /// into a cluster total. The `queued` gauges add up too: the merged
    /// value is the cluster-wide backlog at (approximately) snapshot time.
    pub fn merge(&mut self, other: &MailboxStats) {
        for i in 0..Priority::ALL.len() {
            self.enqueued[i] += other.enqueued[i];
            self.dequeued[i] += other.dequeued[i];
            self.queued[i] += other.queued[i];
        }
        self.enqueue_ops += other.enqueue_ops;
        self.dequeue_ops += other.dequeue_ops;
        self.local_delivered += other.local_delivered;
        for i in 0..MESSAGE_KIND_SLOTS {
            self.per_kind[i] += other.per_kind[i];
        }
    }

    /// Counter difference `self - earlier` (entry-wise, saturating). The
    /// counters are monotonic and never reset; harnesses snapshot them at
    /// the start and end of a measured window and diff so per-window
    /// numbers exclude warm-up traffic. (A *window* diff may legitimately
    /// show more dequeues than enqueues for a class — backlog enqueued
    /// before the window can drain inside it; [`MailboxStats::conserves`]
    /// reconciles the two snapshots exactly — which is why coherence is
    /// asserted on snapshots, not on diffs.) The `queued` field is a gauge,
    /// not a counter: the diff keeps the *later* snapshot's value, i.e. the
    /// backlog at the end of the window.
    pub fn diff(&self, earlier: &MailboxStats) -> MailboxStats {
        let mut out = MailboxStats::default();
        for i in 0..Priority::ALL.len() {
            out.enqueued[i] = self.enqueued[i].saturating_sub(earlier.enqueued[i]);
            out.dequeued[i] = self.dequeued[i].saturating_sub(earlier.dequeued[i]);
        }
        out.queued = self.queued;
        out.enqueue_ops = self.enqueue_ops.saturating_sub(earlier.enqueue_ops);
        out.dequeue_ops = self.dequeue_ops.saturating_sub(earlier.dequeue_ops);
        out.local_delivered = self.local_delivered.saturating_sub(earlier.local_delivered);
        for i in 0..MESSAGE_KIND_SLOTS {
            out.per_kind[i] = self.per_kind[i].saturating_sub(earlier.per_kind[i]);
        }
        out
    }
}

/// The queues and counters of a mailbox, all behind one mutex.
#[derive(Debug)]
struct MailboxState<M> {
    queues: [VecDeque<M>; Priority::ALL.len()],
    enqueued: [u64; Priority::ALL.len()],
    dequeued: [u64; Priority::ALL.len()],
    enqueue_ops: u64,
    dequeue_ops: u64,
}

impl<M> MailboxState<M> {
    /// Drains up to `max` messages of the highest non-empty priority class
    /// into `out`; returns how many were taken (0 when every queue is
    /// empty). Strict bias: a batch never mixes classes, and a lower class
    /// is touched only when every higher one is empty.
    fn drain_highest(&mut self, max: usize, out: &mut Vec<M>) -> usize {
        for p in Priority::ALL {
            let idx = p.index();
            if !self.queues[idx].is_empty() {
                let take = max.min(self.queues[idx].len());
                out.extend(self.queues[idx].drain(..take));
                self.dequeued[idx] += take as u64;
                self.dequeue_ops += 1;
                return take;
            }
        }
        0
    }

    fn pop_highest(&mut self) -> Option<M> {
        for p in Priority::ALL {
            let idx = p.index();
            if let Some(msg) = self.queues[idx].pop_front() {
                self.dequeued[idx] += 1;
                self.dequeue_ops += 1;
                return Some(msg);
            }
        }
        None
    }
}

/// A multi-queue mailbox owned by one logical node.
///
/// Messages are pushed with a [`Priority`]; worker threads pop messages with
/// a strict priority bias (high before normal). The mailbox can be
/// closed, after which pops drain remaining messages and then return `None`.
pub struct Mailbox<M> {
    state: Mutex<MailboxState<M>>,
    /// Notified on every push that enqueued something and on crash, restart
    /// and close; only poppers wait on it.
    ready: Signal,
    closed: AtomicBool,
    /// `true` while the owning node is crash-stopped: pushes are silently
    /// dropped (the wire cannot tell a crashed machine from a slow one) and
    /// workers idle on the pause gate. Unlike `closed`, a crash is
    /// reversible — [`Mailbox::restart`] clears it.
    crashed: AtomicBool,
    pause: Arc<PauseControl>,
    /// Optional delivery filter consulted on every popped message, *outside*
    /// the queue lock: `false` means the message is consumed (it counts as
    /// dequeued) but never handed to the caller. The transport's
    /// reliable-delivery layer registers its dedup/ack hook here so
    /// duplicate retransmissions die at the mailbox boundary.
    filter: OnceLock<PopFilter<M>>,
}

/// A registered pop-time delivery filter (see [`Mailbox::set_pop_filter`]):
/// `false` consumes the message without handing it to the popper.
pub type PopFilter<M> = Arc<dyn Fn(&M) -> bool + Send + Sync>;

impl<M: Send> Mailbox<M> {
    /// Creates an empty, open mailbox.
    pub fn new() -> Self {
        Mailbox::with_scheduler(None)
    }

    /// Creates an empty, open mailbox whose poppers block, and whose state
    /// changes (push, resume, crash, restart, close) wake them, under
    /// `scheduler`. The transport passes its simulation scheduler here: a
    /// mailbox is also closed, and its pause gate resumed, by host threads
    /// that have no scheduler of their own to find the parked tasks with.
    pub fn with_scheduler(scheduler: Option<SchedulerHandle>) -> Self {
        Mailbox {
            state: Mutex::new(MailboxState {
                queues: std::array::from_fn(|_| VecDeque::new()),
                enqueued: [0; Priority::ALL.len()],
                dequeued: [0; Priority::ALL.len()],
                enqueue_ops: 0,
                dequeue_ops: 0,
            }),
            ready: Signal::new(scheduler.clone()),
            closed: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            pause: Arc::new(PauseControl::with_scheduler(scheduler)),
            filter: OnceLock::new(),
        }
    }

    /// Registers the delivery filter (write-once; later calls are no-ops).
    /// See the field docs: filtered-out messages are dequeued and dropped,
    /// never returned from a pop. The filter runs outside the queue lock,
    /// so it may take its own locks or schedule events.
    pub fn set_pop_filter(&self, filter: PopFilter<M>) {
        let _ = self.filter.set(filter);
    }

    /// Applies the delivery filter to one popped message; `true` without a
    /// filter. Must be called without the queue lock held.
    fn passes_filter(&self, msg: &M) -> bool {
        match self.filter.get() {
            Some(filter) => filter(msg),
            None => true,
        }
    }

    /// Crash-stops the mailbox: every queued message is destroyed (a crash
    /// loses in-flight traffic, unlike a pause) and until
    /// [`Mailbox::restart`] all pushes are silently dropped — senders cannot
    /// distinguish a crashed peer from a slow link, which is exactly the
    /// ambiguity the reliable-delivery layer's retransmissions resolve.
    /// Workers idle on the pause gate while crashed. Purged messages are
    /// counted as dequeued so [`MailboxStats::conserves`] keeps holding
    /// across crash windows.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
        {
            let mut state = self.state.lock();
            let mut purged = 0u64;
            for idx in 0..Priority::ALL.len() {
                let n = state.queues[idx].len() as u64;
                state.queues[idx].clear();
                state.dequeued[idx] += n;
                purged += n;
            }
            if purged > 0 {
                state.dequeue_ops += 1;
            }
        }
        // Wake parked poppers so they migrate from the ready queue to the
        // crash gate (mirrors how a pause landing mid-park re-gates).
        self.ready.notify_all();
    }

    /// Clears a crash-stop: pushes are accepted again and parked workers
    /// resume draining. The queues start empty — everything sent during the
    /// crash window is gone for good.
    pub fn restart(&self) {
        self.crashed.store(false, Ordering::Release);
        self.pause.wake_all();
        self.ready.notify_all();
    }

    /// `true` while crash-stopped (between [`Mailbox::crash`] and
    /// [`Mailbox::restart`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// The simulation scheduler this mailbox was built with, if any.
    pub fn scheduler(&self) -> Option<SchedulerHandle> {
        self.ready.scheduler().cloned()
    }

    /// The pause gate of this mailbox, shared with fault injectors. Pushes
    /// are unaffected by a pause; only [`Mailbox::pop`] stops handing out
    /// messages (the node keeps receiving but stops processing).
    pub fn pause_control(&self) -> Arc<PauseControl> {
        Arc::clone(&self.pause)
    }

    /// Enqueues `msg` in the queue of class `priority`.
    ///
    /// Returns `false` if the mailbox has been closed (the message is
    /// dropped), `true` otherwise.
    pub fn push(&self, msg: M, priority: Priority) -> bool {
        self.push_batch(Some(msg), priority)
    }

    /// Enqueues every message of `msgs` in the queue of class `priority`
    /// with a single lock acquisition and a single worker wakeup round —
    /// the enqueue half of batched delivery.
    ///
    /// Returns `false` if the mailbox has been closed (the whole batch is
    /// dropped), `true` otherwise. An empty batch is a no-op.
    pub fn push_batch(&self, msgs: impl IntoIterator<Item = M>, priority: Priority) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        if self.crashed.load(Ordering::Acquire) {
            // A crashed node's NIC is off: the messages vanish, but the
            // sender observes success — loss, not rejection.
            return true;
        }
        let idx = priority.index();
        let pushed = {
            let mut state = self.state.lock();
            let before = state.queues[idx].len();
            state.queues[idx].extend(msgs);
            let pushed = state.queues[idx].len() - before;
            if pushed > 0 {
                state.enqueued[idx] += pushed as u64;
                state.enqueue_ops += 1;
            }
            pushed
        };
        match pushed {
            0 => {}
            1 => self.ready.notify_one(),
            _ => self.ready.notify_all(),
        }
        true
    }

    /// The one blocking loop behind [`Mailbox::pop`] and
    /// [`Mailbox::pop_batch`]: waits out pause and crash gates, then `take`s
    /// from the queues under their lock, blocking until there is something
    /// to take. `None` once the mailbox is closed and drained.
    fn wait_and_take<T>(
        &self,
        mut take: impl FnMut(&mut MailboxState<M>) -> Option<T>,
    ) -> Option<T> {
        loop {
            // A paused or crashed node stops draining its queues (fault
            // injection); the close flag overrides both so shutdown always
            // drains.
            if self.gated() {
                self.pause.block_while(|| self.gated());
                continue;
            }
            let mut state = self.state.lock();
            // Re-checked after every wakeup so a pause that lands while
            // this worker is parked gates the messages behind it: the
            // worker re-parks on the pause gate instead of the ready queue.
            while !self.gated() {
                if let Some(taken) = take(&mut state) {
                    return Some(taken);
                }
                if self.closed.load(Ordering::Acquire) {
                    return None;
                }
                self.ready.wait(&mut state, None);
            }
        }
    }

    /// Pops the next message, honoring the priority bias.
    ///
    /// Blocks until a message arrives or the mailbox is closed *and* empty,
    /// in which case `None` is returned.
    pub fn pop(&self) -> Option<M> {
        loop {
            let msg = self.wait_and_take(MailboxState::pop_highest)?;
            // Filtered outside the queue lock (the filter may take locks of
            // its own); a filtered-out message was consumed, keep popping.
            if self.passes_filter(&msg) {
                return Some(msg);
            }
        }
    }

    /// Pops up to `max` messages of the *same* (highest non-empty) priority
    /// class into `out`, blocking until at least one message is available or
    /// the mailbox is closed and empty.
    ///
    /// Returns the number of messages appended to `out`; 0 means the
    /// mailbox is closed and drained and the caller should stop. Strict
    /// priority order is preserved: a batch never mixes classes and a
    /// lower-priority queue is only drained when every higher one is empty
    /// at that instant.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<M>) -> usize {
        assert!(max > 0, "pop_batch needs a non-zero batch size");
        loop {
            let taken = self.wait_and_take(|state| match state.drain_highest(max, out) {
                0 => None,
                taken => Some(taken),
            });
            let Some(taken) = taken else { return 0 };
            // Filter the drained region outside the queue lock; filtered-out
            // messages were consumed. If the whole batch dies, go back to
            // waiting.
            let start = out.len() - taken;
            if let Some(filter) = self.filter.get() {
                let mut i = start;
                while i < out.len() {
                    if filter(&out[i]) {
                        i += 1;
                    } else {
                        out.remove(i);
                    }
                }
            }
            if out.len() > start {
                return out.len() - start;
            }
        }
    }

    /// Parks the calling thread while the mailbox is paused (and not
    /// closed). Workers call this between the messages of a drained batch
    /// so a pause freezes the node at the next message boundary — the same
    /// in-flight window as unbatched delivery — instead of letting up to a
    /// whole batch of already-drained messages keep processing. The
    /// fast-path cost when not paused is one atomic load.
    pub fn pause_point(&self) {
        if self.gated() {
            self.pause.block_while(|| self.gated());
        }
    }

    /// `true` while workers must not drain the queues: paused or crashed,
    /// unless the mailbox is closed (close overrides both so shutdown can
    /// never deadlock on a gated node).
    fn gated(&self) -> bool {
        (self.pause.is_paused() || self.crashed.load(Ordering::Acquire))
            && !self.closed.load(Ordering::Acquire)
    }

    /// Pops a message if one is immediately available (and passes the
    /// delivery filter; filtered-out messages are consumed and skipped).
    pub fn try_pop(&self) -> Option<M> {
        loop {
            let msg = self.state.lock().pop_highest()?;
            if self.passes_filter(&msg) {
                return Some(msg);
            }
        }
    }

    /// Closes the mailbox: subsequent pushes are rejected and pops return
    /// `None` once the queues drain. Wakes every parked worker, including
    /// workers parked on a pause gate.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Taking (and releasing) the queue mutex orders the flag store
        // before the notification for any worker that checked the flag
        // under the lock and is about to wait.
        drop(self.state.lock());
        self.ready.notify_all();
        self.pause.wake_all();
    }

    /// `true` once [`Mailbox::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of currently queued messages across all classes.
    pub fn len(&self) -> usize {
        self.state.lock().queues.iter().map(|q| q.len()).sum()
    }

    /// `true` when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of threads currently parked on the ready queue (test hook).
    #[cfg(test)]
    fn parked_poppers(&self) -> usize {
        self.ready.waiting()
    }

    /// Coherent snapshot of the mailbox traffic counters (taken under the
    /// queue mutex, so per class `dequeued <= enqueued` always holds) with
    /// the queue-depth gauges of the same instant — by construction
    /// `queued[i] == enqueued[i] - dequeued[i]`, which is what closes the
    /// books on window diffs (see [`MailboxStats::conserves`]).
    pub fn stats(&self) -> MailboxStats {
        let state = self.state.lock();
        let mut queued = [0u64; Priority::ALL.len()];
        for (gauge, queue) in queued.iter_mut().zip(state.queues.iter()) {
            *gauge = queue.len() as u64;
        }
        MailboxStats {
            enqueued: state.enqueued,
            dequeued: state.dequeued,
            queued,
            enqueue_ops: state.enqueue_ops,
            dequeue_ops: state.dequeue_ops,
            local_delivered: 0,
            per_kind: [0; MESSAGE_KIND_SLOTS],
        }
    }
}

impl<M: Send> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl<M> std::fmt::Debug for Mailbox<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox")
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .field("paused", &self.pause.is_paused())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Polls `cond` until it holds or a generous deadline elapses; returns
    /// whether it held. Tests synchronize on observable state (parked-waiter
    /// counts, queue lengths) under a deadline instead of sleeping fixed
    /// durations and hoping the other thread got there.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn fifo_within_a_priority_class() {
        let mb = Mailbox::new();
        mb.push(1, Priority::Normal);
        mb.push(2, Priority::Normal);
        mb.push(3, Priority::Normal);
        assert_eq!(mb.pop(), Some(1));
        assert_eq!(mb.pop(), Some(2));
        assert_eq!(mb.pop(), Some(3));
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let mb = Mailbox::new();
        mb.push("read", Priority::Normal);
        mb.push("prepare", Priority::Normal);
        mb.push("remove", Priority::High);
        assert_eq!(mb.pop(), Some("remove"));
        assert_eq!(mb.pop(), Some("read"));
        assert_eq!(mb.pop(), Some("prepare"));
    }

    #[test]
    fn close_rejects_pushes_but_drains_queued_messages() {
        let mb = Mailbox::new();
        mb.push(1, Priority::Normal);
        mb.close();
        assert!(mb.is_closed());
        assert!(!mb.push(2, Priority::High));
        assert!(!mb.push_batch([3, 4], Priority::High));
        assert_eq!(mb.pop(), Some(1));
        assert_eq!(mb.pop(), None);
    }

    #[test]
    fn try_pop_returns_none_when_empty() {
        let mb: Mailbox<u8> = Mailbox::new();
        assert_eq!(mb.try_pop(), None);
        assert!(mb.is_empty());
    }

    #[test]
    fn stats_track_traffic_per_class() {
        let mb = Mailbox::new();
        mb.push(1, Priority::High);
        mb.push(2, Priority::Normal);
        mb.push(3, Priority::Normal);
        mb.pop();
        let stats = mb.stats();
        assert_eq!(stats.enqueued, [1, 2]);
        assert_eq!(stats.total_enqueued(), 3);
        assert_eq!(stats.total_dequeued(), 1);
        assert_eq!(stats.queued, [0, 2], "gauge matches enqueued-dequeued");
        assert_eq!(stats.total_queued(), 2);
        assert_eq!(stats.enqueue_ops, 3);
        assert_eq!(stats.dequeue_ops, 1);
        assert!(stats.is_coherent());
    }

    #[test]
    fn snapshots_conserve_messages_across_a_backlog_draining_window() {
        let mb = Mailbox::new();
        // Backlog before the window: 2 messages queued.
        mb.push(1, Priority::Normal);
        mb.push(2, Priority::Normal);
        let before = mb.stats();
        assert_eq!(before.queued, [0, 2]);
        // Window: one new enqueue, three dequeues (the backlog drains).
        mb.push(3, Priority::Normal);
        mb.pop();
        mb.pop();
        mb.pop();
        let after = mb.stats();
        let window = after.diff(&before);
        assert_eq!(window.enqueued, [0, 1]);
        assert_eq!(
            window.dequeued,
            [0, 3],
            "window diffs legitimately dequeue more than they enqueue"
        );
        assert!(
            MailboxStats::conserves(&before, &after),
            "the queued gauges must balance the window's books"
        );
    }

    #[test]
    fn push_batch_counts_one_enqueue_op() {
        let mb = Mailbox::new();
        assert!(mb.push_batch([1, 2, 3], Priority::Normal));
        assert!(mb.push_batch(std::iter::empty::<u8>(), Priority::High));
        let stats = mb.stats();
        assert_eq!(stats.total_enqueued(), 3);
        assert_eq!(stats.enqueue_ops, 1, "empty batches are not counted");
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(8, &mut out), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(mb.stats().dequeue_ops, 1);
        assert!((mb.stats().messages_per_wakeup() - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn pop_batch_never_mixes_priority_classes() {
        let mb = Mailbox::new();
        mb.push_batch([10, 11], Priority::Normal);
        mb.push_batch([1, 2, 3], Priority::High);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(8, &mut out), 3, "high class drains first");
        assert_eq!(out, vec![1, 2, 3]);
        out.clear();
        assert_eq!(mb.pop_batch(8, &mut out), 2);
        assert_eq!(out, vec![10, 11]);
    }

    #[test]
    fn pop_batch_respects_the_cap() {
        let mb = Mailbox::new();
        mb.push_batch(0..10, Priority::Normal);
        let mut out = Vec::new();
        assert_eq!(mb.pop_batch(4, &mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(mb.len(), 6);
    }

    #[test]
    fn pause_point_parks_until_resume_and_never_blocks_when_closed() {
        let mb: Arc<Mailbox<u8>> = Arc::new(Mailbox::new());
        // Not paused: returns immediately.
        mb.pause_point();
        let pause = mb.pause_control();
        pause.pause();
        let parked = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                mb.pause_point();
                42u8
            })
        };
        // The worker is parked on the gate, not spinning; resume releases it.
        assert!(eventually(|| pause.parked() == 1));
        assert!(!parked.is_finished());
        pause.resume();
        assert_eq!(parked.join().unwrap(), 42);
        // A close overrides an active pause so shutdown drains proceed.
        pause.pause();
        mb.close();
        mb.pause_point();
    }

    #[test]
    fn pop_blocks_until_a_message_arrives() {
        let mb = Arc::new(Mailbox::new());
        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        // Push only once the popper is demonstrably parked on the ready
        // queue, so the blocking path is the one exercised.
        assert!(eventually(|| mb.parked_poppers() == 1));
        mb.push(42, Priority::Normal);
        assert_eq!(handle.join().unwrap(), Some(42));
    }

    #[test]
    fn paused_mailbox_stops_handing_out_messages_until_resumed() {
        let mb = Arc::new(Mailbox::new());
        let pause = mb.pause_control();
        pause.pause();
        assert!(pause.is_paused());
        assert!(mb.push(7, Priority::Normal), "pushes proceed while paused");

        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        // The popper must end up stuck behind the gate, not pop the message.
        assert!(eventually(|| pause.parked() == 1));
        assert_eq!(mb.len(), 1, "message must still be queued while paused");
        pause.resume();
        assert_eq!(handle.join().unwrap(), Some(7));
    }

    #[test]
    fn pause_hit_while_parked_on_the_ready_queue_still_gates() {
        let mb: Arc<Mailbox<u8>> = Arc::new(Mailbox::new());
        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        // Let the popper park on the empty mailbox, then pause and push.
        assert!(eventually(|| mb.parked_poppers() == 1));
        mb.pause_control().pause();
        mb.push(9, Priority::Normal);
        // The push wakes the popper, which must migrate to the pause gate
        // instead of popping the now-gated message.
        let pause = mb.pause_control();
        assert!(eventually(|| pause.parked() == 1));
        assert_eq!(mb.len(), 1, "paused mailbox must hold the message");
        pause.resume();
        assert_eq!(handle.join().unwrap(), Some(9));
    }

    #[test]
    fn close_overrides_pause_and_drains() {
        let mb = Mailbox::new();
        mb.pause_control().pause();
        mb.push(1, Priority::High);
        mb.close();
        assert_eq!(mb.pop(), Some(1), "closed mailboxes drain even if paused");
        assert_eq!(mb.pop(), None);
    }

    #[test]
    fn close_unblocks_a_worker_parked_on_the_pause_gate() {
        let mb: Arc<Mailbox<u8>> = Arc::new(Mailbox::new());
        mb.pause_control().pause();
        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        let pause = mb.pause_control();
        assert!(eventually(|| pause.parked() == 1));
        mb.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn pop_unblocks_on_close() {
        let mb: Arc<Mailbox<u8>> = Arc::new(Mailbox::new());
        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        // Close only once the popper is parked, so the close-wakeup path is
        // the one exercised.
        assert!(eventually(|| mb.parked_poppers() == 1));
        mb.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn crash_purges_drops_pushes_and_restart_recovers() {
        let mb = Mailbox::new();
        mb.push(1, Priority::Normal);
        mb.push(2, Priority::High);
        let before = mb.stats();
        mb.crash();
        assert!(mb.is_crashed());
        assert_eq!(mb.len(), 0, "a crash destroys queued messages");
        // Pushes during the crash window vanish without an error: the wire
        // cannot tell a crashed node from a slow one.
        assert!(mb.push(3, Priority::Normal));
        assert!(mb.push_batch([4, 5], Priority::Normal));
        assert_eq!(mb.len(), 0);
        assert_eq!(mb.try_pop(), None);
        let during = mb.stats();
        assert!(
            MailboxStats::conserves(&before, &during),
            "purged messages count as dequeued so the books stay balanced"
        );
        mb.restart();
        assert!(!mb.is_crashed());
        assert!(mb.push(6, Priority::Normal));
        assert_eq!(mb.pop(), Some(6));
    }

    #[test]
    fn crashed_mailbox_gates_workers_until_restart() {
        let mb: Arc<Mailbox<u8>> = Arc::new(Mailbox::new());
        mb.crash();
        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        let pause = mb.pause_control();
        assert!(eventually(|| pause.parked() == 1));
        mb.restart();
        mb.push(11, Priority::Normal);
        assert_eq!(handle.join().unwrap(), Some(11));
    }

    #[test]
    fn close_overrides_a_crash() {
        let mb: Arc<Mailbox<u8>> = Arc::new(Mailbox::new());
        mb.crash();
        let popper = Arc::clone(&mb);
        let handle = std::thread::spawn(move || popper.pop());
        let pause = mb.pause_control();
        assert!(eventually(|| pause.parked() == 1));
        mb.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn stats_merge_and_diff_cover_op_counters() {
        let mut a = MailboxStats {
            enqueued: [4, 0],
            dequeued: [2, 0],
            queued: [2, 0],
            enqueue_ops: 2,
            dequeue_ops: 1,
            local_delivered: 3,
            per_kind: [5, 0, 0, 0, 0, 0, 0, 0],
        };
        let b = MailboxStats {
            enqueued: [1, 1],
            dequeued: [1, 1],
            queued: [0, 0],
            enqueue_ops: 2,
            dequeue_ops: 2,
            local_delivered: 1,
            per_kind: [1, 1, 0, 0, 0, 0, 0, 0],
        };
        a.merge(&b);
        assert_eq!(a.enqueue_ops, 4);
        assert_eq!(a.local_delivered, 4);
        assert_eq!(a.queued, [2, 0]);
        assert_eq!(a.per_kind[0], 6);
        let d = a.diff(&b);
        assert_eq!(d.enqueued, [4, 0]);
        assert_eq!(d.enqueue_ops, 2);
        assert_eq!(d.local_delivered, 3);
        assert_eq!(d.queued, a.queued, "diffs keep the later snapshot's gauge");
        assert_eq!(d.per_kind[0], 5);
        assert_eq!(d.per_kind[1], 0);
        assert!(a.is_coherent());
        let incoherent = MailboxStats {
            enqueued: [0; Priority::ALL.len()],
            dequeued: [1, 0],
            ..MailboxStats::default()
        };
        assert!(!incoherent.is_coherent());
    }
}
