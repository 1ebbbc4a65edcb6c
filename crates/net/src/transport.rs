//! The [`Transport`] abstraction and its in-process implementation.

use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_vclock::runtime::{Backoff, SchedulerHandle};
use sss_vclock::NodeId;

use crate::latency::LatencyModel;
use crate::mailbox::{Mailbox, MailboxStats, PauseControl, Priority, MESSAGE_KIND_SLOTS};

/// A node's message handler as registered with
/// [`ChannelTransport::set_local_dispatch`]: the target of the local
/// delivery fast path for messages a node sends to itself.
pub type LocalDispatch<M> = Arc<dyn Fn(Envelope<M>) + Send + Sync>;

/// A message in flight between two nodes.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Priority class used for queueing at the destination.
    pub priority: Priority,
    /// The protocol payload.
    pub payload: M,
    /// Per-link sequence number stamped by the reliable-delivery layer;
    /// `None` when the transport runs without one. Protocol handlers never
    /// see duplicates regardless — the receiving side of the layer filters
    /// and acknowledges by this number before a worker hands the message to
    /// its handler.
    pub rel_seq: Option<u64>,
}

/// Errors returned by [`Transport`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination node id is outside the cluster.
    UnknownNode(NodeId),
    /// The transport (or the destination mailbox) has been shut down.
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownNode(n) => write!(f, "unknown destination node {n}"),
            TransportError::Closed => write!(f, "transport is closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Abstract reliable asynchronous channel between cluster nodes.
///
/// The system model (paper §II) assumes "reliable asynchronous channels,
/// meaning messages are guaranteed to be eventually delivered unless a crash
/// happens at the sender or receiver node", with no bound on delivery time.
/// Protocol code only interacts with other nodes through this trait.
pub trait Transport<M: Send>: Send + Sync {
    /// Sends `payload` from `from` to `to` with the given priority.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownNode`] if `to` is out of range and
    /// [`TransportError::Closed`] after shutdown.
    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        payload: M,
        priority: Priority,
    ) -> Result<(), TransportError>;

    /// Sends every payload of `batch` from `from` to `to` with the given
    /// priority, as **one delivery batch**: implementations enqueue the
    /// whole batch with a single wakeup at the destination where possible.
    ///
    /// Fault semantics are unchanged — an interposer is consulted once per
    /// message, exactly as if each payload had been sent individually.
    ///
    /// The default implementation simply loops over [`Transport::send`].
    ///
    /// # Errors
    ///
    /// Same as [`Transport::send`]; on error a prefix of the batch may have
    /// been delivered (identical to a failing sequence of sends).
    fn send_batch(
        &self,
        from: NodeId,
        to: NodeId,
        batch: Vec<M>,
        priority: Priority,
    ) -> Result<(), TransportError> {
        for payload in batch {
            self.send(from, to, payload, priority)?;
        }
        Ok(())
    }

    /// Number of nodes reachable through this transport.
    fn num_nodes(&self) -> usize;
}

/// Per-send delivery plan produced by a [`FaultInterposer`].
///
/// Every entry is one delivered copy of the message, with the *extra* delay
/// (on top of the transport's configured latency model) to apply to that
/// copy. A plan can also declare the message [`SendPlan::lost`]: zero copies
/// reach the wire. Loss is only survivable when the transport runs a
/// reliable-delivery layer (see [`ReliabilityConfig`]) whose retransmissions
/// redraw the plan until a copy passes; without one a lost message is simply
/// gone, which breaks the paper's reliable-channel system model — fault
/// plans that enable loss are expected to enable reliability with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendPlan {
    copies: Vec<Duration>,
    lost: bool,
}

impl SendPlan {
    /// The message passes through unchanged: one copy, no extra delay.
    pub fn pass() -> Self {
        SendPlan {
            copies: vec![Duration::ZERO],
            lost: false,
        }
    }

    /// The message is dropped on the wire: no copy is ever delivered.
    pub fn lost() -> Self {
        SendPlan {
            copies: Vec::new(),
            lost: true,
        }
    }

    /// One copy delivered with `extra` additional delay.
    pub fn delayed(extra: Duration) -> Self {
        SendPlan {
            copies: vec![extra],
            lost: false,
        }
    }

    /// An explicit list of copies, each with its own extra delay. Empty
    /// lists are normalized to [`SendPlan::pass`] — dropping a message is
    /// an explicit decision ([`SendPlan::lost`]), never an accident of an
    /// empty copy list.
    pub fn copies(copies: Vec<Duration>) -> Self {
        if copies.is_empty() {
            SendPlan::pass()
        } else {
            SendPlan {
                copies,
                lost: false,
            }
        }
    }

    /// Adds one duplicated copy with `extra` additional delay. No-op on a
    /// lost plan: a dropped message has no copies to duplicate.
    pub fn duplicate(mut self, extra: Duration) -> Self {
        if !self.lost {
            self.copies.push(extra);
        }
        self
    }

    /// The extra delay of every copy to deliver (empty for a lost plan).
    pub fn deliveries(&self) -> &[Duration] {
        &self.copies
    }

    /// `true` when the plan is a single zero-delay copy (the fast path).
    pub fn is_pass(&self) -> bool {
        !self.lost && self.copies.len() == 1 && self.copies[0].is_zero()
    }

    /// `true` when the message is dropped on the wire.
    pub fn is_lost(&self) -> bool {
        self.lost
    }
}

/// Interposes on every [`Transport::send`], turning one logical send into a
/// set of (possibly delayed, possibly duplicated, possibly lost) deliveries.
///
/// This is the hook the fault-injection subsystem (`sss-faults`) attaches
/// to: delay spikes, jitter bursts, reordering (delaying one message so
/// later ones overtake it), duplication, transient partitions (holding
/// messages until the partition heals) and message loss are all expressible
/// as a [`SendPlan`]. The paper's system model assumes reliable asynchronous
/// channels; loss therefore steps outside it and is only meaningful together
/// with the transport's reliable-delivery layer ([`ReliabilityConfig`]),
/// which re-establishes eventual delivery by retransmission — every fresh
/// wire attempt (first send and each retransmit) draws a fresh plan.
///
/// Interposer faults compose with the transport's [`LatencyModel`]: each
/// copy's total delay is the sampled model latency plus the plan's extra
/// delay for that copy.
pub trait FaultInterposer: Send + Sync + std::fmt::Debug {
    /// Plans the delivery of one message sent from `from` to `to` at `now`.
    fn plan(&self, from: NodeId, to: NodeId, now: Instant) -> SendPlan;

    /// Called once by the [`NodeHost`](crate::NodeHost) that installs this
    /// interposer, before any node runs: hands over the per-node pause
    /// gates (indexed by node) and, under simulation, the scheduler that
    /// timed fault windows must run on. An interposer that only plans
    /// individual sends needs neither and keeps the default.
    fn attach(
        &self,
        _pause_controls: Vec<Arc<PauseControl>>,
        _scheduler: Option<&SchedulerHandle>,
    ) {
    }
}

/// Convenience helpers available on every transport.
pub trait TransportExt<M: Send + Clone>: Transport<M> {
    /// Sends a copy of `payload` to every node in `targets`, moving the
    /// payload into the last send so a fan-out to N targets pays N-1
    /// clones, not N.
    ///
    /// Self-addressed copies are sent *after* every remote copy: a send to
    /// `from` may run the destination handler inline on this thread (the
    /// local delivery fast path), and running it mid-fan-out would hold up
    /// the remaining remote sends behind it.
    fn multicast(
        &self,
        from: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
        payload: M,
        priority: Priority,
    ) -> Result<(), TransportError> {
        let mut targets: Vec<NodeId> = targets.into_iter().collect();
        // Stable: remote targets keep their order, self-addressed ones
        // move to the end.
        targets.sort_by_key(|t| *t == from);
        let Some((last, rest)) = targets.split_last() else {
            return Ok(());
        };
        for target in rest {
            self.send(from, *target, payload.clone(), priority)?;
        }
        self.send(from, *last, payload, priority)
    }
}

impl<M: Send + Clone, T: Transport<M> + ?Sized> TransportExt<M> for T {}

/// Tuning knobs of the transport's reliable-delivery layer.
///
/// The layer sits between [`Transport::send`] and the destination mailbox:
/// every message gets a per-link sequence number and is retransmitted on a
/// capped-exponential schedule (deterministically jittered from the
/// transport seed) until the *receiver's worker* acknowledges popping it for
/// processing — not merely enqueueing it, so a crash that purges a mailbox
/// also revives the retransmissions of everything it destroyed. Receivers
/// drop already-processed sequence numbers before the handler sees them,
/// turning the at-least-once wire into effectively-once delivery. Acks
/// travel the reverse link and are subject to the same wire faults (loss
/// included); a lost ack costs one duplicate, which the receiver suppresses
/// and re-acknowledges.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityConfig {
    /// Base retransmission timeout: the first retransmit of an unacked
    /// message fires roughly this long after the send.
    pub rto: Duration,
    /// Upper bound on the backoff between retransmissions.
    pub cap: Duration,
    /// Retransmissions per message before the layer gives up, which bounds
    /// the event cascade when a peer never restarts.
    pub max_attempts: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            rto: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            max_attempts: 20,
        }
    }
}

/// Monotonic counters of the reliable-delivery layer (see
/// [`ChannelTransport::reliability_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Messages that entered the reliable layer (sequence numbers issued).
    pub sent: u64,
    /// Wire retransmissions performed.
    pub retransmits: u64,
    /// Acknowledgements that retired an outstanding message.
    pub acks: u64,
    /// Duplicate deliveries suppressed before reaching a handler.
    pub duplicates_suppressed: u64,
    /// Messages abandoned after exhausting `max_attempts` retransmissions.
    pub gave_up: u64,
    /// Messages currently unacknowledged (a gauge, not a counter).
    pub outstanding: u64,
}

/// Configuration of a [`ChannelTransport`].
#[derive(Clone)]
pub struct TransportConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// One-way latency model applied to every message.
    pub latency: LatencyModel,
    /// Seed for the latency sampler, for reproducible asynchrony in tests.
    pub seed: u64,
    /// Optional fault interposer consulted on every send.
    pub interposer: Option<Arc<dyn FaultInterposer>>,
    /// Optional simulation scheduler. When set, latency is modeled by
    /// scheduling virtual-time delivery events instead of a delayer thread,
    /// `now` reads come from the virtual clock, and every mailbox parks its
    /// workers on the scheduler.
    pub scheduler: Option<SchedulerHandle>,
    /// Optional reliable-delivery layer (sequence numbers, ack/retransmit,
    /// receiver-side dedup). Off by default: the lossless fault repertoire
    /// (delay, reorder, duplicate, partition) is deliberately exercised
    /// against the bare protocol — e.g. duplicate storms keep testing
    /// handler idempotency — and only plans that lose messages or crash
    /// nodes need the layer to restore eventual delivery.
    pub reliable: Option<ReliabilityConfig>,
}

impl std::fmt::Debug for TransportConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportConfig")
            .field("nodes", &self.nodes)
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("interposer", &self.interposer)
            .field("scheduler", &self.scheduler.as_ref().map(|_| "sim"))
            .field("reliable", &self.reliable)
            .finish()
    }
}

impl TransportConfig {
    /// A transport for `nodes` nodes with immediate delivery.
    pub fn new(nodes: usize) -> Self {
        TransportConfig {
            nodes,
            latency: LatencyModel::ZERO,
            seed: 0,
            interposer: None,
            scheduler: None,
            reliable: None,
        }
    }

    /// Sets the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the latency sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a fault interposer consulted on every send.
    pub fn interposer(mut self, interposer: Arc<dyn FaultInterposer>) -> Self {
        self.interposer = Some(interposer);
        self
    }

    /// Runs the transport under a simulation scheduler (see
    /// [`TransportConfig::scheduler`]).
    pub fn scheduler(mut self, scheduler: SchedulerHandle) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Enables the reliable-delivery layer (see [`ReliabilityConfig`]).
    pub fn reliable(mut self, reliable: ReliabilityConfig) -> Self {
        self.reliable = Some(reliable);
        self
    }
}

struct Delayed<M> {
    deliver_at: Instant,
    seq: u64,
    envelope: Envelope<M>,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest delivery wins.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct DelayerState<M> {
    heap: BinaryHeap<Delayed<M>>,
    rng: StdRng,
    next_seq: u64,
    shutdown: bool,
}

/// One unacknowledged message on a directed link.
struct PendingMsg<M> {
    envelope: Envelope<M>,
    /// Wire attempts so far beyond the initial send.
    attempt: u32,
}

/// Per-directed-link state of the reliable layer: the sender side of the
/// link (sequence counter, unacked messages) and the receiver side
/// (processed-sequence tracking for dedup) live in one entry because both
/// ends of an in-process link belong to the same transport.
struct LinkState<M> {
    next_seq: u64,
    outstanding: HashMap<u64, PendingMsg<M>>,
    /// Receiver side: every sequence number below this has been handed to a
    /// handler exactly once.
    processed_floor: u64,
    /// Receiver side: processed sequence numbers at or above the floor
    /// (out-of-order arrivals); drained into the floor as gaps fill.
    processed: BTreeSet<u64>,
}

impl<M> Default for LinkState<M> {
    fn default() -> Self {
        LinkState {
            next_seq: 0,
            outstanding: HashMap::new(),
            processed_floor: 0,
            processed: BTreeSet::new(),
        }
    }
}

impl<M> LinkState<M> {
    /// Receiver-side dedup: records `seq` as processed; `false` when it
    /// already was (the caller suppresses the duplicate).
    fn record_processed(&mut self, seq: u64) -> bool {
        if seq < self.processed_floor || self.processed.contains(&seq) {
            return false;
        }
        self.processed.insert(seq);
        while self.processed.remove(&self.processed_floor) {
            self.processed_floor += 1;
        }
        true
    }
}

/// A timer or delivery owned by the reliable layer.
enum RelEvent<M> {
    /// Check an outstanding message and put fresh copies on the wire.
    Retransmit { from: usize, to: usize, seq: u64 },
    /// An acknowledgement finished crossing the reverse link: retire the
    /// outstanding message.
    AckArrival { from: usize, to: usize, seq: u64 },
    /// A retransmitted copy finished crossing the wire: enqueue it.
    Deliver { envelope: Envelope<M> },
}

struct RelTimer<M> {
    at: Instant,
    seq: u64,
    event: RelEvent<M>,
}

impl<M> PartialEq for RelTimer<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for RelTimer<M> {}
impl<M> PartialOrd for RelTimer<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for RelTimer<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap; reverse so the earliest timer wins.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

struct RelTimerState<M> {
    heap: BinaryHeap<RelTimer<M>>,
    next_seq: u64,
    shutdown: bool,
}

#[derive(Default)]
struct RelCounters {
    sent: AtomicU64,
    retransmits: AtomicU64,
    acks: AtomicU64,
    dups: AtomicU64,
    gave_up: AtomicU64,
}

/// The transport's reliable-delivery layer (enabled via
/// [`TransportConfig::reliable`]; semantics on [`ReliabilityConfig`]).
///
/// Initial copies ride the transport's normal delivery machinery with a
/// sequence number stamped into the envelope; everything else — acks,
/// retransmissions, retransmitted copies in flight — is scheduled here, as
/// virtual-time events under simulation or on a dedicated timer thread
/// otherwise, so none of it ever touches the mailbox queue counters.
struct ReliableLayer<M> {
    cfg: ReliabilityConfig,
    /// Retransmission schedule: capped exponential, jitter seeded from the
    /// transport seed so simulated runs replay bit-identically.
    backoff: Backoff,
    mailboxes: Vec<Arc<Mailbox<Envelope<M>>>>,
    interposer: Option<Arc<dyn FaultInterposer>>,
    latency: LatencyModel,
    links: Mutex<HashMap<(usize, usize), LinkState<M>>>,
    /// Latency sampler for ack and retransmission crossings, seeded apart
    /// from the forward path's so both draw reproducible sequences.
    rng: Mutex<StdRng>,
    sched: Option<SchedulerHandle>,
    timers: Arc<(Mutex<RelTimerState<M>>, Condvar)>,
    timer_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    counters: RelCounters,
    shutdown: AtomicBool,
}

impl<M: Send + Clone + 'static> ReliableLayer<M> {
    fn new(
        cfg: ReliabilityConfig,
        mailboxes: Vec<Arc<Mailbox<Envelope<M>>>>,
        interposer: Option<Arc<dyn FaultInterposer>>,
        latency: LatencyModel,
        seed: u64,
        sched: Option<SchedulerHandle>,
    ) -> Arc<Self> {
        Arc::new(ReliableLayer {
            backoff: Backoff::exponential(cfg.rto, cfg.cap).with_jitter(seed ^ 0x52_45_4C_49),
            cfg,
            mailboxes,
            interposer,
            latency,
            links: Mutex::new(HashMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x61_63_6B_73)),
            sched,
            timers: Arc::new((
                Mutex::new(RelTimerState {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                    shutdown: false,
                }),
                Condvar::new(),
            )),
            timer_thread: Mutex::new(None),
            counters: RelCounters::default(),
            shutdown: AtomicBool::new(false),
        })
    }

    fn now(&self) -> Instant {
        match &self.sched {
            Some(sched) => sched.now(),
            None => Instant::now(),
        }
    }

    /// Stamps `envelope` with the next sequence number of its link, records
    /// it as outstanding and arms its first retransmission timer. Called on
    /// the send path before the interposer draws the wire plan, so a lost
    /// first attempt is already covered.
    fn register(self: &Arc<Self>, envelope: &mut Envelope<M>) {
        let link = (envelope.from.index(), envelope.to.index());
        let seq = {
            let mut links = self.links.lock();
            let state = links.entry(link).or_default();
            let seq = state.next_seq;
            state.next_seq += 1;
            envelope.rel_seq = Some(seq);
            state.outstanding.insert(
                seq,
                PendingMsg {
                    envelope: envelope.clone(),
                    attempt: 0,
                },
            );
            seq
        };
        self.counters.sent.fetch_add(1, Ordering::Relaxed);
        let at = self.now() + self.backoff.delay(1);
        self.schedule(
            at,
            RelEvent::Retransmit {
                from: link.0,
                to: link.1,
                seq,
            },
        );
    }

    /// The mailbox pop filter: decides whether a popped message reaches the
    /// handler. Unstamped messages always pass. Stamped ones are deduped
    /// against the link's processed set and acknowledged either way — a
    /// duplicate usually means the previous ack was lost on the wire.
    ///
    /// Acking at *pop* time rather than enqueue time is what makes crashes
    /// survivable: a crash purges the destination queue, so everything that
    /// was enqueued but never popped stays unacknowledged and keeps being
    /// retransmitted until the node restarts and processes it.
    fn on_pop(self: &Arc<Self>, envelope: &Envelope<M>) -> bool {
        let Some(seq) = envelope.rel_seq else {
            return true;
        };
        let link = (envelope.from.index(), envelope.to.index());
        let fresh = {
            let mut links = self.links.lock();
            links.entry(link).or_default().record_processed(seq)
        };
        if !fresh {
            self.counters.dups.fetch_add(1, Ordering::Relaxed);
        }
        self.send_ack(envelope.from, envelope.to, seq);
        fresh
    }

    /// Models the ack crossing the reverse link: it draws the interposer's
    /// plan for `to -> from` (acks are lost, delayed and duplicated like any
    /// other traffic) and, if a copy survives, schedules the retirement of
    /// the outstanding message after the reverse latency.
    fn send_ack(self: &Arc<Self>, from: NodeId, to: NodeId, seq: u64) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let now = self.now();
        let plan = match &self.interposer {
            Some(interposer) => interposer.plan(to, from, now),
            None => SendPlan::pass(),
        };
        if plan.is_lost() {
            return;
        }
        let extra = plan.deliveries().first().copied().unwrap_or(Duration::ZERO);
        let delay = self.latency.sample(&mut *self.rng.lock()) + extra;
        self.schedule(
            now + delay,
            RelEvent::AckArrival {
                from: from.index(),
                to: to.index(),
                seq,
            },
        );
    }

    fn on_ack(&self, from: usize, to: usize, seq: u64) {
        let mut links = self.links.lock();
        if let Some(state) = links.get_mut(&(from, to)) {
            if state.outstanding.remove(&seq).is_some() {
                self.counters.acks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A retransmission timer fired: if the message is still outstanding,
    /// put fresh copies on the wire (fresh interposer draw, fresh latency
    /// samples) and arm the next, longer timer. Gives up once the
    /// destination closed or `max_attempts` is exhausted.
    fn on_retransmit(self: &Arc<Self>, from: usize, to: usize, seq: u64) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (envelope, attempt) = {
            let mut links = self.links.lock();
            let Some(state) = links.get_mut(&(from, to)) else {
                return;
            };
            let Some(pending) = state.outstanding.get_mut(&seq) else {
                return;
            };
            if self.mailboxes[to].is_closed() {
                state.outstanding.remove(&seq);
                return;
            }
            pending.attempt += 1;
            if pending.attempt > self.cfg.max_attempts {
                state.outstanding.remove(&seq);
                self.counters.gave_up.fetch_add(1, Ordering::Relaxed);
                return;
            }
            (pending.envelope.clone(), pending.attempt)
        };
        self.counters.retransmits.fetch_add(1, Ordering::Relaxed);
        let now = self.now();
        let plan = match &self.interposer {
            Some(interposer) => interposer.plan(envelope.from, envelope.to, now),
            None => SendPlan::pass(),
        };
        for extra in plan.deliveries() {
            let delay = self.latency.sample(&mut *self.rng.lock()) + *extra;
            self.schedule(
                now + delay,
                RelEvent::Deliver {
                    envelope: envelope.clone(),
                },
            );
        }
        self.schedule(
            now + self.backoff.delay(attempt + 1),
            RelEvent::Retransmit { from, to, seq },
        );
    }

    fn run_event(self: &Arc<Self>, event: RelEvent<M>) {
        match event {
            RelEvent::Retransmit { from, to, seq } => self.on_retransmit(from, to, seq),
            RelEvent::AckArrival { from, to, seq } => self.on_ack(from, to, seq),
            RelEvent::Deliver { envelope } => {
                let mailbox = &self.mailboxes[envelope.to.index()];
                let priority = envelope.priority;
                // A push into a closed mailbox is a silent no-op and a push
                // into a crashed one is dropped on purpose — the message
                // stays outstanding and a later retransmission lands it.
                mailbox.push(envelope, priority);
            }
        }
    }

    /// Schedules `event` for `at`: a virtual-time event under simulation, a
    /// timer-heap entry serviced by the layer's timer thread otherwise.
    /// Events hold the layer weakly so a dropped transport stops the
    /// machinery instead of being kept alive by its own timers.
    fn schedule(self: &Arc<Self>, at: Instant, event: RelEvent<M>) {
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        match &self.sched {
            Some(sched) => {
                let weak = Arc::downgrade(self);
                sched.schedule(
                    at,
                    Box::new(move || {
                        if let Some(layer) = weak.upgrade() {
                            layer.run_event(event);
                        }
                    }),
                );
            }
            None => {
                self.ensure_timer_thread();
                let (lock, cvar) = &*self.timers;
                let mut guard = lock.lock();
                if guard.shutdown {
                    return;
                }
                let seq = guard.next_seq;
                guard.next_seq += 1;
                guard.heap.push(RelTimer { at, seq, event });
                drop(guard);
                cvar.notify_all();
            }
        }
    }

    fn ensure_timer_thread(self: &Arc<Self>) {
        let mut guard = self.timer_thread.lock();
        if guard.is_some() {
            return;
        }
        let weak = Arc::downgrade(self);
        let timers = Arc::clone(&self.timers);
        let handle = std::thread::Builder::new()
            .name("sss-net-reliable".into())
            .spawn(move || Self::timer_loop(weak, timers))
            .expect("failed to spawn reliable-delivery timer thread");
        *guard = Some(handle);
    }

    fn timer_loop(
        weak: std::sync::Weak<ReliableLayer<M>>,
        timers: Arc<(Mutex<RelTimerState<M>>, Condvar)>,
    ) {
        let (lock, cvar) = &*timers;
        let mut guard = lock.lock();
        loop {
            if guard.shutdown {
                return;
            }
            let now = Instant::now();
            if let Some(top) = guard.heap.peek() {
                if top.at <= now {
                    let timer = guard.heap.pop().expect("peeked timer vanished");
                    // Run outside the heap lock: events take the link and
                    // rng locks and may schedule further timers.
                    drop(guard);
                    match weak.upgrade() {
                        Some(layer) => layer.run_event(timer.event),
                        None => return,
                    }
                    guard = lock.lock();
                    continue;
                }
                let wait = top.at - now;
                cvar.wait_for(&mut guard, wait);
            } else {
                cvar.wait_for(&mut guard, Duration::from_millis(50));
            }
        }
    }

    /// Stops the layer: no new timers, timer thread joined, outstanding
    /// messages dropped (shutdown is not a fault to recover from).
    fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        {
            let (lock, cvar) = &*self.timers;
            lock.lock().shutdown = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.timer_thread.lock().take() {
            let _ = handle.join();
        }
        self.links.lock().clear();
    }

    fn stats(&self) -> ReliabilityStats {
        let outstanding = {
            let links = self.links.lock();
            links.values().map(|l| l.outstanding.len() as u64).sum()
        };
        ReliabilityStats {
            sent: self.counters.sent.load(Ordering::Relaxed),
            retransmits: self.counters.retransmits.load(Ordering::Relaxed),
            acks: self.counters.acks.load(Ordering::Relaxed),
            duplicates_suppressed: self.counters.dups.load(Ordering::Relaxed),
            gave_up: self.counters.gave_up.load(Ordering::Relaxed),
            outstanding,
        }
    }
}

/// In-process [`Transport`] built on per-node priority [`Mailbox`]es.
///
/// With a zero [`LatencyModel`] messages are pushed straight into the
/// destination mailbox; with a non-zero model they are staged in a delay
/// wheel serviced by a dedicated thread, which reproduces out-of-order
/// delivery across messages with different sampled delays.
///
/// # Local delivery fast path
///
/// A node frequently messages *itself* (the coordinator is its own 2PC
/// participant, confirmation rounds cover every node, and a colocated
/// client reads local replicas). When a handler has been registered with
/// [`ChannelTransport::set_local_dispatch`], a self-addressed message that
/// would otherwise take the zero-latency fast path is handed to the handler
/// directly on the sending thread — no queueing, no worker wakeup, no
/// payload clone. The fast path is skipped (and the message queued
/// normally) whenever it could be observable: a non-zero latency model, a
/// fault-interposer plan that is not a plain pass, a paused node (pause
/// gates model a node that stops *processing*), or a closed mailbox.
/// Locally delivered messages are counted in
/// [`MailboxStats::local_delivered`] rather than the queue counters.
pub struct ChannelTransport<M> {
    mailboxes: Vec<Arc<Mailbox<Envelope<M>>>>,
    local: Vec<OnceLock<LocalDispatch<M>>>,
    local_delivered: Vec<AtomicU64>,
    /// Per-destination per-message-kind counters, populated when a
    /// classifier has been registered (see
    /// [`ChannelTransport::set_message_classifier`]). Counted once per
    /// logical send at the send entry point — before fault-plan
    /// duplication — covering queued, delayed and locally-dispatched
    /// deliveries alike.
    kind_counts: Vec<[AtomicU64; MESSAGE_KIND_SLOTS]>,
    classifier: OnceLock<fn(&M) -> usize>,
    latency: LatencyModel,
    interposer: Option<Arc<dyn FaultInterposer>>,
    delayer: Option<DelayerHandle<M>>,
    sim: Option<SimCtx>,
    reliable: Option<Arc<ReliableLayer<M>>>,
}

/// Simulation-mode context of a [`ChannelTransport`]: latency turns into
/// virtual-time delivery events on the scheduler instead of entries in the
/// threaded delay wheel.
struct SimCtx {
    sched: SchedulerHandle,
    /// Latency sampler for the simulated path, seeded from the transport
    /// config exactly like the delayer's; kept separate so simulated and
    /// threaded runs each consume their own reproducible draw sequence.
    rng: Mutex<StdRng>,
}

struct DelayerHandle<M> {
    state: Arc<(Mutex<DelayerState<M>>, Condvar)>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<M: Send + Clone + 'static> ChannelTransport<M> {
    /// Creates a transport for `config.nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the node count is zero.
    pub fn new(config: TransportConfig) -> Self {
        assert!(config.nodes > 0, "cluster must have at least one node");
        let mailboxes: Vec<Arc<Mailbox<Envelope<M>>>> = (0..config.nodes)
            .map(|_| Arc::new(Mailbox::new()))
            .collect();
        let sim = config.scheduler.map(|sched| {
            for mailbox in &mailboxes {
                mailbox.set_scheduler(Arc::clone(&sched));
            }
            SimCtx {
                sched,
                rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            }
        });
        // Fault interposers can delay individual copies even when the base
        // latency model is zero, so their presence also requires the wheel.
        // Under simulation delays become scheduler events, never a thread.
        let delayer = if sim.is_some() || (config.latency.is_zero() && config.interposer.is_none())
        {
            None
        } else {
            Some(Self::spawn_delayer(config.seed))
        };
        let reliable = config.reliable.map(|rel| {
            let layer = ReliableLayer::new(
                rel,
                mailboxes.clone(),
                config.interposer.clone(),
                config.latency,
                config.seed,
                sim.as_ref().map(|ctx| Arc::clone(&ctx.sched)),
            );
            // Receiver side of the layer: every mailbox filters popped
            // messages through the dedup/ack hook before its workers hand
            // them to handlers.
            for mailbox in &mailboxes {
                let hook = Arc::clone(&layer);
                mailbox.set_pop_filter(Arc::new(move |env: &Envelope<M>| hook.on_pop(env)));
            }
            layer
        });
        ChannelTransport {
            mailboxes,
            local: (0..config.nodes).map(|_| OnceLock::new()).collect(),
            local_delivered: (0..config.nodes).map(|_| AtomicU64::new(0)).collect(),
            kind_counts: (0..config.nodes)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            classifier: OnceLock::new(),
            latency: config.latency,
            interposer: config.interposer,
            delayer,
            sim,
            reliable,
        }
    }

    /// The instant "now" as this transport experiences it: virtual time
    /// under simulation, wall-clock time otherwise.
    fn now(&self) -> Instant {
        match &self.sim {
            Some(ctx) => ctx.sched.now(),
            None => Instant::now(),
        }
    }

    /// Registers the function that maps a message to its per-kind counter
    /// slot (`0..MESSAGE_KIND_SLOTS`; out-of-range results are ignored).
    /// Typically called once at cluster construction with the protocol's
    /// kind index (e.g. `SssMessage::kind_index`); only the first
    /// registration takes effect. Without a classifier the `per_kind`
    /// counters of [`ChannelTransport::mailbox_stats`] stay zero.
    pub fn set_message_classifier(&self, classifier: fn(&M) -> usize) {
        let _ = self.classifier.set(classifier);
    }

    /// Counts `count` logical sends of `payload`'s kind toward destination
    /// `to`, if a classifier is registered.
    fn note_kind(&self, to: NodeId, payload: &M, count: u64) {
        if let Some(classify) = self.classifier.get() {
            let slot = classify(payload);
            if slot < MESSAGE_KIND_SLOTS {
                self.kind_counts[to.index()][slot].fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Registers the handler that receives node `node`'s self-addressed
    /// messages directly (see the type-level docs on the local delivery
    /// fast path). Typically called once per node right after the node's
    /// worker runtime is constructed; only the first registration per node
    /// takes effect.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_local_dispatch(&self, node: NodeId, dispatch: LocalDispatch<M>) {
        let _ = self.local[node.index()].set(dispatch);
    }

    /// The registered local dispatch for `to`, but only when delivering
    /// through it right now is indistinguishable from the mailbox path:
    /// never across a pause or after a close.
    fn local_fast_path(&self, to: NodeId) -> Option<&LocalDispatch<M>> {
        // With the reliable layer on, even self-addressed messages take the
        // queue: their sequence numbers must pass the pop filter so a node
        // that crashes with its own messages in flight gets them back via
        // retransmission (e.g. a coordinator's Decide to itself).
        if self.reliable.is_some() {
            return None;
        }
        let dispatch = self.local.get(to.index())?.get()?;
        let mailbox = &self.mailboxes[to.index()];
        if mailbox.is_closed() || mailbox.pause_control().is_paused() || mailbox.is_crashed() {
            return None;
        }
        Some(dispatch)
    }

    fn spawn_delayer(seed: u64) -> DelayerHandle<M> {
        let state = Arc::new((
            Mutex::new(DelayerState {
                heap: BinaryHeap::new(),
                rng: StdRng::seed_from_u64(seed),
                next_seq: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        DelayerHandle {
            state,
            thread: Mutex::new(None),
        }
    }

    fn ensure_delayer_thread(&self) {
        let Some(delayer) = &self.delayer else { return };
        let mut guard = delayer.thread.lock();
        if guard.is_some() {
            return;
        }
        let state = Arc::clone(&delayer.state);
        let mailboxes: Vec<Arc<Mailbox<Envelope<M>>>> = self.mailboxes.clone();
        let handle = std::thread::Builder::new()
            .name("sss-net-delayer".into())
            .spawn(move || Self::delayer_loop(state, mailboxes))
            .expect("failed to spawn delayer thread");
        *guard = Some(handle);
    }

    fn delayer_loop(
        state: Arc<(Mutex<DelayerState<M>>, Condvar)>,
        mailboxes: Vec<Arc<Mailbox<Envelope<M>>>>,
    ) {
        let (lock, cvar) = &*state;
        let mut guard = lock.lock();
        loop {
            if guard.shutdown && guard.heap.is_empty() {
                return;
            }
            let now = Instant::now();
            if let Some(top) = guard.heap.peek() {
                if top.deliver_at <= now {
                    let delayed = guard.heap.pop().expect("peeked entry vanished");
                    let env = delayed.envelope;
                    let to = env.to.index();
                    // Deliver outside of the heap lock to keep the wheel hot.
                    drop(guard);
                    let priority = env.priority;
                    mailboxes[to].push(env, priority);
                    guard = lock.lock();
                    continue;
                }
                let wait = top.deliver_at - now;
                cvar.wait_for(&mut guard, wait);
            } else {
                cvar.wait_for(&mut guard, Duration::from_millis(50));
            }
        }
    }

    /// Mailbox of node `node`, used by the node runtime to attach workers.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mailbox(&self, node: NodeId) -> Arc<Mailbox<Envelope<M>>> {
        Arc::clone(&self.mailboxes[node.index()])
    }

    /// Traffic counters of node `node`'s mailbox, including the messages
    /// delivered through the local fast path (which never entered a queue)
    /// and the per-message-kind breakdown (all-zero unless a classifier was
    /// registered with [`ChannelTransport::set_message_classifier`]).
    pub fn mailbox_stats(&self, node: NodeId) -> MailboxStats {
        let mut stats = self.mailboxes[node.index()].stats();
        stats.local_delivered = self.local_delivered[node.index()].load(Ordering::Relaxed);
        for (slot, counter) in stats
            .per_kind
            .iter_mut()
            .zip(self.kind_counts[node.index()].iter())
        {
            *slot = counter.load(Ordering::Relaxed);
        }
        stats
    }

    /// Closes every mailbox and stops the delayer thread.
    ///
    /// In-flight messages already queued in mailboxes are still delivered to
    /// workers that keep draining them; new sends fail with
    /// [`TransportError::Closed`].
    pub fn shutdown(&self) {
        if let Some(layer) = &self.reliable {
            layer.stop();
        }
        if let Some(delayer) = &self.delayer {
            {
                let (lock, cvar) = &*delayer.state;
                lock.lock().shutdown = true;
                cvar.notify_all();
            }
            if let Some(handle) = delayer.thread.lock().take() {
                let _ = handle.join();
            }
        }
        for mb in &self.mailboxes {
            mb.close();
        }
    }

    /// Counters of the reliable-delivery layer; `None` when the transport
    /// runs without one.
    pub fn reliability_stats(&self) -> Option<ReliabilityStats> {
        self.reliable.as_ref().map(|layer| layer.stats())
    }
}

impl<M: Send + Clone + 'static> ChannelTransport<M> {
    /// Stages every copy of `plan` for `payload` into the delay wheel; the
    /// caller holds the wheel lock and is responsible for the wakeup.
    fn stage_delayed(
        &self,
        guard: &mut parking_lot::MutexGuard<'_, DelayerState<M>>,
        envelope: Envelope<M>,
        plan: &SendPlan,
        now: Instant,
    ) {
        let copies = plan.deliveries();
        // The envelope is moved into the last copy; only duplicated copies
        // pay for a clone, keeping the common single-delivery path as cheap
        // as before the interposer hook existed.
        let mut envelope = Some(envelope);
        for (i, extra) in copies.iter().enumerate() {
            let delay = self.latency.sample(&mut guard.rng) + *extra;
            let seq = guard.next_seq;
            guard.next_seq += 1;
            let envelope = if i + 1 == copies.len() {
                envelope
                    .take()
                    .expect("envelope moved before the last copy")
            } else {
                envelope.as_ref().expect("envelope taken early").clone()
            };
            guard.heap.push(Delayed {
                deliver_at: now + delay,
                seq,
                envelope,
            });
        }
    }

    /// Schedules every copy of `plan` for `envelope` as virtual-time
    /// delivery events on the simulation scheduler — the sim-mode
    /// equivalent of [`ChannelTransport::stage_delayed`]. Event ordering is
    /// the scheduler's deterministic `(time, seq)` order, and a copy that
    /// fires after shutdown lands in a closed mailbox where the push is a
    /// silent no-op, matching the threaded delayer's drain-then-drop.
    fn stage_sim(&self, ctx: &SimCtx, envelope: Envelope<M>, plan: &SendPlan, now: Instant) {
        let copies = plan.deliveries();
        let mut envelope = Some(envelope);
        for (i, extra) in copies.iter().enumerate() {
            let delay = self.latency.sample(&mut *ctx.rng.lock()) + *extra;
            let env = if i + 1 == copies.len() {
                envelope
                    .take()
                    .expect("envelope moved before the last copy")
            } else {
                envelope.as_ref().expect("envelope taken early").clone()
            };
            let mailbox = Arc::clone(&self.mailboxes[env.to.index()]);
            ctx.sched.schedule(
                now + delay,
                Box::new(move || {
                    let priority = env.priority;
                    mailbox.push(env, priority);
                }),
            );
        }
    }
}

impl<M: Send + Clone + 'static> Transport<M> for ChannelTransport<M> {
    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        payload: M,
        priority: Priority,
    ) -> Result<(), TransportError> {
        let Some(mailbox) = self.mailboxes.get(to.index()) else {
            return Err(TransportError::UnknownNode(to));
        };
        self.note_kind(to, &payload, 1);
        let mut envelope = Envelope {
            from,
            to,
            priority,
            payload,
            rel_seq: None,
        };
        // Registered before the wire draw: a message whose very first
        // attempt is lost is already outstanding and will be retransmitted.
        if let Some(layer) = &self.reliable {
            layer.register(&mut envelope);
        }
        let plan = match &self.interposer {
            Some(interposer) => interposer.plan(from, to, self.now()),
            None => SendPlan::pass(),
        };
        if plan.is_lost() {
            // Dropped on the wire. With the reliable layer on, the
            // retransmission timer recovers it; without, the caller opted
            // into a lossy network and the message is gone.
            return Ok(());
        }
        if self.latency.is_zero() && plan.is_pass() {
            if from == to {
                if let Some(dispatch) = self.local_fast_path(to) {
                    self.local_delivered[to.index()].fetch_add(1, Ordering::Relaxed);
                    dispatch(envelope);
                    return Ok(());
                }
            }
            return if mailbox.push(envelope, priority) {
                Ok(())
            } else {
                Err(TransportError::Closed)
            };
        }
        if let Some(ctx) = &self.sim {
            if mailbox.is_closed() {
                return Err(TransportError::Closed);
            }
            let now = ctx.sched.now();
            self.stage_sim(ctx, envelope, &plan, now);
            return Ok(());
        }
        self.ensure_delayer_thread();
        let delayer = self
            .delayer
            .as_ref()
            .expect("latency or interposer set but no delayer");
        let (lock, cvar) = &*delayer.state;
        let mut guard = lock.lock();
        if guard.shutdown {
            return Err(TransportError::Closed);
        }
        self.stage_delayed(&mut guard, envelope, &plan, Instant::now());
        cvar.notify_one();
        Ok(())
    }

    fn send_batch(
        &self,
        from: NodeId,
        to: NodeId,
        batch: Vec<M>,
        priority: Priority,
    ) -> Result<(), TransportError> {
        let Some(mailbox) = self.mailboxes.get(to.index()) else {
            return Err(TransportError::UnknownNode(to));
        };
        if batch.is_empty() {
            return Ok(());
        }
        let mut envelopes: Vec<Envelope<M>> = batch
            .into_iter()
            .map(|payload| Envelope {
                from,
                to,
                priority,
                payload,
                rel_seq: None,
            })
            .collect();
        for env in &envelopes {
            self.note_kind(to, &env.payload, 1);
        }
        if let Some(layer) = &self.reliable {
            for env in &mut envelopes {
                layer.register(env);
            }
        }
        // The interposer is consulted once per message — a batch is a
        // delivery optimization, not a unit the fault model can observe, so
        // `sss-faults` determinism (per-link RNG draw sequences, reorder and
        // duplicate semantics) is identical to a sequence of single sends.
        let now = self.now();
        let plans: Vec<SendPlan> = match &self.interposer {
            Some(interposer) => envelopes
                .iter()
                .map(|_| interposer.plan(from, to, now))
                .collect(),
            None => Vec::new(),
        };
        // Wire loss strikes per message: lost envelopes leave the batch here
        // (retransmission recovers them when the reliable layer is on).
        let mut plans = plans;
        if plans.iter().any(|p| p.is_lost()) {
            let mut kept_envelopes = Vec::with_capacity(envelopes.len());
            let mut kept_plans = Vec::with_capacity(plans.len());
            for (env, plan) in envelopes.into_iter().zip(plans) {
                if !plan.is_lost() {
                    kept_envelopes.push(env);
                    kept_plans.push(plan);
                }
            }
            envelopes = kept_envelopes;
            plans = kept_plans;
            if envelopes.is_empty() {
                return Ok(());
            }
        }
        let all_pass = plans.iter().all(|p| p.is_pass());
        if self.latency.is_zero() && all_pass {
            if from == to {
                if let Some(dispatch) = self.local_fast_path(to) {
                    self.local_delivered[to.index()]
                        .fetch_add(envelopes.len() as u64, Ordering::Relaxed);
                    for envelope in envelopes {
                        dispatch(envelope);
                    }
                    return Ok(());
                }
            }
            return if mailbox.push_batch(envelopes, priority) {
                Ok(())
            } else {
                Err(TransportError::Closed)
            };
        }
        if let Some(ctx) = &self.sim {
            if mailbox.is_closed() {
                return Err(TransportError::Closed);
            }
            let pass = SendPlan::pass();
            for (i, envelope) in envelopes.into_iter().enumerate() {
                let plan = plans.get(i).unwrap_or(&pass);
                self.stage_sim(ctx, envelope, plan, now);
            }
            return Ok(());
        }
        self.ensure_delayer_thread();
        let delayer = self
            .delayer
            .as_ref()
            .expect("latency or interposer set but no delayer");
        let (lock, cvar) = &*delayer.state;
        let mut guard = lock.lock();
        if guard.shutdown {
            return Err(TransportError::Closed);
        }
        let pass = SendPlan::pass();
        for (i, envelope) in envelopes.into_iter().enumerate() {
            let plan = plans.get(i).unwrap_or(&pass);
            self.stage_delayed(&mut guard, envelope, plan, now);
        }
        cvar.notify_one();
        Ok(())
    }

    fn num_nodes(&self) -> usize {
        self.mailboxes.len()
    }
}

impl<M> std::fmt::Debug for ChannelTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("nodes", &self.mailboxes.len())
            .field("latency", &self.latency)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls `cond` until it holds or a generous deadline elapses; returns
    /// whether it held. Replaces fixed sleeps: tests wait on observable
    /// state (mailbox depth) under a deadline instead of assuming how long
    /// the delayer thread needs.
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
    fn immediate_delivery_without_latency() {
        let t: ChannelTransport<u32> = ChannelTransport::new(TransportConfig::new(2));
        t.send(NodeId(0), NodeId(1), 99, Priority::Normal).unwrap();
        let env = t.mailbox(NodeId(1)).pop().unwrap();
        assert_eq!(env.payload, 99);
        assert_eq!(env.from, NodeId(0));
        assert_eq!(env.to, NodeId(1));
    }

    #[test]
    fn unknown_destination_is_rejected() {
        let t: ChannelTransport<u32> = ChannelTransport::new(TransportConfig::new(2));
        assert_eq!(
            t.send(NodeId(0), NodeId(5), 1, Priority::Normal),
            Err(TransportError::UnknownNode(NodeId(5)))
        );
    }

    #[test]
    fn send_after_shutdown_fails() {
        let t: ChannelTransport<u32> = ChannelTransport::new(TransportConfig::new(1));
        t.shutdown();
        assert_eq!(
            t.send(NodeId(0), NodeId(0), 1, Priority::Normal),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn multicast_reaches_every_target() {
        let t: ChannelTransport<&'static str> = ChannelTransport::new(TransportConfig::new(3));
        t.multicast(
            NodeId(0),
            [NodeId(1), NodeId(2)],
            "prepare",
            Priority::Normal,
        )
        .unwrap();
        assert_eq!(t.mailbox(NodeId(1)).pop().unwrap().payload, "prepare");
        assert_eq!(t.mailbox(NodeId(2)).pop().unwrap().payload, "prepare");
        assert!(t.mailbox(NodeId(0)).is_empty());
    }

    #[test]
    fn delayed_delivery_eventually_arrives() {
        let config = TransportConfig::new(2)
            .latency(LatencyModel::new(
                Duration::from_millis(2),
                Duration::from_millis(1),
            ))
            .seed(3);
        let t: ChannelTransport<u32> = ChannelTransport::new(config);
        let start = Instant::now();
        t.send(NodeId(0), NodeId(1), 7, Priority::High).unwrap();
        let env = t.mailbox(NodeId(1)).pop().unwrap();
        assert_eq!(env.payload, 7);
        assert!(start.elapsed() >= Duration::from_millis(2));
        t.shutdown();
    }

    #[test]
    fn delayed_messages_preserve_priority_class() {
        let config = TransportConfig::new(1).latency(LatencyModel::new(
            Duration::from_micros(100),
            Duration::ZERO,
        ));
        let t: ChannelTransport<u32> = ChannelTransport::new(config);
        t.send(NodeId(0), NodeId(0), 1, Priority::Low).unwrap();
        t.send(NodeId(0), NodeId(0), 2, Priority::High).unwrap();
        // Wait for both to land in the mailbox, then the high-priority one
        // must be popped first even though it was sent second.
        assert!(eventually(|| t.mailbox(NodeId(0)).len() == 2));
        assert_eq!(t.mailbox(NodeId(0)).pop().unwrap().payload, 2);
        assert_eq!(t.mailbox(NodeId(0)).pop().unwrap().payload, 1);
        t.shutdown();
    }

    #[derive(Debug)]
    struct DuplicateEverything {
        extra: Duration,
    }

    impl FaultInterposer for DuplicateEverything {
        fn plan(&self, _from: NodeId, _to: NodeId, _now: Instant) -> SendPlan {
            SendPlan::pass().duplicate(self.extra)
        }
    }

    #[derive(Debug)]
    struct HoldLink {
        from: NodeId,
        to: NodeId,
        hold: Duration,
    }

    impl FaultInterposer for HoldLink {
        fn plan(&self, from: NodeId, to: NodeId, _now: Instant) -> SendPlan {
            if from == self.from && to == self.to {
                SendPlan::delayed(self.hold)
            } else {
                SendPlan::pass()
            }
        }
    }

    #[test]
    fn interposer_duplicates_are_delivered_twice() {
        let config = TransportConfig::new(2).interposer(Arc::new(DuplicateEverything {
            extra: Duration::from_micros(100),
        }));
        let t: ChannelTransport<u32> = ChannelTransport::new(config);
        t.send(NodeId(0), NodeId(1), 5, Priority::Normal).unwrap();
        let first = t.mailbox(NodeId(1)).pop().unwrap();
        let second = t.mailbox(NodeId(1)).pop().unwrap();
        assert_eq!((first.payload, second.payload), (5, 5));
        t.shutdown();
    }

    #[test]
    fn interposer_delay_holds_only_the_faulted_link() {
        let hold = Duration::from_millis(300);
        let config = TransportConfig::new(3).interposer(Arc::new(HoldLink {
            from: NodeId(0),
            to: NodeId(1),
            hold,
        }));
        let t: ChannelTransport<u32> = ChannelTransport::new(config);
        let start = Instant::now();
        // Send on the faulted link first: if its hold leaked onto other
        // links, the clean message below would be stuck behind it.
        t.send(NodeId(0), NodeId(1), 2, Priority::Normal).unwrap();
        t.send(NodeId(0), NodeId(2), 1, Priority::Normal).unwrap();
        let clean = t.mailbox(NodeId(2)).pop().unwrap();
        assert_eq!(clean.payload, 1);
        assert!(
            t.mailbox(NodeId(1)).is_empty() || start.elapsed() >= hold,
            "the clean link must not inherit the faulted link's delay"
        );
        let held = t.mailbox(NodeId(1)).pop().unwrap();
        assert_eq!(held.payload, 2);
        assert!(start.elapsed() >= hold, "the faulted link must be held");
        t.shutdown();
    }

    #[test]
    fn empty_send_plan_normalizes_to_pass() {
        assert_eq!(SendPlan::copies(Vec::new()), SendPlan::pass());
        assert!(SendPlan::pass().is_pass());
        assert!(!SendPlan::delayed(Duration::from_millis(1)).is_pass());
        assert_eq!(
            SendPlan::pass()
                .duplicate(Duration::ZERO)
                .deliveries()
                .len(),
            2
        );
        let lost = SendPlan::lost();
        assert!(lost.is_lost());
        assert!(!lost.is_pass());
        assert!(lost.deliveries().is_empty());
        assert!(lost.duplicate(Duration::ZERO).deliveries().is_empty());
        assert!(!SendPlan::pass().is_lost());
    }

    #[test]
    fn shutdown_is_idempotent() {
        let config = TransportConfig::new(1)
            .latency(LatencyModel::new(Duration::from_micros(50), Duration::ZERO));
        let t: ChannelTransport<u32> = ChannelTransport::new(config);
        t.send(NodeId(0), NodeId(0), 1, Priority::Normal).unwrap();
        t.shutdown();
        t.shutdown();
        assert_eq!(
            t.send(NodeId(0), NodeId(0), 2, Priority::Normal),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn stats_visible_through_transport() {
        let t: ChannelTransport<u32> = ChannelTransport::new(TransportConfig::new(1));
        t.send(NodeId(0), NodeId(0), 1, Priority::Normal).unwrap();
        assert_eq!(t.mailbox_stats(NodeId(0)).total_enqueued(), 1);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn classifier_attributes_sends_per_kind() {
        let t: ChannelTransport<u32> = ChannelTransport::new(TransportConfig::new(2));
        // Without a classifier the breakdown stays zero.
        t.send(NodeId(0), NodeId(1), 3, Priority::Normal).unwrap();
        assert_eq!(t.mailbox_stats(NodeId(1)).per_kind, [0; 8]);
        // Classify even payloads into slot 0, odd into slot 1.
        t.set_message_classifier(|m| (*m % 2) as usize);
        t.send(NodeId(0), NodeId(1), 4, Priority::Normal).unwrap();
        t.send_batch(NodeId(0), NodeId(1), vec![5, 6, 7], Priority::Normal)
            .unwrap();
        let stats = t.mailbox_stats(NodeId(1));
        assert_eq!(stats.per_kind[0], 2, "payloads 4 and 6");
        assert_eq!(stats.per_kind[1], 2, "payloads 5 and 7");
        assert_eq!(stats.total_enqueued(), 5);
    }
}
