//! The [`Transport`] abstraction and its in-process implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_vclock::runtime::{SchedulerHandle, Timers};
use sss_vclock::NodeId;

use crate::latency::LatencyModel;
use crate::mailbox::{Mailbox, MailboxStats, PauseControl, Priority, MESSAGE_KIND_SLOTS};
use crate::reliable::{ReliabilityStats, ReliableLayer};

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
/// reach the wire. Loss is only survivable when the transport runs its
/// reliable-delivery layer (see [`TransportConfig::reliable`]) whose
/// retransmissions redraw the plan until a copy passes; without one a lost
/// message is simply gone, which breaks the paper's reliable-channel system
/// model — fault plans that enable loss are expected to enable reliability
/// with it.
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
/// with the transport's reliable-delivery layer
/// ([`TransportConfig::reliable`]), which re-establishes eventual delivery by
/// retransmission — every fresh wire attempt (first send and each
/// retransmit) draws a fresh plan.
///
/// Interposer faults compose with the transport's [`LatencyModel`]: each
/// copy's total delay is the sampled model latency plus the plan's extra
/// delay for that copy.
pub trait FaultInterposer: Send + Sync + std::fmt::Debug {
    /// Plans the delivery of one message sent from `from` to `to` at `now`.
    fn plan(&self, from: NodeId, to: NodeId, now: Instant) -> SendPlan;

    /// Called once by the [`NodeHost`](crate::NodeHost) that installs this
    /// interposer, before any node runs: hands over the per-node pause
    /// gates (indexed by node) and the transport's executor, on which timed
    /// fault windows run (in virtual time under simulation). An interposer
    /// that only plans individual sends needs neither and keeps the default.
    fn attach(&self, _pause_controls: Vec<Arc<PauseControl>>, _timers: &Arc<Timers>) {}
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

/// Configuration of a [`ChannelTransport`].
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// One-way latency model applied to every message.
    pub latency: LatencyModel,
    /// Seed for the latency sampler, for reproducible asynchrony in tests.
    pub seed: u64,
    /// Optional fault interposer consulted on every send.
    pub interposer: Option<Arc<dyn FaultInterposer>>,
    /// Optional simulation scheduler. When set, timed deliveries are
    /// virtual-time events, `now` reads come from the virtual clock, and
    /// every mailbox parks its workers on the scheduler.
    pub scheduler: Option<SchedulerHandle>,
    /// Runs the reliable-delivery layer (sequence numbers, ack/retransmit,
    /// receiver-side dedup; see [`RETRANSMIT_RTO`](crate::RETRANSMIT_RTO)).
    /// Off by default: the lossless fault repertoire (delay, reorder,
    /// duplicate, partition) is deliberately exercised against the bare
    /// protocol — e.g. duplicate storms keep testing handler idempotency —
    /// and only plans that lose messages or crash nodes need the layer to
    /// restore eventual delivery.
    pub reliable: bool,
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
            reliable: false,
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

    /// Turns the reliable-delivery layer on or off (see
    /// [`TransportConfig::reliable`]).
    pub fn reliable(mut self, reliable: bool) -> Self {
        self.reliable = reliable;
        self
    }
}

/// The copies of a message no interposer planned: one, with no extra delay.
const ONE_COPY: &[Duration] = &[Duration::ZERO];

/// What lies between a sender and a destination mailbox: the latency model,
/// the fault interposer and the executor that timed copies wait on. Forward
/// sends, acks and retransmissions all cross it through [`Wire::cross`].
#[derive(Clone)]
pub(crate) struct Wire {
    pub(crate) latency: LatencyModel,
    pub(crate) interposer: Option<Arc<dyn FaultInterposer>>,
    pub(crate) timers: Arc<Timers>,
}

impl Wire {
    /// The interposer's plan for one message; a plain pass without one.
    pub(crate) fn plan(&self, from: NodeId, to: NodeId, now: Instant) -> SendPlan {
        match &self.interposer {
            Some(interposer) => interposer.plan(from, to, now),
            None => SendPlan::pass(),
        }
    }

    /// One crossing: each of `copies` (the extra delays a [`SendPlan`]
    /// delivers; none for a lost message) reaches `deliver` once a latency
    /// sampled from `rng`, plus that extra delay, has passed since `now`.
    /// `item` moves into the last copy, so only duplicates pay for a clone.
    pub(crate) fn cross<T, D>(
        &self,
        rng: &Mutex<StdRng>,
        copies: &[Duration],
        now: Instant,
        item: T,
        deliver: D,
    ) where
        T: Clone + Send + 'static,
        D: Fn(T) + Clone + Send + 'static,
    {
        let mut last = Some((item, deliver));
        for (i, extra) in copies.iter().enumerate() {
            let delay = self.latency.sample(&mut *rng.lock()) + *extra;
            let (item, deliver) = if i + 1 == copies.len() {
                last.take()
            } else {
                last.clone()
            }
            .expect("only the last copy takes the item");
            self.timers.schedule(now + delay, move || deliver(item));
        }
    }
}

/// Where a timed crossing ends: the envelope is enqueued at `mailbox`. A
/// closed mailbox refuses it silently, which is how copies still in flight
/// at shutdown disappear.
pub(crate) fn land<M: Send + 'static>(
    mailbox: &Arc<Mailbox<Envelope<M>>>,
) -> impl Fn(Envelope<M>) + Clone + Send + 'static {
    let mailbox = Arc::clone(mailbox);
    move |envelope| {
        let priority = envelope.priority;
        mailbox.push(envelope, priority);
    }
}

/// In-process [`Transport`] built on per-node priority [`Mailbox`]es.
///
/// # The routing table
///
/// Every message of a [`Transport::send`] or [`Transport::send_batch`]
/// takes exactly one of four routes, decided in one place:
///
/// | route | when | what happens |
/// |---|---|---|
/// | **lost** | the interposer's plan drops it | nothing reaches the wire; with the reliable layer on, its retransmission timer recovers it |
/// | **local** | zero latency, plain-pass plan, self-addressed, a handler registered with [`ChannelTransport::set_local_dispatch`], and the node neither paused, crashed nor closed | the handler runs on the sending thread: no queueing, no worker wakeup, no payload clone; counted in [`MailboxStats::local_delivered`] |
/// | **immediate** | zero latency, plain-pass plan | pushed straight into the destination mailbox (a batch with one enqueue and one wakeup round) |
/// | **timed** | anything else | each copy of the plan waits on the shared [`Timers`] for its sampled latency plus the plan's extra delay, then is pushed; copies with different delays arrive out of order |
///
/// A node frequently messages *itself* (the coordinator is its own 2PC
/// participant, confirmation rounds cover every node, and a colocated
/// client reads local replicas), which is what the local route is for. It
/// is skipped whenever it could be observable — pause gates model a node
/// that stops *processing* — and when the reliable layer is on, because a
/// node's messages to itself must survive its own crash like any others.
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
    wire: Wire,
    /// Latency sampler of the send path, seeded from the transport config.
    rng: Mutex<StdRng>,
    reliable: Option<Arc<ReliableLayer<M>>>,
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
            .map(|_| Arc::new(Mailbox::with_scheduler(config.scheduler.clone())))
            .collect();
        let wire = Wire {
            latency: config.latency,
            interposer: config.interposer,
            timers: Arc::new(Timers::new(config.scheduler)),
        };
        let reliable = config.reliable.then(|| {
            let layer = ReliableLayer::new(mailboxes.clone(), wire.clone(), config.seed);
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
            wire,
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            reliable,
        }
    }

    /// The executor this transport's timed deliveries wait on; the chassis
    /// lends it to the fault interposer so a cluster has one.
    pub(crate) fn timers(&self) -> &Arc<Timers> {
        &self.wire.timers
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

    /// Counts one logical send of `payload`'s kind toward destination `to`,
    /// if a classifier is registered.
    fn note_kind(&self, to: NodeId, payload: &M) {
        if let Some(classify) = self.classifier.get() {
            let slot = classify(payload);
            if slot < MESSAGE_KIND_SLOTS {
                self.kind_counts[to.index()][slot].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Registers the handler that receives node `node`'s self-addressed
    /// messages directly (the local route of the type-level routing table).
    /// Typically called once per node right after the node's worker runtime
    /// is constructed; only the first registration per node takes effect.
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

    /// Closes every mailbox, then stops the timers.
    ///
    /// Messages already queued in mailboxes are still delivered to workers
    /// that keep draining them; copies still waiting out a delay and
    /// unacknowledged messages of the reliable layer are dropped — shutdown
    /// returns without waiting for the longest delay in flight. New sends
    /// fail with [`TransportError::Closed`]. Idempotent.
    pub fn shutdown(&self) {
        for mailbox in &self.mailboxes {
            mailbox.close();
        }
        self.wire.timers.stop();
        if let Some(layer) = &self.reliable {
            layer.forget_all();
        }
    }

    /// Counters of the reliable-delivery layer; `None` when the transport
    /// runs without one.
    pub fn reliability_stats(&self) -> Option<ReliabilityStats> {
        self.reliable.as_ref().map(|layer| layer.stats())
    }

    /// The one send path: prepares every message of `envelopes` (kind
    /// counters, reliable-layer sequence numbers), draws the interposer's
    /// plans, drops what the wire loses and hands the rest to
    /// [`ChannelTransport::deliver`]. A single send is a batch of one held
    /// in an array, so it builds no `Vec`.
    fn route<E>(
        &self,
        from: NodeId,
        to: NodeId,
        priority: Priority,
        mut envelopes: E,
    ) -> Result<(), TransportError>
    where
        E: AsMut<[Envelope<M>]> + IntoIterator<Item = Envelope<M>>,
    {
        let Some(mailbox) = self.mailboxes.get(to.index()) else {
            return Err(TransportError::UnknownNode(to));
        };
        if envelopes.as_mut().is_empty() {
            return Ok(());
        }
        for envelope in envelopes.as_mut().iter() {
            self.note_kind(to, &envelope.payload);
        }
        // Registered before the wire draw: a message whose very first
        // attempt is lost is already outstanding and will be retransmitted.
        if let Some(layer) = &self.reliable {
            for envelope in envelopes.as_mut() {
                layer.register(envelope);
            }
        }
        // The interposer is consulted once per message — a batch is a
        // delivery optimization, not a unit the fault model can observe, so
        // `sss-faults` determinism (per-link RNG draw sequences, reorder and
        // duplicate semantics) is identical to a sequence of single sends.
        // Without an interposer every message passes and no plan is built.
        let plans: Vec<SendPlan> = match &self.wire.interposer {
            Some(interposer) => {
                let now = self.wire.timers.now();
                envelopes
                    .as_mut()
                    .iter()
                    .map(|_| interposer.plan(from, to, now))
                    .collect()
            }
            None => Vec::new(),
        };
        if plans.iter().any(SendPlan::is_lost) {
            // Lost: dropped on the wire, message by message. With the
            // reliable layer on, the retransmission timer recovers them;
            // without, the caller opted into a lossy network.
            let (envelopes, plans): (Vec<_>, Vec<_>) = envelopes
                .into_iter()
                .zip(plans)
                .filter(|(_, plan)| !plan.is_lost())
                .unzip();
            return if envelopes.is_empty() {
                Ok(())
            } else {
                self.deliver(mailbox, from, to, priority, envelopes, &plans)
            };
        }
        self.deliver(mailbox, from, to, priority, envelopes, &plans)
    }

    /// Delivers messages the wire did not lose: locally, immediately or
    /// timed (see the type-level routing table). `plans` is parallel to
    /// `envelopes`, or empty when every message passes.
    fn deliver<E>(
        &self,
        mailbox: &Arc<Mailbox<Envelope<M>>>,
        from: NodeId,
        to: NodeId,
        priority: Priority,
        mut envelopes: E,
        plans: &[SendPlan],
    ) -> Result<(), TransportError>
    where
        E: AsMut<[Envelope<M>]> + IntoIterator<Item = Envelope<M>>,
    {
        if self.wire.latency.is_zero() && plans.iter().all(SendPlan::is_pass) {
            if from == to {
                if let Some(dispatch) = self.local_fast_path(to) {
                    // Local.
                    self.local_delivered[to.index()]
                        .fetch_add(envelopes.as_mut().len() as u64, Ordering::Relaxed);
                    for envelope in envelopes {
                        dispatch(envelope);
                    }
                    return Ok(());
                }
            }
            // Immediate.
            return if mailbox.push_batch(envelopes, priority) {
                Ok(())
            } else {
                Err(TransportError::Closed)
            };
        }
        // Timed.
        if mailbox.is_closed() {
            return Err(TransportError::Closed);
        }
        let now = self.wire.timers.now();
        let land = land(mailbox);
        for (i, envelope) in envelopes.into_iter().enumerate() {
            let copies = plans.get(i).map_or(ONE_COPY, SendPlan::deliveries);
            self.wire
                .cross(&self.rng, copies, now, envelope, land.clone());
        }
        Ok(())
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
        let envelope = Envelope {
            from,
            to,
            priority,
            payload,
            rel_seq: None,
        };
        self.route(from, to, priority, [envelope])
    }

    fn send_batch(
        &self,
        from: NodeId,
        to: NodeId,
        batch: Vec<M>,
        priority: Priority,
    ) -> Result<(), TransportError> {
        let envelopes: Vec<Envelope<M>> = batch
            .into_iter()
            .map(|payload| Envelope {
                from,
                to,
                priority,
                payload,
                rel_seq: None,
            })
            .collect();
        self.route(from, to, priority, envelopes)
    }

    fn num_nodes(&self) -> usize {
        self.mailboxes.len()
    }
}

impl<M> std::fmt::Debug for ChannelTransport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("nodes", &self.mailboxes.len())
            .field("latency", &self.wire.latency)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls `cond` until it holds or a generous deadline elapses; returns
    /// whether it held. Replaces fixed sleeps: tests wait on observable
    /// state (mailbox depth) under a deadline instead of assuming how long
    /// the timer thread needs.
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
    fn shutdown_drops_copies_still_in_flight_instead_of_waiting_for_them() {
        let config = TransportConfig::new(2)
            .latency(LatencyModel::new(Duration::from_secs(5), Duration::ZERO));
        let t: ChannelTransport<u32> = ChannelTransport::new(config);
        t.send(NodeId(0), NodeId(1), 1, Priority::Normal).unwrap();
        let start = Instant::now();
        t.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown waited {:?} for a copy 5 s from delivery",
            start.elapsed()
        );
        assert!(t.mailbox(NodeId(1)).is_empty());
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
