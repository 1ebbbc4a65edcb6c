//! The reliable-delivery layer: sequence numbers, ack-on-pop, retransmission
//! and receiver-side dedup, on top of the transport's [`Wire`] crossing and
//! the shared [`Timers`](sss_vclock::runtime::Timers).
//!
//! The layer sits between [`Transport::send`](crate::Transport::send) and the
//! destination mailbox: every message gets a per-link sequence number and is
//! retransmitted on a capped-exponential schedule (deterministically
//! jittered from the transport seed) until the *receiver's worker*
//! acknowledges popping it for processing — not merely enqueueing it, so a
//! crash that purges a mailbox also revives the retransmissions of
//! everything it destroyed. Receivers drop already-processed sequence
//! numbers before the handler sees them, turning the at-least-once wire into
//! effectively-once delivery. Acks travel the reverse link and are subject
//! to the same wire faults (loss included); a lost ack costs one duplicate,
//! which the receiver suppresses and re-acknowledges.
//!
//! Initial copies ride the transport's send path with a sequence number
//! stamped into the envelope; acks and retransmitted copies cross the wire
//! from here and land without touching the send path's counters.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_vclock::runtime::Backoff;
use sss_vclock::NodeId;

use crate::mailbox::Mailbox;
use crate::transport::{land, Envelope, Wire};

/// Base retransmission timeout: the first retransmit of an unacked message
/// fires roughly this long (jittered to between half and all of it) after
/// the send.
pub const RETRANSMIT_RTO: Duration = Duration::from_millis(1);
/// Upper bound on the backoff between retransmissions.
const RETRANSMIT_CAP: Duration = Duration::from_millis(10);
/// Retransmissions per message before the layer gives up, which bounds the
/// event cascade when a peer never restarts.
const RETRANSMIT_MAX_ATTEMPTS: u32 = 20;

/// Monotonic counters of the reliable-delivery layer (see
/// [`ChannelTransport::reliability_stats`](crate::ChannelTransport::reliability_stats)).
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
    /// Messages abandoned after exhausting their retransmissions.
    pub gave_up: u64,
    /// Messages currently unacknowledged (a gauge, not a counter).
    pub outstanding: u64,
}

/// One unacknowledged message on a directed link.
struct PendingMsg<M> {
    envelope: Envelope<M>,
    /// Wire attempts so far beyond the initial send.
    attempt: u32,
}

/// Per-directed-link state: the sender side of the link (sequence counter,
/// unacked messages) and the receiver side (processed-sequence tracking for
/// dedup) live in one entry because both ends of an in-process link belong
/// to the same transport.
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

#[derive(Default)]
struct Counters {
    sent: AtomicU64,
    retransmits: AtomicU64,
    acks: AtomicU64,
    dups: AtomicU64,
    gave_up: AtomicU64,
}

/// The layer's state: the link table, its counters and the sampler its wire
/// crossings draw from. Timer events hold it weakly, so a dropped transport
/// is not kept alive by its own retransmissions.
pub(crate) struct ReliableLayer<M> {
    /// Retransmission schedule: capped exponential, jitter seeded from the
    /// transport seed so simulated runs replay bit-identically.
    backoff: Backoff,
    mailboxes: Vec<Arc<Mailbox<Envelope<M>>>>,
    wire: Wire,
    links: Mutex<HashMap<(usize, usize), LinkState<M>>>,
    /// Latency sampler for ack and retransmission crossings, seeded apart
    /// from the forward path's so both draw reproducible sequences.
    rng: Mutex<StdRng>,
    counters: Counters,
}

impl<M: Send + Clone + 'static> ReliableLayer<M> {
    pub(crate) fn new(
        mailboxes: Vec<Arc<Mailbox<Envelope<M>>>>,
        wire: Wire,
        seed: u64,
    ) -> Arc<Self> {
        Arc::new(ReliableLayer {
            backoff: Backoff::exponential(RETRANSMIT_RTO, RETRANSMIT_CAP)
                .with_jitter(seed ^ 0x52_45_4C_49),
            mailboxes,
            wire,
            links: Mutex::new(HashMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0x61_63_6B_73)),
            counters: Counters::default(),
        })
    }

    /// Stamps `envelope` with the next sequence number of its link, records
    /// it as outstanding and arms its first retransmission timer. Called on
    /// the send path before the interposer draws the wire plan, so a lost
    /// first attempt is already covered.
    pub(crate) fn register(self: &Arc<Self>, envelope: &mut Envelope<M>) {
        let (from, to) = (envelope.from.index(), envelope.to.index());
        let seq = {
            let mut links = self.links.lock();
            let state = links.entry((from, to)).or_default();
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
        self.arm_retransmit(
            self.wire.timers.now() + self.backoff.delay(1),
            from,
            to,
            seq,
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
    pub(crate) fn on_pop(self: &Arc<Self>, envelope: &Envelope<M>) -> bool {
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

    /// The ack crosses the reverse link `to -> from` like any other traffic
    /// (lost and delayed by the interposer's plan, though one ack is one
    /// copy however often the plan duplicates) and retires the outstanding
    /// message when it lands.
    fn send_ack(self: &Arc<Self>, from: NodeId, to: NodeId, seq: u64) {
        let now = self.wire.timers.now();
        let plan = self.wire.plan(to, from, now);
        let copies = plan.deliveries();
        let layer = Arc::downgrade(self);
        let link = (from.index(), to.index());
        self.wire.cross(
            &self.rng,
            &copies[..copies.len().min(1)],
            now,
            (),
            move |()| {
                if let Some(layer) = layer.upgrade() {
                    layer.on_ack(link, seq);
                }
            },
        );
    }

    fn on_ack(&self, link: (usize, usize), seq: u64) {
        let mut links = self.links.lock();
        if let Some(state) = links.get_mut(&link) {
            if state.outstanding.remove(&seq).is_some() {
                self.counters.acks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn arm_retransmit(self: &Arc<Self>, at: std::time::Instant, from: usize, to: usize, seq: u64) {
        let layer = Arc::downgrade(self);
        self.wire.timers.schedule(at, move || {
            if let Some(layer) = layer.upgrade() {
                layer.on_retransmit(from, to, seq);
            }
        });
    }

    /// A retransmission timer fired: if the message is still outstanding,
    /// it crosses the wire again (fresh interposer draw, fresh latency
    /// samples) and the next, longer timer is armed. Gives up once the
    /// destination closed or the attempts are exhausted.
    fn on_retransmit(self: &Arc<Self>, from: usize, to: usize, seq: u64) {
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
            if pending.attempt > RETRANSMIT_MAX_ATTEMPTS {
                state.outstanding.remove(&seq);
                self.counters.gave_up.fetch_add(1, Ordering::Relaxed);
                return;
            }
            (pending.envelope.clone(), pending.attempt)
        };
        self.counters.retransmits.fetch_add(1, Ordering::Relaxed);
        let now = self.wire.timers.now();
        let plan = self.wire.plan(envelope.from, envelope.to, now);
        // A copy that lands in a crashed mailbox is dropped on purpose: the
        // message stays outstanding and a later retransmission lands it.
        //
        // The wire gets a clone and `envelope` is dropped when this function
        // returns: under the simulator, dropping a payload that carries a
        // reply sender wakes every parked task, and the recorded replay
        // corpus contains that wake once per retransmission.
        self.wire.cross(
            &self.rng,
            plan.deliveries(),
            now,
            envelope.clone(),
            land(&self.mailboxes[to]),
        );
        self.arm_retransmit(now + self.backoff.delay(attempt + 1), from, to, seq);
    }

    /// Drops every outstanding message: shutdown is not a fault to recover
    /// from. The transport stops the timers first.
    pub(crate) fn forget_all(&self) {
        self.links.lock().clear();
    }

    pub(crate) fn stats(&self) -> ReliabilityStats {
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
