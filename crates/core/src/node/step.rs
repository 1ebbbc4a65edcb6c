//! The stepping seam: the handlers and the confirmation leader that ship,
//! run one message at a time.
//!
//! `sss-model` enumerates every interleaving of a small cluster. It does so
//! over *these* nodes: a [`SteppedCluster`] is `N` [`SssNode`]s on a bare
//! transport with no workers and no `NodeHost`. [`SteppedCluster::deliver`]
//! runs one message through [`NodeService::handle`] and returns what the
//! handler sent to other nodes; its replies land in whatever reply channels
//! the caller put in the message. Each node's own confirmation coalescer is
//! stepped the same way: [`SteppedCluster::lead`] is one step of the leader
//! loop production runs on a committing client's thread, and
//! [`SteppedCluster::confirm_ack`] hands its round one ack. `Clone` copies a
//! cluster so a search can branch, and [`SteppedCluster::encode`] writes
//! every node's state in a form that depends on neither hash order, nor
//! clocks, nor reply channels.
//!
//! A step runs under a scheduler whose clock the cluster holds still: a
//! bounded wait nobody can end (the prepare's `LOCK_TIMEOUT`) times out at
//! once, the clock goes back when the step ends, and so no hold ever ages
//! into `PRECOMMIT_HOLD_MAX`, `PENDING_GLOBAL_HOLD_MAX` or the admission
//! back-off.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sss_net::{ChannelTransport, Envelope, NodeService, ReplySender, TransportConfig};
use sss_storage::{Key, ReplicaMap, TxnId};
use sss_vclock::runtime::{self, SchedulerHandle, SimScheduler};
use sss_vclock::{NodeId, VectorClock};

use super::confirm::Round;
use super::state::PendingRead;
use super::SssNode;
use crate::coalescer::LeaderStep;
use crate::commit_queue::CommitStatus;
use crate::config::SssConfig;
use crate::coordinator::ReadOnlyCoordinator;
use crate::messages::{Ack, SssMessage};
use crate::stats::NodeCounters;

/// A fixed bug put back into the handlers or the confirmation leader: each
/// variant reverts one production line (see its use in `commit.rs`,
/// `read.rs` / `confirm.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// Drop the `prepared_ever` dedup: a duplicated `Prepare` is processed
    /// twice, wedging a second entry in the commit queue.
    DuplicatePrepare,
    /// Drop the `aborted_early` tombstone: an abort `Decide` overtaking its
    /// `Prepare` leaves the late prepare wedged with its locks.
    AbortOvertakesPrepare,
    /// The confirmation leader broadcasts `ReleaseExternal` when the round
    /// is *sent* instead of when it has collected its acks.
    PrematureRelease,
    /// A read-only transaction's first read discards the freshly computed
    /// exclusion ceilings (they are neither applied to `visible_max`, nor
    /// accumulated, nor reported) — covering both the serve path and the
    /// deferral/re-serve path, which reuse the bound established here.
    DroppedExclusionCeiling,
}

/// A [`Hasher`] that keeps the bytes instead of mixing them: hashing a value
/// into it is that value's canonical encoding.
pub struct ByteSink<'a>(
    /// Where the bytes go.
    pub &'a mut Vec<u8>,
);

impl Hasher for ByteSink<'_> {
    fn finish(&self) -> u64 {
        0
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// The scheduler of a stepped cluster. One task, no timers: a wait with a
/// deadline jumps the clock there, and the next step starts at `base` again.
struct HeldClock {
    base: Instant,
    ahead_nanos: AtomicU64,
}

impl SimScheduler for HeldClock {
    fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.ahead_nanos.load(Ordering::Relaxed))
    }
    fn sleep(&self, _duration: Duration) {
        panic!("a stepped handler slept: a timer valve fired with the clock held still");
    }
    fn park(&self, deadline: Option<Instant>) {
        let deadline = deadline.expect("a stepped handler blocked without a deadline");
        let ahead = deadline.saturating_duration_since(self.base).as_nanos() as u64;
        self.ahead_nanos.fetch_max(ahead, Ordering::Relaxed);
    }
    fn wake(&self) {}
    fn schedule(&self, _at: Instant, _event: Box<dyn FnOnce() + Send>) -> u64 {
        unreachable!("a stepped transport has no latency to wait out")
    }
    fn cancel(&self, _token: u64) -> bool {
        false
    }
    fn spawn_task(
        &self,
        _name: String,
        _daemon: bool,
        _body: Box<dyn FnOnce() + Send>,
    ) -> std::thread::JoinHandle<()> {
        unreachable!("a stepped cluster runs no workers")
    }
}

/// `N` production nodes stepped by hand. See the module docs.
pub struct SteppedCluster {
    nodes: Vec<SssNode>,
    /// Per node, the confirmation round its leader waits on: what the
    /// leader thread holds on its stack in production.
    rounds: Vec<Option<Round>>,
    clock: Arc<HeldClock>,
}

impl SteppedCluster {
    /// Nodes for `config`, each with `seeded` reverted in its handlers.
    pub fn new(config: SssConfig, seeded: Option<SeededBug>) -> Self {
        let transport = Arc::new(ChannelTransport::new(TransportConfig::new(config.nodes)));
        let nodes = (0..config.nodes)
            .map(|i| SssNode {
                seeded,
                ..SssNode::new(NodeId(i), config.clone(), Arc::clone(&transport))
            })
            .collect();
        let clock = Arc::new(HeldClock {
            base: Instant::now(),
            ahead_nanos: AtomicU64::new(0),
        });
        SteppedCluster {
            rounds: vec![None; config.nodes],
            nodes,
            clock,
        }
    }

    /// Runs `step` with the clock held still and returns the messages it
    /// sent, with their destinations, in sending order per node.
    fn run(&self, step: impl FnOnce()) -> Vec<(NodeId, SssMessage)> {
        self.clock.ahead_nanos.store(0, Ordering::Relaxed);
        let scheduler: SchedulerHandle = self.clock.clone();
        runtime::enter(&scheduler, step);
        let mut sent = Vec::new();
        for node in 0..self.nodes.len() {
            let mailbox = self.nodes[node].transport.mailbox(NodeId(node));
            while let Some(envelope) = mailbox.try_pop() {
                sent.push((envelope.to, envelope.payload));
            }
        }
        sent
    }

    /// Hands `payload` to node `to`'s handler and returns the messages the
    /// handler sent, with their destinations, in sending order per node.
    pub fn deliver(&self, to: NodeId, payload: SssMessage) -> Vec<(NodeId, SssMessage)> {
        let envelope = Envelope {
            from: to,
            to,
            priority: payload.priority(),
            payload,
            rel_seq: None,
        };
        self.run(|| self.nodes[to.index()].handle(envelope))
    }

    /// The client call that queues committed `txn` for a confirmation round
    /// at its origin `node`, the outcome to `waiter`. Returns `true` iff the
    /// caller now leads there.
    pub fn enqueue_confirm(
        &self,
        node: NodeId,
        txn: TxnId,
        commit_vc: Arc<VectorClock>,
        waiter: ReplySender<bool>,
    ) -> bool {
        self.nodes[node.index()]
            .confirm
            .lock()
            .enqueue(txn, commit_vc, waiter)
    }

    /// `true` while `node`'s leader is active and not waiting on a round:
    /// its next step is [`SteppedCluster::lead`].
    pub fn leads(&self, node: NodeId) -> bool {
        let i = node.index();
        self.rounds[i].is_none() && self.nodes[i].confirm.lock().in_flight()
    }

    /// One step of `node`'s confirmation leader, without its linger: exits,
    /// flushes, or sends a round acknowledged to `reply` and waits on it.
    /// Returns what it sent, like [`SteppedCluster::deliver`].
    pub fn lead(&mut self, node: NodeId, reply: ReplySender<Ack>) -> Vec<(NodeId, SssMessage)> {
        let at = &self.nodes[node.index()];
        let mut round = None;
        let step = at.confirm.lock().leader_step(false);
        let sent = self.run(|| match step {
            LeaderStep::Exit => {}
            LeaderStep::Linger => unreachable!("a stepped leader never lingers"),
            LeaderStep::Flush(messages) => at.flush(messages),
            LeaderStep::Round(mut sending) => {
                at.send_round(&mut sending, reply);
                round = Some(sending);
            }
        });
        self.rounds[node.index()] = round;
        sent
    }

    /// Hands `ack` to the round `node`'s leader waits on. Once every node
    /// acknowledged it, the round completes and its members' waiters hear
    /// `true`.
    pub fn confirm_ack(&mut self, node: NodeId, ack: Ack) {
        let i = node.index();
        let Some(round) = self.rounds[i].as_mut() else {
            return;
        };
        if round.ack(&ack) && round.acked().len() == self.nodes.len() {
            let round = self.rounds[i].take().expect("matched above");
            self.nodes[i].complete_round(round, true);
        }
    }

    /// The client call that ends read-only `coord` at its origin `node`:
    /// marks it completed and sends its `Remove`, on the next round of an
    /// active leader there or targeted. Returns what it sent, like
    /// [`SteppedCluster::deliver`].
    pub fn finish_read_only(
        &self,
        node: NodeId,
        coord: &ReadOnlyCoordinator,
    ) -> Vec<(NodeId, SssMessage)> {
        self.run(|| self.nodes[node.index()].finish_read_only(coord))
    }

    /// Where the cluster places keys.
    pub fn replica_map(&self) -> &ReplicaMap {
        self.nodes[0].replica_map()
    }

    /// The snapshot a transaction beginning on `node` starts from.
    pub fn begin_vc(&self, node: NodeId) -> VectorClock {
        self.nodes[node.index()].begin_vc()
    }

    /// `true` while `node` holds a read of `txn` whose visibility bound it
    /// has not computed yet (deferred behind the `NLog`).
    pub fn awaits_bound(&self, node: NodeId, txn: TxnId) -> bool {
        let state = self.nodes[node.index()].state.lock();
        state
            .pending_reads
            .iter()
            .any(|p| p.txn == txn && !p.bound_pinned)
    }

    /// Commit clocks of the writers pre-committing on `key` at `node` with
    /// an insertion-snapshot beyond `sid`: the exclusion ceilings a first
    /// read bounded by `sid` owes its transaction (Algorithm 6 lines 7-8).
    pub fn precommit_ceilings(&self, node: NodeId, key: &Key, sid: u64) -> Vec<Arc<VectorClock>> {
        let state = self.nodes[node.index()].state.lock();
        let writes = state.squeues.get(key).map_or(&[][..], |q| q.writes());
        let beyond = writes.iter().filter(|w| w.sid > sid);
        beyond.map(|w| Arc::clone(&w.commit_vc)).collect()
    }

    /// What `node` still holds that a quiescent node would not, if anything.
    pub fn residue(&self, node: NodeId) -> Option<&'static str> {
        let round = &self.rounds[node.index()];
        let node = &self.nodes[node.index()];
        let core = node.confirm.lock();
        let queued = core.pending_len() + core.pending_release_len() + core.pending_remove_len();
        let leading = core.in_flight() || queued != 0;
        drop(core);
        let state = node.state.lock();
        [
            (!state.commit_q.is_empty(), "commit queue not drained"),
            (!state.prepared.is_empty(), "prepared entries linger"),
            (node.locks.locked_keys() != 0, "locks still held"),
            (
                !state.waiting_external.is_empty(),
                "external commits still waiting",
            ),
            (
                !state.pending_reads.is_empty() || !state.parked_reads.is_empty(),
                "reads still pending",
            ),
            (
                state.squeues.total_entries() != 0,
                "snapshot-queue entries linger",
            ),
            (
                !state.ro_forward_targets.is_empty(),
                "forward targets linger",
            ),
            (leading || round.is_some(), "confirmation coalescer active"),
        ]
        .into_iter()
        .find_map(|(dirty, what)| dirty.then_some(what))
    }

    /// Appends the canonical encoding of every node: protocol state, store,
    /// lock table, confirmation coalescer and the round its leader waits on,
    /// hash maps sorted, no `Instant` and no reply handle.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let h = &mut ByteSink(out);
        for (node, round) in self.nodes.iter().zip(&self.rounds) {
            let core = node.confirm.lock();
            let pending: Vec<TxnId> = core.pending_txns().collect();
            let (release, remove) = (core.pending_release_txns(), core.pending_remove_txns());
            (core.in_flight(), pending, release, remove).hash(h);
            drop(core);
            let round = round.as_ref().map(|round| {
                let members: Vec<TxnId> = round.members().collect();
                (round.id(), members, sorted(round.acked()))
            });
            round.hash(h);
            let st = node.state.lock();
            (&st.node_vc, &st.confirmed_vc, st.nlog.most_recent_vc()).hash(h);
            seq(h, st.nlog.iter().map(|e| (e.txn, &e.vc)));
            let queued = st.commit_q.entries().iter();
            seq(
                h,
                queued.map(|e| (e.txn, &e.vc, e.status == CommitStatus::Ready)),
            );
            each(
                h,
                by_key(st.squeues.iter()).into_iter(),
                |h, (key, queue)| {
                    key.hash(h);
                    seq(h, queue.reads().iter().map(|r| (r.txn, r.sid)));
                    let writes = queue.writes().iter();
                    seq(h, writes.map(|w| (w.txn, w.sid, &w.commit_vc)));
                },
            );
            each(h, sorted(node.store.keys()).into_iter(), |h, key| {
                let chain = node.store.chain(&key).expect("a listed key has a chain");
                key.hash(h);
                seq(h, chain.iter().map(|v| (v.writer, &v.vc)));
            });
            node.locks.held().hash(h);
            each(
                h,
                by_key(st.prepared.iter()).into_iter(),
                |h, (txn, prep)| {
                    (txn, &prep.local_read_keys, prep.is_write_replica).hash(h);
                    seq(h, prep.local_write_set.iter().map(|(key, _)| key));
                    let decision = prep.decision.as_ref();
                    decision.map(|d| &d.propagated).hash(h);
                },
            );
            seq(h, st.pending_reads.iter().map(read_code));
            seq(
                h,
                st.parked_reads
                    .iter()
                    .map(|p| (p.writer, read_code(&p.read))),
            );
            let waiting = st.waiting_external.iter();
            seq(h, waiting.map(|w| (w.txn, &w.commit_vc, &w.write_keys)));
            for set in [
                &st.pending_global,
                &st.released_external,
                &st.removed_ro,
                &st.aborted_early,
                &st.confirm_acked,
                &st.prepared_ever,
                &st.completed_ro,
            ] {
                sorted(set.iter()).hash(h);
            }
            let forwards = by_key(st.ro_forward_targets.iter());
            seq(h, forwards.into_iter().map(|(txn, to)| (txn, sorted(to))));
        }
    }
}

/// A deep copy: every node's protocol state, store, lock table, coalescer and
/// waited-on round. The transport and the clock hold nothing between steps
/// and are shared; what a stepped node never uses (counters, the id
/// allocator, availability) starts afresh.
impl Clone for SteppedCluster {
    fn clone(&self) -> Self {
        let nodes = self.nodes.iter().map(|node| SssNode {
            id: node.id,
            config: node.config.clone(),
            replicas: node.replicas.clone(),
            transport: Arc::clone(&node.transport),
            state: Mutex::new(node.state.lock().clone()),
            store: node.store.clone(),
            locks: node.locks.clone(),
            counters: NodeCounters::default(),
            next_txn_seq: AtomicU64::new(0),
            confirm: Mutex::new(node.confirm.lock().clone()),
            available: AtomicBool::new(true),
            seeded: node.seeded,
        });
        SteppedCluster {
            nodes: nodes.collect(),
            rounds: self.rounds.clone(),
            clock: Arc::clone(&self.clock),
        }
    }
}

/// Hashes a sequence: its length, then `item` over its items.
fn each<T>(
    h: &mut ByteSink<'_>,
    items: impl ExactSizeIterator<Item = T>,
    mut item: impl FnMut(&mut ByteSink<'_>, T),
) {
    items.len().hash(h);
    items.for_each(|i| item(h, i));
}

/// Hashes a sequence of hashable items (see [`each`]).
fn seq<T: Hash>(h: &mut ByteSink<'_>, items: impl ExactSizeIterator<Item = T>) {
    each(h, items, |h, item| item.hash(h));
}

fn sorted<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort();
    items
}

fn by_key<K: Ord, V>(entries: impl IntoIterator<Item = (K, V)>) -> Vec<(K, V)> {
    let mut entries: Vec<(K, V)> = entries.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

/// What a deferred or parked read is, minus its reply handle.
fn read_code(read: &PendingRead) -> impl Hash + '_ {
    let PendingRead {
        txn,
        key,
        vc,
        has_read,
        exclude,
        newly_excluded,
        bound_pinned,
        reply: _,
    } = read;
    (
        txn,
        key,
        vc,
        has_read,
        exclude,
        newly_excluded,
        bound_pinned,
    )
}
