//! The SSS protocol as an explicit-state model: production nodes, scripted
//! clients.
//!
//! The state is `N` production [`SssNode`](sss_core::SssNode)s — a
//! [`SteppedCluster`]: no workers, no `NodeHost`, the clock held still —
//! plus `T` scripted transactions ([`TxnSpec`]) and a multiset of in-flight
//! messages. Keys are partially replicated, one replica each: key `k` lives
//! on node `k % N`. The checker's actions are *start a client*, *deliver one
//! message* and *run one coalescer round*, so BFS over the action space
//! enumerates **every** interleaving of message deliveries and client steps,
//! including the reorderings and overlaps the chaos harness can only sample.
//!
//! Delivering a message to a node *is* `SssNode::handle` on a real
//! [`SssMessage`]: prepare, decide, internal commit, Pre-Commit, external
//! commit, version selection, `Remove` and `RegisterForward` handling are
//! the code the threaded runtime and `sss-sim` run, not a copy. What the
//! handler sends — to other nodes through the transport, to clients through
//! the reply channels the model put in the request — becomes the new
//! in-flight messages.
//!
//! Still scripted here (stage two of ROADMAP item 2 makes them production
//! too): the clients, which send what `Session` sends but as a state machine
//! instead of a blocking call, and the confirmation leader loop, which
//! drives the production [`CoalescerCore`] one plan per `Coalesce` action.
//!
//! Deliberate divergences (documented, not bugs):
//!
//! * Timers are held still rather than absent: a contended prepare's
//!   `LOCK_TIMEOUT` is an immediate refusal, and the confirmation linger,
//!   the Pre-Commit and `pending_global` hold bounds and the admission
//!   back-off never fire. They are performance levers and liveness valves,
//!   not what the invariants rest on.
//! * A `Decide` and the `RegisterForward`s that ride its batch are separate
//!   deliveries, and an abort `Decide` carries a zero clock: a superset of
//!   the orders production allows, and a field the handler never reads.
//! * Values are not modelled — every invariant is about *which* version is
//!   observed, never its payload.
//!
//! [`Mutation`] seeds four historical bugs back in; three of them revert
//! their fix in the production handlers themselves
//! ([`SeededBug`], settable only through [`SteppedCluster::new`]) and
//! `PrematureRelease` lives in the model's leader loop. The checker
//! produces a minimal replayable counterexample for each (see the crate
//! tests), and those traces seed the `mc-*` chaos regression scenarios in
//! `sss-bench`.

use std::hash::Hash;
use std::sync::Arc;

use sss_core::coalescer::{CoalescerCore, RoundPlan};
use sss_core::{
    protocol, Ack, ByteSink, PropagatedEntry, ReadReturn, SeededBug, SssConfig, SssMessage,
    SteppedCluster, Vote,
};
use sss_net::{reply_channel, ReplyReceiver, ReplySender};
use sss_storage::{Key, ReplicaMap, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

use crate::checker::Model;

type Vc = VectorClock;

/// One scripted transaction. Keys are small integers; key `k` is stored on
/// node `k % nodes`. Reads execute in list order, one at a time (matching
/// the session layer's sequential reads).
#[derive(Debug, Clone)]
pub enum TxnSpec {
    /// An update transaction: read `reads`, then 2PC-commit `writes`.
    Update {
        /// Origin node (where the client begins and confirms).
        origin: usize,
        /// Keys read (in order) before the commit attempt.
        reads: Vec<u8>,
        /// Keys written at commit.
        writes: Vec<u8>,
    },
    /// An abort-free read-only transaction reading `reads` in order.
    ReadOnly {
        /// Origin node.
        origin: usize,
        /// Keys read, in order.
        reads: Vec<u8>,
    },
}

impl TxnSpec {
    fn origin(&self) -> usize {
        match self {
            TxnSpec::Update { origin, .. } | TxnSpec::ReadOnly { origin, .. } => *origin,
        }
    }

    fn reads(&self) -> &[u8] {
        match self {
            TxnSpec::Update { reads, .. } | TxnSpec::ReadOnly { reads, .. } => reads,
        }
    }

    fn writes(&self) -> &[u8] {
        match self {
            TxnSpec::Update { writes, .. } => writes,
            TxnSpec::ReadOnly { .. } => &[],
        }
    }

    fn is_update(&self) -> bool {
        matches!(self, TxnSpec::Update { .. })
    }
}

/// A historical bug seeded back in — into the production handlers, except
/// `PrematureRelease`, which is the scripted leader loop's. Each must yield a
/// minimal counterexample from the checker (asserted by the tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
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

/// A checkable configuration: the cluster size, the transaction mix and the
/// confirmation mode.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Cluster size (2 or 3 for exhaustive runs).
    pub nodes: usize,
    /// The scripted transactions (index = transaction id).
    pub txns: Vec<TxnSpec>,
    /// `true` — epoch-grouped confirmation via the origin's coalescer;
    /// `false` — the base protocol's one round per transaction, driven by
    /// the client.
    pub grouped_confirm: bool,
    /// Coalescer window (`confirm_epoch_max`); ignored when not grouped.
    pub confirm_window: usize,
    /// How many times the network may duplicate a `Prepare` delivery.
    pub duplicate_prepare_budget: u8,
    /// The seeded bug, if any.
    pub mutation: Option<Mutation>,
}

impl ModelConfig {
    /// 2 nodes, 2 transactions: one writer, one read-only observer.
    pub fn clean_2n2t() -> Self {
        ModelConfig {
            nodes: 2,
            txns: vec![
                TxnSpec::Update {
                    origin: 0,
                    reads: vec![],
                    writes: vec![0],
                },
                TxnSpec::ReadOnly {
                    origin: 1,
                    reads: vec![0],
                },
            ],
            grouped_confirm: true,
            confirm_window: 2,
            duplicate_prepare_budget: 0,
            mutation: None,
        }
    }

    /// 2 nodes, 2 writers contending on one key (exercises lock-conflict
    /// aborts and both 2PC decision paths).
    pub fn conflict_2n2t() -> Self {
        ModelConfig {
            nodes: 2,
            txns: vec![
                TxnSpec::Update {
                    origin: 0,
                    reads: vec![],
                    writes: vec![0],
                },
                TxnSpec::Update {
                    origin: 1,
                    reads: vec![0],
                    writes: vec![0],
                },
            ],
            grouped_confirm: true,
            confirm_window: 2,
            duplicate_prepare_budget: 0,
            mutation: None,
        }
    }

    /// 3 nodes, 2 transactions: a two-home writer (xact-vn equalization
    /// across nodes 0 and 1) and a remote read-only observer of both keys.
    pub fn clean_3n2t() -> Self {
        ModelConfig {
            nodes: 3,
            txns: vec![
                TxnSpec::Update {
                    origin: 0,
                    reads: vec![],
                    writes: vec![0, 1],
                },
                TxnSpec::ReadOnly {
                    origin: 2,
                    reads: vec![0, 1],
                },
            ],
            grouped_confirm: true,
            confirm_window: 2,
            duplicate_prepare_budget: 0,
            mutation: None,
        }
    }

    /// 2 nodes, 3 transactions: two independent writers (one per node) and
    /// a read-only transaction observing both keys — exercises grouped
    /// confirmation rounds with several members, parked reads behind two
    /// writers and cross-node snapshot bounds.
    pub fn clean_2n3t() -> Self {
        ModelConfig {
            nodes: 2,
            txns: vec![
                TxnSpec::Update {
                    origin: 0,
                    reads: vec![],
                    writes: vec![0],
                },
                TxnSpec::Update {
                    origin: 1,
                    reads: vec![],
                    writes: vec![1],
                },
                TxnSpec::ReadOnly {
                    origin: 0,
                    reads: vec![0, 1],
                },
            ],
            grouped_confirm: true,
            confirm_window: 2,
            duplicate_prepare_budget: 0,
            mutation: None,
        }
    }

    /// 2 nodes, 3 transactions contending on one key: two writers (lock
    /// conflicts, aborts, pre-commit blocking) plus a read-only observer.
    pub fn contended_2n3t() -> Self {
        ModelConfig {
            nodes: 2,
            txns: vec![
                TxnSpec::Update {
                    origin: 0,
                    reads: vec![],
                    writes: vec![0],
                },
                TxnSpec::Update {
                    origin: 1,
                    reads: vec![],
                    writes: vec![0],
                },
                TxnSpec::ReadOnly {
                    origin: 1,
                    reads: vec![0],
                },
            ],
            grouped_confirm: true,
            confirm_window: 2,
            duplicate_prepare_budget: 0,
            mutation: None,
        }
    }

    /// [`ModelConfig::clean_2n2t`] under the base (per-transaction)
    /// confirmation protocol.
    pub fn singleton_2n2t() -> Self {
        ModelConfig {
            grouped_confirm: false,
            ..ModelConfig::clean_2n2t()
        }
    }

    /// The smallest configuration that exposes `mutation` (checker-verified
    /// in the tests; the same configs verify clean when the mutation is
    /// off).
    pub fn mutated(mutation: Mutation) -> Self {
        let mut cfg = match mutation {
            Mutation::DuplicatePrepare => ModelConfig {
                duplicate_prepare_budget: 1,
                ..ModelConfig::clean_2n2t()
            },
            // The aborting transaction writes two keys with different homes
            // so the abort decision can overtake the prepare at the second
            // participant.
            Mutation::AbortOvertakesPrepare => ModelConfig {
                nodes: 2,
                txns: vec![
                    TxnSpec::Update {
                        origin: 0,
                        reads: vec![],
                        writes: vec![0],
                    },
                    TxnSpec::Update {
                        origin: 1,
                        reads: vec![],
                        writes: vec![0, 1],
                    },
                ],
                grouped_confirm: true,
                confirm_window: 2,
                duplicate_prepare_budget: 0,
                mutation: None,
            },
            Mutation::PrematureRelease => ModelConfig {
                nodes: 2,
                txns: vec![TxnSpec::Update {
                    origin: 0,
                    reads: vec![],
                    writes: vec![0],
                }],
                grouped_confirm: true,
                confirm_window: 1,
                duplicate_prepare_budget: 0,
                mutation: None,
            },
            // A first reader pins a low insertion-snapshot (blocking the
            // writer's external commit and keeping its squeue entry alive),
            // so a second reader's first read must compute — and, mutated,
            // drop — an exclusion ceiling for the writer.
            Mutation::DroppedExclusionCeiling => ModelConfig {
                nodes: 2,
                txns: vec![
                    TxnSpec::ReadOnly {
                        origin: 0,
                        reads: vec![0],
                    },
                    TxnSpec::Update {
                        origin: 1,
                        reads: vec![],
                        writes: vec![0],
                    },
                    TxnSpec::ReadOnly {
                        origin: 1,
                        reads: vec![0],
                    },
                ],
                grouped_confirm: true,
                confirm_window: 2,
                duplicate_prepare_budget: 0,
                mutation: None,
            },
        };
        cfg.mutation = Some(mutation);
        cfg
    }
}

/// One checker action. `Deliver` indexes the state's message multiset;
/// identical envelopes are enumerated once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Begin transaction `t` at its origin.
    Start(u8),
    /// Deliver in-flight message `i`.
    Deliver(u8),
    /// The active confirmation leader at node `n` plans one round.
    Coalesce(u8),
}

/// Message destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Dst {
    Node(u8),
    Client(u8),
}

/// What is in flight: a wire message on its way to a node's handler, or a
/// handler's reply on its way back to a scripted client (a confirmation
/// ack: to whoever leads the round).
#[derive(Debug, Clone)]
enum Msg {
    Wire(SssMessage),
    ReadRet(ReadReturn),
    Vote(Vote),
    ExtAck(Ack),
    ConfirmAck(Ack),
}

#[derive(Debug)]
struct Envelope {
    dst: Dst,
    msg: Msg,
    /// Canonical bytes of `dst` and `msg` (no reply handle): what makes two
    /// envelopes the same delivery.
    code: Vec<u8>,
}

impl Envelope {
    fn new(dst: Dst, msg: Msg) -> Arc<Envelope> {
        use SssMessage::*;
        // Every field is named (no `..`): a field added to the wire format
        // must be given a place in the encoding before this compiles.
        let mut code = Vec::new();
        let h = &mut ByteSink(&mut code);
        dst.hash(h);
        match &msg {
            Msg::Wire(wire) => {
                wire.kind_index().hash(h);
                match wire {
                    ReadRequest {
                        txn,
                        key,
                        vc,
                        has_read,
                        exclude,
                        is_update,
                        reply: _,
                    } => (txn, key, vc, has_read, exclude, is_update).hash(h),
                    Prepare {
                        txn,
                        vc,
                        read_set,
                        write_set,
                        reply: _,
                    } => (txn, vc, read_set, write_set).hash(h),
                    Decide {
                        txn,
                        commit_vc,
                        outcome,
                        propagated,
                        ack_reply: _,
                    } => (txn, commit_vc, outcome, propagated).hash(h),
                    Remove { txns } | ReleaseExternal { txns } => txns.hash(h),
                    RegisterForward { txn, targets } => (txn, targets).hash(h),
                    ConfirmExternal {
                        entries,
                        release,
                        remove,
                        reply: _,
                    } => (entries, release, remove).hash(h),
                    StateQuery { reply: _ } => {}
                }
            }
            Msg::ReadRet(ret) => (8usize, ret).hash(h),
            Msg::Vote(vote) => (9usize, vote).hash(h),
            Msg::ExtAck(ack) => (10usize, ack).hash(h),
            Msg::ConfirmAck(ack) => (11usize, ack).hash(h),
        }
        Arc::new(Envelope { dst, msg, code })
    }
}

/// A confirmation round the leader at one node has in flight.
#[derive(Debug, Clone, Hash)]
struct Round {
    id: TxnId,
    members: Vec<TxnId>,
    acks: u16,
}

/// The confirmation leader loop of one node, scripted: the production
/// coalescer core and the round it is waiting on.
#[derive(Debug, Clone)]
struct Leader {
    coal: CoalescerCore<()>,
    round: Option<Round>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    Idle,
    Read,
    Vote,
    ExtWait,
    ConfirmWait,
    Committed,
    Aborted,
}

#[derive(Debug, Clone, Hash)]
struct ClientSt {
    phase: Phase,
    vc: Vc,
    has_read: u16,
    next_read: usize,
    observed: Vec<(u8, Option<u8>)>,
    propagated: Vec<(u8, u64)>,
    exclude: Vec<Arc<Vc>>,
    votes: u16,
    ext_acks: u16,
    confirm_acks: u16,
    commit_vc: Option<Arc<Vc>>,
    /// A read-only transaction's first read has reached its node, which has
    /// not computed the visibility bound yet.
    awaiting_bound: bool,
}

/// One reachable configuration of the modelled cluster. Fields are private;
/// states are produced by the checker and replayed via
/// [`crate::checker::replay`].
#[derive(Clone)]
pub struct SssState {
    cluster: SteppedCluster,
    leaders: Vec<Leader>,
    clients: Vec<ClientSt>,
    msgs: Vec<Arc<Envelope>>,
    /// Globally-true confirmation bits (round completed), the reference for
    /// the unconfirmed-read and release-overtake invariants.
    confirmed: u16,
    dup_budget: u8,
    /// Spec-shadow exclusion ceilings per read-only transaction, read off
    /// the node's snapshot-queue when its bound is computed: recorded even
    /// when a mutation makes the handler drop them.
    shadow: Vec<Vec<Arc<Vc>>>,
}

type Channel<T> = (ReplySender<T>, ReplyReceiver<T>);

/// The SSS protocol as a [`Model`]. See the module docs.
pub struct SssModel {
    cfg: ModelConfig,
    /// `keys[k]`: a name for key `k` whose one replica is node `k % nodes`.
    keys: Vec<Key>,
    /// Where the handlers' replies land, shared by every state: a step
    /// drains them, so they are empty between steps. `ReadReturn` does not
    /// name its transaction, so reads have one channel each.
    reads: Vec<Channel<ReadReturn>>,
    votes: Channel<Vote>,
    ext_acks: Channel<Ack>,
    confirm_acks: Channel<Ack>,
}

fn bit(t: usize) -> u16 {
    1 << t
}

/// The index of the scripted transaction `txn` names (see [`SssModel::tid`]).
fn ix(txn: TxnId) -> usize {
    txn.seq as usize - 1
}

fn drain<T>(channel: &Channel<T>) -> impl Iterator<Item = T> + '_ {
    std::iter::from_fn(|| channel.1.try_recv().ok())
}

fn txn_list(txns: impl IntoIterator<Item = TxnId>) -> String {
    let list: Vec<String> = txns.into_iter().map(|t| format!("t{}", ix(t))).collect();
    list.join(",")
}

impl SssModel {
    /// A model for `cfg`.
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(cfg.nodes >= 1 && cfg.nodes <= 16, "node count out of range");
        assert!(cfg.txns.len() <= 16, "transaction count out of range");
        for t in &cfg.txns {
            assert!(t.origin() < cfg.nodes, "origin out of range");
            if t.is_update() {
                assert!(!t.writes().is_empty(), "updates must write");
            }
        }
        let key_count = cfg
            .txns
            .iter()
            .flat_map(|t| t.reads().iter().chain(t.writes()))
            .map(|&k| k as usize + 1)
            .max()
            .unwrap_or(0);
        let placement = ReplicaMap::new(cfg.nodes, 1);
        let named = |k: usize| {
            let mut names = (0..).map(|salt| Key::new(format!("k{k}.{salt}")));
            let placed = names.find(|key| placement.primary(key).index() == k % cfg.nodes);
            placed.expect("some name hashes to every node")
        };
        SssModel {
            keys: (0..key_count).map(named).collect(),
            reads: cfg.txns.iter().map(|_| reply_channel(64)).collect(),
            votes: reply_channel(64),
            ext_acks: reply_channel(64),
            confirm_acks: reply_channel(64),
            cfg,
        }
    }

    /// The configuration being checked.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The identifier of transaction `t`: its index (plus one) as the
    /// sequence number, its origin node as the coordinator.
    fn tid(&self, t: usize) -> TxnId {
        TxnId::new(NodeId(self.cfg.txns[t].origin()), t as u64 + 1)
    }

    fn home(&self, key: u8) -> usize {
        key as usize % self.cfg.nodes
    }

    fn homes(&self, keys: &[u8]) -> u16 {
        keys.iter().fold(0, |mask, &k| mask | bit(self.home(k)))
    }

    /// 2PC participants: the replicas of every accessed key plus the
    /// coordinator.
    fn participants(&self, t: usize) -> u16 {
        let spec = &self.cfg.txns[t];
        self.homes(spec.reads()) | self.homes(spec.writes()) | bit(spec.origin())
    }

    fn write_mask(&self, t: usize) -> u16 {
        self.homes(self.cfg.txns[t].writes())
    }

    fn nodes_in(&self, mask: u16) -> impl Iterator<Item = usize> + '_ {
        (0..self.cfg.nodes).filter(move |&n| mask & bit(n) != 0)
    }

    fn all_nodes_mask(&self) -> u16 {
        (1 << self.cfg.nodes) - 1
    }
}

impl Model for SssModel {
    type State = SssState;
    type Action = Action;

    fn init(&self) -> SssState {
        let n = self.cfg.nodes;
        let seeded = self.cfg.mutation.and_then(|m| match m {
            Mutation::DuplicatePrepare => Some(SeededBug::DuplicatePrepare),
            Mutation::AbortOvertakesPrepare => Some(SeededBug::AbortOvertakesPrepare),
            Mutation::DroppedExclusionCeiling => Some(SeededBug::DroppedExclusionCeiling),
            Mutation::PrematureRelease => None,
        });
        let config = SssConfig::new(n).replication(1).storage_shards(1);
        let leader = Leader {
            coal: CoalescerCore::new(),
            round: None,
        };
        let client = ClientSt {
            phase: Phase::Idle,
            vc: Vc::new(n),
            has_read: 0,
            next_read: 0,
            observed: Vec::new(),
            propagated: Vec::new(),
            exclude: Vec::new(),
            votes: 0,
            ext_acks: 0,
            confirm_acks: 0,
            commit_vc: None,
            awaiting_bound: false,
        };
        SssState {
            cluster: SteppedCluster::new(config, seeded),
            leaders: vec![leader; n],
            clients: vec![client; self.cfg.txns.len()],
            msgs: Vec::new(),
            confirmed: 0,
            dup_budget: self.cfg.duplicate_prepare_budget,
            shadow: vec![Vec::new(); self.cfg.txns.len()],
        }
    }

    fn actions(&self, s: &SssState, out: &mut Vec<Action>) {
        for (t, c) in s.clients.iter().enumerate() {
            if c.phase == Phase::Idle {
                out.push(Action::Start(t as u8));
            }
        }
        for (i, env) in s.msgs.iter().enumerate() {
            if !s.msgs[..i].iter().any(|earlier| earlier.code == env.code) {
                out.push(Action::Deliver(i as u8));
            }
        }
        for (i, leader) in s.leaders.iter().enumerate() {
            if leader.coal.in_flight() && leader.round.is_none() {
                out.push(Action::Coalesce(i as u8));
            }
        }
    }

    fn step(&self, state: &SssState, action: Action) -> Result<SssState, String> {
        let mut s = state.clone();
        match action {
            Action::Start(t) => self.start(&mut s, t as usize)?,
            Action::Deliver(i) => {
                let env = s.msgs.remove(i as usize);
                self.deliver(&mut s, &env)?;
            }
            Action::Coalesce(n) => self.coalesce(&mut s, n as usize),
        }
        Ok(s)
    }

    fn check(&self, s: &SssState, terminal: bool) -> Result<(), String> {
        if !terminal {
            return Ok(());
        }
        for (t, c) in s.clients.iter().enumerate() {
            if !matches!(c.phase, Phase::Committed | Phase::Aborted) {
                return Err(format!(
                    "quiescence: client t{t} stuck in {:?} with no enabled action",
                    c.phase
                ));
            }
        }
        for (i, leader) in s.leaders.iter().enumerate() {
            if let Some(what) = s.cluster.residue(NodeId(i)) {
                return Err(format!("quiescence: {what} at n{i}"));
            }
            let coal = &leader.coal;
            let queued =
                coal.pending_len() + coal.pending_release_len() + coal.pending_remove_len();
            if coal.in_flight() || queued != 0 || leader.round.is_some() {
                return Err(format!("quiescence: confirmation coalescer active at n{i}"));
            }
        }
        Ok(())
    }

    fn encode(&self, s: &SssState, out: &mut Vec<u8>) {
        s.cluster.encode(out);
        let h = &mut ByteSink(out);
        for Leader { coal, round } in &s.leaders {
            let pending: Vec<TxnId> = coal.pending_txns().collect();
            let (release, remove) = (coal.pending_release_txns(), coal.pending_remove_txns());
            (coal.in_flight(), pending, release, remove, round).hash(h);
        }
        // Message order is delivery bookkeeping, not semantics: encode the
        // multiset canonically.
        let mut in_flight: Vec<&Vec<u8>> = s.msgs.iter().map(|env| &env.code).collect();
        in_flight.sort_unstable();
        (&s.clients, in_flight, s.confirmed, s.dup_budget, &s.shadow).hash(h);
    }

    fn describe(&self, s: &SssState, action: Action) -> String {
        match action {
            Action::Start(t) => {
                let kind = if self.cfg.txns[t as usize].is_update() {
                    "update"
                } else {
                    "read-only"
                };
                format!("start t{t} ({kind})")
            }
            Action::Deliver(i) => match s.msgs.get(i as usize) {
                Some(env) => {
                    let dst = match env.dst {
                        Dst::Node(n) => format!("n{n}"),
                        Dst::Client(t) => format!("t{t}"),
                    };
                    format!("deliver {} -> {dst}", self.msg_label(&env.msg))
                }
                None => format!("deliver #{i}"),
            },
            Action::Coalesce(n) => format!("coalesce n{n}"),
        }
    }
}

impl SssModel {
    fn msg_label(&self, msg: &Msg) -> String {
        use SssMessage::*;
        match msg {
            Msg::Wire(ReadRequest { txn, key, .. }) => {
                let k = self.keys.iter().position(|named| named == key);
                format!("ReadReq t{} k{}", ix(*txn), k.expect("a scripted key"))
            }
            Msg::Wire(Prepare { txn, .. }) => format!("Prepare t{}", ix(*txn)),
            Msg::Wire(Decide { txn, outcome, .. }) => {
                let outcome = if *outcome { "commit" } else { "abort" };
                format!("Decide-{outcome} t{}", ix(*txn))
            }
            Msg::Wire(Remove { txns }) => format!("Remove [{}]", txn_list(txns.iter().copied())),
            Msg::Wire(RegisterForward { txn, .. }) => format!("RegisterForward t{}", ix(*txn)),
            Msg::Wire(ConfirmExternal { entries, .. }) => {
                format!("Confirm [{}]", txn_list(entries.iter().map(|(t, _)| *t)))
            }
            Msg::Wire(ReleaseExternal { txns }) => {
                format!("Release [{}]", txn_list(txns.iter().copied()))
            }
            Msg::Wire(StateQuery { .. }) => "StateQuery".into(),
            Msg::ReadRet(ret) => format!("ReadRet n{}", ret.from.index()),
            Msg::Vote(vote) => {
                let sign = if vote.ok { "+" } else { "-" };
                format!("Vote{sign} t{} n{}", ix(vote.txn), vote.from.index())
            }
            Msg::ExtAck(ack) => format!("ExtAck t{} n{}", ix(ack.txn), ack.from.index()),
            Msg::ConfirmAck(ack) => format!("ConfirmAck r{} n{}", ix(ack.txn), ack.from.index()),
        }
    }

    fn has_read_slice(&self, mask: u16) -> Vec<bool> {
        (0..self.cfg.nodes).map(|n| mask & bit(n) != 0).collect()
    }

    /// Puts one copy of `message` in flight to every node of `mask`.
    fn send(&self, s: &mut SssState, mask: u16, message: SssMessage) {
        for n in self.nodes_in(mask) {
            let copy = Msg::Wire(message.clone());
            s.msgs.push(Envelope::new(Dst::Node(n as u8), copy));
        }
    }

    fn start(&self, s: &mut SssState, t: usize) -> Result<(), String> {
        let origin = self.cfg.txns[t].origin();
        let begin = s.cluster.begin_vc(NodeId(origin));
        // External consistency, start side: a transaction beginning after
        // another's external commit must observe a snapshot dominating it.
        for (u, spec) in self.cfg.txns.iter().enumerate() {
            if spec.is_update() && s.clients[u].phase == Phase::Committed {
                if let Some(cvc) = &s.clients[u].commit_vc {
                    if !begin.dominates(cvc) {
                        return Err(format!(
                            "external consistency: t{t} began at n{origin} with a \
                             snapshot that does not dominate externally committed t{u}"
                        ));
                    }
                }
            }
        }
        s.clients[t].vc = begin;
        s.clients[t].phase = Phase::Read;
        if self.cfg.txns[t].reads().is_empty() {
            self.send_prepare(s, t);
        } else {
            self.send_read(s, t);
        }
        Ok(())
    }

    fn send_read(&self, s: &mut SssState, t: usize) {
        let spec = &self.cfg.txns[t];
        let c = &s.clients[t];
        let key = spec.reads()[c.next_read];
        let request = SssMessage::ReadRequest {
            txn: self.tid(t),
            key: self.keys[key as usize].clone(),
            vc: c.vc.clone(),
            has_read: self.has_read_slice(c.has_read),
            exclude: c.exclude.clone(),
            is_update: spec.is_update(),
            reply: self.reads[t].0.clone(),
        };
        self.send(s, bit(self.home(key)), request);
    }

    fn send_prepare(&self, s: &mut SssState, t: usize) {
        let c = &mut s.clients[t];
        c.phase = Phase::Vote;
        let key = |k: u8| self.keys[k as usize].clone();
        let observed = c.observed.iter();
        let written = self.cfg.txns[t].writes().iter();
        let prepare = SssMessage::Prepare {
            txn: self.tid(t),
            vc: c.vc.clone(),
            read_set: observed
                .map(|&(k, w)| (key(k), w.map(|w| self.tid(w as usize))))
                .collect(),
            write_set: written.map(|&k| (key(k), Value::empty())).collect(),
            reply: self.votes.0.clone(),
        };
        self.send(s, self.participants(t), prepare);
    }

    fn deliver(&self, s: &mut SssState, env: &Arc<Envelope>) -> Result<(), String> {
        match (&env.msg, env.dst) {
            (Msg::Wire(message), Dst::Node(n)) => {
                if s.dup_budget > 0 && matches!(message, SssMessage::Prepare { .. }) {
                    // The network duplicates this prepare once: the copy
                    // goes back into flight.
                    s.dup_budget -= 1;
                    s.msgs.push(Arc::clone(env));
                }
                self.step_node(s, n as usize, message.clone())
            }
            (Msg::ReadRet(ret), Dst::Client(t)) => self.client_read_ret(s, t as usize, ret),
            (Msg::Vote(vote), Dst::Client(t)) => {
                self.client_vote(s, t as usize, vote);
                Ok(())
            }
            (Msg::ExtAck(ack), Dst::Client(t)) => {
                self.client_ext_ack(s, t as usize, ack.from.index());
                Ok(())
            }
            (Msg::ConfirmAck(ack), Dst::Client(t)) => {
                self.client_confirm_ack(s, t as usize, ack.from.index());
                Ok(())
            }
            (Msg::ConfirmAck(ack), Dst::Node(n)) => {
                self.leader_confirm_ack(s, n as usize, *ack);
                Ok(())
            }
            (msg, dst) => unreachable!("{msg:?} is never addressed to {dst:?}"),
        }
    }

    // -- node side: the production handlers ---------------------------------

    /// Delivers `message` to node `i`'s production handler, puts what the
    /// handler sent and replied in flight, and checks the invariants that
    /// are about what a node does with a message.
    fn step_node(&self, s: &mut SssState, i: usize, message: SssMessage) -> Result<(), String> {
        let released: &[TxnId] = match &message {
            SssMessage::ReleaseExternal { txns } => txns,
            SssMessage::ConfirmExternal { release, .. } => release,
            _ => &[],
        };
        if let Some(t) = released.iter().find(|t| s.confirmed & bit(ix(**t)) == 0) {
            return Err(format!(
                "release overtook confirmation: n{i} processed t{}'s \
                 ReleaseExternal before its confirmation round completed",
                ix(*t)
            ));
        }
        if let SssMessage::ReadRequest {
            txn,
            has_read,
            is_update: false,
            ..
        } = &message
        {
            s.clients[ix(*txn)].awaiting_bound |= !has_read.contains(&true);
        }
        for (to, sent) in s.cluster.deliver(NodeId(i), message) {
            let dst = Dst::Node(to.index() as u8);
            s.msgs.push(Envelope::new(dst, Msg::Wire(sent)));
        }
        // A first read's visibility bound is computed when the request is
        // served, parked or deferred on the commit queue — in this step or,
        // behind a lagging `NLog`, a later one at this node. The writers
        // pre-committing on the key are the same after the step as at that
        // moment, so the ceilings the spec owes the reader are read off
        // here, whatever the handler did with them.
        for (t, spec) in self.cfg.txns.iter().enumerate() {
            let first = spec.reads().first().copied().unwrap_or(0);
            let bound_here = s.clients[t].awaiting_bound
                && self.home(first) == i
                && !s.cluster.awaits_bound(NodeId(i), self.tid(t));
            if bound_here {
                let (key, sid) = (&self.keys[first as usize], s.clients[t].vc.get(i));
                s.shadow[t] = s.cluster.precommit_ceilings(NodeId(i), key, sid);
                s.clients[t].awaiting_bound = false;
            }
        }
        // Every channel is drained before any reply is judged: a violation
        // must not leave replies behind for the next step to find.
        let mut served = Vec::new();
        for (t, channel) in self.reads.iter().enumerate() {
            served.extend(drain(channel).map(|ret| (t, ret)));
        }
        for vote in drain(&self.votes) {
            let dst = Dst::Client(ix(vote.txn) as u8);
            s.msgs.push(Envelope::new(dst, Msg::Vote(vote)));
        }
        for ack in drain(&self.ext_acks) {
            let dst = Dst::Client(ix(ack.txn) as u8);
            s.msgs.push(Envelope::new(dst, Msg::ExtAck(ack)));
        }
        for ack in drain(&self.confirm_acks) {
            // The round id names the leader: the members' common origin
            // when grouped, the committing client itself otherwise.
            let dst = match self.cfg.grouped_confirm {
                true => Dst::Node(ack.txn.origin.index() as u8),
                false => Dst::Client(ix(ack.txn) as u8),
            };
            s.msgs.push(Envelope::new(dst, Msg::ConfirmAck(ack)));
        }
        for (t, ret) in served {
            if !self.cfg.txns[t].is_update() {
                self.check_served(s, i, t, &ret)?;
            }
            s.msgs
                .push(Envelope::new(Dst::Client(t as u8), Msg::ReadRet(ret)));
        }
        Ok(())
    }

    /// Serve-time invariants of a read-only read, on the reply.
    fn check_served(
        &self,
        s: &SssState,
        i: usize,
        t: usize,
        ret: &ReadReturn,
    ) -> Result<(), String> {
        let Some(w) = ret.writer.map(ix) else {
            return Ok(()); // no version visible: nothing was observed
        };
        let version = s.clients[w].commit_vc.as_ref();
        let version = version.expect("an installed version's writer has decided");
        if !ret.vc.dominates(version) {
            return Err(format!(
                "snapshot bound: n{i} served t{t} a version above its visibility bound"
            ));
        }
        if s.confirmed & bit(w) == 0 {
            return Err(format!(
                "unconfirmed read: n{i} served t{t} a version of t{w} before \
                 t{w}'s confirmation round completed"
            ));
        }
        if s.shadow[t].iter().any(|c| version.dominates(c)) {
            return Err(format!(
                "exclusion stability: n{i} served t{t} a version at or above a \
                 ceiling that was excluded for it"
            ));
        }
        Ok(())
    }

    // -- the confirmation leader loop, scripted ------------------------------

    fn leader_confirm_ack(&self, s: &mut SssState, i: usize, ack: Ack) {
        let all = self.all_nodes_mask();
        let leader = &mut s.leaders[i];
        let Some(round) = leader.round.as_mut().filter(|r| r.id == ack.txn) else {
            return;
        };
        round.acks |= bit(ack.from.index());
        if round.acks != all {
            return;
        }
        let members = leader.round.take().expect("checked above").members;
        for &m in &members {
            s.confirmed |= bit(ix(m));
            s.clients[ix(m)].phase = Phase::Committed;
        }
        let leftover = leader.coal.round_completed(members, true);
        debug_assert!(leftover.is_none(), "piggybacked completion returns nothing");
    }

    fn coalesce(&self, s: &mut SssState, n: usize) {
        let window = self.cfg.confirm_window.max(1);
        let all = self.all_nodes_mask();
        match s.leaders[n].coal.next_round(window, false) {
            RoundPlan::Exit | RoundPlan::Linger => {}
            RoundPlan::Flush { release, remove } => {
                // Removes go first — they can unblock waiting external
                // commits.
                if !remove.is_empty() {
                    self.send(s, all, SssMessage::Remove { txns: remove });
                }
                if !release.is_empty() {
                    self.send(s, all, SssMessage::ReleaseExternal { txns: release });
                }
            }
            RoundPlan::Round {
                batch,
                release,
                remove,
            } => {
                let members: Vec<TxnId> = batch.iter().map(|p| p.txn).collect();
                s.leaders[n].round = Some(Round {
                    id: members[0],
                    members: members.clone(),
                    acks: 0,
                });
                let confirm = SssMessage::ConfirmExternal {
                    entries: batch.into_iter().map(|p| (p.txn, p.commit_vc)).collect(),
                    release,
                    remove,
                    reply: self.confirm_acks.0.clone(),
                };
                self.send(s, all, confirm);
                if self.cfg.mutation == Some(Mutation::PrematureRelease) {
                    // Seeded bug: the release rides out with the round
                    // instead of waiting for its acks.
                    self.send(s, all, SssMessage::ReleaseExternal { txns: members });
                }
            }
        }
    }

    // -- client side: what `Session` sends, scripted -------------------------

    fn client_read_ret(&self, s: &mut SssState, t: usize, ret: &ReadReturn) -> Result<(), String> {
        if s.clients[t].phase != Phase::Read {
            return Ok(());
        }
        let spec = &self.cfg.txns[t];
        let c = &mut s.clients[t];
        c.vc.merge(&ret.vc);
        c.observed
            .push((spec.reads()[c.next_read], ret.writer.map(|w| ix(w) as u8)));
        if spec.is_update() {
            let entries = ret.propagated.iter();
            c.propagated
                .extend(entries.map(|p| (ix(p.txn) as u8, p.sid)));
        } else {
            c.has_read |= bit(ret.from.index());
            for ceiling in &ret.excluded {
                if !c.exclude.contains(ceiling) {
                    c.exclude.push(Arc::clone(ceiling));
                }
            }
        }
        c.next_read += 1;
        if c.next_read < spec.reads().len() {
            self.send_read(s, t);
        } else if spec.is_update() {
            self.send_prepare(s, t);
        } else {
            self.finish_ro(s, t)?;
        }
        Ok(())
    }

    fn client_vote(&self, s: &mut SssState, t: usize, vote: &Vote) {
        let from = vote.from.index();
        let c = &mut s.clients[t];
        if c.phase != Phase::Vote || c.votes & bit(from) != 0 {
            return;
        }
        c.votes |= bit(from);
        let decide = |outcome, commit_vc, propagated| SssMessage::Decide {
            txn: self.tid(t),
            commit_vc,
            outcome,
            propagated,
            ack_reply: self.ext_acks.0.clone(),
        };
        if !vote.ok {
            c.phase = Phase::Aborted;
            let abort = decide(false, Vc::new(self.cfg.nodes), Vec::new());
            return self.send(s, self.participants(t), abort);
        }
        c.vc.merge(&vote.vc);
        if c.votes != self.participants(t) {
            return;
        }
        let writers = self.write_mask(t);
        let mut cvc = c.vc.clone();
        // xact-vn equalization over the write replicas.
        let write_indices: Vec<usize> = self.nodes_in(writers).collect();
        protocol::finalize_commit_vc(&mut cvc, &write_indices);
        c.commit_vc = Some(Arc::new(cvc.clone()));
        c.phase = Phase::ExtWait;
        let mut readers: Vec<u8> = c.propagated.iter().map(|&(ro, _)| ro).collect();
        let propagated = c.propagated.iter().map(|&(ro, sid)| PropagatedEntry {
            txn: self.tid(ro as usize),
            sid,
        });
        let commit = decide(true, cvc, propagated.collect());
        self.send(s, self.participants(t), commit);
        // Every read-only transaction whose entry rides this commit learns,
        // at its origin, where its `Remove` must also go (§III-C).
        readers.sort_unstable();
        readers.dedup();
        for ro in readers {
            let forward = SssMessage::RegisterForward {
                txn: self.tid(ro as usize),
                targets: self.nodes_in(writers).map(NodeId).collect(),
            };
            self.send(s, bit(self.cfg.txns[ro as usize].origin()), forward);
        }
    }

    fn client_ext_ack(&self, s: &mut SssState, t: usize, from: usize) {
        let c = &mut s.clients[t];
        if c.phase != Phase::ExtWait {
            return;
        }
        c.ext_acks |= bit(from);
        if c.ext_acks != self.write_mask(t) {
            return;
        }
        c.phase = Phase::ConfirmWait;
        let cvc = c.commit_vc.clone().expect("decided commit clock");
        if self.cfg.grouped_confirm {
            let origin = self.cfg.txns[t].origin();
            // Leading is observable as an enabled Coalesce action.
            let _leads = s.leaders[origin].coal.enqueue(self.tid(t), cvc, ());
        } else {
            let confirm = SssMessage::ConfirmExternal {
                entries: vec![(self.tid(t), cvc)],
                release: Vec::new(),
                remove: Vec::new(),
                reply: self.confirm_acks.0.clone(),
            };
            self.send(s, self.all_nodes_mask(), confirm);
        }
    }

    fn client_confirm_ack(&self, s: &mut SssState, t: usize, from: usize) {
        let c = &mut s.clients[t];
        if c.phase != Phase::ConfirmWait {
            return;
        }
        c.confirm_acks |= bit(from);
        if c.confirm_acks != self.all_nodes_mask() {
            return;
        }
        s.confirmed |= bit(t);
        c.phase = Phase::Committed;
        let txns = vec![self.tid(t)];
        self.send(s, self.write_mask(t), SssMessage::ReleaseExternal { txns });
    }

    fn finish_ro(&self, s: &mut SssState, t: usize) -> Result<(), String> {
        // External consistency, completion side: a read-only transaction
        // never completes having observed an unconfirmed writer.
        for &(_, w) in &s.clients[t].observed {
            if let Some(w) = w {
                if s.confirmed & bit(w as usize) == 0 {
                    return Err(format!(
                        "external consistency: read-only t{t} completed having \
                         observed t{w}, whose confirmation round has not completed"
                    ));
                }
            }
        }
        s.clients[t].phase = Phase::Committed;
        let spec = &self.cfg.txns[t];
        let (origin, txn) = (spec.origin(), self.tid(t));
        let forwarded = s.cluster.complete_read_only(NodeId(origin), txn);
        if self.cfg.grouped_confirm && s.leaders[origin].coal.queue_remove(txn) {
            return Ok(()); // rides the leader's next round, to every node
        }
        let extra = forwarded.iter().fold(0, |mask, n| mask | bit(n.index()));
        let remove = SssMessage::Remove { txns: vec![txn] };
        self.send(s, self.homes(spec.reads()) | extra, remove);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{bfs_check, CheckConfig};

    #[test]
    fn premature_release_yields_a_minimal_counterexample() {
        let model = SssModel::new(ModelConfig::mutated(Mutation::PrematureRelease));
        let report = bfs_check(&model, &CheckConfig::default());
        let cx = report.violation.expect("the seeded bug must be found");
        assert!(cx.invariant.contains("release overtook confirmation"));
        assert!(
            cx.actions.len() <= 40,
            "trace too long: {}",
            cx.actions.len()
        );
    }

    #[test]
    fn single_writer_singleton_confirm_verifies() {
        let cfg = ModelConfig {
            nodes: 2,
            txns: vec![TxnSpec::Update {
                origin: 0,
                reads: vec![],
                writes: vec![0],
            }],
            grouped_confirm: false,
            confirm_window: 1,
            duplicate_prepare_budget: 0,
            mutation: None,
        };
        let report = bfs_check(&SssModel::new(cfg), &CheckConfig::default());
        assert!(report.verified(), "violation: {:?}", report.violation);
    }

    /// An update that reads a key a read-only transaction is queued on and
    /// writes elsewhere carries the reader's entry to its write replica:
    /// `RegisterForward` and the forwarded `Remove` must drain it in every
    /// interleaving (no pinned configuration sends a `RegisterForward`).
    #[test]
    fn a_propagated_read_entry_is_removed_through_its_forward_target() {
        let cfg = ModelConfig {
            txns: vec![
                TxnSpec::ReadOnly {
                    origin: 0,
                    reads: vec![0],
                },
                TxnSpec::Update {
                    origin: 1,
                    reads: vec![0],
                    writes: vec![1],
                },
            ],
            ..ModelConfig::clean_2n2t()
        };
        let report = bfs_check(&SssModel::new(cfg), &CheckConfig::default());
        assert!(report.verified(), "violation: {:?}", report.violation);
        assert_eq!(report.unique_states, 498);
    }
}
