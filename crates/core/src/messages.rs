//! Protocol messages exchanged by SSS nodes.
//!
//! Message names follow the paper: `READREQUEST` / `READRETURN`
//! (Algorithms 5 and 6), `Prepare` / `Vote` / `Decide` (Algorithms 1 and 2),
//! `Ack` (Algorithm 4) and `Remove` (§III-C). One extra message,
//! [`SssMessage::RegisterForward`], implements the Remove-forwarding rule of
//! §III-C for transitively propagated anti-dependencies (see the crate-level
//! documentation for the exact mechanism).
//!
//! Replies (`READRETURN`, `Vote`, `Ack`) are delivered through
//! [`ReplySender`] handles embedded in the request, which reproduces the
//! "fastest replica wins" behaviour of read operations without a separate
//! correlation layer.

use sss_net::{Priority, ReplySender};
use sss_storage::{Key, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

/// A read-only transaction entry propagated through snapshot-queues
/// (`<T'.id, T'.sid, "R">` in Algorithm 3 line 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropagatedEntry {
    /// The read-only transaction.
    pub txn: TxnId,
    /// Its insertion-snapshot in the queue it was observed in.
    pub sid: u64,
}

/// Reply to a `READREQUEST` (Algorithm 6 line 28).
#[derive(Debug, Clone, Hash)]
pub struct ReadReturn {
    /// Node that answered (used to set `T.hasRead`).
    pub from: NodeId,
    /// The selected version's value; `None` if the key has no visible
    /// version (never written within the transaction's visibility bound).
    pub value: Option<Value>,
    /// The transaction that produced the selected version (`None` when no
    /// version was visible). Update transactions remember it in their
    /// read-set so that commit-time validation can check that "the latest
    /// version of a key matches the read one" (paper §III-B).
    pub writer: Option<TxnId>,
    /// `maxVC`, merged into the reader's vector clock (`VC*` in Algorithm 5).
    pub vc: VectorClock,
    /// Commit vector clocks of the pre-committing update transactions this
    /// read *excluded* from the reader's snapshot (their insertion-snapshot
    /// lay beyond the reader's visibility bound, Algorithm 6 lines 7-8).
    /// The client accumulates them into the transaction's exclusion set,
    /// which acts as a family of *ceilings* on every later read: a version
    /// whose commit vector clock dominates an excluded clock is never
    /// returned. The ceiling — rather than a writer-id filter — is what
    /// keeps the snapshot consistent transitively: an update transaction
    /// that read the excluded writer's (pre-committed) data carries a
    /// dominating commit clock, so its versions are filtered too, even
    /// though it may externally commit before the excluded writer does.
    pub excluded: Vec<std::sync::Arc<VectorClock>>,
    /// Read-only entries found in the key's snapshot-queue; only populated
    /// for update-transaction reads (Algorithm 6 line 25).
    pub propagated: Vec<PropagatedEntry>,
}

/// A participant's vote in the 2PC prepare phase (Algorithm 2 lines 5/13).
#[derive(Debug, Clone, Hash)]
pub struct Vote {
    /// The voting participant.
    pub from: NodeId,
    /// The transaction being voted on.
    pub txn: TxnId,
    /// `true` if locks were acquired and validation succeeded.
    pub ok: bool,
    /// The participant's proposed commit vector clock.
    pub vc: VectorClock,
}

/// A participant's acknowledgement that the transaction externally committed
/// on its side (Algorithm 4 line 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ack {
    /// The acknowledging write replica.
    pub from: NodeId,
    /// The transaction whose Pre-Commit phase completed at `from`.
    pub txn: TxnId,
}

/// Reply to a [`SssMessage::StateQuery`]: the peer's view of the cluster's
/// confirmed snapshot, merged by a restarting node into its `confirmed_vc`.
#[derive(Debug, Clone)]
pub struct StateReply {
    /// The answering peer.
    pub from: NodeId,
    /// The peer's begin snapshot (`NLog.mostRecentVC` merged with its
    /// `confirmed_vc`): covers every update transaction whose global
    /// external commit the peer has learned of.
    pub vc: VectorClock,
}

/// The SSS wire protocol.
#[derive(Debug, Clone)]
pub enum SssMessage {
    /// `READREQUEST[k, T.VC, T.hasRead, T.isUpdate]` (Algorithm 5 line 9).
    ReadRequest {
        /// The reading transaction.
        txn: TxnId,
        /// Key to read.
        key: Key,
        /// The transaction's current vector clock (`T.VC`).
        vc: VectorClock,
        /// Which nodes the transaction has already read from.
        has_read: Vec<bool>,
        /// Exclusion ceilings accumulated by the transaction so far (see
        /// [`ReadReturn::excluded`]): version selection skips any version
        /// whose commit vector clock dominates one of these, keeping the
        /// snapshot consistent across keys. Always empty for update
        /// transactions.
        exclude: Vec<std::sync::Arc<VectorClock>>,
        /// `true` for update transactions (they always read `k.last`).
        is_update: bool,
        /// Where to deliver the `READRETURN`.
        reply: ReplySender<ReadReturn>,
    },
    /// 2PC `Prepare[T]` (Algorithm 1 line 11).
    Prepare {
        /// The committing update transaction.
        txn: TxnId,
        /// The transaction's vector clock at commit time (used for read
        /// validation).
        vc: VectorClock,
        /// Keys read by the transaction together with the writer of the
        /// version that was observed (each participant validates and locks
        /// the subset it replicates).
        read_set: Vec<(Key, Option<TxnId>)>,
        /// Keys written by the transaction with their new values.
        write_set: Vec<(Key, Value)>,
        /// Where to deliver the `Vote`.
        reply: ReplySender<Vote>,
    },
    /// 2PC `Decide[T, commitVC, outcome]` (Algorithm 1 line 25), extended
    /// with the transitively propagated read-only entries (Algorithm 3
    /// lines 4-6) and the reply handle used for the external-commit `Ack`.
    Decide {
        /// The update transaction.
        txn: TxnId,
        /// Final commit vector clock (meaningful only when `outcome`).
        commit_vc: VectorClock,
        /// `true` to commit, `false` to abort.
        outcome: bool,
        /// `T.PropagatedSet`: read-only entries to re-insert into the
        /// snapshot-queues of the written keys.
        propagated: Vec<PropagatedEntry>,
        /// Where write replicas deliver their external-commit `Ack`.
        ack_reply: ReplySender<Ack>,
    },
    /// `Remove[T..]`: the read-only transactions in `txns` returned to their
    /// clients; delete their entries from every local snapshot-queue
    /// (§III-C). Carrying a batch of transactions per message is the GC
    /// coalescing of the round-reduction optimisation: the per-transaction
    /// multicast becomes one message per destination per epoch.
    Remove {
        /// The completed read-only transactions.
        txns: Vec<TxnId>,
    },
    /// `ConfirmExternal[(T, commitVC)..]`: the coordinator collected the
    /// external-commit `Ack` of **every** write replica for each update
    /// transaction in `entries` — those transactions are now globally
    /// externally committed. Broadcast to every node; each node merges every
    /// entry's `commit_vc` into its `confirmed_vc` (so that transactions
    /// beginning there afterwards start from a snapshot covering the whole
    /// group) and answers with a single `Ack`. The coordinator responds to
    /// the grouped transactions' clients only after every node acknowledged,
    /// so a transaction that *starts* after any of those client responses is
    /// guaranteed to serialize after the corresponding entry — the
    /// cross-node completion-order guarantee, amortized over an epoch of
    /// concurrent committers (one round per coordinator epoch instead of one
    /// per transaction).
    ///
    /// Note that this message does **not** release read-only reads parked on
    /// the entries themselves: it is necessarily processed *before* their
    /// client responses, and a reader that observed an entry's versions must
    /// not respond earlier than that entry does. The `release` list —
    /// transactions whose *previous* confirmation round already completed —
    /// piggybacks that release step on this round instead of a dedicated
    /// [`SssMessage::ReleaseExternal`] broadcast, and `remove` likewise
    /// carries completed read-only transactions whose snapshot-queue entries
    /// can be dropped. Removes are processed first (they can unblock
    /// waiting external commits), then the confirmations, then the releases.
    ConfirmExternal {
        /// The globally externally committed update transactions, each with
        /// its commit vector clock.
        entries: Vec<(TxnId, std::sync::Arc<VectorClock>)>,
        /// Piggybacked `ReleaseExternal` payload: transactions whose
        /// confirmation round completed before this one was sent.
        release: Vec<TxnId>,
        /// Piggybacked `Remove` payload: completed read-only transactions.
        remove: Vec<TxnId>,
        /// Where to deliver this node's acknowledgement. The `Ack.txn` is
        /// the round id: the first entry's transaction.
        reply: ReplySender<Ack>,
    },
    /// `ReleaseExternal[T..]`: the confirmation rounds for `txns` completed
    /// (their clients are being answered); write replicas drop them from
    /// their locally-acked-but-unconfirmed set and serve any read-only read
    /// parked on them. Readers released here respond after the writers'
    /// confirmation rounds, so every transaction starting after *their*
    /// responses also starts after the writers are globally visible.
    ///
    /// Sent standalone only when no follow-up `ConfirmExternal` round is
    /// available as a carrier (the coalescer drained its queue).
    ReleaseExternal {
        /// The update transactions whose parked readers may now be answered.
        txns: Vec<TxnId>,
    },
    /// Registers additional `Remove` targets for a read-only transaction at
    /// its coordinator node. Sent by the coordinator of an update
    /// transaction that propagated `txn`'s entry into the snapshot-queues of
    /// its written keys (the nodes in `targets`), so that `txn`'s completion
    /// eventually reaches them (§III-C, transitive anti-dependencies).
    RegisterForward {
        /// The read-only transaction whose entry was propagated.
        txn: TxnId,
        /// Nodes whose snapshot-queues now hold a propagated entry of `txn`.
        targets: Vec<NodeId>,
    },
    /// Recovery round: a restarting node asks a peer for its view of the
    /// confirmed snapshot. A crash wipes the node's volatile `confirmed_vc`
    /// (the clocks of globally externally committed transactions), and
    /// restarting with a stale snapshot would let fresh read-only
    /// transactions begin *before* already-confirmed writers — an external
    /// consistency violation. The node stays unavailable to colocated
    /// clients until it merged every reachable peer's [`StateReply`].
    StateQuery {
        /// Where to deliver the peer's [`StateReply`].
        reply: ReplySender<StateReply>,
    },
}

impl SssMessage {
    /// The network priority class of this message: the one place that
    /// knows it (every send goes through `SssNode::{send, multicast,
    /// send_batch}`, which ask here).
    ///
    /// `Remove`, `Decide` and `RegisterForward` unblock external commits and
    /// are therefore prioritized, mirroring the paper's optimized network
    /// component (§V).
    pub fn priority(&self) -> Priority {
        match self {
            SssMessage::Remove { .. }
            | SssMessage::Decide { .. }
            | SssMessage::RegisterForward { .. }
            | SssMessage::ConfirmExternal { .. }
            | SssMessage::ReleaseExternal { .. }
            | SssMessage::StateQuery { .. } => Priority::High,
            SssMessage::ReadRequest { .. } | SssMessage::Prepare { .. } => Priority::Normal,
        }
    }

    /// Short human-readable name used in traces and statistics.
    pub fn kind(&self) -> &'static str {
        Self::KIND_LABELS[self.kind_index()]
    }

    /// Labels for the per-kind message counters, indexed by
    /// [`SssMessage::kind_index`].
    pub const KIND_LABELS: [&'static str; 8] = [
        "ReadRequest",
        "Prepare",
        "Decide",
        "Remove",
        "RegisterForward",
        "ConfirmExternal",
        "ReleaseExternal",
        "StateQuery",
    ];

    /// Dense index of this message's kind, used as the per-kind counter slot
    /// in [`sss_net::MailboxStats`] (always `< MESSAGE_KIND_SLOTS`).
    pub fn kind_index(&self) -> usize {
        match self {
            SssMessage::ReadRequest { .. } => 0,
            SssMessage::Prepare { .. } => 1,
            SssMessage::Decide { .. } => 2,
            SssMessage::Remove { .. } => 3,
            SssMessage::RegisterForward { .. } => 4,
            SssMessage::ConfirmExternal { .. } => 5,
            SssMessage::ReleaseExternal { .. } => 6,
            SssMessage::StateQuery { .. } => 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::reply_channel;

    #[test]
    fn critical_messages_have_high_priority() {
        let remove = SssMessage::Remove {
            txns: vec![TxnId::new(NodeId(0), 1)],
        };
        assert_eq!(remove.priority(), Priority::High);
        assert_eq!(remove.kind(), "Remove");
        assert_eq!(SssMessage::KIND_LABELS[remove.kind_index()], remove.kind());

        let (reply, _rx) = reply_channel(1);
        let read = SssMessage::ReadRequest {
            txn: TxnId::new(NodeId(0), 1),
            key: Key::new("x"),
            vc: VectorClock::new(2),
            has_read: vec![false, false],
            exclude: Vec::new(),
            is_update: false,
            reply,
        };
        assert_eq!(read.priority(), Priority::Normal);
        assert_eq!(read.kind(), "ReadRequest");
    }

    #[test]
    fn messages_are_cloneable_for_multicast() {
        let (reply, rx) = reply_channel(2);
        let msg = SssMessage::ReadRequest {
            txn: TxnId::new(NodeId(1), 7),
            key: Key::new("k"),
            vc: VectorClock::new(2),
            has_read: vec![false, false],
            exclude: Vec::new(),
            is_update: true,
            reply,
        };
        let clone = msg.clone();
        // Both copies answer into the same reply channel.
        for m in [msg, clone] {
            if let SssMessage::ReadRequest { reply, .. } = m {
                reply.send(ReadReturn {
                    from: NodeId(0),
                    value: None,
                    writer: None,
                    vc: VectorClock::new(2),
                    excluded: Vec::new(),
                    propagated: Vec::new(),
                });
            }
        }
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_some());
    }
}
