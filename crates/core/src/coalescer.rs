//! The pure decision core of the epoch-grouped confirmation coalescer.
//!
//! [`CoalescerCore`] is the state machine the real coalescer
//! (`node/confirm.rs`) drives under its mutex: membership pushes, the
//! leader's round planning (exit / linger / standalone flush / full round)
//! and the completion bookkeeping are all decided here, over plain data,
//! with no locks, threads, timers or transport. The production code wraps
//! one `Mutex<CoalescerCore<ReplySender<bool>>>`; the `sss-model`
//! interleaving harness drives the very same type step by step through
//! every schedule of a membership push racing a leader drain, which is how
//! the leadership-handoff ("no lost wakeup") and
//! release-never-overtakes-confirmation obligations are checked
//! exhaustively rather than probabilistically.
//!
//! Invariants encoded here (and asserted by the harness):
//!
//! * **Single leader**: [`CoalescerCore::enqueue`] returns `true` (caller
//!   must lead) iff no leader was active; the flag is cleared only by the
//!   leader's own [`RoundPlan::Exit`] decision.
//! * **No lost wakeup**: [`CoalescerCore::next_round`] returns `Exit` only
//!   when every queue is empty, under the same critical section as the
//!   pushes — a member enqueued before the exit check is always covered by
//!   a later plan of the same leader.
//! * **Release never overtakes confirmation**: members enter
//!   `pending_release` only via [`CoalescerCore::round_completed`], i.e.
//!   only after their own round collected its acks, so a release list can
//!   never carry a transaction whose confirmation round is still in
//!   flight.

use std::sync::Arc;

use sss_storage::TxnId;
use sss_vclock::VectorClock;

/// One update transaction waiting for a grouped confirmation round.
/// `W` is the caller's completion handle (a reply channel in production,
/// a plain marker in the model).
#[derive(Debug, Clone)]
pub struct PendingConfirm<W> {
    /// The committing update transaction.
    pub txn: TxnId,
    /// Its final commit vector clock (shared with the round's envelope).
    pub commit_vc: Arc<VectorClock>,
    /// Where the round leader reports the round outcome.
    pub waiter: W,
}

/// What the leader must do next, decided under the coalescer lock.
#[derive(Debug)]
pub enum RoundPlan<W> {
    /// Every queue is empty: clear the leader flag and return. Decided in
    /// the same critical section as membership pushes, so no member can be
    /// stranded behind the exit.
    Exit,
    /// The pending window is under-full and the caller may wait for it to
    /// fill: drop the lock, linger, and plan again. Never chosen twice in a
    /// row, and never before the leader's first round.
    Linger,
    /// No confirm batch, but piggyback payloads remain and no carrier is
    /// coming: flush them as standalone `Remove` / `ReleaseExternal`
    /// broadcasts (removes first — they can unblock waiting external
    /// commits).
    Flush {
        /// Completed members awaiting their `ReleaseExternal`.
        release: Vec<TxnId>,
        /// Completed read-only transactions awaiting their `Remove`.
        remove: Vec<TxnId>,
    },
    /// Run a confirmation round carrying `batch`, with the release/remove
    /// payloads of *previously completed* rounds piggybacked.
    Round {
        /// The members of this round (at most the window size).
        batch: Vec<PendingConfirm<W>>,
        /// Piggybacked releases of already-completed rounds.
        release: Vec<TxnId>,
        /// Piggybacked removes of completed read-only transactions.
        remove: Vec<TxnId>,
    },
}

/// The coalescer's decision state. See the module documentation.
#[derive(Debug, Clone)]
pub struct CoalescerCore<W> {
    /// `true` while a leader is driving rounds.
    in_flight: bool,
    pending: Vec<PendingConfirm<W>>,
    /// Completed rounds' members awaiting their `ReleaseExternal`.
    pending_release: Vec<TxnId>,
    /// Completed read-only transactions whose `Remove` rides the next
    /// round.
    pending_remove: Vec<TxnId>,
}

impl<W> Default for CoalescerCore<W> {
    fn default() -> Self {
        CoalescerCore {
            in_flight: false,
            pending: Vec::new(),
            pending_release: Vec::new(),
            pending_remove: Vec::new(),
        }
    }
}

impl<W> CoalescerCore<W> {
    /// An idle coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a committing transaction for the next round. Returns `true`
    /// iff the caller observed no active leader and must lead rounds itself
    /// (the flag is set atomically with the push, so exactly one caller
    /// leads).
    pub fn enqueue(&mut self, txn: TxnId, commit_vc: Arc<VectorClock>, waiter: W) -> bool {
        self.pending.push(PendingConfirm {
            txn,
            commit_vc,
            waiter,
        });
        !std::mem::replace(&mut self.in_flight, true)
    }

    /// Piggybacks a completed read-only transaction's `Remove` on the next
    /// round if a leader is active. Returns `false` when idle — the caller
    /// must send a targeted `Remove` itself (parking the remove on an idle
    /// coalescer would hold blocked writers indefinitely).
    pub fn queue_remove(&mut self, txn: TxnId) -> bool {
        if self.in_flight {
            self.pending_remove.push(txn);
            true
        } else {
            false
        }
    }

    /// The leader's per-iteration decision. `window` bounds the batch size;
    /// `may_linger` is `true` when the caller is willing to pause for the
    /// window to fill (the production leader passes `false` before its
    /// first round and after having already lingered once).
    ///
    /// `Exit` clears the leader flag; every other plan keeps it set.
    pub fn next_round(&mut self, window: usize, may_linger: bool) -> RoundPlan<W> {
        if self.pending.is_empty()
            && self.pending_release.is_empty()
            && self.pending_remove.is_empty()
        {
            self.in_flight = false;
            return RoundPlan::Exit;
        }
        if may_linger && self.pending.len() < window {
            return RoundPlan::Linger;
        }
        let take = self.pending.len().min(window.max(1));
        let batch: Vec<PendingConfirm<W>> = self.pending.drain(..take).collect();
        let release = std::mem::take(&mut self.pending_release);
        let remove = std::mem::take(&mut self.pending_remove);
        if batch.is_empty() {
            RoundPlan::Flush { release, remove }
        } else {
            RoundPlan::Round {
                batch,
                release,
                remove,
            }
        }
    }

    /// Records a completed round: with `piggyback` — what production always
    /// passes — its members' releases ride the next plan (returns `None`);
    /// without it, the caller must broadcast the returned release list
    /// immediately. It is a parameter with one value in use only because
    /// the repository benchmark pins this signature (ROADMAP item 6(c)).
    pub fn round_completed(&mut self, members: Vec<TxnId>, piggyback: bool) -> Option<Vec<TxnId>> {
        if piggyback {
            self.pending_release.extend(members);
            None
        } else {
            Some(members)
        }
    }

    /// `true` while a leader is driving rounds.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Queued members not yet covered by a round plan.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Completed members whose release has not yet found a carrier.
    pub fn pending_release_len(&self) -> usize {
        self.pending_release.len()
    }

    /// Completed read-only transactions whose remove has not yet found a
    /// carrier.
    pub fn pending_remove_len(&self) -> usize {
        self.pending_remove.len()
    }

    /// Queued members in arrival order (model-checker state encoding).
    pub fn pending_txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.pending.iter().map(|p| p.txn)
    }

    /// Releases awaiting a carrier, in completion order.
    pub fn pending_release_txns(&self) -> &[TxnId] {
        &self.pending_release
    }

    /// Removes awaiting a carrier, in completion order.
    pub fn pending_remove_txns(&self) -> &[TxnId] {
        &self.pending_remove
    }
}

/// The round identifier used by the handler-side ack dedup: the first
/// member's transaction.
pub fn round_id<W>(batch: &[PendingConfirm<W>]) -> Option<TxnId> {
    batch.first().map(|p| p.txn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_vclock::NodeId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    fn vc() -> Arc<VectorClock> {
        Arc::new(VectorClock::new(2))
    }

    fn members<W>(plan: &RoundPlan<W>) -> Vec<TxnId> {
        match plan {
            RoundPlan::Round { batch, .. } => batch.iter().map(|p| p.txn).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn first_enqueue_leads_followers_do_not() {
        let mut core: CoalescerCore<()> = CoalescerCore::new();
        assert!(core.enqueue(txn(1), vc(), ()));
        assert!(!core.enqueue(txn(2), vc(), ()));
        assert!(core.in_flight());
    }

    #[test]
    fn window_one_is_singleton_round_per_txn_in_order() {
        // `confirm_epoch_max == 1` must reproduce the base protocol: one
        // round per transaction, in arrival order.
        let mut core: CoalescerCore<()> = CoalescerCore::new();
        assert!(core.enqueue(txn(1), vc(), ()));
        assert!(!core.enqueue(txn(2), vc(), ()));
        let plan = core.next_round(1, false);
        assert_eq!(members(&plan), vec![txn(1)]);
        assert!(core.round_completed(vec![txn(1)], false).is_some());
        let plan = core.next_round(1, false);
        assert_eq!(members(&plan), vec![txn(2)]);
        assert!(core.round_completed(vec![txn(2)], false).is_some());
        assert!(matches!(core.next_round(1, false), RoundPlan::Exit));
        assert!(!core.in_flight());
    }

    #[test]
    fn exit_only_with_all_queues_empty() {
        let mut core: CoalescerCore<()> = CoalescerCore::new();
        assert!(core.enqueue(txn(1), vc(), ()));
        let plan = core.next_round(8, false);
        assert_eq!(members(&plan), vec![txn(1)]);
        // Piggybacked release left behind: the leader must not exit.
        assert!(core.round_completed(vec![txn(1)], true).is_none());
        match core.next_round(8, false) {
            RoundPlan::Flush { release, remove } => {
                assert_eq!(release, vec![txn(1)]);
                assert!(remove.is_empty());
            }
            other => panic!("expected a standalone flush, got {other:?}"),
        }
        assert!(matches!(core.next_round(8, false), RoundPlan::Exit));
    }

    #[test]
    fn remove_piggybacks_only_while_a_leader_is_active() {
        let mut core: CoalescerCore<()> = CoalescerCore::new();
        assert!(!core.queue_remove(txn(9)), "idle coalescer must refuse");
        assert!(core.enqueue(txn(1), vc(), ()));
        assert!(core.queue_remove(txn(9)));
        match core.next_round(8, false) {
            RoundPlan::Round { remove, .. } => assert_eq!(remove, vec![txn(9)]),
            other => panic!("expected a round, got {other:?}"),
        }
    }

    #[test]
    fn linger_is_offered_only_on_underfull_windows() {
        let mut core: CoalescerCore<()> = CoalescerCore::new();
        assert!(core.enqueue(txn(1), vc(), ()));
        assert!(matches!(core.next_round(8, true), RoundPlan::Linger));
        // The linger did not consume the member.
        assert_eq!(core.pending_len(), 1);
        assert!(!core.enqueue(txn(2), vc(), ()));
        let plan = core.next_round(2, true);
        assert_eq!(members(&plan), vec![txn(1), txn(2)]);
    }
}
