//! Epoch-grouped external-commit confirmation (the round coalescer), the one
//! way an SSS update transaction confirms.
//!
//! The paper's protocol runs one `ConfirmExternal` broadcast-and-ack round
//! per committed update transaction — the completion-order barrier that
//! makes client-observed completions match the serialization order (paper
//! §III-C; the §V priority discussion identifies this fan-out as the
//! external-commit cost center). The coalescer amortizes that round over a
//! *coordinator epoch*: one broadcast confirms every update transaction that
//! pre-committed on this node while the previous round was in flight (up to
//! [`CONFIRM_EPOCH`] per round), and the `ReleaseExternal` / read-only
//! `Remove` traffic of completed transactions piggybacks inside the same
//! envelope instead of travelling as dedicated messages.
//!
//! # Self-clocking rounds, bounded linger
//!
//! The coalescer is *self-clocking*: the first committer to arrive while no
//! round is in flight becomes the **leader** and drives rounds until the
//! queue drains; committers arriving while a round is in flight enqueue and
//! wait for their round's result. A lone committer leads a singleton round
//! immediately — exactly the base protocol's round — while a loaded
//! coordinator amortizes one broadcast over the whole window. Rounds on a
//! fast network complete well before a window's worth of committers can
//! arrive, so between the rounds of one burst — never before the first —
//! the leader lingers for [`CONFIRM_LINGER`] to let the next round fill (and
//! to give completed members' piggybacked releases a carrier). The wait for
//! a queued committer is therefore bounded by one in-flight round plus one
//! linger.
//!
//! The *leader* pays the linger even when it is alone. It is the committing
//! client's own thread, and it returns to its client only when the loop
//! exits: after its own round the confirm queue is empty but the release it
//! just queued is not, so the next plan is `Linger`, and the thread sleeps
//! [`CONFIRM_LINGER`] before flushing that release and returning. An
//! uncontended update therefore costs one round **plus the linger** — the
//! benchmark's `update_p50_us` is ≈ 1 ms on `commit_path` (one client per
//! coordinator, wall clock, one process pinned to one CPU of a 2-vCPU shared
//! VM) and 857 µs on `net_delay` (virtual time: 800 µs + one 55 µs hop).
//! ROADMAP item 1 (an ack-clocked coalescer) deletes the sleep.
//!
//! Membership push and the leader's exit check run under the same lock, so a
//! committer either enqueues before the leader's final emptiness check (and
//! is covered by another round) or observes `in_flight == false` and leads
//! itself — no lost wakeups.
//!
//! # Why grouping is safe
//!
//! Grouping only *delays client responses*; it never advances them. Each
//! member's client is answered only after every node acknowledged a round
//! carrying the member's commit vector clock, so the base protocol's
//! guarantee — a transaction starting after the response, anywhere, begins
//! from a snapshot covering the member — holds per member exactly as in the
//! paper's per-transaction rounds. Parked read-only reads are still released
//! only *after* their writer's round completed (the release rides the next
//! round or a standalone flush, both of which are sent only once the
//! writer's round collected all of its acks), so a release can never
//! overtake its confirmation at any node, even under fault-plan reordering.
//! The commit-queue ambiguity deferral and the snapshot pinning of read-only
//! transactions are decided entirely by vector clocks and queue contents,
//! which grouping does not alter.

use std::sync::Arc;

use parking_lot::Mutex;
use sss_net::{reply_channel, ReplySender};
use sss_storage::TxnId;
use sss_vclock::{NodeId, VectorClock};

use crate::coalescer::{round_id, CoalescerCore, RoundPlan};
use crate::config::{ACK_TIMEOUT, CONFIRM_EPOCH, CONFIRM_LINGER};
use crate::messages::SssMessage;
use crate::session::collect_acks;

use super::SssNode;

/// Per-node grouped-confirmation state: the pure decision core
/// ([`CoalescerCore`], shared with the `sss-model` interleaving harness)
/// behind the node's coalescer mutex. The waiter payload is the reply
/// channel on which the round leader reports the outcome (`true` iff every
/// node acknowledged).
#[derive(Default)]
pub(crate) struct ConfirmCoalescer {
    state: Mutex<CoalescerCore<ReplySender<bool>>>,
}

impl ConfirmCoalescer {
    /// Crash-stop reset: drops every queued member (their waiters observe a
    /// dropped channel → a failed round → `ExternalCommitTimeout`, the
    /// degraded path committers already handle) and clears the leader flag
    /// so the next committer after restart leads a fresh round. A leader
    /// thread still looping against the old state simply drains to `Exit`;
    /// its stale `round_completed` call lands in the fresh core's release
    /// queue, which only re-releases transactions whose round already
    /// collected acks or timed out — the same release a failed committer
    /// sends itself.
    pub(crate) fn reset(&self) {
        *self.state.lock() = CoalescerCore::default();
    }
}

impl SssNode {
    /// Runs the external-commit confirmation of `txn` through the grouped
    /// coalescer: enqueues it for the next round, leads rounds if no leader
    /// is active, and returns once a round carrying `txn` completed —
    /// `true` iff every node acknowledged that round.
    pub(crate) fn confirm_external_grouped(&self, txn: TxnId, commit_vc: VectorClock) -> bool {
        let (waiter, receiver) = reply_channel(1);
        let lead = self
            .confirm
            .state
            .lock()
            .enqueue(txn, Arc::new(commit_vc), waiter);
        if lead {
            self.run_confirm_rounds();
        }
        receiver.recv_timeout(ACK_TIMEOUT).unwrap_or(false)
    }

    /// Piggybacks the `Remove` of a completed read-only transaction on the
    /// next confirmation round if one is already in flight (the broadcast is
    /// a superset of the targeted multicast, and the leader is actively
    /// looping, so the delay is bounded by that round). Returns `false` when
    /// no round is in flight — the caller must send a targeted `Remove`
    /// immediately, because parking the remove on an idle coalescer would
    /// hold blocked writers toward their `PRECOMMIT_HOLD_MAX`.
    pub(crate) fn queue_remove_on_next_round(&self, txn: TxnId) -> bool {
        self.confirm.state.lock().queue_remove(txn)
    }

    /// Leader loop: drives confirmation rounds until the queue (and the
    /// piggyback payloads) drain. Runs on the committing client's thread —
    /// never on a mailbox worker, which must not block on acks.
    fn run_confirm_rounds(&self) {
        let all_nodes = self.config().nodes;
        // The leader lingers briefly between rounds of a burst, never before
        // its first round: rounds complete much faster than transactions
        // arrive, and without the pause every round would carry only the one
        // or two commits that happened to land while the previous round was
        // in flight. The pause lets a window's worth of committers accumulate
        // — and gives completed members' piggybacked releases a carrier — at
        // a bounded latency cost for the queued members. A lone leader pays
        // it too, *after* its round: its own queued release makes the next
        // plan `Linger`, so this thread sleeps once before the flush and the
        // return to its client (see the module docs).
        let mut lingered = false;
        let mut first_round = true;
        loop {
            // Exit, linger, flush, or round: decided by the pure core under
            // the same lock as the membership pushes (see the `coalescer`
            // module docs for why the exit can never strand a member).
            let may_linger = !first_round && !lingered;
            let plan = self
                .confirm
                .state
                .lock()
                .next_round(CONFIRM_EPOCH, may_linger);
            let (batch, release, remove) = match plan {
                RoundPlan::Exit => return,
                RoundPlan::Linger => {
                    sss_vclock::runtime::sleep(CONFIRM_LINGER);
                    lingered = true;
                    continue;
                }
                RoundPlan::Flush { release, remove } => {
                    // The confirm queue drained but piggyback payloads
                    // remain: no carrier is coming, flush them standalone.
                    // Removes go first — they can unblock waiting external
                    // commits.
                    first_round = false;
                    lingered = false;
                    if !remove.is_empty() {
                        let _ = self.multicast(
                            (0..all_nodes).map(NodeId),
                            SssMessage::Remove { txns: remove },
                        );
                    }
                    if !release.is_empty() {
                        let _ = self.multicast(
                            (0..all_nodes).map(NodeId),
                            SssMessage::ReleaseExternal { txns: release },
                        );
                    }
                    continue;
                }
                RoundPlan::Round {
                    batch,
                    release,
                    remove,
                } => (batch, release, remove),
            };
            first_round = false;
            lingered = false;

            // The round id (used by the ack dedup on the handler side) is
            // the first member's transaction.
            let round = round_id(&batch).expect("a planned round has members");
            let entries: Vec<(TxnId, Arc<VectorClock>)> = batch
                .iter()
                .map(|p| (p.txn, Arc::clone(&p.commit_vc)))
                .collect();
            let (reply, receiver) = reply_channel(all_nodes);
            let confirm = SssMessage::ConfirmExternal {
                entries,
                release,
                remove,
                reply,
            };
            let sent = self.multicast((0..all_nodes).map(NodeId), confirm).is_ok();
            let ok = sent && collect_acks(&receiver, round, all_nodes);

            // The round is complete and its members' clients are about to be
            // answered: their parked readers may now be released. On success
            // and failure alike (a timed-out confirmation must still release,
            // or readers would stay parked forever — same as the base
            // protocol's failure-path release). The release rides the
            // leader's next plan: the next round's `release` list, or the
            // standalone flush once the queue drained.
            let members: Vec<TxnId> = batch.iter().map(|p| p.txn).collect();
            self.confirm.state.lock().round_completed(members, true);
            for member in batch {
                member.waiter.send(ok);
            }
        }
    }
}
