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
//! # One leader step, two drivers
//!
//! A leader step is [`CoalescerCore::leader_step`] and [`ConfirmRound`],
//! sent and completed by `flush`, `send_round` and `complete_round` here.
//! `run_confirm_rounds` adds only what blocks: the linger and the gather of
//! a round's acks. The stepped cluster behind `sss-model` (`node/step.rs`)
//! makes the same calls one action at a time on this node's own coalescer,
//! so the exhaustive checker runs this leader.
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

use sss_net::{reply_channel, Gather, ReplySender};
use sss_storage::TxnId;
use sss_vclock::{NodeId, VectorClock};

use crate::coalescer::{ConfirmRound, LeaderStep};
use crate::config::{ACK_TIMEOUT, CONFIRM_LINGER};
use crate::messages::{Ack, SssMessage};

use super::step::SeededBug;
use super::SssNode;

/// A confirmation round of this node's leader, waiting on its acks.
pub(super) type Round = ConfirmRound<ReplySender<bool>>;

impl SssNode {
    /// Runs the external-commit confirmation of `txn` through the grouped
    /// coalescer: enqueues it for the next round, leads rounds if no leader
    /// is active, and returns once a round carrying `txn` completed —
    /// `true` iff every node acknowledged that round.
    pub(crate) fn confirm_external_grouped(&self, txn: TxnId, commit_vc: VectorClock) -> bool {
        let (waiter, receiver) = reply_channel(1);
        let lead = self
            .confirm
            .lock()
            .enqueue(txn, Arc::new(commit_vc), waiter);
        if lead {
            self.run_confirm_rounds();
        }
        receiver.recv_timeout(ACK_TIMEOUT).unwrap_or(false)
    }

    /// Leader loop: drives confirmation rounds until the queue (and the
    /// piggyback payloads) drain. Runs on the committing client's thread —
    /// never on a mailbox worker, which must not block on acks.
    fn run_confirm_rounds(&self) {
        let all_nodes = self.config().nodes;
        // Linger between the rounds of a burst, never before the first, and
        // never twice in a row (see the module docs).
        let mut lingered = false;
        let mut first_round = true;
        loop {
            // Decided by the pure core under the same lock as the membership
            // pushes (see the `coalescer` module docs for why the exit can
            // never strand a member).
            let may_linger = !first_round && !lingered;
            let step = self.confirm.lock().leader_step(may_linger);
            let mut round = match step {
                LeaderStep::Exit => return,
                LeaderStep::Linger => {
                    sss_vclock::runtime::sleep(CONFIRM_LINGER);
                    lingered = true;
                    continue;
                }
                LeaderStep::Flush(messages) => {
                    // The confirm queue drained but piggyback payloads
                    // remain: no carrier is coming, flush them standalone.
                    first_round = false;
                    lingered = false;
                    self.flush(messages);
                    continue;
                }
                LeaderStep::Round(round) => round,
            };
            first_round = false;
            lingered = false;

            let (reply, receiver) = reply_channel(all_nodes);
            let id = round.id();
            let ok = self.send_round(&mut round, reply)
                && receiver.gather(
                    all_nodes,
                    ACK_TIMEOUT,
                    |ack| (ack.txn == id).then_some(ack.from),
                    |ack| round.ack(&ack),
                ) == Gather::Complete;
            self.complete_round(round, ok);
        }
    }

    /// Broadcasts a flush's messages, in order.
    pub(super) fn flush(&self, messages: Vec<SssMessage>) {
        for message in messages {
            let _ = self.multicast((0..self.config().nodes).map(NodeId), message);
        }
    }

    /// Broadcasts `round`'s `ConfirmExternal`, acks to `reply`. Returns
    /// whether it went out.
    pub(super) fn send_round(&self, round: &mut Round, reply: ReplySender<Ack>) -> bool {
        let all_nodes = (0..self.config().nodes).map(NodeId);
        let sent = self
            .multicast(all_nodes.clone(), round.confirm(reply))
            .is_ok();
        if self.seeded == Some(SeededBug::PrematureRelease) {
            let members = round.members().collect();
            let _ = self.multicast(all_nodes, SssMessage::ReleaseExternal { txns: members });
        }
        sent
    }

    /// The round is complete and its members' clients are about to be
    /// answered (`ok` iff every node acknowledged): their parked readers may
    /// now be released, on success and failure alike (a timed-out
    /// confirmation must still release, or readers would stay parked forever
    /// — same as the base protocol's failure-path release). The release
    /// rides the leader's next step: the next round's `release` list, or the
    /// standalone flush once the queue drained.
    pub(super) fn complete_round(&self, round: Round, ok: bool) {
        let waiters = round.complete(&mut self.confirm.lock());
        for waiter in waiters {
            waiter.send(ok);
        }
    }
}
