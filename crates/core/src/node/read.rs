//! Read handling: Algorithm 6 (version selection logic in node `Ni`).

use sss_net::ReplySender;
use sss_storage::{Key, TxnId};
use sss_vclock::VectorClock;

use crate::config::{
    ADMISSION_BACKOFF, ADMISSION_MAX_RETRIES, ADMISSION_THRESHOLD, PENDING_GLOBAL_HOLD_MAX,
    PRECOMMIT_HOLD_MAX,
};
use crate::messages::{PropagatedEntry, ReadReturn};
use crate::stats::NodeCounters;

use super::state::{NodeState, ParkedRead, PendingRead};
use super::step::SeededBug;
use super::SssNode;

impl SssNode {
    /// Entry point for `READREQUEST` messages.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn handle_read_request(
        &self,
        txn: TxnId,
        key: Key,
        vc: VectorClock,
        has_read: Vec<bool>,
        exclude: Vec<std::sync::Arc<VectorClock>>,
        is_update: bool,
        reply: ReplySender<ReadReturn>,
    ) {
        let i = self.id().index();
        let mut state = self.state.lock();
        if is_update {
            // Update transactions "simply return the most recent version of
            // their requested keys" (§III-B); the snapshot-queue's read-only
            // entries are returned as the PropagatedSet (Algorithm 6 l. 24-26).
            let response = self.serve_update_read(&state, &key);
            NodeCounters::bump(&self.counters().reads_served);
            drop(state);
            reply.send(response);
            return;
        }

        // Starvation admission control (§III-E): if this read would
        // serialize before an update transaction that has already been held
        // in the key's snapshot-queue for a while, back off briefly so the
        // writer gets a chance to commit externally instead of being starved
        // by an endless chain of read-only transactions.
        let mut backoff = ADMISSION_BACKOFF;
        let mut retries = 0;
        while retries < ADMISSION_MAX_RETRIES {
            let aged_writer = state
                .squeues
                .get(&key)
                .map(|q| q.has_aged_writer_beyond(vc.get(i), ADMISSION_THRESHOLD))
                .unwrap_or(false);
            if !aged_writer {
                break;
            }
            drop(state);
            sss_vclock::runtime::sleep(backoff);
            backoff *= 2;
            retries += 1;
            state = self.state.lock();
        }

        // If a writer of this key has been held past the bounded Pre-Commit
        // hold, complete it now: read traffic alone must be able to break a
        // wait cycle (see `release_unblocked_external_commits`).
        if state
            .squeues
            .get(&key)
            .map(|q| q.has_aged_writer_beyond(0, PRECOMMIT_HOLD_MAX))
            .unwrap_or(false)
        {
            self.release_unblocked_external_commits(&mut state);
        }

        // Same traffic-driven pattern for the other unbounded hold: a
        // `pending_global` entry whose coordinator crashed before the
        // release went out must not park this (and every retried) read
        // forever.
        self.expire_stale_pending_global(&mut state);

        let first_read_here = !has_read[i];
        if first_read_here && state.nlog.most_recent_vc().get(i) < vc.get(i) {
            // Algorithm 6 line 5: transactions already included in T.VC[i]
            // must internally commit before this read can be served. Defer.
            NodeCounters::bump(&self.counters().reads_deferred);
            state.pending_reads.push(PendingRead {
                txn,
                key,
                vc,
                has_read,
                exclude,
                newly_excluded: Vec::new(),
                bound_pinned: false,
                reply,
            });
            return;
        }
        self.serve_or_park_read_only(
            &mut state,
            PendingRead {
                txn,
                key,
                vc,
                has_read,
                exclude,
                newly_excluded: Vec::new(),
                bound_pinned: false,
                reply,
            },
        );
    }

    /// Serves deferred read-only reads whose visibility condition became
    /// true after an internal commit advanced the `NLog`.
    pub(super) fn drain_pending_reads(&self, state: &mut NodeState) {
        let i = self.id().index();
        let ready: Vec<PendingRead> = {
            let most_recent = state.nlog.most_recent_vc().clone();
            let (ready, still): (Vec<_>, Vec<_>) = state
                .pending_reads
                .drain(..)
                .partition(|p| most_recent.get(i) >= p.vc.get(i));
            state.pending_reads = still;
            ready
        };
        for pending in ready {
            self.serve_or_park_read_only(state, pending);
        }
    }

    /// Handles a (possibly grouped) `ConfirmExternal`: advances the node's
    /// confirmed snapshot by every entry's commit clock — transactions
    /// beginning here afterwards serialize after the whole group — and
    /// acknowledges the coordinator once per round. Parked reads stay parked
    /// until their writer's release, which arrives in a *later* round's
    /// `release` list (or a standalone `ReleaseExternal`); the piggybacked
    /// `remove` payload is processed first because removes can unblock
    /// waiting external commits.
    pub(super) fn handle_confirm_external(
        &self,
        entries: Vec<(TxnId, std::sync::Arc<VectorClock>)>,
        release: Vec<TxnId>,
        remove: Vec<TxnId>,
        reply: ReplySender<crate::messages::Ack>,
    ) {
        if !remove.is_empty() {
            self.handle_remove(remove);
        }
        let round = entries.first().map(|(txn, _)| *txn);
        let first_copy = {
            let mut state = self.state.lock();
            for (_, commit_vc) in &entries {
                state.confirmed_vc.merge(commit_vc);
            }
            round.is_some_and(|id| state.confirm_acked.insert(id))
        };
        if !release.is_empty() {
            self.handle_release_external(release);
        }
        // Acknowledge only the first delivery of a round: the reply channel
        // is bounded by the node count, so a duplicated confirm whose extra
        // ack filled a slot could crowd out another node's (distinct) ack
        // and fail the coordinator's confirmation round for a committed
        // group. The round id is the first entry's transaction.
        if let (true, Some(id)) = (first_copy, round) {
            reply.send(crate::messages::Ack {
                from: self.id(),
                txn: id,
            });
        }
    }

    /// Handles `ReleaseExternal[T..]`: the writers' confirmation rounds are
    /// complete and their clients are being answered, so their versions may
    /// now reach read-only clients. Releases every read parked on any of
    /// them.
    pub(super) fn handle_release_external(&self, txns: Vec<TxnId>) {
        let mut state = self.state.lock();
        self.release_external_locked(&mut state, &txns);
    }

    /// Marks every transaction of `txns` globally externally committed and
    /// re-serves the reads parked on any of them. Shared by the normal
    /// `ReleaseExternal` path and the staleness sweep.
    fn release_external_locked(&self, state: &mut NodeState, txns: &[TxnId]) {
        for txn in txns {
            state.released_external.insert(*txn);
            state.pending_global.remove(txn);
        }
        let (released, still): (Vec<ParkedRead>, Vec<ParkedRead>) = state
            .parked_reads
            .drain(..)
            .partition(|p| txns.contains(&p.writer));
        state.parked_reads = still;
        for parked in released {
            // Re-run the full selection: the queue and log moved on while
            // the read was parked, and the new selection may park again on a
            // different (newer) unconfirmed writer.
            self.serve_or_park_read_only(state, parked.read);
        }
    }

    /// Liveness valve for `pending_global`: expires entries older than
    /// [`PENDING_GLOBAL_HOLD_MAX`] as if their
    /// `ReleaseExternal` had arrived. The release is volatile coordinator
    /// state — a crash can drop it *after* the confirmation round completed
    /// (the grouped coalescer buffers completed members' releases for
    /// piggybacking on the next round, and the crash-stop reset discards
    /// that buffer) — and an unreleased writer otherwise parks every read
    /// selecting its version forever. Driven by read traffic, like the
    /// `PRECOMMIT_HOLD_MAX` wait-cycle breaker: the parked readers' own
    /// retries are the clock that eventually fires the sweep. See the
    /// constant for why expiring at this bound preserves the
    /// completion-order guarantee.
    fn expire_stale_pending_global(&self, state: &mut NodeState) {
        let now = sss_vclock::runtime::now();
        let mut expired: Vec<TxnId> = Vec::new();
        while let Some((txn, since)) = state.pending_global_at.front().copied() {
            if now.saturating_duration_since(since) < PENDING_GLOBAL_HOLD_MAX {
                break;
            }
            state.pending_global_at.pop_front();
            // Entries released normally linger in the queue as stale
            // records; only still-pending ones are force-released.
            if state.pending_global.contains(&txn) {
                expired.push(txn);
            }
        }
        if !expired.is_empty() {
            NodeCounters::add(
                &self.counters().pending_global_expired,
                expired.len() as u64,
            );
            self.release_external_locked(state, &expired);
        }
    }

    /// Algorithm 6, read-only path: runs the version selection and either
    /// answers the request or — when the selected version's writer has not
    /// yet globally externally committed — parks it until the writer's
    /// `ConfirmExternal` arrives.
    ///
    /// Holding the read is what keeps client-observed completions consistent
    /// with the serialization order across nodes: without it, a client could
    /// observe a pre-committed version and return while, on a node with a
    /// staler clock, a later-starting read-only transaction still serializes
    /// *before* that writer — an external-consistency cycle.
    fn serve_or_park_read_only(&self, state: &mut NodeState, pending: PendingRead) {
        let i = self.id().index();
        let PendingRead {
            txn,
            key,
            vc,
            has_read,
            mut exclude,
            mut newly_excluded,
            bound_pinned,
            reply,
        } = pending;
        // The snapshot of a read-only transaction is *pinned* by its first
        // read: the reply's `maxVC` is merged into `T.VC` by the client and
        // every subsequent read — on any node — is bounded by that same
        // clock. Letting the bound grow per read (as a per-node `maxVC`
        // recomputation would) admits versions that an earlier read of the
        // same transaction deliberately excluded, which fractures the
        // snapshot (observed as non-repeatable reads of a key and as
        // serialization cycles with concurrent writers).
        let first_read_anywhere = !bound_pinned && !has_read.iter().any(|b| *b);

        // Step 1: establish maxVC.
        //
        // The bound must be *one clock for the whole transaction*: the
        // client merges every reply into `T.VC` and subsequent reads (on
        // any node) are served under that merged clock, so the first read
        // must select under the same merged clock too. Serving the first
        // read under the replica-local visible maximum alone (and letting
        // the client enlarge the effective bound afterwards by merging its
        // begin snapshot into it) fractures the snapshot: a writer
        // invisible to the first read can fall inside the bound of a later
        // read of the same transaction.
        let max_vc = if first_read_anywhere {
            // Update transactions still in their Pre-Commit phase whose
            // insertion-snapshot is beyond the transaction's visibility
            // bound must be excluded (lines 7-8): serializing the reader
            // before them is what guarantees a unique external schedule for
            // non-conflicting writers (the Adya cross-node anomaly). Their
            // commit clocks are reported to the client as exclusion
            // ceilings so no later read of this transaction observes them
            // — or anything that depends on them — on any key (see the
            // ceiling walk in step 3). Cloning an entry's clock clones an
            // `Arc` handle, not the clock.
            if let Some(q) = state.squeues.get(&key) {
                let beyond = q.writes().iter().filter(|w| {
                    w.sid > vc.get(i) && self.seeded != Some(SeededBug::DroppedExclusionCeiling)
                });
                for w in beyond {
                    newly_excluded.push(std::sync::Arc::clone(&w.commit_vc));
                }
            }
            let mut max_vc = state.nlog.visible_max(&has_read, &vc, &newly_excluded);
            max_vc.merge(&vc);
            exclude.extend(newly_excluded.iter().cloned());
            max_vc
        } else {
            // Subsequent read (or a re-serve after a deferral/park): the
            // bound is the transaction's own (pinned) vector clock (lines
            // 16-21) and `exclude` already carries any ceilings a first
            // pass discovered.
            vc.clone()
        };

        // Visibility wait, part 2: the `NLog.mostRecentVC[i] >= T.VC[i]`
        // condition alone is not a reliable witness that every transaction
        // within the bound has been applied here. The xact-vn equalization
        // (Algorithm 1 lines 21-24) can assign two concurrent transactions
        // the same clock entry for this node, so an applied transaction can
        // raise `mostRecentVC[i]` to a value that a *still-queued*
        // transaction's commit vector clock also carries. Serving now would
        // let the snapshot cover that transaction on other nodes while
        // missing its local writes (a fractured read). Defer while any
        // commit-queue entry is at or below the bound; entries only leave
        // the queue by being applied or aborted, and both paths re-drain
        // the deferred reads.
        if crate::protocol::commit_queue_blocks_read(state.commit_q.entries(), i, max_vc.get(i)) {
            // Counted once per request: re-evaluations of a read that is
            // still blocked re-enter with the bound already pinned.
            if !bound_pinned {
                NodeCounters::bump(&self.counters().reads_deferred);
            }
            // Pin the computed bound: re-serving must not chase commits
            // that happened while the read was waiting. `newly_excluded`
            // travels along so the eventual reply still reports the
            // first pass's ceilings to the client.
            state.pending_reads.push(PendingRead {
                txn,
                key,
                vc: max_vc,
                has_read,
                exclude,
                newly_excluded,
                bound_pinned: true,
                reply,
            });
            return;
        }

        // Step 2: leave a trace in the key's snapshot-queue (lines 10/17).
        //
        // Exception: if this transaction's `Remove` has already been
        // processed on this node, the transaction has returned to its client
        // and this request is a stale duplicate (the fastest replica won the
        // race and a high-priority `Remove` overtook this lower-priority
        // read). Enqueuing now would leave an entry no future `Remove` will
        // ever clear, permanently blocking writers of this key.
        if !state.removed_ro.contains(&txn) {
            state.squeues.entry(&key).insert_read(txn, max_vc.get(i));
        }

        // Step 3: walk the version chain newest-to-oldest (lines 11-14 /
        // 18-21) and pick the most recent version within the snapshot: a
        // version is visible only if `maxVC` dominates its commit vector
        // clock. (Bounding on every entry — not only the already-read nodes
        // — guarantees the reader's snapshot genuinely covers everything it
        // observes, which rules out reading "around" an excluded
        // pre-committing writer.)
        // The walk also skips any version whose commit clock dominates one
        // of the transaction's exclusion ceilings: the transaction
        // serialized before those writers, and an update transaction that
        // read an excluded writer's (pre-committed) data carries a commit
        // clock dominating the excluded one — possibly while externally
        // committing *before* the excluded writer — so a ceiling (not a
        // writer-id filter) is required to keep the snapshot consistent
        // under such dependency chains. (A blind overwrite of an excluded
        // writer's key does not carry its clock, but no workload in this
        // repository issues blind writes; the proper wait-cycle-free
        // protocol remains the `PRECOMMIT_HOLD_MAX` TODO.)
        let selected = self.store().chain(&key).and_then(|chain| {
            chain
                .latest_matching(|ver| crate::protocol::version_visible(&ver.vc, &max_vc, &exclude))
                .map(|ver| (ver.value.clone(), ver.writer))
        });
        let (value, writer) = match selected {
            Some((value, writer)) => (Some(value), Some(writer)),
            None => (None, None),
        };

        // Step 4: completion-order barrier. If the selected version's writer
        // is still in its Pre-Commit phase on this node (write entry in the
        // key's snapshot-queue) or has externally committed here but not yet
        // globally (awaiting `ConfirmExternal`), hold the read until the
        // writer's global external commit: the value must not reach a client
        // before the writer's own client response.
        if let Some(w) = writer {
            let writer_unconfirmed = (state
                .squeues
                .get(&key)
                .map(|q| q.writes().iter().any(|e| e.txn == w))
                .unwrap_or(false)
                || state.pending_global.contains(&w))
                && !state.released_external.contains(&w);
            if writer_unconfirmed {
                NodeCounters::bump(&self.counters().reads_parked);
                // Pin the computed bound: when the writer is released, the
                // re-served selection must use this same snapshot — a fresh
                // (larger) bound would land on the next unconfirmed writer
                // and livelock under sustained write traffic.
                state.parked_reads.push(ParkedRead {
                    writer: w,
                    read: PendingRead {
                        txn,
                        key,
                        vc: max_vc,
                        has_read,
                        exclude,
                        newly_excluded,
                        bound_pinned: true,
                        reply,
                    },
                });
                return;
            }
        }

        NodeCounters::bump(&self.counters().reads_served);
        reply.send(ReadReturn {
            from: self.id(),
            value,
            writer,
            vc: max_vc,
            excluded: newly_excluded,
            propagated: Vec::new(),
        });
    }

    /// Algorithm 6, update-transaction path (lines 23-27).
    fn serve_update_read(&self, state: &NodeState, key: &Key) -> ReadReturn {
        let max_vc = state.nlog.most_recent_vc().clone();
        let propagated: Vec<PropagatedEntry> = state
            .squeues
            .get(key)
            .map(|q| {
                q.reads()
                    .iter()
                    .map(|r| PropagatedEntry {
                        txn: r.txn,
                        sid: r.sid,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let last = self.store().last(key);
        ReadReturn {
            from: self.id(),
            value: last.as_ref().map(|v| v.value.clone()),
            writer: last.as_ref().map(|v| v.writer),
            vc: max_vc,
            excluded: Vec::new(),
            propagated,
        }
    }
}
