//! Commit handling: Algorithms 1-4 (2PC prepare/decide, internal commit,
//! Pre-Commit and external commit).

use std::sync::Arc;

use sss_net::ReplySender;
use sss_storage::{Key, LockKind, TxnId, Value};
use sss_vclock::VectorClock;

use crate::config::{LOCK_TIMEOUT, PRECOMMIT_HOLD_MAX};
use crate::messages::{Ack, PropagatedEntry, Vote};
use crate::stats::NodeCounters;

use super::state::{DecisionInfo, NodeState, PreparedTxn, WaitingExternal};
use super::step::SeededBug;
use super::SssNode;

impl SssNode {
    /// 2PC prepare phase at a participant (Algorithm 2, lines 1-15).
    pub(super) fn handle_prepare(
        &self,
        txn: TxnId,
        vc: VectorClock,
        read_set: Vec<(Key, Option<TxnId>)>,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<Vote>,
    ) {
        NodeCounters::bump(&self.counters().prepares);
        let i = self.id().index();
        let local_reads: Vec<(Key, Option<TxnId>)> = read_set
            .iter()
            .filter(|(k, _)| self.replica_map().is_replica(self.id(), k))
            .cloned()
            .collect();
        let local_read_keys: Vec<Key> = local_reads.iter().map(|(k, _)| k.clone()).collect();
        let local_write_set: Vec<(Key, Value)> = write_set
            .iter()
            .filter(|(k, _)| self.replica_map().is_replica(self.id(), k))
            .cloned()
            .collect();

        // If the coordinator already aborted this transaction (its negative
        // decide overtook this prepare), vote no and leave no trace.
        {
            let mut state = self.state.lock();
            if state.aborted_early.contains(&txn) {
                drop(state);
                NodeCounters::bump(&self.counters().votes_validation_failed);
                reply.send(Vote {
                    from: self.id(),
                    txn,
                    ok: false,
                    vc,
                });
                return;
            }
            // Duplicate delivery of a prepare already being (or already
            // done being) processed: drop it without voting — the original
            // copy's vote is guaranteed to arrive, and re-preparing would
            // wedge the commit queue with an undecidable second entry.
            if !state.prepared_ever.insert(txn) && self.seeded != Some(SeededBug::DuplicatePrepare)
            {
                return;
            }
        }

        // Lock acquisition happens before touching the protocol state so
        // that a contended key never stalls unrelated handlers.
        let requests = local_write_set
            .iter()
            .map(|(k, _)| (k, LockKind::Exclusive))
            .chain(local_read_keys.iter().map(|k| (k, LockKind::Shared)));
        if !self.lock_table().acquire_many(txn, requests, LOCK_TIMEOUT) {
            NodeCounters::bump(&self.counters().votes_lock_failed);
            reply.send(Vote {
                from: self.id(),
                txn,
                ok: false,
                vc,
            });
            return;
        }

        // Validation (Algorithm 1 lines 27-33): "checking if the latest
        // version of a key matches the read one" (§III-B). The read-set
        // carries the writer of the version each read observed; if the key's
        // latest local version was produced by a different transaction, the
        // read has been overwritten (or was served by a lagging replica) and
        // the transaction must abort. The vector-clock bound check of the
        // pseudocode is kept as well.
        //
        // Validation runs *before* taking the state lock: the shared locks
        // acquired above pin every read key's latest version (an installer
        // would need the exclusive lock), so the sharded store can be read
        // concurrently by every preparing worker. The one way the pin can
        // break — this transaction's own abort decide racing in and
        // releasing the locks — is caught by the `aborted_early` re-check
        // below, which votes no regardless of what was validated here
        // (the tombstone is inserted before the decide releases any lock).
        let stale = local_reads.iter().find(|(k, observed_writer)| {
            let latest = self.store().last(k);
            let latest_writer = latest.as_ref().map(|v| v.writer);
            latest_writer != *observed_writer
                || latest.map(|v| v.vc.get(i)).unwrap_or(0) > vc.get(i)
        });
        if stale.is_some() {
            self.lock_table().release_all(txn);
            NodeCounters::bump(&self.counters().votes_validation_failed);
            reply.send(Vote {
                from: self.id(),
                txn,
                ok: false,
                vc,
            });
            return;
        }

        let mut state = self.state.lock();

        // Re-check under the state lock: the abort decision may have been
        // processed while this handler was acquiring key locks (or while it
        // was validating against possibly-released locks, see above).
        if state.aborted_early.contains(&txn) {
            drop(state);
            self.lock_table().release_all(txn);
            NodeCounters::bump(&self.counters().votes_validation_failed);
            reply.send(Vote {
                from: self.id(),
                txn,
                ok: false,
                vc,
            });
            return;
        }

        let is_write_replica = !local_write_set.is_empty();
        let prep_vc = if is_write_replica {
            // NodeVC[i]++ and enqueue as pending (Algorithm 2 lines 8-12).
            state.node_vc.increment(i);
            let proposed = state.node_vc.clone();
            state.commit_q.put(txn, proposed.clone());
            proposed
        } else {
            state.nlog.most_recent_vc().clone()
        };
        state.prepared.insert(
            txn,
            PreparedTxn {
                local_read_keys,
                local_write_set,
                is_write_replica,
                decision: None,
            },
        );
        drop(state);

        NodeCounters::bump(&self.counters().votes_ok);
        reply.send(Vote {
            from: self.id(),
            txn,
            ok: true,
            vc: prep_vc,
        });
    }

    /// 2PC decide phase at a participant (Algorithm 2, lines 16-28).
    pub(super) fn handle_decide(
        &self,
        txn: TxnId,
        commit_vc: VectorClock,
        outcome: bool,
        propagated: Vec<PropagatedEntry>,
        ack_reply: ReplySender<Ack>,
    ) {
        if !outcome {
            let mut state = self.state.lock();
            if state.prepared.remove(&txn).is_none()
                && self.seeded != Some(SeededBug::AbortOvertakesPrepare)
            {
                // The abort decision overtook the prepare (the coordinator
                // gave up before our vote). Remember it so the late prepare
                // votes negatively instead of enqueuing a transaction whose
                // decision will never arrive again.
                state.aborted_early.insert(txn);
            }
            state.commit_q.remove(txn);
            // Removing the aborted transaction may expose a ready transaction
            // at the head of the commit queue; drive it now rather than
            // waiting for the next decide to arrive.
            self.process_commit_queue(&mut state);
            drop(state);
            self.lock_table().release_all(txn);
            return;
        }

        let mut state = self.state.lock();
        state.node_vc.merge(&commit_vc);
        let Some(prep) = state.prepared.get_mut(&txn) else {
            // Duplicate or stray decide: nothing to do.
            return;
        };
        if prep.is_write_replica {
            prep.decision = Some(DecisionInfo {
                propagated,
                ack_reply,
            });
            state.commit_q.update(txn, commit_vc);
            self.process_commit_queue(&mut state);
            drop(state);
        } else {
            let prep = state
                .prepared
                .remove(&txn)
                .expect("prepared entry disappeared under the state lock");
            drop(state);
            // Pure read participants only release their shared locks
            // (Algorithm 2 line 22); they do not take part in the external
            // commit acknowledgement.
            self.lock_table()
                .release_keys(txn, prep.local_read_keys.iter());
        }
    }

    /// "Upon head of CommitQ is ready" (Algorithm 2, lines 29-36), followed
    /// by the Pre-Commit phase (Algorithms 3 and 4).
    pub(super) fn process_commit_queue(&self, state: &mut NodeState) {
        let i = self.id().index();
        while let Some(entry) = state.commit_q.pop_ready_head() {
            let txn = entry.txn;
            // One shared clock per transaction: the store versions, the
            // NLog record, the snapshot-queue write entries and the
            // Pre-Commit wait record below all hold the same `Arc`.
            let commit_vc = Arc::new(entry.vc);
            let prep = state
                .prepared
                .remove(&txn)
                .expect("ready transaction must have a prepared record");
            let decision = prep
                .decision
                .expect("ready transaction must carry its decision");

            // Internal commit: install the written versions and log the
            // commit vector clock; the new versions become visible to other
            // transactions even though the client has not been answered yet.
            // (Still under the state lock so that the store never lags the
            // NLog: readers check the NLog/commit-queue under the state
            // lock and must then find every covered version installed.)
            for (key, value) in &prep.local_write_set {
                self.store()
                    .apply(key.clone(), value.clone(), Arc::clone(&commit_vc), txn);
            }
            state.nlog.add(txn, Arc::clone(&commit_vc));
            NodeCounters::bump(&self.counters().internal_commits);
            self.lock_table().release_all(txn);

            // Pre-Commit (Algorithm 3): leave a write trace in the
            // snapshot-queues of the written keys and propagate the
            // read-only entries observed during execution.
            let write_keys: Vec<Key> = prep
                .local_write_set
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            {
                let st = &mut *state;
                for key in &write_keys {
                    let queue = st.squeues.entry(key);
                    queue.insert_write(txn, commit_vc.get(i), Arc::clone(&commit_vc));
                    for entry in &decision.propagated {
                        if !st.removed_ro.contains(&entry.txn) {
                            queue.insert_read(entry.txn, entry.sid);
                        }
                    }
                }
            }

            // External commit check (Algorithm 4): acknowledge immediately
            // if no concurrent read-only transaction with a smaller
            // insertion-snapshot holds any written key, otherwise wait for
            // the Remove messages.
            let waiting = WaitingExternal {
                txn,
                commit_vc,
                write_keys,
                ack_reply: decision.ack_reply,
                since: sss_vclock::runtime::now(),
            };
            if state.blocks_external_commit(&waiting.write_keys, waiting.commit_vc.get(i)) {
                NodeCounters::bump(&self.counters().external_commit_waits);
                state.waiting_external.push(waiting);
            } else {
                self.complete_external_commit(state, waiting);
            }
        }

        // The NLog advanced and/or commit-queue entries left the queue
        // (applied or aborted): deferred read-only reads may now be
        // serviceable. This runs even when nothing popped, because an abort
        // removal alone can clear the commit-queue ambiguity a read is
        // deferred on.
        self.drain_pending_reads(state);

        // Traffic-driven re-evaluation of held transactions, so that the
        // bounded Pre-Commit hold elapses without requiring a `Remove` to
        // arrive (wait-cycle breaking; see `release_unblocked_external_commits`).
        self.release_unblocked_external_commits(state);
    }

    /// Finishes the Pre-Commit phase of one transaction: removes its write
    /// entries from the snapshot-queues and acknowledges the coordinator.
    pub(super) fn complete_external_commit(&self, state: &mut NodeState, waiting: WaitingExternal) {
        // The transaction is externally committed *here*, but other write
        // replicas may still be waiting; keep read-only transactions from
        // returning its versions until the coordinator confirms the global
        // external commit. If the coordinator's `ReleaseExternal` already
        // arrived (it gave up on a timed-out ack round), the entry must not
        // be re-created — no second release will ever clear it.
        if !state.released_external.contains(&waiting.txn) {
            state.pending_global.insert(waiting.txn);
            state
                .pending_global_at
                .push_back((waiting.txn, sss_vclock::runtime::now()));
        }
        state
            .squeues
            .remove_write_entries(waiting.txn, waiting.write_keys.iter());
        NodeCounters::add(
            &self.counters().precommit_wait_nanos,
            sss_vclock::runtime::now()
                .saturating_duration_since(waiting.since)
                .as_nanos() as u64,
        );
        waiting.ack_reply.send(Ack {
            from: self.id(),
            txn: waiting.txn,
        });
    }

    /// Re-evaluates every transaction held in its Pre-Commit phase; called
    /// after `Remove` messages clear snapshot-queue entries and periodically
    /// from other message handlers. A transaction that has been held longer
    /// than `PRECOMMIT_HOLD_MAX` is completed even if blocking read entries
    /// remain (see the constant for why this is sound).
    pub(super) fn release_unblocked_external_commits(&self, state: &mut NodeState) {
        let i = self.id().index();
        // Through `runtime::now`, not `Instant::elapsed`: `since` is a
        // virtual instant under simulation, and measuring it against the
        // real clock would make the hold decision wall-clock-dependent
        // (breaking seeded replay).
        let now = sss_vclock::runtime::now();
        let waiting = std::mem::take(&mut state.waiting_external);
        for w in waiting {
            if now.saturating_duration_since(w.since) < PRECOMMIT_HOLD_MAX
                && state.blocks_external_commit(&w.write_keys, w.commit_vc.get(i))
            {
                state.waiting_external.push(w);
            } else {
                self.complete_external_commit(state, w);
            }
        }
    }
}
