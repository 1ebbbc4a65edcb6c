//! Pure protocol-step functions of the node handlers and the session.
//!
//! The *decision* logic that the correctness argument rests on — which
//! versions a read may observe, when a read must defer on a commit-queue
//! ambiguity, how the final commit vector clock is equalized, when an
//! external commit is blocked — lives here as pure functions over plain
//! data, unit-tested on their own. The `sss-model` checker reaches them the
//! way everything else does: through the handlers it steps and, for
//! [`finalize_commit_vc`], through the coordinator its clients share with
//! `Session`.

use std::sync::Arc;

use sss_vclock::VectorClock;

use crate::commit_queue::{CommitEntry, CommitStatus};
use crate::squeue::SnapshotQueue;

/// Algorithm 1 lines 21-24 (the *xact-vn equalization*): the final commit
/// vector clock carries one common value — the maximum of the merged votes
/// — in every write-replica entry, so all write replicas order the
/// transaction identically in their commit queues. Returns the `xactVN`
/// value that was assigned.
pub fn finalize_commit_vc(commit_vc: &mut VectorClock, write_indices: &[usize]) -> u64 {
    let xact_vn = commit_vc.max_over(write_indices.iter().copied());
    commit_vc.assign_over(write_indices.iter().copied(), xact_vn);
    xact_vn
}

/// Algorithm 6 version-selection predicate: `version_vc` is visible to a
/// read bounded by `bound` unless it escapes the bound or sits at or above
/// one of the transaction's exclusion ceilings (the commit clocks of
/// pre-committing writers an earlier read of the same transaction
/// serialized before — and, transitively, of anything that depends on
/// them).
pub fn version_visible(
    version_vc: &VectorClock,
    bound: &VectorClock,
    ceilings: &[Arc<VectorClock>],
) -> bool {
    bound.dominates(version_vc) && !ceilings.iter().any(|ceiling| version_vc.dominates(ceiling))
}

/// The commit-queue ambiguity deferral: `NLog.mostRecentVC[i] >= T.VC[i]`
/// alone does not witness that every transaction within the bound has been
/// applied, because the xact-vn equalization can assign two concurrent
/// transactions the same clock entry for node `i`. A read bounded by
/// `bound` must defer while *any* queued transaction — pending or ready —
/// carries a clock entry at or below the bound; serving earlier could let
/// the snapshot cover that transaction on other nodes while missing its
/// local writes (a fractured read).
pub fn commit_queue_blocks_read(entries: &[CommitEntry], node_index: usize, bound: u64) -> bool {
    entries.iter().any(|e| e.vc.get(node_index) <= bound)
}

/// The Pre-Commit wait condition of Algorithm 4, per key: an internally
/// committed writer with insertion-snapshot `sid` is held in its
/// Pre-Commit phase while the key's snapshot-queue holds a read-only entry
/// with a smaller insertion-snapshot (a concurrent read-only transaction
/// that serializes before the writer and has not yet returned).
pub fn squeue_blocks_external_commit(queue: &SnapshotQueue, sid: u64) -> bool {
    queue.has_read_before(sid)
}

/// `true` while `entries` holds a *pending* transaction (prepared, decision
/// not yet arrived). Used by diagnostics and the model's deadlock analysis:
/// a terminal state with a pending entry means a Decide was lost or a
/// duplicate Prepare wedged the queue.
pub fn commit_queue_has_pending(entries: &[CommitEntry]) -> bool {
    entries.iter().any(|e| e.status == CommitStatus::Pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_storage::TxnId;
    use sss_vclock::NodeId;

    fn vc(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    #[test]
    fn finalize_equalizes_write_replicas_only() {
        let mut commit_vc = vc(&[3, 9, 7]);
        assert_eq!(finalize_commit_vc(&mut commit_vc, &[0, 2]), 7);
        assert_eq!(commit_vc, vc(&[7, 9, 7]));
    }

    #[test]
    fn visibility_respects_bound_and_ceilings() {
        let bound = vc(&[5, 5]);
        let ceiling = Arc::new(vc(&[4, 0]));
        // Within bound, below ceiling: visible.
        assert!(version_visible(
            &vc(&[3, 2]),
            &bound,
            &[Arc::clone(&ceiling)]
        ));
        // Escapes the bound: invisible.
        assert!(!version_visible(&vc(&[6, 0]), &bound, &[]));
        // The excluded writer itself (dominates its own ceiling): invisible.
        assert!(!version_visible(
            &vc(&[4, 0]),
            &bound,
            &[Arc::clone(&ceiling)]
        ));
        // A dependent later writer (dominates the ceiling): invisible.
        assert!(!version_visible(&vc(&[4, 3]), &bound, &[ceiling]));
    }

    #[test]
    fn equal_clock_entry_is_an_ambiguous_tie() {
        let entries = vec![CommitEntry {
            txn: TxnId::new(NodeId(0), 1),
            vc: vc(&[5, 0]),
            status: CommitStatus::Pending,
        }];
        // The xact-vn tie: a queued transaction carrying exactly the bound
        // must defer the read.
        assert!(commit_queue_blocks_read(&entries, 0, 5));
        assert!(commit_queue_blocks_read(&entries, 0, 9));
        assert!(!commit_queue_blocks_read(&entries, 0, 4));
        assert!(commit_queue_has_pending(&entries));
    }
}
