//! The client-side coordinator of Algorithms 1 and 5, as plain data: what a
//! transaction's coordinator knows and every message it sends, with no
//! sending, waiting or clock. [`Session`](crate::Session) drives it with
//! blocking waits and `sss-model` steps it one delivered reply at a time, so
//! the exhaustive checker runs the client that ships.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sss_net::ReplySender;
use sss_storage::{Key, ReplicaMap, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

use crate::messages::{Ack, PropagatedEntry, ReadReturn, SssMessage, Vote};

/// The nodes an update transaction's commit involves, each list sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Participants {
    /// The 2PC participants: the replicas of every accessed key plus the
    /// coordinator.
    pub all: Vec<NodeId>,
    /// The write replicas, which acknowledge the external commit.
    pub writers: Vec<NodeId>,
}

/// The coordinator of an update transaction: its clock, read set, buffered
/// writes and the read-only entries its reads propagated.
#[derive(Debug, Clone, Hash)]
pub struct UpdateCoordinator {
    id: TxnId,
    vc: VectorClock,
    read_set: Vec<(Key, Option<TxnId>)>,
    write_set: BTreeMap<Key, Value>,
    propagated: Vec<PropagatedEntry>,
}

impl UpdateCoordinator {
    /// Begins transaction `id` from the snapshot `vc` (Algorithm 5 line 6).
    pub fn begin(id: TxnId, vc: VectorClock) -> Self {
        UpdateCoordinator {
            id,
            vc,
            read_set: Vec::new(),
            write_set: BTreeMap::new(),
            propagated: Vec::new(),
        }
    }

    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's clock: after a committing `decide`, its commit clock.
    pub fn vc(&self) -> &VectorClock {
        &self.vc
    }

    /// Buffers a write; only a committing `decide` installs it.
    pub fn write(&mut self, key: Key, value: Value) {
        self.write_set.insert(key, value);
    }

    /// The value buffered for `key`, which a read of it observes (Algorithm 5
    /// lines 2-4).
    pub fn buffered(&self, key: &Key) -> Option<&Value> {
        self.write_set.get(key)
    }

    /// The `READREQUEST` for `key` (Algorithm 5 line 9). An update read is
    /// served before `has_read` is looked at, so none is sent.
    pub fn read_request(&self, key: &Key, reply: ReplySender<ReadReturn>) -> SssMessage {
        SssMessage::ReadRequest {
            txn: self.id,
            key: key.clone(),
            vc: self.vc.clone(),
            has_read: Vec::new(),
            exclude: Vec::new(),
            is_update: true,
            reply,
        }
    }

    /// Applies the answer to a read of `key`.
    pub fn read_returned(&mut self, key: Key, ret: &ReadReturn) {
        self.vc.merge(&ret.vc);
        self.propagated.extend(ret.propagated.iter().copied());
        self.read_set.push((key, ret.writer));
    }

    /// Who the commit involves under `replicas`. The coordinator takes part
    /// even when it replicates none of the keys.
    pub fn participants(&self, replicas: &ReplicaMap) -> Participants {
        let read_keys = self.read_set.iter().map(|(key, _)| key);
        let mut all = replicas.replicas_of_all(read_keys.chain(self.write_set.keys()));
        if !all.contains(&self.id.origin) {
            all.push(self.id.origin);
            all.sort();
        }
        let writers = replicas.replicas_of_all(self.write_set.keys());
        Participants { all, writers }
    }

    /// The 2PC `Prepare` (Algorithm 1 line 11).
    pub fn prepare(&self, reply: ReplySender<Vote>) -> SssMessage {
        let write_set = self.write_set.iter();
        SssMessage::Prepare {
            txn: self.id,
            vc: self.vc.clone(),
            read_set: self.read_set.clone(),
            write_set: write_set.map(|(k, v)| (k.clone(), v.clone())).collect(),
            reply,
        }
    }

    /// Counts a vote, merging a yes into the commit clock; `false` aborts.
    pub fn voted(&mut self, vote: &Vote) -> bool {
        if vote.ok {
            self.vc.merge(&vote.vc);
        }
        vote.ok
    }

    /// The 2PC decision as one batch per destination, the coordinator's own
    /// last: a self-addressed send may run its handler inline, which must
    /// not delay the remote Decides. A commit first equalizes the write
    /// replicas' clock entries (Algorithm 1 lines 21-24) and also sends a
    /// `RegisterForward` to the origin of every propagated read-only entry
    /// (§III-C). The last participant's `Decide` takes `ack_reply` itself,
    /// so no sender is dropped here: each drop is a notify seeded replay
    /// records.
    pub fn decide(
        &mut self,
        participants: &Participants,
        outcome: bool,
        ack_reply: ReplySender<Ack>,
    ) -> Vec<(NodeId, Vec<SssMessage>)> {
        if outcome {
            let writers: Vec<usize> = participants.writers.iter().map(|n| n.index()).collect();
            crate::protocol::finalize_commit_vc(&mut self.vc, &writers);
        }
        let decide = SssMessage::Decide {
            txn: self.id,
            commit_vc: self.vc.clone(),
            outcome,
            propagated: self.propagated.clone(),
            ack_reply,
        };
        let mut per_dest: BTreeMap<NodeId, Vec<SssMessage>> = BTreeMap::new();
        let (last, rest) = participants.all.split_last().expect("never empty");
        for target in rest {
            per_dest.entry(*target).or_default().push(decide.clone());
        }
        per_dest.entry(*last).or_default().push(decide);
        if outcome {
            // BTreeSet, not HashSet: entries can share a read-only
            // transaction, and hash order would vary the send order by run.
            let readers: BTreeSet<TxnId> = self.propagated.iter().map(|p| p.txn).collect();
            for txn in readers {
                let targets = participants.writers.clone();
                let forward = SssMessage::RegisterForward { txn, targets };
                per_dest.entry(txn.origin).or_default().push(forward);
            }
        }
        let own = per_dest.remove(&self.id.origin);
        let mut batches: Vec<_> = per_dest.into_iter().collect();
        batches.extend(own.map(|batch| (self.id.origin, batch)));
        batches
    }
}

/// The coordinator of a read-only transaction: its visibility bound, the
/// nodes and keys it read, and its exclusion ceilings (commit clocks of
/// writers it serialized before: no read may observe a version whose clock
/// dominates one).
#[derive(Debug, Clone, Hash)]
pub struct ReadOnlyCoordinator {
    id: TxnId,
    vc: VectorClock,
    has_read: Vec<bool>,
    read_keys: Vec<Key>,
    excluded: Vec<Arc<VectorClock>>,
}

impl ReadOnlyCoordinator {
    /// Begins transaction `id` bounded by `vc` (Algorithm 5 lines 5-7).
    pub fn begin(id: TxnId, vc: VectorClock) -> Self {
        ReadOnlyCoordinator {
            id,
            has_read: vec![false; vc.width()],
            vc,
            read_keys: Vec::new(),
            excluded: Vec::new(),
        }
    }

    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The transaction's visibility bound.
    pub fn vc(&self) -> &VectorClock {
        &self.vc
    }

    /// Records `key`, then builds its `READREQUEST`. Recorded first: a read
    /// that never returns may still have left a snapshot-queue entry, which
    /// the completion's `Remove` must reach.
    pub fn read_request(&mut self, key: &Key, reply: ReplySender<ReadReturn>) -> SssMessage {
        self.read_keys.push(key.clone());
        SssMessage::ReadRequest {
            txn: self.id,
            key: key.clone(),
            vc: self.vc.clone(),
            has_read: self.has_read.clone(),
            exclude: self.excluded.clone(),
            is_update: false,
            reply,
        }
    }

    /// Applies the answer to a read.
    pub fn read_returned(&mut self, ret: &ReadReturn) {
        self.has_read[ret.from.index()] = true;
        for ceiling in &ret.excluded {
            if !self.excluded.contains(ceiling) {
                self.excluded.push(Arc::clone(ceiling));
            }
        }
        self.vc.merge(&ret.vc);
    }

    /// Where the completion's `Remove` goes: the read keys' replicas and the
    /// `forwarded` targets, sorted and deduplicated.
    pub fn remove_targets(&self, replicas: &ReplicaMap, forwarded: Vec<NodeId>) -> Vec<NodeId> {
        let mut targets = replicas.replicas_of_all(&self.read_keys);
        targets.extend(forwarded);
        targets.sort();
        targets.dedup();
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::reply_channel;

    /// A key whose one replica under `map` is `node`.
    fn key_on(map: &ReplicaMap, node: usize) -> Key {
        let mut names = (0..).map(|i| Key::new(format!("k{i}")));
        names.find(|k| map.primary(k) == NodeId(node)).unwrap()
    }

    fn ret(from: usize, vc: &[u64]) -> ReadReturn {
        ReadReturn {
            from: NodeId(from),
            value: None,
            writer: None,
            vc: VectorClock::from_entries(vc.to_vec()),
            excluded: Vec::new(),
            propagated: Vec::new(),
        }
    }

    /// Origin n0 read a key on n1, where a read-only transaction of n3
    /// (twice) and one of n0 were queued, and writes keys on n1 and n2.
    fn update(map: &ReplicaMap) -> UpdateCoordinator {
        let origin = NodeId(0);
        let mut coord = UpdateCoordinator::begin(TxnId::new(origin, 1), VectorClock::new(4));
        let mut read = ret(1, &[0, 5, 0, 0]);
        let ro = [(3, 7), (0, 2), (3, 7)].map(|(n, seq)| TxnId::new(NodeId(n), seq));
        read.propagated = ro.map(|txn| PropagatedEntry { txn, sid: 5 }).to_vec();
        coord.read_returned(key_on(map, 1), &read);
        coord.write(key_on(map, 1), Value::empty());
        coord.write(key_on(map, 2), Value::empty());
        coord
    }

    fn vote(coord: &mut UpdateCoordinator, from: NodeId, ok: bool, vc: Vec<u64>) -> bool {
        let vc = VectorClock::from_entries(vc);
        coord.voted(&Vote {
            from,
            txn: coord.id(),
            ok,
            vc,
        })
    }

    #[test]
    fn participants_include_the_origin_even_when_it_replicates_nothing() {
        let map = ReplicaMap::new(4, 1);
        let parts = update(&map).participants(&map);
        assert_eq!(parts.all, [0, 1, 2].map(NodeId));
        assert_eq!(parts.writers, [1, 2].map(NodeId));
    }

    #[test]
    fn a_commit_decides_every_participant_equalizes_and_forwards() {
        let map = ReplicaMap::new(4, 1);
        let mut coord = update(&map);
        let parts = coord.participants(&map);
        for (i, n) in parts.all.iter().enumerate() {
            assert!(vote(
                &mut coord,
                *n,
                true,
                vec![0, 6 + i as u64, 9 - i as u64, 0]
            ));
        }
        let (ack, _acks) = reply_channel(2);
        let batches = coord.decide(&parts, true, ack);
        let dests: Vec<NodeId> = batches.iter().map(|(n, _)| *n).collect();
        assert_eq!(dests, [1, 2, 3, 0].map(NodeId), "the origin's goes last");
        let commit_vc = coord.vc();
        assert_eq!((commit_vc.get(1), commit_vc.get(2)), (9, 9), "equalized");
        let mut decides = 0;
        let mut forwards = Vec::new();
        for (dest, batch) in &batches {
            for message in batch {
                match message {
                    SssMessage::Decide {
                        outcome, commit_vc, ..
                    } => {
                        assert!(*outcome && commit_vc == coord.vc() && parts.all.contains(dest));
                        decides += 1;
                    }
                    SssMessage::RegisterForward { txn, targets } => {
                        assert_eq!((txn.origin, targets), (*dest, &parts.writers));
                        forwards.push(*txn);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(decides, parts.all.len());
        let ro = [(0, 2), (3, 7)].map(|(n, seq)| TxnId::new(NodeId(n), seq));
        forwards.sort();
        assert_eq!(forwards, ro, "one per distinct read-only transaction");
    }

    #[test]
    fn an_abort_decides_every_participant_and_forwards_nothing() {
        let map = ReplicaMap::new(4, 1);
        let mut coord = update(&map);
        let parts = coord.participants(&map);
        assert!(!vote(&mut coord, NodeId(1), false, vec![0; 4]));
        let (ack, _acks) = reply_channel(2);
        let batches = coord.decide(&parts, false, ack);
        let dests: Vec<NodeId> = batches.iter().map(|(n, _)| *n).collect();
        assert_eq!(dests, [1, 2, 0].map(NodeId));
        for (_, batch) in batches {
            assert!(matches!(
                &batch[..],
                [SssMessage::Decide { outcome: false, .. }]
            ));
        }
    }

    #[test]
    fn a_read_only_read_records_its_key_before_any_answer() {
        let map = ReplicaMap::new(3, 1);
        let mut coord = ReadOnlyCoordinator::begin(TxnId::new(NodeId(0), 1), VectorClock::new(3));
        let (reply, _rx) = reply_channel(1);
        let key = key_on(&map, 2);
        let request = coord.read_request(&key, reply);
        assert!(matches!(request, SssMessage::ReadRequest { txn, .. } if txn == coord.id()));
        assert_eq!(coord.remove_targets(&map, vec![]), [NodeId(2)]);
    }

    #[test]
    fn remove_targets_are_read_replicas_and_forwards_sorted_and_unique() {
        let map = ReplicaMap::new(4, 1);
        let mut coord = ReadOnlyCoordinator::begin(TxnId::new(NodeId(0), 1), VectorClock::new(4));
        for node in [3, 1, 3] {
            let (reply, _rx) = reply_channel(1);
            coord.read_request(&key_on(&map, node), reply);
            coord.read_returned(&ret(node, &[0, 0, 0, 0]));
        }
        let forwarded = [2, 1, 2].map(NodeId).to_vec();
        assert_eq!(coord.remove_targets(&map, forwarded), [1, 2, 3].map(NodeId));
    }
}
