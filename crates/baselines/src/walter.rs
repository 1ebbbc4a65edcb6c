//! A Walter-style Parallel Snapshot Isolation (PSI) engine.
//!
//! Walter (Sovran et al., SOSP 2011) is included in the paper's evaluation
//! because, like SSS, it synchronizes nodes with vector clocks — but it only
//! provides PSI, "a weaker isolation level than external consistency and
//! even serializability" (§V). The engine below captures the properties the
//! comparison relies on:
//!
//! * multi-version storage stamped with vector clocks,
//! * transactions read from the snapshot defined by their start vector
//!   clock; read-only transactions never validate, never wait and never
//!   abort,
//! * update transactions detect only write-write conflicts
//!   (first-committer-wins on the written keys) through a lightweight
//!   prepare/decide round — there is no read validation and no
//!   client-response delay, which is exactly why Walter outperforms SSS
//!   while offering weaker guarantees (long forks are possible).

use std::sync::Arc;

use sss_net::{Envelope, NodeService, ReplySender};
use sss_obs::{Phase, TxnTrace};
use sss_storage::{Key, MvStore, ReplicaMap, StorageStats, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

use crate::cluster::{BaselineCluster, BaselineConfig, BaselineSession, Observed, Protocol};
use crate::participant::{Participant, Vote};

/// The Walter wire protocol.
#[derive(Debug, Clone)]
pub enum WalterMessage {
    Read {
        key: Key,
        snapshot: VectorClock,
        reply: ReplySender<Option<Value>>,
    },
    Prepare {
        txn: TxnId,
        snapshot: VectorClock,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<Vote<VectorClock>>,
    },
    Decide {
        txn: TxnId,
        commit_vc: VectorClock,
        outcome: bool,
    },
}

/// The server side of one Walter node.
pub struct WalterNode {
    /// Its protocol state is the node's vector clock.
    participant: Participant<VectorClock>,
    /// Sharded and internally synchronized, held *outside* the ledger lock:
    /// snapshot reads walk version chains without serializing on the node's
    /// protocol state, and commit-time installs only take the written key's
    /// shard lock.
    store: MvStore,
}

impl WalterNode {
    fn handle_read(&self, key: Key, snapshot: VectorClock, reply: ReplySender<Option<Value>>) {
        // PSI visibility: the newest version whose commit vector clock is
        // contained in the reader's start snapshot. No protocol-state lock
        // is needed: every version inside the snapshot was installed before
        // the snapshot's clock was published (decide applies writes before
        // merging the node clock), and the chain handle is an immutable
        // copy-on-write snapshot.
        let value = self.store.chain(&key).and_then(|chain| {
            chain
                .latest_matching(|v| v.vc.le(&snapshot))
                .map(|v| v.value.clone())
        });
        reply.send(value);
    }

    fn handle_prepare(
        &self,
        txn: TxnId,
        snapshot: VectorClock,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<Vote<VectorClock>>,
    ) {
        let vote = self.participant.prepare(
            txn,
            self.participant.local(write_set),
            [],
            || snapshot.clone(),
            |node_vc, local_writes| {
                // First-committer-wins: refuse if any written key already
                // has a version outside the transaction's start snapshot.
                // The exclusive locks pin the written keys' latest versions.
                let conflict = local_writes.iter().any(|(k, _)| {
                    self.store
                        .last(k)
                        .map(|v| !v.vc.le(&snapshot))
                        .unwrap_or(false)
                });
                if conflict {
                    // The refusal carries this node's clock, which covers
                    // the version that won (`handle_decide` installs before
                    // it merges): the loser's next snapshot must include
                    // it, or a client whose node hears of the winner from
                    // nobody else retries from the same stale snapshot
                    // forever.
                    return Err(node_vc.clone());
                }
                node_vc.increment(self.participant.id().index());
                Ok(node_vc.clone())
            },
        );
        if let Some(vote) = vote {
            reply.send(vote);
        }
    }

    fn handle_decide(&self, txn: TxnId, commit_vc: VectorClock, outcome: bool) {
        self.participant.decide(txn, outcome, |node_vc, writes| {
            // Install the versions *before* merging the node clock (still
            // under the ledger lock): a snapshot that covers `commit_vc` can
            // only be taken after the merge, by which point every version it
            // admits is already in the store. One shared clock for every
            // version this transaction installs.
            let shared_vc = Arc::new(commit_vc.clone());
            for (key, value) in writes {
                self.store.apply(key, value, Arc::clone(&shared_vc), txn);
            }
            node_vc.merge(&commit_vc);
        });
    }

    fn snapshot(&self) -> VectorClock {
        self.participant.with_state(|node_vc| node_vc.clone())
    }

    /// Folds a commit vector clock observed by a colocated client into the
    /// node's knowledge, so later transactions started here include it in
    /// their snapshot (Walter's background propagation, collapsed to the
    /// synchronous paths we exercise).
    fn observe(&self, vc: &VectorClock) {
        self.participant.with_state(|node_vc| node_vc.merge(vc));
    }
}

impl NodeService<WalterMessage> for WalterNode {
    fn handle(&self, envelope: Envelope<WalterMessage>) {
        match envelope.payload {
            WalterMessage::Read {
                key,
                snapshot,
                reply,
            } => self.handle_read(key, snapshot, reply),
            WalterMessage::Prepare {
                txn,
                snapshot,
                write_set,
                reply,
            } => self.handle_prepare(txn, snapshot, write_set, reply),
            WalterMessage::Decide {
                txn,
                commit_vc,
                outcome,
            } => self.handle_decide(txn, commit_vc, outcome),
        }
    }
}

/// The Walter-style PSI protocol (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Walter;

/// A running Walter-style PSI cluster.
pub type WalterCluster = BaselineCluster<Walter>;

impl Protocol for Walter {
    const NAME: &'static str = "Walter";
    type Message = WalterMessage;
    type Node = WalterNode;

    fn kind_index(message: &WalterMessage) -> usize {
        match message {
            WalterMessage::Read { .. } => 0,
            WalterMessage::Prepare { .. } => 1,
            WalterMessage::Decide { .. } => 2,
        }
    }

    fn node(id: NodeId, config: &BaselineConfig, placement: &ReplicaMap) -> WalterNode {
        let node_vc = VectorClock::new(config.nodes);
        WalterNode {
            participant: Participant::new(id, config, placement, node_vc),
            store: MvStore::new(),
        }
    }

    fn storage_stats(node: &WalterNode) -> StorageStats {
        StorageStats {
            mv: Some(node.store.stats()),
            sv: None,
            locks: Some(node.participant.lock_stats()),
        }
    }

    /// Reads `read_keys` from the start snapshot, then commits `writes` if
    /// no write-write conflict occurred. Phase spans open at the read /
    /// prepare / decide boundaries.
    fn update(
        session: &BaselineSession<Walter>,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        mut trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        let snapshot = session.local().snapshot();
        let observed = read_all(session, read_keys, &snapshot, trace.as_deref_mut())?;
        if writes.is_empty() {
            return Some(observed);
        }
        let txn = session.next_txn();
        let participants = session
            .placement()
            .replicas_of_all(writes.iter().map(|(k, _)| k));
        let mut commit_vc = snapshot.clone();
        let ok = session.vote(
            &participants,
            trace.as_deref_mut(),
            |reply| WalterMessage::Prepare {
                txn,
                snapshot,
                write_set: writes.to_vec(),
                reply,
            },
            |vote| {
                if vote.ok {
                    commit_vc.merge(&vote.proposed);
                } else {
                    session.local().observe(&vote.proposed);
                }
            },
        );
        let decide = WalterMessage::Decide {
            txn,
            commit_vc: commit_vc.clone(),
            outcome: ok,
        };
        session.decide(&participants, trace, decide);
        if !ok {
            return None;
        }
        // The client observed its own commit: make it visible to the
        // snapshots of later transactions started on this node.
        session.local().observe(&commit_vc);
        Some(observed)
    }

    /// Served from the start snapshot: never validates, never waits, never
    /// aborts (`None` only if the cluster is shutting down and a read timed
    /// out).
    fn read_only(
        session: &BaselineSession<Walter>,
        read_keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> Option<Observed> {
        read_all(session, read_keys, &session.local().snapshot(), trace)
    }
}

/// Reads every key at `snapshot` (one `read` span over all of them).
fn read_all(
    session: &BaselineSession<Walter>,
    read_keys: &[Key],
    snapshot: &VectorClock,
    trace: Option<&mut TxnTrace>,
) -> Option<Observed> {
    if !read_keys.is_empty() {
        if let Some(trace) = trace {
            trace.enter(Phase::Read);
        }
    }
    let mut observed = Observed::new();
    for key in read_keys {
        let value = session.first_reply(session.placement().replicas(key), |reply| {
            WalterMessage::Read {
                key: key.clone(),
                snapshot: snapshot.clone(),
                reply,
            }
        })?;
        observed.insert(key.clone(), value);
    }
    Some(observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::{reply_channel, Priority, Transport};

    #[test]
    fn committed_writes_become_visible() {
        let cluster = WalterCluster::start(BaselineConfig::new(3));
        let mut session = cluster.session(0);
        let k = Key::new("x");
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(5))])
            .is_some());
        // A later snapshot (taken on the coordinating node) sees the write.
        let observed = session.read_only(std::slice::from_ref(&k)).unwrap();
        assert_eq!(observed[&k], Some(Value::from_u64(5)));
        cluster.shutdown();
    }

    #[test]
    fn read_only_transactions_never_abort() {
        let cluster = WalterCluster::start(BaselineConfig::new(2));
        let mut session = cluster.session(1);
        for _ in 0..10 {
            assert!(session.read_only(&[Key::new("a"), Key::new("b")]).is_some());
        }
        cluster.shutdown();
    }

    #[test]
    fn write_write_conflicts_use_first_committer_wins() {
        let cluster = WalterCluster::start(BaselineConfig::new(2));
        let mut session = cluster.session(0);
        let k = Key::new("contended");
        // Install an initial version.
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(1))])
            .is_some());

        // A writer whose start snapshot predates a concurrent committed
        // write must abort. Simulate by capturing the snapshot, committing
        // another write, then preparing against the stale snapshot.
        let stale_snapshot = cluster.shared.nodes[0].snapshot();
        assert!(session
            .update(&[], &[(k.clone(), Value::from_u64(2))])
            .is_some());

        let replicas = cluster.shared.placement.replicas(&k);
        let (reply, rx) = reply_channel(replicas.len());
        let prepare = WalterMessage::Prepare {
            txn: TxnId::new(NodeId(0), 999),
            snapshot: stale_snapshot,
            write_set: vec![(k.clone(), Value::from_u64(3))],
            reply,
        };
        for target in &replicas {
            cluster
                .shared
                .host
                .transport()
                .send(NodeId(0), *target, prepare.clone(), Priority::Normal)
                .unwrap();
        }
        let vote = rx.recv().unwrap();
        assert!(!vote.ok, "stale writer must lose first-committer-wins");
        cluster.shutdown();
    }

    /// A writer that loses first-committer-wins learns the winner's clock
    /// from the refusal. Its node is neither a replica of the key nor the
    /// winner's coordinator and no other traffic spreads clocks, so nothing
    /// else would ever move its snapshot past the winning version.
    #[test]
    fn a_refused_writer_catches_up_in_a_quiet_cluster() {
        let cluster = WalterCluster::start(BaselineConfig::new(3));
        let k = (0..)
            .map(|i| Key::new(format!("quiet-{i}")))
            .find(|k| cluster.shared.placement.replicas(k) == [NodeId(0), NodeId(1)])
            .expect("some key lives on nodes 0 and 1 only");
        assert!(cluster
            .session(0)
            .update(&[], &[(k.clone(), Value::from_u64(1))])
            .is_some());
        let mut outsider = cluster.session(2);
        let attempts = (1..=200)
            .find(|_| {
                outsider
                    .update(std::slice::from_ref(&k), &[(k.clone(), Value::from_u64(2))])
                    .is_some()
            })
            .expect("the outsider never commits: every retry reuses its stale snapshot");
        assert_eq!(attempts, 2, "one refusal is enough to catch up");
        cluster.shutdown();
    }
}
