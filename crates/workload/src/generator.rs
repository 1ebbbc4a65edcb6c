//! Key-access pattern generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_storage::{Key, ReplicaMap, Value};
use sss_vclock::NodeId;

use crate::spec::{KeySelection, WorkloadSpec};

/// One generated transaction to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnTemplate {
    /// An update transaction: read every key, then overwrite each of them.
    Update {
        /// Keys to read and rewrite.
        keys: Vec<Key>,
        /// Values to write (same length as `keys`).
        values: Vec<Value>,
    },
    /// A read-only transaction over the given keys.
    ReadOnly {
        /// Keys to read.
        keys: Vec<Key>,
    },
}

impl TxnTemplate {
    /// `true` if this template is read-only.
    pub fn is_read_only(&self) -> bool {
        matches!(self, TxnTemplate::ReadOnly { .. })
    }

    /// Keys accessed by the template.
    pub fn keys(&self) -> &[Key] {
        match self {
            TxnTemplate::Update { keys, .. } | TxnTemplate::ReadOnly { keys } => keys,
        }
    }
}

/// Per-client deterministic generator of [`TxnTemplate`]s.
///
/// The generator reproduces the paper's YCSB configuration: a fixed
/// read-only percentage, fixed access counts per profile, uniformly random
/// key choice (optionally biased towards keys whose primary replica is the
/// client's node), and distinct keys within a single transaction.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: StdRng,
    node: NodeId,
    spec: WorkloadSpec,
    local_keys: Vec<u64>,
    counter: u64,
}

impl WorkloadGenerator {
    /// Creates the generator for client `client_index` colocated with
    /// `node`. Each client derives an independent random stream from the
    /// spec's base seed.
    pub fn new(spec: &WorkloadSpec, node: NodeId, client_index: usize) -> Self {
        let seed = spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((node.index() as u64) << 32)
            .wrapping_add(client_index as u64);
        let local_keys = match spec.key_selection {
            KeySelection::Uniform => Vec::new(),
            KeySelection::Local { .. } => {
                let placement = ReplicaMap::new(spec.nodes, 1);
                (0..spec.total_keys as u64)
                    .filter(|k| placement.primary(&Self::key_name(*k)) == node)
                    .collect()
            }
        };
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
            node,
            spec: spec.clone(),
            local_keys,
            counter: 0,
        }
    }

    fn key_name(index: u64) -> Key {
        Key::new(format!("key-{index}"))
    }

    fn pick_key(&mut self) -> Key {
        let index = match self.spec.key_selection {
            KeySelection::Uniform => self.rng.gen_range(0..self.spec.total_keys as u64),
            KeySelection::Local {
                local_fraction_percent,
            } => {
                let local = !self.local_keys.is_empty()
                    && self.rng.gen_range(0..100u8) < local_fraction_percent;
                if local {
                    self.local_keys[self.rng.gen_range(0..self.local_keys.len())]
                } else {
                    self.rng.gen_range(0..self.spec.total_keys as u64)
                }
            }
        };
        Self::key_name(index)
    }

    fn pick_distinct_keys(&mut self, count: usize) -> Vec<Key> {
        let count = count.min(self.spec.total_keys);
        let mut keys: Vec<Key> = Vec::with_capacity(count);
        while keys.len() < count {
            let key = self.pick_key();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    /// Generates the next transaction for this client.
    pub fn next_txn(&mut self) -> TxnTemplate {
        self.counter += 1;
        let read_only = self.rng.gen_range(0..100u8) < self.spec.read_only_percent;
        if read_only {
            TxnTemplate::ReadOnly {
                keys: self.pick_distinct_keys(self.spec.read_only_access_count),
            }
        } else {
            let keys = self.pick_distinct_keys(self.spec.update_access_count);
            let values = keys
                .iter()
                .map(|_| {
                    Value::from_u64(
                        (self.node.index() as u64) << 48
                            | self.counter << 16
                            | self.rng.gen_range(0..0xFFFF),
                    )
                })
                .collect();
            TxnTemplate::Update { keys, values }
        }
    }

    /// The node this generator's client is colocated with.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Name of every key in the key space, for pre-population.
    pub fn all_keys(spec: &WorkloadSpec) -> impl Iterator<Item = Key> + '_ {
        (0..spec.total_keys as u64).map(Self::key_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(4).total_keys(50)
    }

    #[test]
    fn generator_is_deterministic_per_client() {
        let spec = spec();
        let mut a = WorkloadGenerator::new(&spec, NodeId(1), 3);
        let mut b = WorkloadGenerator::new(&spec, NodeId(1), 3);
        for _ in 0..50 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
        assert_eq!(a.node(), NodeId(1));
    }

    #[test]
    fn different_clients_get_different_streams() {
        let spec = spec();
        let mut a = WorkloadGenerator::new(&spec, NodeId(0), 0);
        let mut b = WorkloadGenerator::new(&spec, NodeId(0), 1);
        let same = (0..20).filter(|_| a.next_txn() == b.next_txn()).count();
        assert!(same < 20, "independent clients produced identical streams");
    }

    #[test]
    fn read_only_percentage_is_respected() {
        let spec = spec().read_only_percent(80);
        let mut g = WorkloadGenerator::new(&spec, NodeId(0), 0);
        let total = 2000;
        let ro = (0..total).filter(|_| g.next_txn().is_read_only()).count();
        let pct = ro as f64 / total as f64 * 100.0;
        assert!((70.0..90.0).contains(&pct), "read-only share {pct}%");
    }

    #[test]
    fn update_transactions_access_distinct_keys() {
        let spec = spec().read_only_percent(0).update_access_count(4);
        let mut g = WorkloadGenerator::new(&spec, NodeId(0), 0);
        for _ in 0..100 {
            let txn = g.next_txn();
            let keys = txn.keys();
            let mut dedup = keys.to_vec();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len());
            if let TxnTemplate::Update { keys, values } = &txn {
                assert_eq!(keys.len(), values.len());
            }
        }
    }

    #[test]
    fn locality_biases_towards_local_keys() {
        let spec = WorkloadSpec::new(4)
            .total_keys(400)
            .read_only_percent(100)
            .key_selection(KeySelection::Local {
                local_fraction_percent: 100,
            });
        let placement = ReplicaMap::new(4, 1);
        let mut g = WorkloadGenerator::new(&spec, NodeId(2), 0);
        let mut local = 0;
        let mut total = 0;
        for _ in 0..100 {
            for key in g.next_txn().keys() {
                total += 1;
                if placement.primary(key) == NodeId(2) {
                    local += 1;
                }
            }
        }
        assert!(local as f64 / total as f64 > 0.95);
    }

    #[test]
    fn all_keys_enumerates_the_key_space() {
        let spec = spec().total_keys(10);
        assert_eq!(WorkloadGenerator::all_keys(&spec).count(), 10);
    }
}
