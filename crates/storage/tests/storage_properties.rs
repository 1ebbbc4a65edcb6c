//! Property-based tests of the storage substrates: version chains keep
//! insertion order, the lock table never grants conflicting locks, and the
//! replica map is a deterministic, well-formed placement.

use std::time::Duration;

use proptest::prelude::*;
use sss_storage::{Key, LockKind, LockTable, MvStore, ReplicaMap, SvStore, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(0), seq)
}

proptest! {
    #[test]
    fn version_chain_preserves_installation_order(values in prop::collection::vec(0u64..1000, 1..40)) {
        let store = MvStore::new();
        let key = Key::new("k");
        for (i, v) in values.iter().enumerate() {
            store.apply(
                key.clone(),
                Value::from_u64(*v),
                VectorClock::from_entries(vec![i as u64 + 1]),
                txn(i as u64),
            );
        }
        let chain = store.chain(&key).expect("chain exists");
        prop_assert_eq!(chain.len(), values.len());
        prop_assert_eq!(chain.last().unwrap().value.to_u64(), Some(*values.last().unwrap()));
        // Newest-first iteration is the exact reverse of installation order.
        let newest_first: Vec<u64> = chain.iter_newest_first().map(|v| v.value.to_u64().unwrap()).collect();
        let mut reversed = values.clone();
        reversed.reverse();
        prop_assert_eq!(newest_first, reversed);
    }

    #[test]
    fn single_version_store_monotonic_versions(writes in prop::collection::vec(0u64..100, 1..50)) {
        let store = SvStore::new();
        let key = Key::new("cell");
        let mut last_version = 0;
        for (i, w) in writes.iter().enumerate() {
            let version = store.write(key.clone(), Value::from_u64(*w), txn(i as u64));
            prop_assert_eq!(version, last_version + 1);
            last_version = version;
        }
        prop_assert_eq!(store.version(&key), writes.len() as u64);
        prop_assert_eq!(store.read(&key).unwrap().value.to_u64(), Some(*writes.last().unwrap()));
    }

    #[test]
    fn replica_map_is_well_formed(
        nodes in 1usize..12,
        degree_seed in 1usize..12,
        key_index in 0u64..500,
    ) {
        let degree = degree_seed.min(nodes);
        let map = ReplicaMap::new(nodes, degree);
        let key = Key::new(format!("key{key_index}"));
        let replicas = map.replicas(&key);
        prop_assert_eq!(replicas.len(), degree);
        // Replica sets have no duplicates, contain the primary, and agree
        // with `is_replica`.
        let mut dedup = replicas.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), degree);
        prop_assert!(replicas.contains(&map.primary(&key)));
        for n in 0..nodes {
            prop_assert_eq!(map.is_replica(NodeId(n), &key), replicas.contains(&NodeId(n)));
        }
        // Determinism.
        prop_assert_eq!(map.replicas(&key), ReplicaMap::new(nodes, degree).replicas(&key));
    }

    #[test]
    fn lock_table_grants_are_mutually_compatible(
        ops in prop::collection::vec((0u64..6, 0u8..4, prop::bool::ANY), 1..60),
    ) {
        // Sequentially apply acquire/release operations and check the
        // compatibility invariant after every step: at most one exclusive
        // holder per key, and never exclusive + foreign shared.
        let table = LockTable::new();
        let timeout = Duration::from_micros(100);
        let mut held: std::collections::HashMap<(u64, u8), LockKind> = std::collections::HashMap::new();
        for (txn_seq, key_idx, exclusive) in ops {
            let id = txn(txn_seq);
            let key = Key::new(format!("k{key_idx}"));
            let kind = if exclusive { LockKind::Exclusive } else { LockKind::Shared };
            if table.acquire(id, &key, kind, timeout) {
                held.insert((txn_seq, key_idx), kind);
                prop_assert!(table.holds(id, &key, kind));
            }
            // Invariant: if some txn holds exclusive on a key, no other txn
            // holds anything on it.
            for ((a_txn, a_key), a_kind) in &held {
                if *a_kind == LockKind::Exclusive && table.holds(txn(*a_txn), &Key::new(format!("k{a_key}")), LockKind::Exclusive) {
                    for ((b_txn, b_key), b_kind) in &held {
                        if a_key == b_key && a_txn != b_txn {
                            let other_holds = table.holds(
                                txn(*b_txn),
                                &Key::new(format!("k{b_key}")),
                                *b_kind,
                            );
                            prop_assert!(
                                !other_holds,
                                "exclusive lock of T{} on k{} coexists with T{}",
                                a_txn, a_key, b_txn
                            );
                        }
                    }
                }
            }
        }
        // Releasing everything empties the table.
        for (txn_seq, _) in held.keys() {
            table.release_all(txn(*txn_seq));
        }
        prop_assert_eq!(table.locked_keys(), 0);
    }

    #[test]
    fn value_u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(Value::from_u64(v).to_u64(), Some(v));
    }

    #[test]
    fn key_string_roundtrip(name in "[a-z0-9:_-]{1,32}") {
        let key = Key::new(&name);
        prop_assert_eq!(key.as_str(), name.as_str());
        prop_assert_eq!(Key::from(name.clone()), key);
    }
}
