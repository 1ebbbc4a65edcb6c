//! Scenario tests of the workload generator: the generated mixes match the
//! paper's benchmark configurations.

use std::time::{Duration, Instant};

use sss_vclock::NodeId;
use sss_workload::{KeySelection, TxnTemplate, WorkloadGenerator, WorkloadSpec};

#[test]
fn generated_mix_matches_the_paper_profiles() {
    // The paper's update profile accesses 2 keys; read-only profiles access
    // 2..16 keys; keys within a transaction are distinct.
    for ro_count in [2usize, 8, 16] {
        let spec = WorkloadSpec::new(4)
            .total_keys(5_000)
            .read_only_percent(80)
            .read_only_access_count(ro_count);
        let mut generator = WorkloadGenerator::new(&spec, NodeId(2), 0);
        let mut read_only = 0usize;
        let total = 500;
        for _ in 0..total {
            match generator.next_txn() {
                TxnTemplate::ReadOnly { keys } => {
                    read_only += 1;
                    assert_eq!(keys.len(), ro_count);
                }
                TxnTemplate::Update { keys, values } => {
                    assert_eq!(keys.len(), 2);
                    assert_eq!(values.len(), 2);
                }
            }
        }
        let share = read_only as f64 / total as f64;
        assert!(
            (0.70..0.90).contains(&share),
            "read-only share {share} should be near 0.8"
        );
    }
}

#[test]
fn local_selection_differs_between_nodes_but_stays_in_the_key_space() {
    let spec = WorkloadSpec::new(4)
        .total_keys(256)
        .read_only_percent(100)
        .key_selection(KeySelection::Local {
            local_fraction_percent: 80,
        });
    let started = Instant::now();
    let mut distinct_first_keys = std::collections::HashSet::new();
    for node in 0..4 {
        let mut generator = WorkloadGenerator::new(&spec, NodeId(node), 0);
        for _ in 0..50 {
            for key in generator.next_txn().keys() {
                // Keys always come from the configured key space.
                let index: u64 = key
                    .as_str()
                    .strip_prefix("key-")
                    .expect("generated keys use the key- prefix")
                    .parse()
                    .expect("numeric key suffix");
                assert!(index < 256);
                distinct_first_keys.insert(key.clone());
            }
        }
    }
    // Locality biases different nodes towards different keys, so the union
    // across nodes must cover a reasonable part of the space.
    assert!(distinct_first_keys.len() > 50);
    assert!(started.elapsed() < Duration::from_secs(5));
}
