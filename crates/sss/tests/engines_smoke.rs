//! Cross-engine integration smoke tests: every engine evaluated by the paper
//! boots, commits work, and keeps its own consistency promises; the weaker
//! PSI engine is allowed anomalies that SSS and the 2PC-baseline are not.

use sss::baselines::{BaselineConfig, RococoCluster, TwoPcCluster, WalterCluster};
use sss::core::{SssCluster, SssConfig};
use sss::storage::{Key, Value};

fn k(name: &str) -> Key {
    Key::new(name)
}

#[test]
fn sss_read_your_own_cluster_writes_across_nodes() {
    let cluster = SssCluster::start(SssConfig::new(5).replication(3)).unwrap();
    for node in 0..5 {
        let session = cluster.session(node);
        let mut txn = session.begin_update();
        txn.write(format!("node-key-{node}"), Value::from_u64(node as u64));
        txn.commit().unwrap();
    }
    // Every key is visible from every node.
    for reader in 0..5 {
        let session = cluster.session(reader);
        let mut ro = session.begin_read_only();
        for node in 0..5 {
            assert_eq!(
                ro.read(format!("node-key-{node}"))
                    .unwrap()
                    .and_then(|v| v.to_u64()),
                Some(node as u64),
                "node {reader} missed the write of node {node}"
            );
        }
        ro.commit().unwrap();
    }
    assert_eq!(cluster.stats().totals.votes_lock_failed, 0);
    cluster.shutdown();
}

#[test]
fn twopc_transfers_preserve_the_total_balance() {
    let cluster = TwoPcCluster::start(BaselineConfig::new(3));
    let mut session = cluster.session(0);
    let accounts: Vec<Key> = (0..8).map(|i| k(&format!("acct{i}"))).collect();
    let writes: Vec<(Key, Value)> = accounts
        .iter()
        .map(|a| (a.clone(), Value::from_u64(100)))
        .collect();
    assert!(session.update(&[], &writes).is_some());

    // A few serial transfers (the 2PC engine aborts only under concurrency).
    for i in 0..8 {
        let from = accounts[i % accounts.len()].clone();
        let to = accounts[(i + 1) % accounts.len()].clone();
        let observed = session.read_only(&[from.clone(), to.clone()]).unwrap();
        let from_balance = observed[&from].clone().unwrap().to_u64().unwrap();
        let to_balance = observed[&to].clone().unwrap().to_u64().unwrap();
        let transfer = [
            (from.clone(), Value::from_u64(from_balance - 10)),
            (to.clone(), Value::from_u64(to_balance + 10)),
        ];
        assert!(session.update(&[from, to], &transfer).is_some());
    }

    let observed = session.read_only(&accounts).unwrap();
    let total: u64 = observed
        .values()
        .map(|v| v.clone().unwrap().to_u64().unwrap())
        .sum();
    assert_eq!(total, 800);
    cluster.shutdown();
}

#[test]
fn walter_read_only_transactions_are_abort_free_but_weaker() {
    let cluster = WalterCluster::start(BaselineConfig::new(3));
    let mut writer = cluster.session(0);
    let writes = [(k("a"), Value::from_u64(1)), (k("b"), Value::from_u64(1))];
    assert!(writer.update(&[], &writes).is_some());
    // Read-only transactions never abort, from any node.
    for node in 0..3 {
        let mut session = cluster.session(node);
        for _ in 0..5 {
            assert!(session.read_only(&[k("a"), k("b")]).is_some());
        }
    }
    // A reader colocated with the writer observes the writer's commits
    // immediately (read-your-writes within a site), which is all PSI
    // promises here.
    let observed = writer.read_only(&[k("a")]).unwrap();
    assert_eq!(observed[&k("a")].clone().unwrap().to_u64(), Some(1));
    cluster.shutdown();
}

#[test]
fn rococo_read_only_cost_grows_with_read_set_size_under_write_pressure() {
    let cluster = std::sync::Arc::new(RococoCluster::start(BaselineConfig::new(2)));
    let keys: Vec<Key> = (0..16).map(|i| k(&format!("r{i}"))).collect();
    let mut session = cluster.session(0);
    for key in &keys {
        assert!(session
            .update(&[], &[(key.clone(), Value::from_u64(0))])
            .is_some());
    }

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let cluster = std::sync::Arc::clone(&cluster);
        let keys = keys.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut session = cluster.session(1);
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                let key = keys[(i as usize) % keys.len()].clone();
                assert!(session.update(&[], &[(key, Value::from_u64(i))]).is_some());
            }
        })
    };

    let mut latency_by_size = Vec::new();
    for size in [2usize, 8] {
        let start = std::time::Instant::now();
        let mut committed = 0;
        for _ in 0..20 {
            if session.read_only(&keys[..size]).is_some() {
                committed += 1;
            }
        }
        latency_by_size.push((size, start.elapsed(), committed));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();

    // Larger read-only transactions must not be cheaper than small ones per
    // committed snapshot (the trend Figure 8 relies on).
    let (small, small_elapsed, small_committed) = latency_by_size[0];
    let (large, large_elapsed, large_committed) = latency_by_size[1];
    assert!(small < large);
    assert!(small_committed > 0, "small read-only snapshots all failed");
    let small_per = small_elapsed.as_secs_f64() / small_committed.max(1) as f64;
    let large_per = large_elapsed.as_secs_f64() / large_committed.max(1) as f64;
    assert!(
        large_per >= small_per * 0.5,
        "larger ROCOCO read-only snapshots should not be dramatically cheaper"
    );
    cluster.shutdown();
}

#[test]
fn cluster_shutdown_is_idempotent_and_sessions_fail_cleanly() {
    let cluster = SssCluster::start(SssConfig::new(2)).unwrap();
    let session = cluster.session(0);
    cluster.shutdown();
    cluster.shutdown();
    let mut txn = session.begin_update();
    // Reads after shutdown fail with a clean error rather than hanging.
    let err = txn.read("anything").unwrap_err();
    assert!(matches!(
        err,
        sss::core::SssError::ClusterShutdown | sss::core::SssError::ReadTimeout { .. }
    ));
}
