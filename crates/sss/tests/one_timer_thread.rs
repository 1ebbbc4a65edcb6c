//! A threaded cluster has one timer thread, whatever needs deadlines: timed
//! deliveries (a latency model), the reliable layer's retransmissions (a
//! plan that loses messages) and fault windows (a pause) all wait on the
//! transport's `Timers`. Alone in its file, and so in its process, so the
//! thread count is this cluster's.
#![cfg(target_os = "linux")]

use std::time::Duration;

use sss::core::{SssCluster, SssConfig};
use sss::faults::{FaultPlan, LinkFault, LinkSelector};
use sss::net::LatencyModel;
use sss::storage::Value;

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

#[test]
fn latency_retransmissions_and_fault_windows_share_one_timer_thread() {
    let plan = FaultPlan::new(5)
        .link_fault(LinkFault::on(LinkSelector::All).loss(10))
        .pause(1, Duration::ZERO, Duration::from_millis(10));
    assert!(plan.needs_reliable_delivery());
    let config = SssConfig::new(3)
        .replication(2)
        .latency(LatencyModel::new(
            Duration::from_micros(50),
            Duration::from_micros(10),
        ))
        .faults(plan);
    let cluster = SssCluster::start(config).unwrap();
    cluster.fault_injector().expect("injector wired").arm();

    let session = cluster.session(0);
    for i in 0..20u64 {
        let mut txn = session.begin_update();
        txn.write("counter", Value::from_u64(i));
        txn.commit().expect("update commits under faults");
    }
    assert_eq!(threads_named("sss-timers"), 1);
    assert!(threads_named("sss-node-") > 0, "thread names are readable");
    cluster.shutdown();
}
