//! Every call the benchmark makes into the repository goes through this
//! file. The names below are the surface the benchmark pins: a change that
//! renames or removes one of them needs a benchmark change first (the list
//! is repeated in `benchmark/README.md`).

use std::sync::Arc;
use std::time::Duration;

pub use sss::core::adapter::SssEngine;
pub use sss::core::{
    CoalescerCore, CommitInfo, CommitQueue, NLog, NodeStats, RoundPlan, Session, SnapshotQueue,
    SssConfig, SssError,
};
pub use sss::engine::{
    EngineKind, EngineSession, Histogram, MailboxStats, NetProfile, ObsHub, Phase, SimRuntime,
    StorageStats, TransactionEngine,
};
pub use sss::net::{
    reply_channel, ChannelTransport, Envelope, LatencyModel, Mailbox, NodeRuntime, Priority,
    ReplySender, Transport, TransportConfig,
};
pub use sss::storage::{Key, LockKind, LockTable, MvStore, ReplicaMap, TxnId, Value};
pub use sss::vclock::{runtime, NodeId, VectorClock};
pub use sss::workload::ScenarioOutcome;

/// Nodes of every cluster the benchmark builds (the engine default the
/// repository's own harnesses use).
pub const NODES: usize = 4;
/// Replicas per key.
pub const REPLICATION: usize = 2;
/// Keys populated before every run.
pub const KEY_SPACE: usize = 4096;
/// Keys written per population transaction.
pub const POPULATE_CHUNK: usize = 64;
/// Labels of the per-kind mailbox counters, by slot.
pub const KIND_LABELS: [&str; 8] = sss::core::SssMessage::KIND_LABELS;

/// The key table: the program only ever sees these keys and `u64` values.
pub fn key_table() -> Vec<Key> {
    (0..KEY_SPACE)
        .map(|i| Key::new(format!("k{i:04}")))
        .collect()
}

/// A threaded engine with the repository's defaults.
pub fn build_threaded(kind: EngineKind, nodes: usize) -> Box<dyn TransactionEngine> {
    kind.build(nodes, REPLICATION.min(nodes), NetProfile::Instant)
}

/// An engine on the deterministic simulator, `delay` one-way per message.
pub fn build_sim(
    kind: EngineKind,
    nodes: usize,
    delay: NetProfile,
    schedule_seed: u64,
) -> (Arc<SimRuntime>, Arc<Box<dyn TransactionEngine>>) {
    let (sim, engine) = kind.build_sim(nodes, REPLICATION.min(nodes), delay, schedule_seed);
    (sim, Arc::new(engine))
}

fn traced_config(hub: Arc<ObsHub>) -> SssConfig {
    SssConfig::new(NODES)
        .replication(REPLICATION)
        .observability(hub)
}

/// A threaded SSS engine recording phase spans into `hub`, driven through
/// native [`Session`]s.
pub fn build_traced(hub: Arc<ObsHub>) -> SssEngine {
    SssEngine::with_config(traced_config(hub))
}

/// [`build_traced`] on the simulator.
pub fn build_traced_sim(
    hub: Arc<ObsHub>,
    delay: NetProfile,
    schedule_seed: u64,
) -> (Arc<SimRuntime>, Arc<SssEngine>) {
    let sim = SimRuntime::new(schedule_seed);
    let config = traced_config(hub)
        .latency(delay.latency_model())
        .scheduler(sim.handle());
    (sim, Arc::new(SssEngine::with_config(config)))
}

/// Writes every key once, `POPULATE_CHUNK` keys per update transaction.
pub fn populate(session: &mut dyn EngineSession, keys: &[Key]) {
    for chunk in keys.chunks(POPULATE_CHUNK) {
        let writes: Vec<(Key, Value)> = chunk
            .iter()
            .map(|k| (k.clone(), Value::from_u64(0)))
            .collect();
        let committed = (0..16).any(|_| session.run_update(&[], &writes).is_committed());
        assert!(committed, "population transaction did not commit");
    }
}

/// The pause between attempts of an aborted update: the schedule the
/// repository's own drivers use (and the one that moves virtual time
/// between attempts under the simulator).
pub fn retry_pause(attempt: u32) {
    runtime::Backoff::linear(Duration::from_micros(50), Duration::from_millis(2)).pause(attempt);
}

/// Shape of the recorded scenario the correctness gate replays.
pub struct GateShape {
    pub name: &'static str,
    pub clients_per_node: usize,
    pub ops_per_client: usize,
    pub keys: usize,
    pub read_only_percent: u8,
    pub read_only_keys: usize,
    pub delay: NetProfile,
}

fn gate_scenario(shape: &GateShape, seed: u64) -> sss::workload::ChaosScenario {
    let spec = sss::workload::WorkloadSpec::new(NODES)
        .clients_per_node(shape.clients_per_node)
        .total_keys(shape.keys)
        .read_only_percent(shape.read_only_percent)
        .read_only_access_count(shape.read_only_keys)
        .seed(seed);
    sss::workload::ChaosScenario::new(shape.name, spec)
        .ops_per_client(shape.ops_per_client)
        .replication(REPLICATION)
        .profile(shape.delay)
}

/// Runs the recorded scenario on threads and checks external consistency,
/// zero read-only aborts and that every transaction committed.
pub fn gate_threaded(shape: &GateShape, seed: u64) -> ScenarioOutcome {
    sss::workload::run_scenario(EngineKind::Sss, &gate_scenario(shape, seed))
        .expect("the gate's workload spec is valid")
}

/// [`gate_threaded`] on the simulator.
pub fn gate_sim(shape: &GateShape, seed: u64) -> ScenarioOutcome {
    sss::workload::run_scenario_sim(EngineKind::Sss, &gate_scenario(shape, seed), seed)
        .expect("the gate's workload spec is valid")
}
