//! Chaos scenarios: a workload, a fault plan, and expected-outcome
//! assertions, executed with history recording and a stuck-run detector.
//!
//! A [`ChaosScenario`] runs a *fixed-operation* closed loop (every client
//! commits a fixed number of transactions, retrying aborted updates with
//! the same template) instead of the duration-based loop of the benchmark
//! driver. That makes the outcome summary deterministic: with every
//! transaction eventually committing, the committed/aborted counts and the
//! read-only mix depend only on the seeded generator streams — not on
//! thread scheduling — so the same seed and the same [`FaultPlan`] produce
//! a bit-identical [`ScenarioOutcome::summary`].
//!
//! Every committed transaction is recorded in an `sss-consistency`
//! [`History`]: written values encode the writer's driver-level transaction
//! id, and observed values are decoded back into writer attributions, so
//! the external-consistency checker can verify the faulted run afterwards.
//! Every injected fault is made safety-preserving: delay, reorder,
//! duplicate, partition-with-heal and pause are so natively, and loss or
//! crash-stop plans auto-enable the reliable-delivery layer plus the
//! restart-recovery protocol (see `sss_core::SssCluster::start`). A checker
//! failure under any scenario is therefore a protocol bug, not a harness
//! artifact.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sss_consistency::{
    check_all, History, HistoryRecorder, ReadRecord, TxnKind, TxnRecord, WriteRecord,
};
use sss_engine::{
    chrome_trace_json, EngineBuilder, EngineKind, FaultInjector, FaultPlan, NetProfile, SimRuntime,
    TransactionEngine, WatchdogConfig, WatchdogCore, WatchdogVerdict,
};
use sss_storage::{Key, TxnId, Value};
use sss_vclock::runtime::{self, Signal};
use sss_vclock::NodeId;

use crate::generator::{TxnTemplate, WorkloadGenerator};
use crate::spec::{SpecError, WorkloadSpec};

/// How often the stuck-run watchdog re-checks the progress counter.
const WATCHDOG_TICK: Duration = Duration::from_millis(20);

/// Assertions evaluated against a finished scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioExpectations {
    /// Run the external-consistency / snapshot checker over the recorded
    /// history and fail the scenario on any violation. Off for engines that
    /// intentionally provide weaker guarantees (Walter's PSI admits long
    /// forks by design).
    pub external_consistency: bool,
    /// Fail the scenario if any read-only transaction attempt aborted (the
    /// SSS headline property).
    pub zero_read_only_aborts: bool,
    /// Fail the scenario unless every generated transaction eventually
    /// committed (no client gave up past its retry cap).
    pub all_committed: bool,
}

impl ScenarioExpectations {
    /// The full set of guarantees SSS claims under any safety-preserving
    /// fault plan.
    pub fn sss() -> Self {
        ScenarioExpectations {
            external_consistency: true,
            zero_read_only_aborts: true,
            all_committed: true,
        }
    }

    /// SSS under crash-stop faults: consistency and liveness still gate,
    /// but the abort-free-reads headline is conditional on the serving node
    /// staying up — a read parked on a node whose crash wipes the parked
    /// set (or begun while the colocated node is down past the
    /// `NodeUnavailable` backoff budget) surfaces as an abort and is
    /// retried by the client.
    pub fn sss_under_crash() -> Self {
        ScenarioExpectations {
            external_consistency: true,
            zero_read_only_aborts: false,
            all_committed: true,
        }
    }

    /// Expectations for a serializable baseline (2PC, ROCOCO): consistency
    /// must hold, but read-only transactions may abort and be retried.
    pub fn serializable_baseline() -> Self {
        ScenarioExpectations {
            external_consistency: true,
            zero_read_only_aborts: false,
            all_committed: true,
        }
    }

    /// Expectations for an intentionally weaker engine (Walter): only
    /// liveness is asserted.
    pub fn weak_baseline() -> Self {
        ScenarioExpectations {
            external_consistency: false,
            zero_read_only_aborts: false,
            all_committed: true,
        }
    }
}

/// One named chaos scenario: a workload, a fault plan, and the assertions
/// the run must satisfy.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario name used in reports ("partition-heal", ...).
    pub name: String,
    /// The workload shape (nodes, clients, keys, read-only mix, seed). The
    /// spec's `duration`/`trials` fields are ignored — scenarios run a
    /// fixed number of operations per client instead.
    pub spec: WorkloadSpec,
    /// Committed transactions each client must produce.
    pub ops_per_client: usize,
    /// Replication degree the engine is built with.
    pub replication: usize,
    /// Steady-state network profile; faults are layered on top.
    pub profile: NetProfile,
    /// The fault plan, armed after the key space is populated.
    pub faults: FaultPlan,
    /// Assertions evaluated after the run.
    pub expect: ScenarioExpectations,
    /// Abort attempts per transaction before a client gives up. Generous:
    /// giving up breaks the `all_committed` expectation and the summary's
    /// determinism, so the cap only exists to bound true livelocks.
    pub retry_cap: u32,
    /// With no committed transaction for this long, the run is declared
    /// stuck: the abort flag is raised, per-node diagnostics are captured
    /// and the scenario fails fast instead of hanging.
    pub stall_timeout: Duration,
}

impl ChaosScenario {
    /// A scenario named `name` over `spec` with no faults, SSS
    /// expectations, and defaults sized for tests (20 ops per client).
    pub fn new(name: impl Into<String>, spec: WorkloadSpec) -> Self {
        ChaosScenario {
            name: name.into(),
            spec,
            ops_per_client: 20,
            replication: 2,
            profile: NetProfile::Instant,
            faults: FaultPlan::default(),
            expect: ScenarioExpectations::sss(),
            retry_cap: 10_000,
            stall_timeout: Duration::from_secs(15),
        }
    }

    /// Sets the committed-transactions-per-client target.
    pub fn ops_per_client(mut self, ops: usize) -> Self {
        self.ops_per_client = ops;
        self
    }

    /// Sets the replication degree.
    pub fn replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Sets the steady-state network profile.
    pub fn profile(mut self, profile: NetProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the expectations.
    pub fn expect(mut self, expect: ScenarioExpectations) -> Self {
        self.expect = expect;
        self
    }

    /// Sets the stall timeout of the stuck-run detector.
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// The engine this scenario runs on, as a builder a harness can still
    /// add to: `kind` on the scenario's node count, replication degree and
    /// network profile, under `injector` (built from the scenario's plan,
    /// or from an empty one for a fault-free control run).
    pub fn engine(&self, kind: EngineKind, injector: &Arc<FaultInjector>) -> EngineBuilder {
        kind.builder(self.spec.nodes, self.replication.min(self.spec.nodes))
            .profile(self.profile)
            .injector(injector)
    }

    /// Total committed transactions the scenario demands.
    pub fn expected_total(&self) -> u64 {
        (self.spec.total_clients() * self.ops_per_client) as u64
    }
}

/// The result of one scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Engine label.
    pub engine: String,
    /// Closed-loop clients that ran.
    pub clients: usize,
    /// Committed transactions per client demanded by the scenario.
    pub ops_per_client: usize,
    /// Transactions committed by clients (excludes population).
    pub committed: u64,
    /// Committed read-only transactions.
    pub committed_read_only: u64,
    /// Transactions abandoned (retry cap exhausted or stuck-run abort).
    pub aborted: u64,
    /// Read-only transaction attempts that aborted. Must be zero for SSS.
    pub read_only_aborts: u64,
    /// Update-transaction retries (diagnostic; scheduling-dependent, so
    /// deliberately *not* part of [`ScenarioOutcome::summary`]).
    pub update_retries: u64,
    /// `true` if the stuck-run detector fired.
    pub stuck: bool,
    /// Stall report captured when the detector fired: the watchdog's last N
    /// progress snapshots (each with per-node diagnostics) leading up to the
    /// stall, not just the final capture.
    pub diagnostics: Option<String>,
    /// Chrome-trace JSON of the engine's trace rings, dumped when the
    /// detector fired on an observability-enabled engine (see
    /// [`run_scenario_on`]). Scheduling-dependent, so excluded from
    /// [`ScenarioOutcome::summary`].
    pub trace_dump: Option<String>,
    /// Consistency-checker verdict: `None` when unchecked, `Some(Ok(()))`
    /// on pass, `Some(Err(description))` on violation.
    pub consistency: Option<Result<(), String>>,
    /// Every failed expectation, human-readable. Empty means the scenario
    /// passed.
    pub violations: Vec<String>,
    /// The recorded history (including population), for further checking.
    pub history: History,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
}

impl ScenarioOutcome {
    /// `true` when every expectation held and the run was not stuck.
    pub fn passed(&self) -> bool {
        !self.stuck && self.violations.is_empty()
    }

    /// FNV-1a fingerprint of the deterministic projection of the run: the
    /// [`ScenarioOutcome::summary`] string plus every recorded transaction
    /// in completion order (id, kind, reads with their writer attributions
    /// and observed values, writes). Two runs with the same engine,
    /// scenario and simulation seed must produce the same fingerprint; the
    /// seed-sweep tier and the replay-regression corpus compare these.
    ///
    /// Wall-clock data (timestamps, retry counts, diagnostics) is excluded,
    /// so the fingerprint is also meaningful for threaded runs — but only
    /// simulated runs promise bit-identical replay, because only there is
    /// the recorder's completion order deterministic.
    pub fn fingerprint(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn eat(&mut self, bytes: &[u8]) {
                for &byte in bytes {
                    self.0 ^= u64::from(byte);
                    self.0 = self.0.wrapping_mul(0x100_0000_01b3);
                }
            }
            fn eat_u64(&mut self, value: u64) {
                self.eat(&value.to_le_bytes());
            }
        }
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        fnv.eat(self.summary().as_bytes());
        for record in self.history.transactions() {
            fnv.eat_u64(record.id.origin.index() as u64);
            fnv.eat_u64(record.id.seq);
            fnv.eat_u64(matches!(record.kind, TxnKind::Update) as u64);
            for read in &record.reads {
                fnv.eat(read.key.as_str().as_bytes());
                match read.observed_writer {
                    Some(writer) => {
                        fnv.eat_u64(1 + writer.origin.index() as u64);
                        fnv.eat_u64(writer.seq);
                    }
                    None => fnv.eat_u64(0),
                }
                if let Some(value) = &read.value {
                    fnv.eat(value.as_bytes());
                }
            }
            for write in &record.writes {
                fnv.eat(write.key.as_str().as_bytes());
                fnv.eat(write.value.as_bytes());
            }
        }
        fnv.0
    }

    /// The deterministic projection of the outcome: identical across runs
    /// with the same seed and fault plan (wall-clock times, retry counts
    /// and diagnostics are excluded). This is the string the determinism
    /// tests compare bit-for-bit.
    pub fn summary(&self) -> String {
        let consistency = match &self.consistency {
            None => "unchecked",
            Some(Ok(())) => "ok",
            Some(Err(_)) => "violated",
        };
        format!(
            "scenario={} engine={} clients={} ops-per-client={} committed={} \
             read-only-committed={} aborted={} read-only-aborts={} consistency={} stuck={}",
            self.scenario,
            self.engine,
            self.clients,
            self.ops_per_client,
            self.committed,
            self.committed_read_only,
            self.aborted,
            self.read_only_aborts,
            consistency,
            self.stuck,
        )
    }
}

/// Encodes a driver-level writer id into a stored value so observed reads
/// can be attributed by the consistency checker.
fn encode_writer(id: TxnId, slot: u64) -> Value {
    Value::new(format!("{}:{}:{}", id.origin.index(), id.seq, slot).into_bytes())
}

/// Decodes the writer id out of a value produced by [`encode_writer`].
fn decode_writer(value: &Value) -> Option<TxnId> {
    let text = value.as_utf8()?;
    let mut parts = text.split(':');
    let origin: usize = parts.next()?.parse().ok()?;
    let seq: u64 = parts.next()?.parse().ok()?;
    Some(TxnId::new(NodeId(origin), seq))
}

/// Origin used for driver-level ids: population transactions use origin 0,
/// client `c` uses origin `c + 1`.
fn client_origin(client_index: usize) -> NodeId {
    NodeId(client_index + 1)
}

struct ClientTally {
    committed: u64,
    committed_read_only: u64,
    aborted: u64,
    read_only_aborts: u64,
    update_retries: u64,
}

/// Populates the key space with attributable seed values, recording the
/// population transactions in `recorder`.
fn populate_recorded<E: TransactionEngine + ?Sized>(
    engine: &E,
    spec: &WorkloadSpec,
    recorder: &HistoryRecorder,
) {
    let mut session = engine.session(0);
    let keys: Vec<Key> = WorkloadGenerator::all_keys(spec).collect();
    for (chunk_index, chunk) in keys.chunks(64).enumerate() {
        let id = TxnId::new(NodeId(0), chunk_index as u64);
        let writes: Vec<(Key, Value)> = chunk
            .iter()
            .enumerate()
            .map(|(slot, k)| (k.clone(), encode_writer(id, slot as u64)))
            .collect();
        let started = runtime::now();
        for _ in 0..16 {
            if session.run_update(&[], &writes).is_committed() {
                recorder.record(TxnRecord {
                    id,
                    kind: TxnKind::Update,
                    started,
                    finished: runtime::now(),
                    reads: Vec::new(),
                    writes: writes
                        .iter()
                        .map(|(k, v)| WriteRecord {
                            key: k.clone(),
                            value: v.clone(),
                        })
                        .collect(),
                });
                break;
            }
        }
    }
}

/// One closed-loop client: commits `ops_per_client` transactions from its
/// seeded generator stream, retrying aborted updates, recording every
/// commit. Shared between the threaded runner (one OS thread per client)
/// and the simulation runner (one cooperative task per client); timestamps
/// come from [`runtime::now`], so they are virtual under simulation.
/// Attempt-scaled pause before retrying an aborted transaction. Under the
/// simulator an immediate retry re-runs at the same virtual instant, so two
/// conflicting updates can abort each other in a loop without virtual time
/// ever advancing (a virtual-time livelock that only ends at the retry
/// cap); a short, growing pause moves the clock between attempts and lets
/// the seeded scheduler break the tie. Under the threaded runner the same
/// pause is a cheap contention throttle.
///
/// Jitter-free linear [`runtime::Backoff`], 50µs per attempt capped at 2ms:
/// the exact schedule of the historical hand-rolled pause, so the pinned
/// replay-corpus fingerprints survive the extraction.
fn retry_pause(attempts: u32) {
    runtime::Backoff::linear(Duration::from_micros(50), Duration::from_millis(2)).pause(attempts);
}

fn run_client<E: TransactionEngine + ?Sized>(
    engine: &E,
    scenario: &ChaosScenario,
    node: usize,
    client: usize,
    progress: &AtomicU64,
    abort: &AtomicBool,
    recorder: &HistoryRecorder,
) -> ClientTally {
    let spec = &scenario.spec;
    let client_index = node * spec.clients_per_node + client;
    let mut generator = WorkloadGenerator::new(spec, NodeId(node), client);
    let mut session = engine.session(node);
    let origin = client_origin(client_index);
    let mut tally = ClientTally {
        committed: 0,
        committed_read_only: 0,
        aborted: 0,
        read_only_aborts: 0,
        update_retries: 0,
    };
    for op in 0..scenario.ops_per_client {
        let id = TxnId::new(origin, op as u64);
        let template = generator.next_txn();
        let mut attempts: u32 = 0;
        loop {
            if abort.load(Ordering::Relaxed) || attempts >= scenario.retry_cap {
                tally.aborted += 1;
                break;
            }
            attempts += 1;
            let started = runtime::now();
            match &template {
                TxnTemplate::ReadOnly { keys } => {
                    let (outcome, observed) = session.run_read_only_observed(keys);
                    if !outcome.is_committed() {
                        tally.read_only_aborts += 1;
                        retry_pause(attempts);
                        continue;
                    }
                    let reads = keys
                        .iter()
                        .zip(observed)
                        .map(|(key, value)| ReadRecord {
                            key: key.clone(),
                            observed_writer: value.as_ref().and_then(decode_writer),
                            value,
                        })
                        .collect();
                    recorder.record(TxnRecord {
                        id,
                        kind: TxnKind::ReadOnly,
                        started,
                        finished: runtime::now(),
                        reads,
                        writes: Vec::new(),
                    });
                    tally.committed += 1;
                    tally.committed_read_only += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                TxnTemplate::Update { keys, .. } => {
                    // The generator's values are replaced by writer-encoded
                    // ones so that observed reads stay attributable.
                    let writes: Vec<(Key, Value)> = keys
                        .iter()
                        .enumerate()
                        .map(|(slot, k)| (k.clone(), encode_writer(id, slot as u64)))
                        .collect();
                    let (outcome, observed) = session.run_update_observed(keys, &writes);
                    if !outcome.is_committed() {
                        tally.update_retries += 1;
                        retry_pause(attempts);
                        continue;
                    }
                    let reads = keys
                        .iter()
                        .zip(observed)
                        .map(|(key, value)| ReadRecord {
                            key: key.clone(),
                            observed_writer: value.as_ref().and_then(decode_writer),
                            value,
                        })
                        .collect();
                    recorder.record(TxnRecord {
                        id,
                        kind: TxnKind::Update,
                        started,
                        finished: runtime::now(),
                        reads,
                        writes: writes
                            .iter()
                            .map(|(k, v)| WriteRecord {
                                key: k.clone(),
                                value: v.clone(),
                            })
                            .collect(),
                    });
                    tally.committed += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        if abort.load(Ordering::Relaxed) {
            // Count the remaining, never-attempted operations so the
            // totals still add up.
            tally.aborted += (scenario.ops_per_client - op - 1) as u64;
            break;
        }
    }
    tally
}

/// Folds per-client tallies, checker verdicts and expectation violations
/// into the final [`ScenarioOutcome`]. Shared by the threaded and the
/// simulation runners.
#[allow(clippy::too_many_arguments)]
fn finish_outcome(
    engine_name: &str,
    scenario: &ChaosScenario,
    tallies: Vec<ClientTally>,
    stuck: bool,
    diagnostics: Option<String>,
    trace_dump: Option<String>,
    history: History,
    elapsed: Duration,
) -> ScenarioOutcome {
    let mut committed = 0;
    let mut committed_read_only = 0;
    let mut aborted = 0;
    let mut read_only_aborts = 0;
    let mut update_retries = 0;
    for tally in tallies {
        committed += tally.committed;
        committed_read_only += tally.committed_read_only;
        aborted += tally.aborted;
        read_only_aborts += tally.read_only_aborts;
        update_retries += tally.update_retries;
    }

    let mut violations = Vec::new();
    let consistency = if scenario.expect.external_consistency {
        match check_all(&history) {
            Ok(()) => Some(Ok(())),
            Err(violation) => {
                violations.push(format!("consistency violation: {violation}"));
                Some(Err(violation.to_string()))
            }
        }
    } else {
        None
    };
    if scenario.expect.zero_read_only_aborts && read_only_aborts > 0 {
        violations.push(format!(
            "read-only transactions aborted {read_only_aborts} time(s); SSS promises zero"
        ));
    }
    if scenario.expect.all_committed && (aborted > 0 || committed != scenario.expected_total()) {
        violations.push(format!(
            "expected {} committed transactions, got {committed} ({aborted} abandoned)",
            scenario.expected_total()
        ));
    }
    if stuck {
        violations.push(format!(
            "run stalled for {:?} with no committed transaction",
            scenario.stall_timeout
        ));
    }

    ScenarioOutcome {
        scenario: scenario.name.clone(),
        engine: engine_name.to_string(),
        clients: scenario.spec.total_clients(),
        ops_per_client: scenario.ops_per_client,
        committed,
        committed_read_only,
        aborted,
        read_only_aborts,
        update_retries,
        stuck,
        diagnostics,
        trace_dump,
        consistency,
        violations,
        history,
        elapsed,
    }
}

/// Builds the engine under the scenario's fault plan, populates the key
/// space fault-free, arms the plan, runs the fixed-operation workload with
/// history recording and the stuck-run detector, and evaluates the
/// scenario's expectations.
///
/// # Errors
///
/// Returns the [`SpecError`] if the scenario's workload spec is invalid.
pub fn run_scenario(
    kind: EngineKind,
    scenario: &ChaosScenario,
) -> Result<ScenarioOutcome, SpecError> {
    scenario.spec.validate()?;
    let injector = FaultInjector::new(scenario.faults.clone());
    let engine = scenario.engine(kind, &injector).build();
    let outcome = run_scenario_on(engine.as_ref(), &injector, scenario);
    injector.disarm();
    Ok(outcome)
}

/// [`run_scenario`] against an already-built engine — e.g.
/// [`ChaosScenario::engine`] with [`EngineBuilder::observability`] on, so a stuck run auto-dumps its trace rings into
/// [`ScenarioOutcome::trace_dump`]. `injector` is armed after population
/// (pass an injector built from an empty plan for a fault-free control
/// run).
pub fn run_scenario_on<E: TransactionEngine + ?Sized>(
    engine: &E,
    injector: &Arc<FaultInjector>,
    scenario: &ChaosScenario,
) -> ScenarioOutcome {
    let spec = &scenario.spec;
    assert_eq!(
        engine.nodes(),
        spec.nodes,
        "scenario spec and engine disagree on the node count"
    );

    let recorder = Arc::new(HistoryRecorder::new());
    populate_recorded(engine, spec, &recorder);
    injector.arm();

    let start = Instant::now();
    let progress = Arc::new(AtomicU64::new(0));
    let abort = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let stuck_diagnostics: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let stuck_trace: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        // Stuck-run watchdog: with no committed transaction for
        // `stall_timeout`, capture the stall report and raise the abort flag
        // so clients bail out instead of hanging forever. The WatchdogCore
        // samples engine diagnostics into a bounded history, so the report
        // shows the run-up to the stall, not just the moment it tripped.
        {
            let progress = Arc::clone(&progress);
            let abort = Arc::clone(&abort);
            let done = Arc::clone(&done);
            let diagnostics = Arc::clone(&stuck_diagnostics);
            let trace_dump = Arc::clone(&stuck_trace);
            let stall_timeout = scenario.stall_timeout;
            let engine_ref = &engine;
            scope.spawn(move || {
                let mut watchdog = WatchdogCore::new(WatchdogConfig {
                    stall_after: stall_timeout,
                    ..WatchdogConfig::default()
                });
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(WATCHDOG_TICK);
                    let current = progress.load(Ordering::Relaxed);
                    // Liveness rides along with the diagnostics so a stall
                    // report can say "node 2 crashed" instead of leaving the
                    // reader to infer it from mailbox depths.
                    let verdict = watchdog.observe_with(
                        current,
                        || engine_ref.diagnostics().unwrap_or_default(),
                        || engine_ref.node_liveness().unwrap_or_default(),
                    );
                    if verdict == WatchdogVerdict::Stalled {
                        *diagnostics.lock() = Some(watchdog.report());
                        // With observability on, auto-dump the trace rings:
                        // the last ~32k spans per node show what every
                        // in-flight transaction was doing when it stalled.
                        if let Some(hub) = engine_ref.observability() {
                            let group = (engine_ref.name().to_string(), hub.drain_spans());
                            *trace_dump.lock() = Some(chrome_trace_json(&[group]));
                        }
                        abort.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }

        let mut handles = Vec::new();
        for node in 0..spec.nodes {
            for client in 0..spec.clients_per_node {
                let progress = Arc::clone(&progress);
                let abort = Arc::clone(&abort);
                let recorder = Arc::clone(&recorder);
                let engine_ref = &engine;
                handles.push(scope.spawn(move || {
                    run_client(
                        *engine_ref,
                        scenario,
                        node,
                        client,
                        &progress,
                        &abort,
                        &recorder,
                    )
                }));
            }
        }

        let tallies: Vec<ClientTally> = handles
            .into_iter()
            .map(|h| h.join().expect("scenario client panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        tallies
    });

    let elapsed = start.elapsed();
    let stuck = abort.load(Ordering::Relaxed);
    let diagnostics = stuck_diagnostics.lock().take();
    let trace_dump = stuck_trace.lock().take();
    finish_outcome(
        engine.name(),
        scenario,
        tallies,
        stuck,
        diagnostics,
        trace_dump,
        recorder.snapshot(),
        elapsed,
    )
}

/// [`run_scenario`] under the deterministic simulator: one call builds a
/// seeded [`SimRuntime`], wires the engine to it, and runs population,
/// fault plan and every closed-loop client as cooperative tasks in virtual
/// time. The same `(scenario, engine, seed)` triple replays the run
/// bit-identically — [`ScenarioOutcome::summary`] and the recorded history
/// are deterministic functions of the inputs.
///
/// Differences from the threaded runner:
///
/// * no stuck-run watchdog: a wedged run is caught by the simulator's own
///   deadlock detector (panic with a parked-task report) instead of a
///   wall-clock stall timeout;
/// * [`ScenarioOutcome::elapsed`] is *virtual* time, not wall time;
/// * history timestamps are virtual instants, so checker verdicts are
///   reproducible.
///
/// # Errors
///
/// Returns the [`SpecError`] if the scenario's workload spec is invalid.
pub fn run_scenario_sim(
    kind: EngineKind,
    scenario: &ChaosScenario,
    seed: u64,
) -> Result<ScenarioOutcome, SpecError> {
    scenario.spec.validate()?;
    let sim = SimRuntime::new(seed);
    let injector = FaultInjector::new(scenario.faults.clone());
    let engine: Arc<Box<dyn TransactionEngine>> = Arc::new(
        scenario
            .engine(kind, &injector)
            .scheduler(sim.handle())
            .build(),
    );
    let outcome = run_scenario_sim_on(&sim, &engine, &injector, scenario);
    injector.disarm();
    sim.wait_quiescent();
    Ok(outcome)
}

/// [`run_scenario_sim`] against an already-built engine wired to `sim`
/// (see [`EngineBuilder::scheduler`]); `injector` is armed at the first
/// quiescent point after population.
pub fn run_scenario_sim_on(
    sim: &Arc<SimRuntime>,
    engine: &Arc<Box<dyn TransactionEngine>>,
    injector: &Arc<FaultInjector>,
    scenario: &ChaosScenario,
) -> ScenarioOutcome {
    let spec = &scenario.spec;
    assert_eq!(
        engine.nodes(),
        spec.nodes,
        "scenario spec and engine disagree on the node count"
    );

    let recorder = Arc::new(HistoryRecorder::new());
    // Population runs as the first foreground task: message delivery and
    // protocol waits already move in virtual time, but no fault windows are
    // active yet (the plan is armed below, exactly like the threaded
    // runner arms it after population).
    {
        let engine = Arc::clone(engine);
        let recorder = Arc::clone(&recorder);
        let spec = spec.clone();
        sim.block_on("populate", move || {
            populate_recorded(engine.as_ref().as_ref(), &spec, &recorder);
        });
    }
    // Freeze at quiescence: the virtual arm time is then a deterministic
    // function of the population run, so the plan's windows hit the same
    // virtual instants on every replay — and the hold keeps the armed
    // windows from firing (free-running the clock) while this host thread
    // is still spawning the client driver below, which would make the
    // spawn's position in the schedule a wall-clock race.
    sim.freeze();
    injector.arm();

    let virtual_start = sim.virtual_elapsed();
    let progress = Arc::new(AtomicU64::new(0));
    let abort = Arc::new(AtomicBool::new(false));
    let tallies: Arc<Mutex<Vec<ClientTally>>> = Arc::new(Mutex::new(Vec::new()));

    // One driver task spawns every client as its own foreground task and
    // waits until all of them have finished. Spawning from *inside* the
    // simulation (rather than from the host thread) keeps the spawn order
    // — and therefore the scheduler's seeded interleaving — deterministic.
    {
        let engine = Arc::clone(engine);
        let scenario = scenario.clone();
        let progress = Arc::clone(&progress);
        let abort = Arc::clone(&abort);
        let recorder = Arc::clone(&recorder);
        let tallies = Arc::clone(&tallies);
        sim.block_on("clients", move || {
            let finished = Arc::new(Signal::default());
            for node in 0..scenario.spec.nodes {
                for client in 0..scenario.spec.clients_per_node {
                    let engine = Arc::clone(&engine);
                    let scenario = scenario.clone();
                    let progress = Arc::clone(&progress);
                    let abort = Arc::clone(&abort);
                    let recorder = Arc::clone(&recorder);
                    let tallies = Arc::clone(&tallies);
                    let finished = Arc::clone(&finished);
                    runtime::spawn(None, format!("client-{node}-{client}"), false, move || {
                        let tally = run_client(
                            engine.as_ref().as_ref(),
                            &scenario,
                            node,
                            client,
                            &progress,
                            &abort,
                            &recorder,
                        );
                        tallies.lock().push(tally);
                        finished.notify_all();
                    });
                }
            }
            let mut tallies = tallies.lock();
            while tallies.len() < scenario.spec.total_clients() {
                finished.wait(&mut tallies, None);
            }
        });
    }
    sim.wait_quiescent();
    let elapsed = sim.virtual_elapsed() - virtual_start;

    let tallies = std::mem::take(&mut *tallies.lock());
    finish_outcome(
        engine.name(),
        scenario,
        tallies,
        false,
        None,
        None,
        recorder.snapshot(),
        elapsed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec::new(2)
            .clients_per_node(2)
            .total_keys(32)
            .read_only_percent(50)
            .seed(11)
    }

    #[test]
    fn fault_free_scenario_passes_all_expectations() {
        let scenario = ChaosScenario::new("control", tiny_spec()).ops_per_client(10);
        let outcome = run_scenario(EngineKind::Sss, &scenario).expect("valid spec");
        assert!(outcome.passed(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.committed, scenario.expected_total());
        assert_eq!(outcome.read_only_aborts, 0);
        assert_eq!(outcome.consistency, Some(Ok(())));
        assert!(outcome.history.len() as u64 > outcome.committed);
        assert!(outcome.summary().contains("consistency=ok"));
    }

    #[test]
    fn invalid_spec_is_rejected_with_a_typed_error() {
        let scenario = ChaosScenario::new("broken", tiny_spec().total_keys(0));
        assert_eq!(
            run_scenario(EngineKind::Sss, &scenario).unwrap_err(),
            SpecError::ZeroKeys
        );
    }

    #[test]
    fn sim_scenario_passes_and_replays_bit_identically() {
        let scenario = ChaosScenario::new("sim-control", tiny_spec()).ops_per_client(5);
        let a = run_scenario_sim(EngineKind::Sss, &scenario, 42).expect("valid spec");
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.committed, scenario.expected_total());
        let b = run_scenario_sim(EngineKind::Sss, &scenario, 42).expect("valid spec");
        assert_eq!(a.summary(), b.summary());
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same seed must replay the full history bit-identically"
        );
    }

    #[test]
    fn encoded_writers_round_trip() {
        let id = TxnId::new(NodeId(3), 17);
        assert_eq!(decode_writer(&encode_writer(id, 4)), Some(id));
        assert_eq!(decode_writer(&Value::from_u64(12)), None);
    }
}
