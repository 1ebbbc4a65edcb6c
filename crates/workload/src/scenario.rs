//! The one way this workspace runs a workload: a [`ChaosScenario`] — a
//! workload, a fault plan (empty for a plain measurement) and
//! expected-outcome assertions — executed by one closed-loop client and one
//! runner body on threads ([`run_scenario`]) or in virtual time
//! ([`run_scenario_sim`]), with history recording, update-latency
//! histograms and a stuck-run detector. The chaos catalog, the seed sweeps,
//! the determinism suites, the figure sweeps of `sss-bench` and the
//! repository benchmark's correctness gate all go through it.
//!
//! A scenario runs a *fixed-operation* closed loop: every client commits a
//! fixed number of transactions, retrying an aborted one with the same
//! template. That makes the outcome summary deterministic: with every
//! transaction eventually committing, the committed/aborted counts and the
//! read-only mix depend only on the seeded generator streams — not on
//! thread scheduling — so the same seed and the same [`FaultPlan`] produce
//! a bit-identical [`ScenarioOutcome::summary`]. Under the simulator the
//! whole run is a function of the seed, latencies and throughput included.
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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_consistency::{
    check_all, History, HistoryRecorder, ReadRecord, TxnKind, TxnRecord, WriteRecord,
};
use sss_engine::{
    chrome_trace_json, EngineBuilder, EngineKind, FaultInjector, FaultPlan, Histogram, NetProfile,
    SimRuntime, TransactionEngine, TxnOutcome, WatchdogConfig, WatchdogCore, WatchdogVerdict,
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
    /// What `kind` promises on a crash-free run: everything for SSS,
    /// consistency and liveness for the serializable baselines, liveness
    /// for Walter.
    pub fn of(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Sss => Self::sss(),
            EngineKind::TwoPc | EngineKind::Rococo => Self::serializable_baseline(),
            EngineKind::Walter => Self::weak_baseline(),
        }
    }

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
    /// The workload shape (nodes, clients, keys, read-only mix, seed).
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
    /// [`run_scenario_tuned`]). Scheduling-dependent, so excluded from
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
    /// Duration of the measured phase, from the armed plan to the last
    /// client's last commit, on [`runtime::now`]'s clock: wall time on
    /// threads, virtual time under the simulator.
    pub elapsed: Duration,
    /// Client-observed latency of every committed update transaction, begin
    /// to external commit, in nanoseconds of the same clock. Like
    /// `elapsed` and the retry counts, the two histograms are excluded from
    /// [`ScenarioOutcome::summary`] and [`ScenarioOutcome::fingerprint`] —
    /// and like them, a function of the seed under the simulator.
    pub update_latency: Histogram,
    /// The part of each `update_latency` sample spent before the internal
    /// commit. SSS answers its client only at external commit, so the
    /// difference is the wait for that (the paper's Figure 5); the other
    /// engines report the two as equal.
    pub internal_latency: Histogram,
}

impl ScenarioOutcome {
    /// `true` when every expectation held and the run was not stuck.
    pub fn passed(&self) -> bool {
        !self.stuck && self.violations.is_empty()
    }

    /// Committed transactions per second of [`ScenarioOutcome::elapsed`].
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.committed as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Share of transaction attempts that aborted and were retried
    /// (0.0 - 1.0), read-only and update attempts alike.
    pub fn abort_rate(&self) -> f64 {
        let aborted = self.read_only_aborts + self.update_retries;
        match self.committed + aborted {
            0 => 0.0,
            attempts => aborted as f64 / attempts as f64,
        }
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

/// What one client contributes to the [`ScenarioOutcome`].
#[derive(Default)]
struct ClientTally {
    committed: u64,
    committed_read_only: u64,
    aborted: u64,
    read_only_aborts: u64,
    update_retries: u64,
    update_latency: Histogram,
    internal_latency: Histogram,
}

/// What the clients of one run, the task that joins them and the watchdog
/// share.
struct Run {
    engine: Arc<dyn TransactionEngine>,
    scenario: ChaosScenario,
    recorder: HistoryRecorder,
    /// Transactions committed so far: what the watchdog watches.
    progress: AtomicU64,
    /// Raised by the watchdog: every client gives up.
    abort: AtomicBool,
    /// One entry per finished client (its panic, if it died of one);
    /// `finished` is notified on every push.
    tallies: Mutex<Vec<std::thread::Result<ClientTally>>>,
    finished: Signal,
}

/// Populates the key space with attributable seed values, recording the
/// population transactions.
fn populate_recorded(run: &Run) {
    let mut session = run.engine.session(0);
    let keys: Vec<Key> = WorkloadGenerator::all_keys(&run.scenario.spec).collect();
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
                run.recorder.record(TxnRecord {
                    id,
                    kind: TxnKind::Update,
                    started,
                    finished: runtime::now(),
                    reads: Vec::new(),
                    writes: write_records(&writes),
                });
                break;
            }
        }
    }
}

fn write_records(writes: &[(Key, Value)]) -> Vec<WriteRecord> {
    let record = |(key, value): &(Key, Value)| WriteRecord {
        key: key.clone(),
        value: value.clone(),
    };
    writes.iter().map(record).collect()
}

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

/// The one closed-loop client ("a client issues a new request only when the
/// previous one has returned", paper §V): commits `ops_per_client`
/// transactions from its seeded generator stream, retrying an aborted one
/// with the same template, recording every commit (and an update's
/// latency). An OS thread on the threaded runtime, a cooperative task under
/// the simulator; every instant comes from [`runtime::now`], so it is
/// virtual there.
fn run_client(run: &Run, node: usize, client: usize) -> ClientTally {
    let scenario = &run.scenario;
    let spec = &scenario.spec;
    let mut generator = WorkloadGenerator::new(spec, NodeId(node), client);
    let mut session = run.engine.session(node);
    let origin = client_origin(node * spec.clients_per_node + client);
    let mut tally = ClientTally::default();
    for op in 0..scenario.ops_per_client {
        let id = TxnId::new(origin, op as u64);
        let template = generator.next_txn();
        let read_only = template.is_read_only();
        let keys = template.keys();
        // The generator's values are replaced by writer-encoded ones so
        // that observed reads stay attributable.
        let writes: Vec<(Key, Value)> = match &template {
            TxnTemplate::ReadOnly { .. } => Vec::new(),
            TxnTemplate::Update { keys, .. } => keys
                .iter()
                .enumerate()
                .map(|(slot, key)| (key.clone(), encode_writer(id, slot as u64)))
                .collect(),
        };
        let mut attempts: u32 = 0;
        loop {
            if run.abort.load(Ordering::Relaxed) || attempts >= scenario.retry_cap {
                tally.aborted += 1;
                break;
            }
            attempts += 1;
            let started = runtime::now();
            let (outcome, observed) = if read_only {
                session.run_read_only_observed(keys)
            } else {
                session.run_update_observed(keys, &writes)
            };
            let TxnOutcome::Committed {
                latency,
                internal_latency,
            } = outcome
            else {
                if read_only {
                    tally.read_only_aborts += 1;
                } else {
                    tally.update_retries += 1;
                }
                retry_pause(attempts);
                continue;
            };
            let reads = keys
                .iter()
                .zip(observed)
                .map(|(key, value)| ReadRecord {
                    key: key.clone(),
                    observed_writer: value.as_ref().and_then(decode_writer),
                    value,
                })
                .collect();
            run.recorder.record(TxnRecord {
                id,
                kind: if read_only {
                    TxnKind::ReadOnly
                } else {
                    TxnKind::Update
                },
                started,
                finished: runtime::now(),
                reads,
                writes: write_records(&writes),
            });
            tally.committed += 1;
            if read_only {
                tally.committed_read_only += 1;
            } else {
                tally.update_latency.record(latency.as_nanos() as u64);
                tally
                    .internal_latency
                    .record(internal_latency.as_nanos() as u64);
            }
            run.progress.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if run.abort.load(Ordering::Relaxed) {
            // Count the remaining, never-attempted operations so the
            // totals still add up.
            tally.aborted += (scenario.ops_per_client - op - 1) as u64;
            break;
        }
    }
    tally
}

/// The stuck-run watchdog of a threaded run: with no committed transaction
/// for `stall_timeout` it raises the abort flag, so clients bail out
/// instead of hanging forever, and returns the stall report plus — on an
/// engine with observability on — a Chrome-trace dump of its trace rings
/// (the last ~32k spans per node: what every in-flight transaction was
/// doing). The `WatchdogCore` samples engine diagnostics and node liveness
/// into a bounded history, so the report shows the run-up to the stall and
/// can say "node 2 crashed" instead of leaving it to mailbox depths.
fn watch_for_stall(run: &Run, done: &AtomicBool) -> Option<(String, Option<String>)> {
    let engine = &run.engine;
    let mut watchdog = WatchdogCore::new(WatchdogConfig {
        stall_after: run.scenario.stall_timeout,
        ..WatchdogConfig::default()
    });
    while !done.load(Ordering::Relaxed) {
        std::thread::sleep(WATCHDOG_TICK);
        let verdict = watchdog.observe_with(
            run.progress.load(Ordering::Relaxed),
            || engine.diagnostics().unwrap_or_default(),
            || engine.node_liveness().unwrap_or_default(),
        );
        if verdict == WatchdogVerdict::Stalled {
            let trace_dump = engine
                .observability()
                .map(|hub| chrome_trace_json(&[(engine.name().to_string(), hub.drain_spans())]));
            run.abort.store(true, Ordering::Relaxed);
            return Some((watchdog.report(), trace_dump));
        }
    }
    None
}

/// Runs `body` to completion: as a foreground task of `sim`, else right
/// here on the calling thread.
fn run_within<R: Send + 'static>(
    sim: Option<&Arc<SimRuntime>>,
    name: &str,
    body: impl FnOnce() -> R + Send + 'static,
) -> R {
    match sim {
        Some(sim) => sim.block_on(name, body),
        None => body(),
    }
}

/// The one runner body, for threads and virtual time alike: populates the
/// key space fault-free (recorded), arms `injector`, runs every closed-loop
/// client to completion and evaluates the scenario's expectations over what
/// they recorded. `engine` is wired to `sim` when there is one.
///
/// The two runtimes differ in three places. Under the simulator the host
/// thread only acts at quiescent points, so population and the clients run
/// inside [`SimRuntime::block_on`]; [`runtime::spawn`] makes each client a
/// cooperative task there and an OS thread otherwise; and a wedged run ends
/// in the simulator's deadlock detector (a panic with a parked-task report)
/// where a threaded one ends in the wall-clock watchdog.
fn run_clients(
    engine: &Arc<dyn TransactionEngine>,
    sim: Option<&Arc<SimRuntime>>,
    injector: &FaultInjector,
    scenario: &ChaosScenario,
) -> ScenarioOutcome {
    let run = Arc::new(Run {
        engine: Arc::clone(engine),
        scenario: scenario.clone(),
        recorder: HistoryRecorder::new(),
        progress: AtomicU64::new(0),
        abort: AtomicBool::new(false),
        tallies: Mutex::new(Vec::new()),
        finished: Signal::default(),
    });
    {
        let run = Arc::clone(&run);
        run_within(sim, "populate", move || populate_recorded(&run));
    }
    // Freeze at quiescence: the virtual arm time is then a deterministic
    // function of the population run, so the plan's windows hit the same
    // virtual instants on every replay — and the hold keeps the armed
    // windows from firing (free-running the clock) while this host thread
    // is still spawning the task below, which would make the spawn's
    // position in the schedule a wall-clock race.
    if let Some(sim) = sim {
        sim.freeze();
    }
    injector.arm();

    // One body spawns every client and waits until all of them have
    // finished. Spawning from *inside* the simulation (rather than from the
    // host thread) keeps the spawn order — and therefore the scheduler's
    // seeded interleaving — deterministic.
    let drive = {
        let run = Arc::clone(&run);
        move || {
            let spec = &run.scenario.spec;
            let started = runtime::now();
            let mut clients = Vec::with_capacity(spec.total_clients());
            for node in 0..spec.nodes {
                for client in 0..spec.clients_per_node {
                    let run = Arc::clone(&run);
                    let name = format!("client-{node}-{client}");
                    clients.push(runtime::spawn(None, name, false, move || {
                        // A client that dies must still be counted, or the
                        // wait below never ends; its panic resurfaces when
                        // the tallies are folded.
                        let tally =
                            catch_unwind(AssertUnwindSafe(|| run_client(&run, node, client)));
                        run.tallies.lock().push(tally);
                        run.finished.notify_all();
                    }));
                }
            }
            let mut tallies = run.tallies.lock();
            while tallies.len() < clients.len() {
                run.finished.wait(&mut tallies, None);
            }
            (runtime::elapsed_since(started), clients)
        }
    };
    let done = AtomicBool::new(false);
    let (elapsed, stall) = std::thread::scope(|scope| {
        let watchdog = sim
            .is_none()
            .then(|| scope.spawn(|| watch_for_stall(&run, &done)));
        let (elapsed, clients) = run_within(sim, "clients", drive);
        done.store(true, Ordering::Relaxed);
        for client in clients {
            client.join().expect("a client's panic is in its tally");
        }
        let stall = watchdog.and_then(|w| w.join().expect("the watchdog panicked"));
        (elapsed, stall)
    });
    if let Some(sim) = sim {
        sim.wait_quiescent();
    }

    let mut total = ClientTally::default();
    for tally in std::mem::take(&mut *run.tallies.lock()) {
        let tally = tally.unwrap_or_else(|panic| resume_unwind(panic));
        total.committed += tally.committed;
        total.committed_read_only += tally.committed_read_only;
        total.aborted += tally.aborted;
        total.read_only_aborts += tally.read_only_aborts;
        total.update_retries += tally.update_retries;
        total.update_latency.merge(&tally.update_latency);
        total.internal_latency.merge(&tally.internal_latency);
    }
    let history = run.recorder.snapshot();
    let stuck = run.abort.load(Ordering::Relaxed);
    let (diagnostics, trace_dump) = stall.unzip();

    let mut violations = Vec::new();
    let consistency = scenario.expect.external_consistency.then(|| {
        check_all(&history).map_err(|violation| {
            violations.push(format!("consistency violation: {violation}"));
            violation.to_string()
        })
    });
    if scenario.expect.zero_read_only_aborts && total.read_only_aborts > 0 {
        violations.push(format!(
            "read-only transactions aborted {} time(s); SSS promises zero",
            total.read_only_aborts
        ));
    }
    if scenario.expect.all_committed
        && (total.aborted > 0 || total.committed != scenario.expected_total())
    {
        violations.push(format!(
            "expected {} committed transactions, got {} ({} abandoned)",
            scenario.expected_total(),
            total.committed,
            total.aborted
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
        engine: engine.name().to_string(),
        clients: scenario.spec.total_clients(),
        ops_per_client: scenario.ops_per_client,
        committed: total.committed,
        committed_read_only: total.committed_read_only,
        aborted: total.aborted,
        read_only_aborts: total.read_only_aborts,
        update_retries: total.update_retries,
        stuck,
        diagnostics,
        trace_dump: trace_dump.flatten(),
        consistency,
        violations,
        history,
        elapsed,
        update_latency: total.update_latency,
        internal_latency: total.internal_latency,
    }
}

/// The one prologue: validates the spec, builds `kind` under the scenario's
/// fault plan — on threads, or with `sim_seed` on a fresh deterministic
/// simulator — runs the scenario on it and disarms the plan. `tune` sees the
/// scenario's [`EngineBuilder`] ([`ChaosScenario::engine`]) before it boots:
/// a harness that sweeps a tuning value or wants observability sets it
/// there, and reads whatever it needs off the returned engine (trace spans,
/// mailbox totals) afterwards; under the simulator the engine is quiescent
/// by then.
///
/// # Errors
///
/// Returns the [`SpecError`] if the scenario's workload spec is invalid.
pub fn run_scenario_tuned(
    kind: EngineKind,
    scenario: &ChaosScenario,
    sim_seed: Option<u64>,
    tune: impl FnOnce(EngineBuilder) -> EngineBuilder,
) -> Result<(ScenarioOutcome, Arc<dyn TransactionEngine>), SpecError> {
    scenario.spec.validate()?;
    let sim = sim_seed.map(SimRuntime::new);
    let injector = FaultInjector::new(scenario.faults.clone());
    let mut builder = tune(scenario.engine(kind, &injector));
    if let Some(sim) = &sim {
        builder = builder.scheduler(sim.handle());
    }
    let engine: Arc<dyn TransactionEngine> = Arc::from(builder.build());
    let outcome = run_clients(&engine, sim.as_ref(), &injector, scenario);
    injector.disarm();
    if let Some(sim) = &sim {
        sim.wait_quiescent();
    }
    Ok((outcome, engine))
}

/// Builds the engine under the scenario's fault plan, populates the key
/// space fault-free, arms the plan, runs the fixed-operation workload on
/// threads with history recording and the stuck-run detector, and evaluates
/// the scenario's expectations.
///
/// # Errors
///
/// Returns the [`SpecError`] if the scenario's workload spec is invalid.
pub fn run_scenario(
    kind: EngineKind,
    scenario: &ChaosScenario,
) -> Result<ScenarioOutcome, SpecError> {
    run_scenario_tuned(kind, scenario, None, |builder| builder).map(|(outcome, _)| outcome)
}

/// [`run_scenario`] under the deterministic simulator: a [`SimRuntime`]
/// seeded with `seed` runs population, fault plan and every closed-loop
/// client as cooperative tasks in virtual time. The same `(scenario,
/// engine, seed)` triple replays the run bit-identically —
/// [`ScenarioOutcome::summary`], the recorded history and, beyond what
/// [`ScenarioOutcome::fingerprint`] covers, every latency and retry count
/// are deterministic functions of the inputs.
///
/// There is no stuck-run watchdog (a wedged run panics with the simulator's
/// deadlock report instead), and [`ScenarioOutcome::elapsed`], the latency
/// histograms and the history's timestamps are virtual, so checker verdicts
/// are reproducible.
///
/// # Errors
///
/// Returns the [`SpecError`] if the scenario's workload spec is invalid.
pub fn run_scenario_sim(
    kind: EngineKind,
    scenario: &ChaosScenario,
    seed: u64,
) -> Result<ScenarioOutcome, SpecError> {
    run_scenario_tuned(kind, scenario, Some(seed), |builder| builder).map(|(outcome, _)| outcome)
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
        // Every committed update's latency is recorded, and an SSS update
        // commits internally before its client hears of it.
        let updates = outcome.committed - outcome.committed_read_only;
        assert_eq!(outcome.update_latency.count(), updates);
        assert_eq!(outcome.internal_latency.count(), updates);
        assert!(outcome.internal_latency.sum() < outcome.update_latency.sum());
        let per_second = outcome.committed as f64 / outcome.elapsed.as_secs_f64();
        assert_eq!(outcome.throughput(), per_second);
        let aborted = outcome.update_retries as f64;
        assert_eq!(
            outcome.abort_rate(),
            aborted / (outcome.committed as f64 + aborted)
        );
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
        // In virtual time the measurements replay too, not only the history.
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.update_retries, b.update_retries);
        assert_eq!(a.update_latency, b.update_latency);
        assert_eq!(a.internal_latency, b.internal_latency);
    }

    #[test]
    fn encoded_writers_round_trip() {
        let id = TxnId::new(NodeId(3), 17);
        assert_eq!(decode_writer(&encode_writer(id, 4)), Some(id));
        assert_eq!(decode_writer(&Value::from_u64(12)), None);
    }
}
