//! The untraced run of a workload: set-up time, the measured window (or
//! the fixed simulated work), the correctness checks, the eight end-to-end
//! metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, EngineKind, Key, MailboxStats, TransactionEngine, NODES};
use crate::client::EngineRunner;
use crate::gen::{derive_seed, Mix};
use crate::json::Json;
use crate::measure::{estimate, Estimates, LatencyEstimate, P50_SLICE_NS, P90_SLICE_NS};
use crate::procfs;
use crate::report::{Metric, RunResult};
use crate::simrun::{run_schedule, Schedule, SchedulePlan};
use crate::stats::{median, SliceSummary};
use crate::threaded::{run_window, WindowData, WindowPlan};
use crate::workloads::{
    Runtime, Workload, CLIENT_THREADS, SIM_CLIENTS_PER_NODE, SIM_DELAY, SIM_SCHEDULES,
    SIM_TXNS_PER_CLIENT,
};

/// Build + populate + shut down cycles before a run, the median of which
/// is `setup_s`.
pub const SETUP_CYCLES: usize = 5;

/// The sizes of a run; `--check` scales them down.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub warm_up: Duration,
    pub measure: Duration,
    /// Overrides the workload's memory mark.
    pub rss_mark: Option<u64>,
    pub setup_cycles: usize,
    pub sim_schedules: usize,
    pub sim_txns_per_client: usize,
}

impl Scale {
    /// The scale of a full run measuring for `seconds`. The warm-up is at
    /// least 5 s under load: the first seconds of load run in a regime of
    /// their own (the host is slow to hand the VM its CPU).
    pub fn full(seconds: u64) -> Self {
        Scale {
            warm_up: Duration::from_secs((seconds / 5).max(5)),
            measure: Duration::from_secs(seconds),
            rss_mark: None,
            setup_cycles: SETUP_CYCLES,
            sim_schedules: SIM_SCHEDULES,
            sim_txns_per_client: SIM_TXNS_PER_CLIENT,
        }
    }

    /// The scale of `--check`: everything runs, briefly.
    pub fn check() -> Self {
        Scale {
            warm_up: Duration::from_millis(300),
            measure: Duration::from_millis(1200),
            rss_mark: Some(300),
            setup_cycles: 1,
            sim_schedules: 1,
            sim_txns_per_client: 8,
        }
    }
}

/// Messages handed to a node per committed transaction: queued plus
/// delivered on the local fast path.
pub fn msgs_per_txn(before: &MailboxStats, after: &MailboxStats, committed: u64) -> f64 {
    let window = after.diff(before);
    (window.total_enqueued() + window.local_delivered) as f64 / committed.max(1) as f64
}

pub fn mailbox_totals<E: TransactionEngine + ?Sized>(engine: &E) -> MailboxStats {
    engine
        .mailbox_totals()
        .expect("every engine of the repository exposes mailbox totals")
}

/// Builds and populates a threaded engine; returns it with the seconds the
/// two steps took.
pub fn threaded_engine(
    kind: EngineKind,
    nodes: usize,
    keys: &[Key],
) -> (Box<dyn TransactionEngine>, f64, f64) {
    let started = Instant::now();
    let engine = api::build_threaded(kind, nodes);
    let build_s = started.elapsed().as_secs_f64();
    api::populate(&mut *engine.session(0), keys);
    let populate_s = started.elapsed().as_secs_f64() - build_s;
    (engine, build_s, populate_s)
}

/// One untraced threaded window of `clients` client threads on a fresh
/// engine; also returns the engine's build and populate seconds.
pub fn threaded_window(
    kind: EngineKind,
    nodes: usize,
    clients: usize,
    keys: &[Key],
    plan: &WindowPlan,
) -> (WindowData<MailboxStats>, f64, f64) {
    let (engine, build_s, populate_s) = threaded_engine(kind, nodes, keys);
    let (data, _) = run_window(
        clients,
        |client, _| EngineRunner(engine.session(client % nodes)),
        keys,
        || mailbox_totals(&engine),
        plan,
    );
    (data, build_s, populate_s)
}

/// Estimates of a threaded window.
pub fn window_estimates<T>(data: &WindowData<T>) -> Result<Estimates, String> {
    estimate(&data.samples, data.window_ns, P50_SLICE_NS, P90_SLICE_NS)
}

fn slice_json(s: &SliceSummary) -> Json {
    Json::obj(vec![
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("slices", Json::Num(s.slices as f64)),
        ("samples", Json::Num(s.samples as f64)),
    ])
}

fn latency_json(l: &LatencyEstimate) -> Json {
    Json::obj(vec![
        ("p50_us", slice_json(&l.p50_us)),
        ("p90_us", slice_json(&l.p90_us)),
        ("window_p999_us", Json::Num(l.p999_us)),
        ("window_max_us", Json::Num(l.max_us)),
    ])
}

pub fn estimates_json(e: &Estimates) -> Json {
    Json::obj(vec![
        ("throughput_tps", slice_json(&e.throughput_tps)),
        ("update", latency_json(&e.update)),
        ("read_only", latency_json(&e.read_only)),
        ("committed", Json::Num(e.committed as f64)),
        ("updates", Json::Num(e.updates as f64)),
        ("update_retries", Json::Num(e.update_retries as f64)),
    ])
}

/// The five timings of a window or a schedule, in the catalogue's order:
/// throughput, update p50 and p90, read-only p50 and p90.
fn timings(e: &Estimates) -> [f64; 5] {
    [
        e.throughput_tps.median,
        e.update.p50_us.median,
        e.update.p90_us.median,
        e.read_only.p50_us.median,
        e.read_only.p90_us.median,
    ]
}

/// The end-to-end metrics in the catalogue's order. `setup_s` is the median
/// of the set-up cycles.
fn end_to_end(
    setup_cycles_s: &[f64],
    [throughput_tps, update_p50_us, update_p90_us, ro_p50_us, ro_p90_us]: [f64; 5],
    msgs_per_txn: f64,
    rss_mib: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setup_cycles_s), "s"),
        Metric::new("throughput_tps", throughput_tps, "1/s"),
        Metric::new("update_p50_us", update_p50_us, "us"),
        Metric::new("update_p90_us", update_p90_us, "us"),
        Metric::new("ro_p50_us", ro_p50_us, "us"),
        Metric::new("ro_p90_us", ro_p90_us, "us"),
        Metric::new("msgs_per_txn", msgs_per_txn, "count"),
        Metric::new("rss_at_mark_mb", rss_mib, "MiB"),
    ]
}

fn seconds_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|s| Json::Num(*s)).collect())
}

fn run_threaded(workload: &Workload, seed: u64, scale: &Scale) -> Result<RunResult, String> {
    let keys = api::key_table();
    let setups: Vec<f64> = (0..scale.setup_cycles)
        .map(|_| {
            let started = Instant::now();
            drop(threaded_engine(EngineKind::Sss, NODES, &keys));
            started.elapsed().as_secs_f64()
        })
        .collect();
    let plan = WindowPlan {
        seed,
        mix: workload.mix,
        warm_up: scale.warm_up,
        measure: scale.measure,
        rss_mark: scale.rss_mark.unwrap_or(workload.rss_mark),
    };
    let (data, _, _) = threaded_window(EngineKind::Sss, NODES, CLIENT_THREADS, &keys, &plan);
    let estimates = window_estimates(&data)?;
    let rss_mib = data.rss_at_mark_mib.ok_or_else(|| {
        format!(
            "only {} transactions committed; memory is read at the {}th",
            data.committed_since_populate, plan.rss_mark
        )
    })?;
    let mut violations = Vec::new();
    if !MailboxStats::conserves(&data.before, &data.after) {
        violations.push("mailbox counters do not conserve over the window".to_string());
    }
    let cpu_busy = match (data.cpu.first(), data.cpu.last()) {
        (Some(first), Some(last)) => {
            last.since(first).total_us() / 1e6 / scale.measure.as_secs_f64()
        }
        _ => 0.0,
    };
    let info = Json::obj(vec![
        ("estimates", estimates_json(&estimates)),
        ("setup_cycles_s", seconds_json(&setups)),
        ("warm_up_s", Json::Num(scale.warm_up.as_secs_f64())),
        ("client_threads", Json::Num(CLIENT_THREADS as f64)),
        ("rss_mark_txns", Json::Num(plan.rss_mark as f64)),
        ("cpu_cores_busy", Json::Num(cpu_busy)),
    ]);
    Ok(RunResult {
        workload: workload.name.to_string(),
        seed,
        seconds: scale.measure.as_secs(),
        traced: false,
        attempted: estimates.attempted,
        failed: estimates.failed,
        violations,
        metrics: end_to_end(
            &setups,
            timings(&estimates),
            msgs_per_txn(&data.before, &data.after, estimates.committed),
            rss_mib,
        ),
        info,
    })
}

/// One untraced schedule on a simulated cluster of `kind`. `schedule`
/// selects both the interleaving and the generated inputs.
pub fn sim_schedule(
    kind: EngineKind,
    nodes: usize,
    keys: &Arc<Vec<Key>>,
    seed: u64,
    schedule: u64,
    plan: SchedulePlan,
) -> Schedule<EngineRunner, MailboxStats> {
    run_schedule(
        || api::build_sim(kind, nodes, SIM_DELAY, derive_seed(seed, 1000 + schedule)),
        keys,
        SchedulePlan {
            seed: derive_seed(seed, schedule),
            ..plan
        },
        |engine, node, _| EngineRunner(engine.session(node)),
        mailbox_totals,
    )
}

/// Estimates of one schedule: its whole virtual window is one slice.
pub fn schedule_estimates<R, T>(schedule: &Schedule<R, T>) -> Result<Estimates, String> {
    estimate(&schedule.samples, schedule.window_ns, u64::MAX, u64::MAX)
}

/// A schedule of `mix`. The seed is filled in per schedule.
pub fn sim_plan(mix: Mix, clients_per_node: usize, txns_per_client: usize) -> SchedulePlan {
    SchedulePlan {
        seed: 0,
        mix,
        clients_per_node,
        txns_per_client,
    }
}

fn run_simulated(workload: &Workload, seed: u64, scale: &Scale) -> Result<RunResult, String> {
    let keys = Arc::new(api::key_table());
    let plan = sim_plan(
        workload.mix,
        SIM_CLIENTS_PER_NODE,
        scale.sim_txns_per_client,
    );
    let run = |schedule: u64| sim_schedule(EngineKind::Sss, NODES, &keys, seed, schedule, plan);
    // Set-up cycles of their own, as in a threaded run: build, populate and
    // shut down a simulated cluster whose clients have nothing to do.
    let idle = SchedulePlan {
        txns_per_client: 0,
        ..plan
    };
    let setups: Vec<f64> = (0..scale.setup_cycles as u64)
        .map(|cycle| sim_schedule(EngineKind::Sss, NODES, &keys, seed, cycle, idle).setup_wall_s())
        .collect();
    let schedules: Vec<_> = (0..scale.sim_schedules as u64).map(run).collect();
    let mut violations = Vec::new();
    // Same seed, same output: the first schedule is executed a second time
    // and must reproduce every completion time and every message count.
    let replay = run(0);
    let first = &schedules[0];
    if replay.samples != first.samples
        || replay.after.diff(&replay.before) != first.after.diff(&first.before)
    {
        violations.push("the same seed did not replay bit for bit".to_string());
    }
    // The work is fixed, so the end of the run is the mark.
    let rss_mib = procfs::rss_mib();

    let mut all: Vec<Estimates> = Vec::new();
    let mut msgs = Vec::new();
    for schedule in &schedules {
        let estimates = schedule_estimates(schedule)?;
        if !MailboxStats::conserves(&schedule.before, &schedule.after) {
            violations.push("mailbox counters do not conserve over a schedule".to_string());
        }
        msgs.push(msgs_per_txn(
            &schedule.before,
            &schedule.after,
            estimates.committed,
        ));
        all.push(estimates);
    }
    // Each timing is the median over the schedules.
    let per_schedule: Vec<[f64; 5]> = all.iter().map(timings).collect();
    let over_schedules: [f64; 5] =
        std::array::from_fn(|i| median(&per_schedule.iter().map(|t| t[i]).collect::<Vec<_>>()));
    let clients_wall: Vec<f64> = schedules.iter().map(|s| s.clients_wall_s).collect();
    let info = Json::obj(vec![
        (
            "schedules",
            Json::Arr(all.iter().map(estimates_json).collect()),
        ),
        ("setup_cycles_s", seconds_json(&setups)),
        ("clients_wall_s", seconds_json(&clients_wall)),
        (
            "virtual_clients",
            Json::Num((NODES * SIM_CLIENTS_PER_NODE) as f64),
        ),
    ]);
    Ok(RunResult {
        workload: workload.name.to_string(),
        seed,
        seconds: scale.measure.as_secs(),
        traced: false,
        attempted: all.iter().map(|e| e.attempted).sum(),
        failed: all.iter().map(|e| e.failed).sum(),
        violations,
        metrics: end_to_end(&setups, over_schedules, median(&msgs), rss_mib),
        info,
    })
}

/// Runs `workload` untraced at `scale`.
pub fn untraced(workload: &Workload, seed: u64, scale: &Scale) -> Result<RunResult, String> {
    match workload.runtime {
        Runtime::Threaded => run_threaded(workload, seed, scale),
        Runtime::Simulated => run_simulated(workload, seed, scale),
    }
}
