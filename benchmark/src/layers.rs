//! The traced run of a workload: the same generated inputs through native
//! sessions with the benchmark's spans around every call and the program's
//! own phase tracing on (`ObsHub`), plus the counters at the window's
//! edges, the micro-timings and the reference runs. It produces the
//! per-layer metrics; the end-to-end metrics are always measured untraced.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    self, EngineKind, Histogram, Key, MailboxStats, NodeStats, ObsHub, Phase, SssEngine,
    StorageStats, TransactionEngine, KIND_LABELS, NODES,
};
use crate::client::{EngineRunner, TxnRunner};
use crate::gen::derive_seed;
use crate::json::Json;
use crate::measure::{estimate, Estimates};
use crate::micro;
use crate::procfs::{self, CpuTime};
use crate::report::{write_out, Metric, RunResult, PER_LAYER};
use crate::run::{
    estimates_json, schedule_estimates, sim_plan, sim_schedule, threaded_engine, threaded_window,
    window_estimates,
};
use crate::simrun::{run_schedule, SchedulePlan};
use crate::spans::{chrome_trace, p50_us, Span, SpanTimes, TracedRunner};
use crate::stats::{median, quartiles};
use crate::threaded::{run_window, WindowPlan};
use crate::workloads::{
    Runtime, Workload, CLIENT_THREADS, SIM_CLIENTS_PER_NODE, SIM_DELAY, SIM_HOP_US,
    SIM_TXNS_PER_CLIENT,
};

/// The client-scope phases an SSS transaction passes through.
const SSS_PHASES: [Phase; 5] = [
    Phase::Read,
    Phase::PreCommit,
    Phase::CommitQueueWait,
    Phase::ConfirmWait,
    Phase::Release,
];

/// Every counter the program exposes, read at one instant.
struct Counters {
    mailbox: MailboxStats,
    storage: StorageStats,
    nodes: NodeStats,
    phases: Vec<(Phase, Histogram)>,
    cpu: CpuTime,
    context_switches: u64,
    snapshot_queue_entries: usize,
}

fn counters(engine: &SssEngine, hub: &ObsHub) -> Counters {
    Counters {
        mailbox: engine.cluster().mailbox_totals(),
        storage: engine.cluster().storage_stats(),
        nodes: engine.cluster().stats().totals,
        phases: hub.phase_snapshot(),
        cpu: procfs::cpu_time(),
        context_switches: procfs::context_switches(),
        snapshot_queue_entries: engine.cluster().snapshot_queue_entries(),
    }
}

/// What the traced pass of either runtime observed.
struct TracedPass {
    before: Counters,
    after: Counters,
    estimates: Estimates,
    spans: SpanTimes,
    /// Wall-clock seconds of the window (threaded) or of the clients' work
    /// (simulated).
    wall_s: f64,
    /// Process CPU microseconds per committed transaction, early in the
    /// pass over the rest of it (detects a window that starts in another
    /// CPU regime of the host than it ends in).
    cpu_regime_ratio: f64,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn counter_metrics(pass: &TracedPass) -> Vec<Metric> {
    let committed = pass.estimates.committed as f64;
    let per_txn = |count: u64| ratio(count as f64, committed);
    let mut metrics = Vec::new();

    let storage = pass.after.storage.diff(&pass.before.storage);
    // The diff keeps the later snapshot's gauges (`retained_versions`).
    let mv = storage.mv.unwrap_or_default();
    let locks = storage.locks.unwrap_or_default();
    let lock_requests = (locks.granted + locks.timeouts) as f64;
    metrics.extend([
        Metric::new(
            "storage.mv_installed_per_txn",
            per_txn(mv.installed_versions),
            "count",
        ),
        Metric::new(
            "storage.mv_retained_versions",
            mv.retained_versions as f64,
            "count",
        ),
        Metric::new(
            "storage.lock_granted_per_txn",
            per_txn(locks.granted),
            "count",
        ),
        Metric::new(
            "storage.lock_contended_share",
            ratio(locks.contended as f64, lock_requests),
            "share",
        ),
        Metric::new(
            "storage.lock_timeout_share",
            ratio(locks.timeouts as f64, lock_requests),
            "share",
        ),
    ]);

    let mail = pass.after.mailbox.diff(&pass.before.mailbox);
    let handed = (mail.total_enqueued() + mail.local_delivered) as f64;
    metrics.extend([
        Metric::new("net.msgs_per_wakeup", mail.messages_per_wakeup(), "count"),
        Metric::new(
            "net.local_share",
            ratio(mail.local_delivered as f64, handed),
            "share",
        ),
        Metric::new(
            "net.enqueue_ops_per_txn",
            per_txn(mail.enqueue_ops),
            "count",
        ),
    ]);
    // `StateQuery`, the last slot, is recovery traffic: no fault, no count.
    for (slot, label) in KIND_LABELS.iter().enumerate().take(7) {
        metrics.push(Metric::new(
            format!("net.kind.{label}_per_txn"),
            per_txn(mail.per_kind[slot]),
            "count",
        ));
    }

    let times = &pass.spans;
    metrics.extend([
        Metric::new(
            "core.ro_read_us_p50",
            p50_us(&times.read_only_read_ns),
            "us",
        ),
        Metric::new("core.upd_read_us_p50", p50_us(&times.update_read_ns), "us"),
        Metric::new(
            "core.commit_internal_us_p50",
            p50_us(&times.commit_internal_ns),
            "us",
        ),
        Metric::new(
            "core.external_lag_us_p50",
            p50_us(&times.external_lag_ns),
            "us",
        ),
    ]);

    let phase = |snapshot: &[(Phase, Histogram)], wanted: Phase| -> Histogram {
        snapshot
            .iter()
            .find(|(p, _)| *p == wanted)
            .map(|(_, h)| h.clone())
            .expect("the hub reports every phase")
    };
    let windows: Vec<(Phase, Histogram)> = SSS_PHASES
        .iter()
        .map(|&p| {
            (
                p,
                phase(&pass.after.phases, p).diff(&phase(&pass.before.phases, p)),
            )
        })
        .collect();
    let phase_total_us: f64 = windows.iter().map(|(_, h)| h.sum() as f64).sum();
    for (p, window) in &windows {
        metrics.push(Metric::new(
            format!("core.phase.{}_share", p.label()),
            ratio(window.sum() as f64, phase_total_us),
            "share",
        ));
    }
    for (p, window) in &windows {
        metrics.push(Metric::new(
            format!("core.phase.{}_p50_us", p.label()),
            window.value_at_quantile(0.5) as f64,
            "us",
        ));
    }
    // Reconciliation: the program's own phases of update transactions (the
    // read phase is shared with read-only transactions, so the benchmark's
    // read spans stand in for it) against the time the benchmark saw inside
    // update attempts.
    let update_phase_us: f64 = windows
        .iter()
        .filter(|(p, _)| *p != Phase::Read)
        .map(|(_, h)| h.sum() as f64)
        .sum();
    metrics.push(Metric::new(
        "core.phase_sum_over_update_mean",
        ratio(
            update_phase_us + times.update_read_total_ns as f64 / 1e3,
            times.update_attempt_total_ns as f64 / 1e3,
        ),
        "ratio",
    ));

    let n = |pick: fn(&NodeStats) -> u64| pick(&pass.after.nodes) - pick(&pass.before.nodes);
    let prepares = n(|s| s.prepares) as f64;
    let reads = n(|s| s.reads_served) as f64;
    let internal_commits = n(|s| s.internal_commits) as f64;
    let attempts = (pass.estimates.updates + pass.estimates.update_retries) as f64;
    metrics.extend([
        Metric::new(
            "core.update_retry_share",
            ratio(pass.estimates.update_retries as f64, attempts),
            "share",
        ),
        Metric::new(
            "core.votes_lock_failed_share",
            ratio(n(|s| s.votes_lock_failed) as f64, prepares),
            "share",
        ),
        Metric::new(
            "core.votes_validation_failed_share",
            ratio(n(|s| s.votes_validation_failed) as f64, prepares),
            "share",
        ),
        Metric::new(
            "core.reads_deferred_share",
            ratio(n(|s| s.reads_deferred) as f64, reads),
            "share",
        ),
        Metric::new(
            "core.reads_parked_share",
            ratio(n(|s| s.reads_parked) as f64, reads),
            "share",
        ),
        Metric::new(
            "core.external_wait_share",
            ratio(n(|s| s.external_commit_waits) as f64, internal_commits),
            "share",
        ),
        Metric::new(
            "core.precommit_wait_us_per_commit",
            ratio(n(|s| s.precommit_wait_nanos) as f64 / 1e3, internal_commits),
            "us",
        ),
        Metric::new(
            "core.snapshot_queue_entries_end",
            pass.after.snapshot_queue_entries as f64,
            "count",
        ),
        Metric::new(
            "core.valve.pending_global_expired",
            n(|s| s.pending_global_expired) as f64,
            "count",
        ),
    ]);

    let cpu = pass.after.cpu.since(&pass.before.cpu);
    metrics.extend([
        Metric::new(
            "process.cpu_us_per_txn",
            ratio(cpu.total_us(), committed),
            "us",
        ),
        Metric::new(
            "process.sys_share",
            ratio(cpu.system_us, cpu.total_us()),
            "share",
        ),
        Metric::new(
            "process.ctx_switches_per_txn",
            per_txn(pass.after.context_switches - pass.before.context_switches),
            "count",
        ),
    ]);
    metrics
}

/// Load every window of a traced run is preceded by, on its own engine. The
/// host takes seconds to hand the VM its CPU once load starts, and the
/// program's bounded logs fill; the same 5 s as an untraced run.
const WARM_UP: Duration = Duration::from_secs(5);
/// The traced window the counters and spans are taken over.
const TRACED_WINDOW: Duration = Duration::from_secs(10);
/// The 1-node window (after a 300 ms warm-up: the floor has no network to
/// warm).
const ONE_NODE_WINDOW: Duration = Duration::from_secs(1);
/// Rounds and window length of the comparison of untraced SSS, traced SSS
/// and 2PC (see [`compare`]).
const COMPARE_ROUNDS: u64 = 5;
const COMPARE_WINDOW: Duration = Duration::from_secs(2);

/// The short virtual-time pass of a threaded workload's mix: one client per
/// node, the concurrency closest to the threaded run's two clients (at the
/// simulated workload's 32 clients the hot-key mix livelocks: 6.6 retries
/// per transaction and 32 ms of wall time for each).
const SIM_PASS_CLIENTS_PER_NODE: usize = 1;
const SIM_PASS_TXNS_PER_CLIENT: usize = 40;

/// A window of the workload's mix. `--seconds` sizes the untraced run only;
/// the windows of a traced run are fixed.
fn window_plan(workload: &Workload, seed: u64, warm_up: Duration, measure: Duration) -> WindowPlan {
    WindowPlan {
        seed,
        mix: workload.mix,
        warm_up,
        measure,
        rss_mark: 0,
    }
}

/// CPU per transaction in the first two seconds over the rest.
fn cpu_regime_ratio(cpu: &[CpuTime], committed_per_second: &[f64]) -> f64 {
    let per_txn = |from: usize, to: usize| -> f64 {
        let to = to.min(cpu.len() - 1).min(committed_per_second.len());
        if from >= to {
            return 0.0;
        }
        let used = cpu[to].since(&cpu[from]).total_us();
        ratio(used, committed_per_second[from..to].iter().sum())
    };
    ratio(per_txn(0, 2), per_txn(2, usize::MAX))
}

/// Untraced SSS against 2PC and against traced SSS, on threads (the
/// baselines do not apply a simulated delay, so the 2PC ratio is taken on
/// threads for every workload).
struct Comparison {
    /// Median over the rounds of the untraced SSS and the 2PC throughput.
    sss_tps: f64,
    twopc_tps: f64,
    /// Median over the rounds of SSS / 2PC.
    sss_over_twopc: f64,
    /// Median over the rounds of 1 - traced / untraced, with the quartiles of
    /// the rounds; `None` without a traced engine.
    trace_overhead_share: Option<[f64; 3]>,
}

/// Committed transactions per second of one window of `plan` on whatever
/// `make_runner` drives.
fn window_tps<R: TxnRunner + Send>(
    make_runner: impl Fn(usize, Instant) -> R,
    keys: &[Key],
    plan: &WindowPlan,
) -> f64 {
    let (data, _) = run_window(CLIENT_THREADS, make_runner, keys, || (), plan);
    let committed = data.samples.iter().filter(|s| !s.failed).count();
    committed as f64 / plan.measure.as_secs_f64()
}

/// Compares the engines fairly on a host whose speed drifts: each engine
/// first runs [`WARM_UP`] of load of its own, then short windows alternate
/// (SSS, traced SSS, 2PC; SSS, traced SSS, 2PC; ...) and every ratio is the
/// median of the per-round ratios, so a slow stretch hits a whole round and
/// cancels. `traced` is the engine of the traced window, already warm.
fn compare(
    workload: &Workload,
    seed: u64,
    keys: &[Key],
    sss: &dyn TransactionEngine,
    traced: Option<&SssEngine>,
) -> Comparison {
    let twopc = api::build_threaded(EngineKind::TwoPc, NODES);
    api::populate(&mut *twopc.session(0), keys);
    let untraced = |engine: &dyn TransactionEngine, plan: &WindowPlan| {
        window_tps(
            |client, _| EngineRunner(engine.session(client % NODES)),
            keys,
            plan,
        )
    };
    let warm = window_plan(workload, seed, Duration::ZERO, WARM_UP);
    untraced(sss, &warm);
    untraced(&*twopc, &warm);

    let (mut sss_tps, mut twopc_tps, mut over_twopc, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..COMPARE_ROUNDS {
        // The same inputs for every engine of a round.
        let plan = window_plan(
            workload,
            derive_seed(seed, 2000 + round),
            Duration::ZERO,
            COMPARE_WINDOW,
        );
        let a = untraced(sss, &plan);
        if let Some(engine) = traced {
            let b = window_tps(
                |client, epoch| TracedRunner::new(engine.cluster().session(client), epoch, 1 << 17),
                keys,
                &plan,
            );
            overhead.push(1.0 - ratio(b, a));
        }
        let c = untraced(&*twopc, &plan);
        sss_tps.push(a);
        twopc_tps.push(c);
        over_twopc.push(ratio(a, c));
    }
    Comparison {
        sss_tps: median(&sss_tps),
        twopc_tps: median(&twopc_tps),
        sss_over_twopc: median(&over_twopc),
        trace_overhead_share: traced.map(|_| {
            let [q1, _, q3] = quartiles(&overhead);
            [q1, median(&overhead), q3]
        }),
    }
}

/// What the passes around the traced one measured.
struct Context {
    comparison: Comparison,
    /// 1 - traced rate / untraced rate, in the workload's own time: the
    /// median of [`Comparison::trace_overhead_share`] on threads. In virtual
    /// time CPU is free, so on the simulated workload this is 0 unless
    /// tracing changes what the program does.
    trace_overhead_share: f64,
    build_s: f64,
    populate_s: f64,
    /// A 1-node cluster: the no-network floor.
    one_node: Estimates,
    /// An untraced virtual-time pass of the workload's mix, and the
    /// wall-clock seconds its clients took.
    sim: Estimates,
    sim_clients_wall_s: f64,
}

fn assemble(
    workload: &Workload,
    seed: u64,
    pass: TracedPass,
    context: Context,
    key_table: &[Key],
    client_spans: &[Vec<Span>],
) -> Result<RunResult, String> {
    let mut metrics = micro::all();
    metrics.extend(counter_metrics(&pass));
    let tps_slices = &pass.estimates.throughput_tps;
    let sim_committed = context.sim.committed as f64;
    metrics.extend([
        Metric::new("engine.build_s", context.build_s, "s"),
        Metric::new("engine.populate_s", context.populate_s, "s"),
        Metric::new(
            "engine.one_node_update_p50_us",
            context.one_node.update.p50_us.median,
            "us",
        ),
        Metric::new(
            "engine.one_node_ro_p50_us",
            context.one_node.read_only.p50_us.median,
            "us",
        ),
        Metric::new("engine.twopc_tps", context.comparison.twopc_tps, "1/s"),
        Metric::new(
            "engine.sss_over_twopc",
            context.comparison.sss_over_twopc,
            "ratio",
        ),
        Metric::new(
            "obs.trace_overhead_share",
            context.trace_overhead_share,
            "share",
        ),
        Metric::new(
            "sim.update_hops_p50",
            context.sim.update.p50_us.median / SIM_HOP_US,
            "count",
        ),
        Metric::new(
            "sim.ro_hops_p50",
            context.sim.read_only.p50_us.median / SIM_HOP_US,
            "count",
        ),
        Metric::new(
            "sim.wall_us_per_txn",
            ratio(context.sim_clients_wall_s * 1e6, sim_committed),
            "us",
        ),
        Metric::new(
            "sim.retries_per_txn",
            ratio(context.sim.update_retries as f64, sim_committed),
            "count",
        ),
        Metric::new(
            "bench.generator_share",
            ratio(
                micro::client_loop_ns(workload.mix, key_table) * pass.estimates.attempted as f64,
                pass.wall_s * 1e9 * client_spans.len() as f64,
            ),
            "share",
        ),
        Metric::new(
            "bench.tps_slice_iqr_share",
            ratio(tps_slices.q3 - tps_slices.q1, tps_slices.median),
            "share",
        ),
        Metric::new("bench.cpu_regime_ratio", pass.cpu_regime_ratio, "ratio"),
    ]);
    let reported = metrics.iter().map(|m| (m.name.as_str(), m.unit));
    if !reported.eq(PER_LAYER.iter().map(|m| (m.name, m.unit))) {
        return Err("the traced run and the per-layer catalogue disagree".to_string());
    }

    let trace_path = write_out(
        &format!("{}.trace.json", workload.name),
        &chrome_trace(client_spans),
    )?;
    let info = Json::obj(vec![
        ("traced_estimates", estimates_json(&pass.estimates)),
        (
            "reference_untraced_tps",
            Json::Num(context.comparison.sss_tps),
        ),
        (
            "trace_overhead_share_quartiles",
            context
                .comparison
                .trace_overhead_share
                .map_or(Json::Null, |q| {
                    Json::Arr(q.iter().map(|v| Json::Num(*v)).collect())
                }),
        ),
        ("spans_in_window", Json::Num(pass.spans.spans as f64)),
        (
            "txn.update.self_us_p50",
            Json::Num(p50_us(&pass.spans.update_self_ns)),
        ),
        (
            "txn.read_only.self_us_p50",
            Json::Num(p50_us(&pass.spans.read_only_self_ns)),
        ),
        ("trace_file", Json::str(&trace_path.display().to_string())),
    ]);
    let mut violations = Vec::new();
    if !MailboxStats::conserves(&pass.before.mailbox, &pass.after.mailbox) {
        violations.push("mailbox counters do not conserve over the traced window".to_string());
    }
    Ok(RunResult {
        workload: workload.name.to_string(),
        seed,
        seconds: pass.wall_s.round() as u64,
        traced: true,
        attempted: pass.estimates.attempted,
        failed: pass.estimates.failed,
        violations,
        metrics,
        info,
    })
}

fn traced_threaded(workload: &Workload, seed: u64) -> Result<RunResult, String> {
    let keys = api::key_table();
    let (sss, build_s, populate_s) = threaded_engine(EngineKind::Sss, NODES, &keys);

    let hub = ObsHub::new(NODES);
    let engine = api::build_traced(Arc::clone(&hub));
    api::populate(&mut *engine.session(0), &keys);
    let traced_plan = window_plan(workload, seed, WARM_UP, TRACED_WINDOW);
    let span_capacity = 1 << 20;
    let (data, runners) = run_window(
        CLIENT_THREADS,
        |client, epoch| TracedRunner::new(engine.cluster().session(client), epoch, span_capacity),
        &keys,
        || counters(&engine, &hub),
        &traced_plan,
    );
    let mut data = data;
    // The window's edge catches the clients mid-transaction; the gauge that
    // must drain is read again now that they have stopped.
    data.after.snapshot_queue_entries = engine.cluster().snapshot_queue_entries();
    let estimates = window_estimates(&data)?;
    let client_spans: Vec<Vec<Span>> = runners.into_iter().map(TracedRunner::into_spans).collect();
    let warm_ns = WARM_UP.as_nanos() as u64;
    let mut spans = SpanTimes::default();
    for client in &client_spans {
        spans.add(client, warm_ns, warm_ns + data.window_ns);
    }
    let mut committed_per_second = vec![0.0; TRACED_WINDOW.as_secs() as usize];
    for sample in data.samples.iter().filter(|s| !s.failed) {
        if let Some(slot) = committed_per_second.get_mut((sample.end_ns / 1_000_000_000) as usize) {
            *slot += 1.0;
        }
    }
    let pass = TracedPass {
        cpu_regime_ratio: cpu_regime_ratio(&data.cpu, &committed_per_second),
        before: data.before,
        after: data.after,
        estimates,
        spans,
        wall_s: TRACED_WINDOW.as_secs_f64(),
    };

    let comparison = compare(workload, seed, &keys, &*sss, Some(&engine));
    drop((sss, engine));
    let one_node_plan = window_plan(workload, seed, Duration::from_millis(300), ONE_NODE_WINDOW);
    let (one_node, _, _) = threaded_window(EngineKind::Sss, 1, 1, &keys, &one_node_plan);
    let one_node = estimate(&one_node.samples, one_node.window_ns, u64::MAX, u64::MAX)?;
    // A short virtual-time pass of this workload's mix: its latency in
    // message hops, free of CPU.
    let keys = Arc::new(keys);
    let sim_plan = sim_plan(
        workload.mix,
        SIM_PASS_CLIENTS_PER_NODE,
        SIM_PASS_TXNS_PER_CLIENT,
    );
    let sim = sim_schedule(EngineKind::Sss, NODES, &keys, seed, 0, sim_plan);
    let context = Context {
        trace_overhead_share: comparison
            .trace_overhead_share
            .map_or(0.0, |[_, median, _]| median),
        comparison,
        build_s,
        populate_s,
        one_node,
        sim: schedule_estimates(&sim)?,
        sim_clients_wall_s: sim.clients_wall_s,
    };
    assemble(workload, seed, pass, context, &keys, &client_spans)
}

fn traced_simulated(workload: &Workload, seed: u64) -> Result<RunResult, String> {
    let keys = Arc::new(api::key_table());
    let plan = sim_plan(workload.mix, SIM_CLIENTS_PER_NODE, SIM_TXNS_PER_CLIENT);
    let untraced = sim_schedule(EngineKind::Sss, NODES, &keys, seed, 0, plan);
    let untraced_estimates = schedule_estimates(&untraced)?;

    // The same schedule and inputs again, traced.
    let hub = ObsHub::new(NODES);
    let counter_hub = Arc::clone(&hub);
    let traced = run_schedule(
        || api::build_traced_sim(hub, SIM_DELAY, derive_seed(seed, 1000)),
        &keys,
        SchedulePlan {
            seed: derive_seed(seed, 0),
            ..plan
        },
        |engine: &SssEngine, node, epoch| {
            TracedRunner::new(engine.cluster().session(node), epoch, 4096)
        },
        move |engine: &SssEngine| counters(engine, &counter_hub),
    );
    let estimates = schedule_estimates(&traced)?;
    let trace_overhead_share = 1.0
        - ratio(
            estimates.throughput_tps.median,
            untraced_estimates.throughput_tps.median,
        );
    let client_spans: Vec<Vec<Span>> = traced
        .runners
        .into_iter()
        .map(TracedRunner::into_spans)
        .collect();
    let mut spans = SpanTimes::default();
    for client in &client_spans {
        spans.add(client, 0, u64::MAX);
    }
    let pass = TracedPass {
        before: traced.before,
        after: traced.after,
        estimates,
        spans,
        wall_s: traced.clients_wall_s,
        cpu_regime_ratio: 1.0,
    };

    let floor_plan = SchedulePlan {
        clients_per_node: 1,
        ..plan
    };
    let one_node = sim_schedule(EngineKind::Sss, 1, &keys, seed, 0, floor_plan);
    let sss = api::build_threaded(EngineKind::Sss, NODES);
    api::populate(&mut *sss.session(0), &keys);
    let context = Context {
        comparison: compare(workload, seed, &keys, &*sss, None),
        trace_overhead_share,
        build_s: untraced.build_wall_s,
        populate_s: untraced.populate_wall_s,
        one_node: schedule_estimates(&one_node)?,
        sim: untraced_estimates,
        sim_clients_wall_s: untraced.clients_wall_s,
    };
    assemble(workload, seed, pass, context, &keys, &client_spans)
}

/// Runs `workload` traced.
pub fn traced(workload: &Workload, seed: u64) -> Result<RunResult, String> {
    match workload.runtime {
        Runtime::Threaded => traced_threaded(workload, seed),
        Runtime::Simulated => traced_simulated(workload, seed),
    }
}
