//! Metric catalogues, the result of one run, and how it is printed, written
//! and compared.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::procfs::host_note;
use crate::stats::{median, quartiles};
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, the same eight on every workload, all gated. A
/// bound is about three times the widest run-to-run spread (interquartile
/// range over median of ten runs) the metric showed on any workload on this
/// host, which drifts by 10 to 20% for minutes at a time; the driver
/// refuses a benchmark whose spread exceeds its bound, so the wall-clock
/// bounds cannot be the 0.05 to 0.10 a quiet host would allow
/// (`benchmark/README.md` has the measurements). Counts and memory repeat
/// within 2%.
pub const END_TO_END: [EndToEndMetric; 8] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_tps", "1/s", Better::Higher, 0.25),
    gated("update_p50_us", "us", Better::Lower, 0.15),
    gated("update_p90_us", "us", Better::Lower, 0.25),
    gated("ro_p50_us", "us", Better::Lower, 0.25),
    gated("ro_p90_us", "us", Better::Lower, 0.25),
    gated("msgs_per_txn", "count", Better::Lower, 0.05),
    gated("rss_at_mark_mb", "MiB", Better::Lower, 0.10),
];

/// The bound `--agree` holds a simulated workload to on its virtual-time
/// metrics and counts: they replay bit for bit for a seed, so two sets over
/// the same seeds may not differ at all, and one extra message hop (6% of an
/// update) must never pass. `BENCHMARK.json` carries one bound per metric,
/// so the driver gates them with the threaded bound.
pub const SIMULATED_BOUND: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of a traced run, in the order it reports them
/// (prefix = crate). They have no bound; `benchmark/README.md` says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: [LayerMetric; 76] = [
    lower("vclock.merge_ns", "ns"),
    lower("vclock.dominates_ns", "ns"),
    lower("vclock.clone_ns", "ns"),
    lower("storage.mv_apply_ns", "ns"),
    lower("storage.mv_read_head_ns", "ns"),
    lower("storage.mv_read_tail_ns", "ns"),
    lower("storage.mv_apply_shared_ns", "ns"),
    lower("storage.replica_lookup_ns", "ns"),
    lower("storage.lock_cycle_ns", "ns"),
    lower("net.mailbox_push_pop_ns", "ns"),
    lower("net.mailbox_handoff_us", "us"),
    lower("net.reply_handoff_us", "us"),
    lower("net.transport_send_us", "us"),
    lower("net.transport_delay_overshoot_us", "us"),
    lower("core.commit_queue_cycle_ns", "ns"),
    lower("core.squeue_cycle_ns", "ns"),
    lower("core.nlog_add_ns", "ns"),
    lower("core.nlog_visible_max_ns", "ns"),
    lower("core.coalescer_round_ns", "ns"),
    lower("obs.hist_record_ns", "ns"),
    lower("storage.mv_installed_per_txn", "count"),
    lower("storage.mv_retained_versions", "count"),
    lower("storage.lock_granted_per_txn", "count"),
    lower("storage.lock_contended_share", "share"),
    lower("storage.lock_timeout_share", "share"),
    higher("net.msgs_per_wakeup", "count"),
    higher("net.local_share", "share"),
    lower("net.enqueue_ops_per_txn", "count"),
    lower("net.kind.ReadRequest_per_txn", "count"),
    lower("net.kind.Prepare_per_txn", "count"),
    lower("net.kind.Decide_per_txn", "count"),
    lower("net.kind.Remove_per_txn", "count"),
    lower("net.kind.RegisterForward_per_txn", "count"),
    lower("net.kind.ConfirmExternal_per_txn", "count"),
    lower("net.kind.ReleaseExternal_per_txn", "count"),
    lower("core.ro_read_us_p50", "us"),
    lower("core.upd_read_us_p50", "us"),
    lower("core.commit_internal_us_p50", "us"),
    lower("core.external_lag_us_p50", "us"),
    lower("core.phase.read_share", "share"),
    lower("core.phase.pre_commit_share", "share"),
    lower("core.phase.commit_queue_wait_share", "share"),
    lower("core.phase.confirm_wait_share", "share"),
    lower("core.phase.release_share", "share"),
    lower("core.phase.read_p50_us", "us"),
    lower("core.phase.pre_commit_p50_us", "us"),
    lower("core.phase.commit_queue_wait_p50_us", "us"),
    lower("core.phase.confirm_wait_p50_us", "us"),
    lower("core.phase.release_p50_us", "us"),
    higher("core.phase_sum_over_update_mean", "ratio"),
    lower("core.update_retry_share", "share"),
    lower("core.votes_lock_failed_share", "share"),
    lower("core.votes_validation_failed_share", "share"),
    lower("core.reads_deferred_share", "share"),
    lower("core.reads_parked_share", "share"),
    lower("core.external_wait_share", "share"),
    lower("core.precommit_wait_us_per_commit", "us"),
    lower("core.snapshot_queue_entries_end", "count"),
    lower("core.valve.pending_global_expired", "count"),
    lower("process.cpu_us_per_txn", "us"),
    lower("process.sys_share", "share"),
    lower("process.ctx_switches_per_txn", "count"),
    lower("engine.build_s", "s"),
    lower("engine.populate_s", "s"),
    lower("engine.one_node_update_p50_us", "us"),
    lower("engine.one_node_ro_p50_us", "us"),
    higher("engine.twopc_tps", "1/s"),
    higher("engine.sss_over_twopc", "ratio"),
    lower("obs.trace_overhead_share", "share"),
    lower("sim.update_hops_p50", "count"),
    lower("sim.ro_hops_p50", "count"),
    lower("sim.wall_us_per_txn", "us"),
    lower("sim.retries_per_txn", "count"),
    lower("bench.generator_share", "share"),
    lower("bench.tps_slice_iqr_share", "share"),
    lower("bench.cpu_regime_ratio", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Estimator detail (slice quartiles, sample counts, whole-window
    /// tails), for the result file only.
    pub info: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    fn metrics_json(metrics: &[Metric]) -> Json {
        let entry = |m: &Metric| {
            let value = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.clone(), value)
        };
        Json::Obj(metrics.iter().map(entry).collect())
    }

    /// The one-line object the driver reads: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Self::metrics_json(&self.metrics)),
        ])
        .render()
    }

    /// The human-readable listing: every metric by name and unit.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} seconds {} {}",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            }
        );
        let _ = writeln!(out, "host: {}", host_note());
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "attempted {} failed {} failed_share {:.6}",
            self.attempted, self.failed, failed_share
        );
        for violation in &self.violations {
            let _ = writeln!(out, "INCORRECT: {violation}");
        }
        out
    }

    /// The full result file written to `benchmark/out/`.
    pub fn file_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("host", Json::str(host_note())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| Json::str(v)).collect()),
            ),
            ("metrics", Self::metrics_json(&self.metrics)),
            ("info", self.info.clone()),
        ])
    }
}

/// `benchmark/out/`, next to the crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_out(file_name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file_name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Median and quartiles of every `workload × metric` over the result lines
/// of one set of runs (a directory of `<workload>.<repeat>.json` files, each
/// holding one driver line).
pub type SetSummary = Vec<((String, String), [f64; 3])>;

pub fn summarize_set(dir: &Path) -> Result<SetSummary, String> {
    let mut values: Vec<((String, String), Vec<f64>)> = Vec::new();
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    names.sort();
    for path in names {
        let workload = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.split('.').next())
            .unwrap_or_default()
            .to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let line = text.lines().last().unwrap_or_default();
        let json = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if json.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        let metrics = json
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {name} has no value", path.display()))?;
            let key = (workload.clone(), name.clone());
            match values.iter_mut().find(|(k, _)| *k == key) {
                Some((_, list)) => list.push(value),
                None => values.push((key, vec![value])),
            }
        }
    }
    if values.is_empty() {
        return Err(format!("{} holds no result", dir.display()));
    }
    Ok(values
        .into_iter()
        .map(|(key, list)| {
            let [q1, _, q3] = quartiles(&list);
            (key, [q1, median(&list), q3])
        })
        .collect())
}

pub fn set_table(summary: &SetSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "q1", "median", "q3", "iqr/med"
    );
    for ((workload, metric), [q1, q2, q3]) in summary {
        let spread = if *q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        let _ = writeln!(
            out,
            "{workload:<12} {metric:<18} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4}"
        );
    }
    out
}

/// Relative worsening of `after` against `before` (positive is worse).
pub fn worsening(metric: &EndToEndMetric, before: f64, after: f64) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

/// The bound `--agree` holds `metric` to on `workload`.
fn agree_bound(workload: &str, metric: &EndToEndMetric) -> f64 {
    let simulated =
        workloads::find(workload).is_some_and(|w| w.runtime == workloads::Runtime::Simulated);
    // Set-up time and memory are the wall clock's and the allocator's even
    // on the simulator.
    if simulated && !matches!(metric.name, "setup_s" | "rss_at_mark_mb") {
        SIMULATED_BOUND
    } else {
        metric.bound
    }
}

/// Compares the medians of two sets: every end-to-end metric of every
/// workload must agree within its bound, in both directions (the two sets
/// are runs of the same code, so neither may look like a regression of the
/// other). Returns the disagreements.
pub fn disagreements(a: &SetSummary, b: &SetSummary) -> Vec<String> {
    let mut out = Vec::new();
    for ((workload, name), [_, median_a, _]) in a {
        let Some(metric) = END_TO_END.iter().find(|m| m.name == name) else {
            continue;
        };
        let Some((_, [_, median_b, _])) = b.iter().find(|(k, _)| k.0 == *workload && k.1 == *name)
        else {
            out.push(format!("{workload} {name}: missing from the second set"));
            continue;
        };
        let worst =
            worsening(metric, *median_a, *median_b).max(worsening(metric, *median_b, *median_a));
        let bound = agree_bound(workload, metric);
        if worst > bound {
            out.push(format!(
                "{workload} {name}: medians {median_a} and {median_b} differ by {worst:.4} (bound {bound})"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            workload: "commit_path".into(),
            seed: 3,
            seconds: 20,
            traced: false,
            attempted: 1000,
            failed: 0,
            violations: Vec::new(),
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| Metric::new(m.name, 1.5 + i as f64, m.unit))
                .collect(),
            info: Json::Null,
        }
    }

    #[test]
    fn driver_line_round_trips_with_exactly_the_contract_keys() {
        let line = result().driver_line();
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("attempted"), Some(&Json::Num(1000.0)));
        let metrics = json.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (metric, (name, value)) in END_TO_END.iter().zip(metrics) {
            assert_eq!(metric.name, name);
            assert_eq!(value.get("unit").unwrap().as_str(), Some(metric.unit));
        }
    }

    #[test]
    fn failures_and_violations_make_a_run_incorrect() {
        let mut r = result();
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.violations.push("mailbox counters do not conserve".into());
        assert!(!r.correct());
        assert!(r.table().contains("INCORRECT"));
        assert!(r.driver_line().contains("\"correct\": false"));
    }

    #[test]
    fn worsening_follows_the_direction_and_sets_disagree_beyond_the_bound() {
        let tps = &END_TO_END[1];
        assert!((worsening(tps, 1000.0, 900.0) - 0.10).abs() < 1e-12);
        assert!(worsening(tps, 1000.0, 1100.0) < 0.0);
        let p50 = &END_TO_END[2];
        assert!((worsening(p50, 100.0, 104.0) - 0.04).abs() < 1e-12);

        let key = |m: &str| ("commit_path".to_string(), m.to_string());
        let a: SetSummary = vec![
            (key("throughput_tps"), [0.0, 1000.0, 0.0]),
            (key("update_p50_us"), [0.0, 100.0, 0.0]),
        ];
        let close: SetSummary = vec![
            (key("throughput_tps"), [0.0, 950.0, 0.0]),
            (key("update_p50_us"), [0.0, 104.0, 0.0]),
        ];
        assert!(disagreements(&a, &close).is_empty());
        let far: SetSummary = vec![
            (key("throughput_tps"), [0.0, 1400.0, 0.0]),
            (key("update_p50_us"), [0.0, 100.0, 0.0]),
        ];
        let found = disagreements(&a, &far);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("throughput_tps"));

        // Virtual time is held to 1%: 2% more on an update fails on the
        // simulated workload and passes on a threaded one; set-up time keeps
        // its own bound on both.
        let on = |workload: &str, update_p50: f64, setup: f64| -> SetSummary {
            vec![
                (
                    (workload.into(), "update_p50_us".into()),
                    [0.0, update_p50, 0.0],
                ),
                ((workload.into(), "setup_s".into()), [0.0, setup, 0.0]),
            ]
        };
        let found = disagreements(
            &on("net_delay", 858.0, 0.100),
            &on("net_delay", 875.0, 0.105),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("net_delay update_p50_us"));
        assert!(
            disagreements(&on("hot_keys", 858.0, 0.100), &on("hot_keys", 875.0, 0.105)).is_empty()
        );
    }
}
