//! One sweep per figure of the evaluation section, in virtual time.
//!
//! Each function returns a [`FigureTable`] whose rows mirror the data series
//! of the corresponding plot in the paper. Every data point is one seeded
//! `sss-workload` scenario under the deterministic simulator
//! ([`run_scenario_sim`]) on the [`FIGURE_PROFILE`] network: a fixed number
//! of operations per client, throughput as commits per *virtual* second,
//! latencies from the outcome's histograms, and a recorded history that the
//! `sss-consistency` checker verifies for SSS, 2PC and ROCOCO (Walter's PSI
//! admits long forks by design and is run for liveness, as in the chaos
//! catalog). A point that fails its expectations panics instead of printing
//! a number.
//!
//! A table is therefore a function of `(scale, FIGURE_SEED)` and of nothing
//! else: two runs print byte-identical output on any host, which is what
//! lets a full run be committed to `BENCH_figures.json` (see
//! [`figure_main`](crate::cli::figure_main)) and compared exactly.

use sss_engine::{EngineKind, Histogram, NetProfile};
use sss_workload::scenario::{
    run_scenario_sim, ChaosScenario, ScenarioExpectations, ScenarioOutcome,
};
use sss_workload::{KeySelection, WorkloadSpec};

/// Seed of every figure point: the workload streams and the simulator's
/// interleaving.
pub const FIGURE_SEED: u64 = 42;

/// The network every figure point runs on: the paper's test bed, ~20µs one
/// way with small (seeded) jitter.
pub const FIGURE_PROFILE: NetProfile = NetProfile::CloudlabLike;

/// How large an experiment to run.
///
/// `Paper` uses the paper's parameters (up to 20 nodes, 10 clients per node,
/// 5k/10k keys); `Quick` shrinks node counts, client counts and operation
/// counts so the full suite completes in minutes while preserving the
/// relative comparisons. The simulator costs 5–15 ms of wall time per
/// transaction at a `Quick` point's 6–64 clients (every wake-up re-checks
/// every parked task; `sim.wall_us_per_txn` in `BENCHMARK.json` is the
/// 32-client number), so `Quick` takes ~9 minutes and `Paper` is hours
/// until ROADMAP item 2 makes the simulator cheaper; the committed record is
/// `Quick`, labelled as reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Reduced scale (the default of the `figures` binary).
    Quick,
    /// The paper's configuration.
    Paper,
}

impl BenchScale {
    /// Node counts swept by the throughput figures.
    pub fn node_counts(&self) -> Vec<usize> {
        match self {
            BenchScale::Quick => vec![2, 4, 6, 8],
            BenchScale::Paper => vec![5, 10, 15, 20],
        }
    }

    /// Clients per node.
    pub fn clients_per_node(&self) -> usize {
        match self {
            BenchScale::Quick => 3,
            BenchScale::Paper => 10,
        }
    }

    /// Key-space sizes (the paper uses 5k and 10k).
    pub fn key_counts(&self) -> Vec<usize> {
        match self {
            BenchScale::Quick => vec![512, 1024],
            BenchScale::Paper => vec![5_000, 10_000],
        }
    }

    /// Transactions every client commits at every data point.
    pub fn ops_per_client(&self) -> usize {
        match self {
            BenchScale::Quick => 20,
            BenchScale::Paper => 200,
        }
    }

    /// The name a `BENCH_figures.json` record carries.
    pub fn label(&self) -> &'static str {
        match self {
            BenchScale::Quick => "quick (reduced)",
            BenchScale::Paper => "paper",
        }
    }

    /// Parses `--paper-scale` style flags from command-line arguments.
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--paper-scale") {
            BenchScale::Paper
        } else {
            BenchScale::Quick
        }
    }
}

/// One data point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Data-series label (e.g. "SSS-5K").
    pub series: String,
    /// X-axis value (node count, clients per node, read-set size...).
    pub x: f64,
    /// Primary measurement (throughput in kTx/s or latency in ms, as in the
    /// corresponding figure).
    pub y: f64,
    /// Share of transaction attempts that aborted and were retried while
    /// producing the point.
    pub abort_rate: f64,
    /// Mean update-transaction latency (ms).
    pub update_latency_ms: f64,
    /// Mean time spent between internal and external commit (ms); zero for
    /// engines without the distinction.
    pub pre_commit_wait_ms: f64,
    /// Read-only transaction attempts that aborted: exactly 0 on every SSS
    /// row.
    pub read_only_aborts: u64,
    /// `true` when the point's recorded history passed the consistency
    /// checker; `false` only for an engine run unchecked (Walter).
    pub checked: bool,
}

/// Mean of a nanosecond histogram, in milliseconds.
fn mean_ms(latency: &Histogram) -> f64 {
    latency.mean() / 1e6
}

/// Throughput in thousands of transactions per second (the unit of every
/// throughput figure in the paper).
fn ktps(outcome: &ScenarioOutcome) -> f64 {
    outcome.throughput() / 1e3
}

impl FigureRow {
    fn from_outcome(series: String, x: f64, y: f64, outcome: &ScenarioOutcome) -> Self {
        let update_latency_ms = mean_ms(&outcome.update_latency);
        FigureRow {
            series,
            x,
            y,
            abort_rate: outcome.abort_rate(),
            update_latency_ms,
            pre_commit_wait_ms: update_latency_ms - mean_ms(&outcome.internal_latency),
            read_only_aborts: outcome.read_only_aborts,
            checked: outcome.consistency == Some(Ok(())),
        }
    }
}

/// A complete figure: a titled collection of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Figure identifier ("Figure 3(a)", ...).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The data points.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// Renders the table as aligned text, one row per data point.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>10} {:>14} {:>16} {:>10} {:>8}\n",
            "series",
            self.x_label.as_str(),
            self.y_label.as_str(),
            "abort%",
            "upd-lat(ms)",
            "precommit(ms)",
            "ro-aborts",
            "checker"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>10.1} {:>12.2} {:>9.1}% {:>14.3} {:>16.3} {:>10} {:>8}\n",
                row.series,
                row.x,
                row.y,
                row.abort_rate * 100.0,
                row.update_latency_ms,
                row.pre_commit_wait_ms,
                row.read_only_aborts,
                if row.checked { "ok" } else { "-" },
            ));
        }
        out
    }

    /// The table as one JSON object, for a `BENCH_figures.json` record.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "{{\"series\":{},\"x\":{},\"y\":{:.6},\"abort_rate\":{:.6},\
                     \"update_latency_ms\":{:.6},\"pre_commit_wait_ms\":{:.6},\
                     \"read_only_aborts\":{},\"checked\":{}}}",
                    json_string(&row.series),
                    row.x,
                    row.y,
                    row.abort_rate,
                    row.update_latency_ms,
                    row.pre_commit_wait_ms,
                    row.read_only_aborts,
                    row.checked,
                )
            })
            .collect();
        format!(
            "{{\"title\":{},\"x_label\":{},\"y_label\":{},\"rows\":[{}]}}",
            json_string(&self.title),
            json_string(&self.x_label),
            json_string(&self.y_label),
            rows.join(","),
        )
    }

    /// Rows of one series, in x order.
    pub fn series(&self, name: &str) -> Vec<&FigureRow> {
        let mut rows: Vec<&FigureRow> = self.rows.iter().filter(|r| r.series == name).collect();
        rows.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("x is never NaN"));
        rows
    }
}

/// `text` as a JSON string literal.
pub(crate) fn json_string(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

fn base_spec(scale: BenchScale, nodes: usize, keys: usize, read_only_percent: u8) -> WorkloadSpec {
    WorkloadSpec::new(nodes)
        .clients_per_node(scale.clients_per_node())
        .total_keys(keys)
        .read_only_percent(read_only_percent)
        .seed(FIGURE_SEED)
}

/// Runs one data point: `kind` over `spec` with `replication` replicas per
/// key (capped at the node count), `ops_per_client` commits per client.
///
/// # Panics
///
/// Panics if the run misses the engine's expectations
/// ([`ScenarioExpectations::of`]): a checker violation, an SSS read-only
/// abort, a transaction that never committed.
fn run_point(
    kind: EngineKind,
    spec: &WorkloadSpec,
    replication: usize,
    ops_per_client: usize,
) -> ScenarioOutcome {
    let scenario = ChaosScenario::new("figure-point", spec.clone())
        .ops_per_client(ops_per_client)
        .replication(replication)
        .profile(FIGURE_PROFILE)
        .expect(ScenarioExpectations::of(kind));
    let outcome = run_scenario_sim(kind, &scenario, FIGURE_SEED).expect("figure specs are valid");
    assert!(
        outcome.passed(),
        "{} on {spec:?}: {:?}",
        kind.label(),
        outcome.violations
    );
    outcome
}

/// Figure 3: throughput of SSS, 2PC-baseline and Walter while varying the
/// node count, for a given read-only percentage and both key-space sizes
/// (replication degree 2).
pub fn fig3_throughput(scale: BenchScale, read_only_percent: u8) -> FigureTable {
    let mut rows = Vec::new();
    for keys in scale.key_counts() {
        for nodes in scale.node_counts() {
            for kind in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Sss] {
                let spec = base_spec(scale, nodes, keys, read_only_percent);
                let outcome = run_point(kind, &spec, 2, scale.ops_per_client());
                let series = format!("{}-{}K", kind.label(), keys_label(keys));
                rows.push(FigureRow::from_outcome(
                    series,
                    nodes as f64,
                    ktps(&outcome),
                    &outcome,
                ));
            }
        }
    }
    FigureTable {
        title: format!("Figure 3 — throughput, {read_only_percent}% read-only, replication 2"),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 4(a): maximum attainable throughput of SSS and 2PC-baseline with
/// 50% read-only transactions and the smaller key space. The client count is
/// increased per engine until throughput stops improving.
pub fn fig4a_max_throughput(scale: BenchScale) -> FigureTable {
    let client_sweep: &[usize] = match scale {
        BenchScale::Quick => &[2, 4, 8],
        BenchScale::Paper => &[5, 10, 20, 30],
    };
    let keys = scale.key_counts()[0];
    let mut rows = Vec::new();
    for nodes in scale.node_counts() {
        for kind in [EngineKind::Sss, EngineKind::TwoPc] {
            let best = client_sweep
                .iter()
                .map(|clients| {
                    let spec = base_spec(scale, nodes, keys, 50).clients_per_node(*clients);
                    run_point(kind, &spec, 2, scale.ops_per_client())
                })
                .max_by(|a, b| a.throughput().total_cmp(&b.throughput()))
                .expect("at least one client count swept");
            rows.push(FigureRow::from_outcome(
                kind.label().to_string(),
                nodes as f64,
                ktps(&best),
                &best,
            ));
        }
    }
    FigureTable {
        title: "Figure 4(a) — maximum attainable throughput, 50% read-only, 5k keys".into(),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// The clients-per-node sweep of Figures 4(b) and 5, on the largest node
/// count and the smaller key space.
fn client_sweep(scale: BenchScale) -> (usize, usize, &'static [usize]) {
    let clients: &[usize] = match scale {
        BenchScale::Quick => &[1, 3, 5],
        BenchScale::Paper => &[1, 3, 5, 10],
    };
    let nodes = *scale.node_counts().last().expect("non-empty node sweep");
    (nodes, scale.key_counts()[0], clients)
}

/// Figure 4(b): external-commit latency of SSS and 2PC-baseline while
/// varying the number of clients per node (largest node count, 50%
/// read-only, smaller key space).
pub fn fig4b_latency(scale: BenchScale) -> FigureTable {
    let (nodes, keys, clients) = client_sweep(scale);
    latency_table(
        &base_spec(scale, nodes, keys, 50),
        clients,
        scale.ops_per_client(),
    )
}

/// [`fig4b_latency`] over `spec`'s cluster with `ops_per_client` commits
/// per client: one row per engine and entry of `clients` (per node).
fn latency_table(spec: &WorkloadSpec, clients: &[usize], ops_per_client: usize) -> FigureTable {
    let mut rows = Vec::new();
    for per_node in clients {
        for kind in [EngineKind::Sss, EngineKind::TwoPc] {
            let spec = spec.clone().clients_per_node(*per_node);
            let outcome = run_point(kind, &spec, 2, ops_per_client);
            rows.push(FigureRow::from_outcome(
                kind.label().to_string(),
                *per_node as f64,
                mean_ms(&outcome.update_latency),
                &outcome,
            ));
        }
    }
    FigureTable {
        title: format!(
            "Figure 4(b) — external commit latency, {} nodes, 50% read-only",
            spec.nodes
        ),
        x_label: "clients/node".into(),
        y_label: "latency ms".into(),
        rows,
    }
}

/// Figure 5: breakdown of the SSS update-transaction latency into the
/// internal-commit part and the pre-commit (snapshot-queue) wait, varying
/// the clients per node.
pub fn fig5_breakdown(scale: BenchScale) -> FigureTable {
    let (nodes, keys, clients) = client_sweep(scale);
    let mut rows = Vec::new();
    for per_node in clients {
        let spec = base_spec(scale, nodes, keys, 50).clients_per_node(*per_node);
        let outcome = run_point(EngineKind::Sss, &spec, 2, scale.ops_per_client());
        for (series, latency) in [
            ("SSS-total", &outcome.update_latency),
            ("SSS-internal", &outcome.internal_latency),
        ] {
            rows.push(FigureRow::from_outcome(
                series.into(),
                *per_node as f64,
                mean_ms(latency),
                &outcome,
            ));
        }
    }
    FigureTable {
        title: format!("Figure 5 — SSS latency breakdown (internal vs pre-commit), {nodes} nodes"),
        x_label: "clients/node".into(),
        y_label: "latency ms".into(),
        rows,
    }
}

/// Figure 6: SSS vs ROCOCO vs 2PC-baseline with replication disabled, 5k
/// keys, for a given read-only percentage.
pub fn fig6_rococo(scale: BenchScale, read_only_percent: u8) -> FigureTable {
    let keys = scale.key_counts()[0];
    let mut rows = Vec::new();
    for nodes in scale.node_counts() {
        for kind in [EngineKind::Sss, EngineKind::TwoPc, EngineKind::Rococo] {
            let spec = base_spec(scale, nodes, keys, read_only_percent);
            let outcome = run_point(kind, &spec, 1, scale.ops_per_client());
            rows.push(FigureRow::from_outcome(
                format!("{}-{}K", kind.label(), keys_label(keys)),
                nodes as f64,
                ktps(&outcome),
                &outcome,
            ));
        }
    }
    FigureTable {
        title: format!(
            "Figure 6 — SSS vs ROCOCO vs 2PC, no replication, {read_only_percent}% read-only"
        ),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 7: throughput with 80% read-only transactions and 50% key-access
/// locality, both key-space sizes.
pub fn fig7_locality(scale: BenchScale) -> FigureTable {
    let mut rows = Vec::new();
    for keys in scale.key_counts() {
        for nodes in scale.node_counts() {
            for kind in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Sss] {
                let spec = base_spec(scale, nodes, keys, 80).key_selection(KeySelection::Local {
                    local_fraction_percent: 50,
                });
                let outcome = run_point(kind, &spec, 2, scale.ops_per_client());
                rows.push(FigureRow::from_outcome(
                    format!("{}-{}K", kind.label(), keys_label(keys)),
                    nodes as f64,
                    ktps(&outcome),
                    &outcome,
                ));
            }
        }
    }
    FigureTable {
        title: "Figure 7 — throughput, 80% read-only, 50% locality".into(),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 8: speedup of SSS over ROCOCO and 2PC-baseline while growing the
/// number of keys accessed by read-only transactions (80% read-only,
/// replication disabled).
pub fn fig8_read_only_size(scale: BenchScale) -> FigureTable {
    let sizes: &[usize] = &[2, 4, 8, 16];
    let nodes = match scale {
        BenchScale::Quick => 4,
        BenchScale::Paper => 15,
    };
    let mut rows = Vec::new();
    for keys in scale.key_counts() {
        for size in sizes {
            let spec = base_spec(scale, nodes, keys, 80).read_only_access_count(*size);
            let run = |kind| run_point(kind, &spec, 1, scale.ops_per_client());
            let sss = run(EngineKind::Sss);
            for other in [EngineKind::Rococo, EngineKind::TwoPc] {
                let baseline = run(other).throughput();
                let speedup = if baseline > 0.0 {
                    sss.throughput() / baseline
                } else {
                    0.0
                };
                rows.push(FigureRow::from_outcome(
                    format!("SSS/{}-{}K", other.label(), keys_label(keys)),
                    *size as f64,
                    speedup,
                    &sss,
                ));
            }
        }
    }
    FigureTable {
        title: format!("Figure 8 — SSS speedup vs read-only size, {nodes} nodes, 80% read-only"),
        x_label: "keys/read-only".into(),
        y_label: "speedup".into(),
        rows,
    }
}

fn keys_label(keys: usize) -> String {
    if keys >= 1000 {
        format!("{}", keys / 1000)
    } else {
        format!("0.{}", keys / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        assert_eq!(BenchScale::Quick.node_counts(), vec![2, 4, 6, 8]);
        assert_eq!(BenchScale::Paper.node_counts(), vec![5, 10, 15, 20]);
        assert_eq!(BenchScale::Paper.clients_per_node(), 10);
        assert!(BenchScale::Quick.ops_per_client() < BenchScale::Paper.ops_per_client());
        assert_eq!(
            BenchScale::from_args(&["--paper-scale".to_string()]),
            BenchScale::Paper
        );
        assert_eq!(BenchScale::from_args(&[]), BenchScale::Quick);
    }

    #[test]
    fn figure_table_rendering_and_series_selection() {
        let table = FigureTable {
            title: "demo".into(),
            x_label: "nodes".into(),
            y_label: "kTx/s".into(),
            rows: vec![
                FigureRow {
                    series: "SSS-5K".into(),
                    x: 10.0,
                    y: 40.0,
                    abort_rate: 0.05,
                    update_latency_ms: 1.0,
                    pre_commit_wait_ms: 0.3,
                    read_only_aborts: 0,
                    checked: true,
                },
                FigureRow {
                    series: "SSS-5K".into(),
                    x: 5.0,
                    y: 20.0,
                    abort_rate: 0.02,
                    update_latency_ms: 0.9,
                    pre_commit_wait_ms: 0.2,
                    read_only_aborts: 0,
                    checked: true,
                },
                FigureRow {
                    series: "2PC-5K".into(),
                    x: 5.0,
                    y: 10.0,
                    abort_rate: 0.2,
                    update_latency_ms: 2.0,
                    pre_commit_wait_ms: 0.0,
                    read_only_aborts: 3,
                    checked: false,
                },
            ],
        };
        let rendered = table.render();
        assert!(rendered.contains("demo"));
        assert!(rendered.contains("SSS-5K"));
        let series = table.series("SSS-5K");
        assert_eq!(series.len(), 2);
        assert!(series[0].x < series[1].x);
        let json = table.to_json();
        assert!(
            json.starts_with(r#"{"title":"demo","x_label":"nodes","y_label":"kTx/s","rows":[{"#)
        );
        assert!(json.contains(r#"{"series":"2PC-5K","x":5,"y":10.000000,"abort_rate":0.200000,"#));
        assert!(json.ends_with(r#""read_only_aborts":3,"checked":false}]}"#));
        assert_eq!(json_string(r#"a"b\c"#), r#""a\"b\\c""#);
    }

    /// A figure is a function of its scale and seed: the Figure 4(b) sweep
    /// at 2 nodes x 2 clients x 8 operations renders byte-identically twice,
    /// SSS aborts no read-only transaction, and both engines' histories pass
    /// the checker (a point that misses an expectation panics in
    /// `run_point`).
    #[test]
    fn a_tiny_figure_is_byte_identical_per_seed_and_checker_clean() {
        let spec = base_spec(BenchScale::Quick, 2, 64, 50);
        let table = latency_table(&spec, &[2], 8);
        assert_eq!(table.render(), latency_table(&spec, &[2], 8).render());
        assert_eq!(table.rows.len(), 2);
        for (row, series) in table.rows.iter().zip(["SSS", "2PC"]) {
            assert_eq!(row.series, series);
            assert!(row.checked, "{series}: the history was not checked");
            assert!(row.y > 0.0 && row.y == row.update_latency_ms);
        }
        assert_eq!(table.rows[0].read_only_aborts, 0);
        // SSS answers its client only at external commit; 2PC has no such
        // wait.
        assert!(table.rows[0].pre_commit_wait_ms > 0.0);
        assert_eq!(table.rows[1].pre_commit_wait_ms, 0.0);
    }

    #[test]
    fn keys_label_formats_thousands() {
        assert_eq!(keys_label(5_000), "5");
        assert_eq!(keys_label(10_000), "10");
        assert_eq!(keys_label(512), "0.5");
    }
}
