//! Runs the same small YCSB-style workload against SSS and the three
//! competitor engines from the paper's evaluation (2PC-baseline, Walter,
//! ROCOCO) and prints a side-by-side summary — a miniature version of the
//! paper's Figure 3 / Figure 6 experiments.
//!
//! Every engine is constructed through the engine layer's registry and
//! driven by the workspace's one runner, `run_scenario`: the same
//! closed-loop client, fixed operation count, history recorder and
//! consistency checker for all four, on threads. The example contains no
//! engine-specific code at all.
//!
//! Run with: `cargo run --release --example engine_comparison`

use sss::engine::EngineKind;
use sss::workload::{run_scenario, ChaosScenario, ScenarioExpectations, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::new(4)
        .clients_per_node(4)
        .total_keys(1_024)
        .read_only_percent(80);

    println!(
        "workload: {} nodes, {} clients/node, {} keys, {}% read-only\n",
        spec.nodes, spec.clients_per_node, spec.total_keys, spec.read_only_percent
    );
    println!(
        "{:<8} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "engine", "commits/s", "abort%", "committed", "upd p99 (µs)", "checker"
    );
    for kind in EngineKind::ALL {
        // Replication 2 for the replicated engines; ROCOCO ignores the
        // degree (the paper always compares it without replication).
        let scenario = ChaosScenario::new("engine-comparison", spec.clone())
            .ops_per_client(500)
            .expect(ScenarioExpectations::of(kind));
        let outcome = run_scenario(kind, &scenario).expect("the spec is valid");
        assert!(outcome.passed(), "{kind}: {:?}", outcome.violations);
        println!(
            "{:<8} {:>12.0} {:>9.1}% {:>12} {:>14.0} {:>12}",
            outcome.engine,
            outcome.throughput(),
            outcome.abort_rate() * 100.0,
            outcome.committed,
            outcome.update_latency.value_at_quantile(0.99) as f64 / 1e3,
            if outcome.consistency.is_some() {
                "ok"
            } else {
                "unchecked"
            },
        );
    }
    println!(
        "\nFor the full evaluation sweeps run: cargo run -p sss-bench --release --bin figures"
    );
}
