//! Runs the chaos-scenario catalog: named fault plans (partition-heal,
//! asymmetric-slow-link, duplicate-storm, reorder-burst,
//! pause-during-commit, chaos-mix, …) against SSS and the baselines, with
//! the `sss-consistency` checker verifying every recorded history.
//!
//! Usage: `cargo run -p sss-bench --release --bin scenarios
//!         [--smoke] [--seed N] [--check-determinism] [--only NAME]
//!         [--engine NAME] [--obs] [--trace-out PATH]`
//!
//! * `--smoke` — small cluster and short runs (the CI configuration).
//! * `--seed N` — base seed of the workload and fault streams (default 42).
//! * `--check-determinism` — re-run every SSS scenario and require a
//!   bit-identical outcome summary.
//! * `--obs` — build engines with observability on (phase tracing and the
//!   watchdog's trace dump on a stuck run); summaries stay bit-identical.
//! * `--trace-out PATH` — write every run's trace spans as one Chrome-trace
//!   JSON file (open in `chrome://tracing` or Perfetto); implies `--obs`.
//! * `--only NAME` / `--engine NAME` — run only the catalog entries of that
//!   scenario name / engine.
//!
//! Exits 1 if any scenario fails its expectations, 2 if the selection
//! matches no catalog entry (the valid scenario names are listed).

use sss_bench::scenarios::{render_results, run_catalog_traced, selected_catalog, ScenarioConfig};
use sss_engine::chrome_trace_json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = ScenarioConfig::from_args(&args);
    let catalog = selected_catalog(&config).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let (results, trace_groups) = run_catalog_traced(&config, catalog).unwrap_or_else(|error| {
        eprintln!("invalid scenario in catalog: {error}");
        std::process::exit(2);
    });
    print!("{}", render_results(&results));
    if let Some(path) = &config.trace_out {
        let json = chrome_trace_json(&trace_groups);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        eprintln!("wrote {path} ({} bytes)", json.len());
    }
    let failures = results.iter().filter(|r| !r.passed()).count();
    if failures > 0 {
        eprintln!("{failures} scenario(s) FAILED");
        std::process::exit(1);
    }
    println!("all {} scenarios passed", results.len());
}
