//! Exhaustive model-check gate: verifies every clean protocol configuration
//! completely, demands a minimal counterexample from every seeded mutation
//! and keeps finding the known violations the protocol still admits.
//!
//! Usage: `cargo run -p sss-bench --release --bin modelcheck
//!         [--max-states N] [--max-depth N] [--print-table]`
//!
//! * `--max-states N` — unique-state budget per configuration (default
//!   4,000,000; a clean run needs well under 100k).
//! * `--max-depth N` — BFS depth budget (default 256).
//! * `--print-table` — do not fail on a state count that left its pin;
//!   print the current counts instead (copy into `clean_configs` when
//!   intentionally re-recording).
//!
//! Exits non-zero if a clean configuration has a violation, fails to
//! exhaust its state space within the budgets or explores a different
//! number of states than pinned, if any mutation fails to produce a
//! counterexample of at most 40 actions, or if a known violation is no
//! longer found within its pinned trace length. A fix that closes a known
//! violation makes its row verify, which fails the gate until the row moves
//! to `clean_configs`.

use std::time::Instant;

use sss_bench::cli::{parse_flag, parse_u64};
use sss_model::sss::Action;
use sss_model::{bfs_check, ChaosHints, CheckConfig, CheckReport, ModelConfig, Mutation, SssModel};

const COUNTEREXAMPLE_CAP: usize = 40;

/// The clean configurations, each with its pinned unique-state count.
/// "Verified" says nothing about a space that silently shrank (an action no
/// longer enabled) or grew, so the gate fails on any drift; a change that
/// means to move a count re-records it here from `--print-table`.
fn clean_configs() -> Vec<(&'static str, ModelConfig, usize)> {
    let dup_budget = ModelConfig {
        duplicate_prepare_budget: 1,
        ..ModelConfig::clean_2n2t()
    };
    vec![
        ("clean-2n2t", ModelConfig::clean_2n2t(), 134),
        ("conflict-2n2t", ModelConfig::conflict_2n2t(), 2679),
        ("clean-3n2t", ModelConfig::clean_3n2t(), 475),
        ("clean-2n3t", ModelConfig::clean_2n3t(), 12895),
        ("contended-2n3t", ModelConfig::contended_2n3t(), 19625),
        ("dup-budget-2n2t", dup_budget, 258),
    ]
}

/// Configurations with a violation the protocol is known to admit, the
/// invariant it breaks and the longest trace it may take. ROADMAP item 0
/// is the fix.
fn known_violations() -> Vec<(&'static str, ModelConfig, &'static str, usize)> {
    vec![(
        "crossed-readers-2n4t",
        ModelConfig::crossed_readers_2n4t(),
        "serializability",
        46,
    )]
}

/// Explores `cfg` and prints its table row; `verdict` words the outcome and
/// says whether it passes, which is returned with the report.
fn run(
    name: &str,
    cfg: ModelConfig,
    budget: &CheckConfig,
    verdict: impl FnOnce(&CheckReport<Action>) -> (bool, String),
) -> (CheckReport<Action>, bool) {
    let start = Instant::now();
    let report = bfs_check(&SssModel::new(cfg), budget);
    let (passed, verdict) = verdict(&report);
    println!(
        "{:<28} {:>10} {:>12} {:>7} {:>7.0}ms  {verdict}",
        name,
        report.unique_states,
        report.transitions,
        report.max_depth_seen,
        start.elapsed().as_secs_f64() * 1e3,
    );
    (report, passed)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget = CheckConfig {
        max_states: parse_u64(&args, "--max-states").unwrap_or(4_000_000) as usize,
        max_depth: parse_u64(&args, "--max-depth").unwrap_or(256) as usize,
    };
    let print_table = parse_flag(&args, "--print-table");

    println!(
        "{:<28} {:>10} {:>12} {:>7} {:>9}  verdict",
        "configuration", "states", "transitions", "depth", "elapsed"
    );
    let mut failures = 0;
    let mut table = Vec::new();
    for (name, config, pinned) in clean_configs() {
        let (report, passed) = run(name, config, &budget, |report| {
            let states = report.unique_states;
            match (&report.violation, report.complete) {
                (Some(_), _) => (false, "VIOLATION".into()),
                (None, false) => (false, "INCOMPLETE".into()),
                (None, true) if states != pinned && !print_table => {
                    (false, format!("DRIFTED (pinned at {pinned} states)"))
                }
                (None, true) => (true, "verified".into()),
            }
        });
        failures += usize::from(!passed);
        table.push((name, report.unique_states));
        if let Some(cx) = report.violation {
            print!("{}", cx.render());
        }
    }
    for mutation in [
        Mutation::DuplicatePrepare,
        Mutation::AbortOvertakesPrepare,
        Mutation::PrematureRelease,
        Mutation::DroppedExclusionCeiling,
    ] {
        let name = format!("mutation:{mutation:?}");
        let config = ModelConfig::mutated(mutation);
        let (_, passed) = run(&name, config, &budget, |report| match &report.violation {
            Some(cx) if cx.actions.len() <= COUNTEREXAMPLE_CAP => {
                let (steps, fault) = (cx.actions.len(), ChaosHints::from_counterexample(cx).fault);
                let caught = format!("caught ({steps} actions, {fault:?}, {})", cx.invariant);
                (true, caught)
            }
            Some(cx) => (false, format!("TOO-LONG ({} actions)", cx.actions.len())),
            None => (false, "MISSED (no counterexample)".into()),
        });
        failures += usize::from(!passed);
    }
    for (name, config, invariant, cap) in known_violations() {
        let name = format!("known:{name}");
        let (report, passed) = run(&name, config, &budget, |report| match &report.violation {
            Some(cx) if cx.invariant.contains(invariant) && cx.actions.len() <= cap => (
                true,
                format!("known violation ({} actions)", cx.actions.len()),
            ),
            Some(cx) => (
                false,
                format!("CHANGED ({} actions: {})", cx.actions.len(), cx.invariant),
            ),
            None if report.complete => (false, "VERIFIED (move it to the clean rows)".into()),
            None => (false, "INCOMPLETE".into()),
        });
        failures += usize::from(!passed);
        if let Some(cx) = report.violation {
            print!("{}", cx.render());
        }
    }

    if print_table {
        println!("state counts to pin in `clean_configs`:");
        for (name, states) in table {
            println!("    {name:<20} {states}");
        }
    }
    if failures > 0 {
        eprintln!("{failures} configuration(s) FAILED");
        std::process::exit(1);
    }
    println!("all configurations verified; all mutations and known violations caught");
}
