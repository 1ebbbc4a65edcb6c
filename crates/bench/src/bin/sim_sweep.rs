//! Seed-sweep of the chaos catalog under the deterministic simulator: each
//! seed runs one catalog entry twice on `sss-sim` virtual time, gating on a
//! checker-clean history and a bit-identical replay (summary + history
//! fingerprint).
//!
//! Usage: `cargo run -p sss-bench --release --bin sim-sweep --
//!         [--seeds N] [--base-seed N] [--only NAME] [--threads N]
//!         [--print-corpus]`
//!
//! * `--seeds N` — number of consecutive seeds to sweep (default 200).
//! * `--base-seed N` — first seed (default 1).
//! * `--only NAME` — sweep only the catalog entries with this scenario name
//!   (every seed runs one of them).
//! * `--threads N` — worker threads (default: available parallelism).
//! * `--print-corpus` — instead of sweeping, replay the committed
//!   seed-replay corpus and print each entry's current fingerprint (paste
//!   into `replay_corpus` when intentionally re-recording).
//!
//! Exits 1 if any seed fails either gate, 2 if there is nothing to sweep
//! (`--only` names no scenario, or `--seeds 0`; the valid scenario names
//! are listed).

use sss_bench::sim_sweep::{replay_corpus, run_corpus_entry, run_sim_sweep, SimSweepConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if sss_bench::cli::parse_flag(&args, "--print-corpus") {
        for entry in replay_corpus() {
            let outcome = run_corpus_entry(&entry).unwrap_or_else(|error| {
                eprintln!("invalid corpus entry {}: {error}", entry.name);
                std::process::exit(2);
            });
            println!(
                "{:<26} seed={:<6} fingerprint=0x{:016x} passed={}",
                entry.name,
                entry.seed,
                outcome.fingerprint(),
                outcome.passed(),
            );
        }
        return;
    }
    let config = SimSweepConfig::from_args(&args);
    let report = run_sim_sweep(&config).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    print!("{}", report.render());
    let failures = report.failures().count();
    if failures > 0 {
        eprintln!("{failures} seed(s) FAILED");
        std::process::exit(1);
    }
    println!(
        "all {} seeds checker-clean and replayable",
        report.results.len()
    );
}
