//! The seed-sweep tier: the chaos catalog under the deterministic
//! discrete-event simulator (`sss-sim`), swept across hundreds of seeds.
//!
//! Each seed selects both the workload/fault streams and the simulator's
//! task-interleaving RNG, and runs one catalog entry (round-robin over the
//! catalog, or over the entries `--only NAME` selects, so a 200-seed sweep
//! covers every scenario many times with distinct seeds). Every run is
//! executed **twice** and the sweep asserts:
//!
//! * **checker-clean** — the scenario passed all of its expectations,
//!   including the `sss-consistency` verdict on the recorded history, and
//! * **deterministic** — the replay produced a bit-identical
//!   [`ScenarioOutcome::summary`] *and* history fingerprint
//!   ([`ScenarioOutcome::fingerprint`]).
//!
//! Virtual time jumps over every protocol time-out and fault window instead
//! of sleeping through it, but a simulated transaction is not free: every
//! wake-up re-checks every parked task, so the wall cost grows with clients
//! and timers. A 720-transaction smoke entry (6 clients) costs 0.1–1 s —
//! the 200-seed sweep, each seed run twice, takes about a minute and a half
//! on two cores — while the repository benchmark's `net_delay` (32 clients,
//! 55 µs hops) measures 2–3 ms per transaction (`sim.wall_us_per_txn`).
//! Seeds are independent, so the sweep fans out across OS threads — each
//! worker runs its own single-threaded `SimRuntime` instances.
//!
//! The [`replay_corpus`] is the long-lived counterpart: a small set of
//! named (scenario, seed) pairs whose outcome fingerprints are committed to
//! the repository, so any change to protocol message order, scheduling, or
//! history recording that alters an interleaving shows up as a corpus diff
//! rather than as silent drift.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sss_engine::EngineKind;
use sss_workload::scenario::{run_scenario_sim, ScenarioOutcome};
use sss_workload::SpecError;

use crate::scenarios::{scenario_names, selected_catalog, ScenarioConfig, ScenarioRun};

/// Configuration of one seed sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSweepConfig {
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// First seed of the sweep.
    pub base_seed: u64,
    /// Sweep only the catalog entries whose scenario name equals this
    /// filter: every seed runs one of them.
    pub only: Option<String>,
    /// Worker threads running simulations concurrently (each simulation is
    /// single-threaded; seeds are independent).
    pub threads: usize,
}

impl Default for SimSweepConfig {
    fn default() -> Self {
        SimSweepConfig {
            seeds: 200,
            base_seed: 1,
            only: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl SimSweepConfig {
    /// Parses `--seeds N`, `--base-seed N`, `--only NAME` and `--threads N`
    /// flags.
    pub fn from_args(args: &[String]) -> Self {
        let default = SimSweepConfig::default();
        SimSweepConfig {
            seeds: crate::cli::parse_u64(args, "--seeds").unwrap_or(default.seeds),
            base_seed: crate::cli::parse_u64(args, "--base-seed").unwrap_or(default.base_seed),
            only: crate::cli::parse_value(args, "--only"),
            threads: crate::cli::parse_u64(args, "--threads")
                .map_or(default.threads, |n| n.max(1) as usize),
        }
    }
}

/// The smoke-scale chaos catalog seeded for `seed` — every SSS scenario plus
/// the baselines' partition-heal entries, with both the workload and fault
/// streams derived from `seed` — narrowed to the scenario named `only`.
///
/// # Errors
///
/// [`selected_catalog`]'s message when `only` names no scenario.
fn catalog_for(seed: u64, only: Option<&str>) -> Result<Vec<ScenarioRun>, String> {
    selected_catalog(&ScenarioConfig {
        smoke: true,
        seed,
        check_determinism: false,
        only: only.map(str::to_string),
        engine: None,
        observability: false,
        trace_out: None,
    })
}

/// The verdict of one (seed, catalog entry) pair.
#[derive(Debug)]
pub struct SeedRunResult {
    /// The seed (workload, faults, and simulator interleaving).
    pub seed: u64,
    /// Engine the entry ran against.
    pub engine: EngineKind,
    /// Scenario name.
    pub scenario: String,
    /// The first run's deterministic summary projection.
    pub summary: String,
    /// The first run's history fingerprint.
    pub fingerprint: u64,
    /// `true` when the scenario met all expectations (checker included).
    pub checker_clean: bool,
    /// `true` when the replay reproduced summary and fingerprint exactly.
    pub deterministic: bool,
    /// Expectation violations of the first run, if any.
    pub violations: Vec<String>,
    /// Wall-clock cost of both runs of this seed.
    pub wall: Duration,
}

impl SeedRunResult {
    /// `true` when the seed is both checker-clean and replayable.
    pub fn passed(&self) -> bool {
        self.checker_clean && self.deterministic
    }
}

/// The result of a whole sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-seed verdicts, in seed order.
    pub results: Vec<SeedRunResult>,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
}

impl SweepReport {
    /// `true` when every seed passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(SeedRunResult::passed)
    }

    /// The seeds that failed either gate.
    pub fn failures(&self) -> impl Iterator<Item = &SeedRunResult> {
        self.results.iter().filter(|r| !r.passed())
    }

    /// Renders the sweep as an aligned per-scenario report plus failure
    /// details.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        // Aggregate per (scenario, engine) in first-seen order.
        let mut rows: Vec<(String, EngineKind, usize, usize, usize, Duration)> = Vec::new();
        for result in &self.results {
            let row = match rows
                .iter_mut()
                .find(|(name, engine, ..)| name == &result.scenario && *engine == result.engine)
            {
                Some(row) => row,
                None => {
                    rows.push((
                        result.scenario.clone(),
                        result.engine,
                        0,
                        0,
                        0,
                        Duration::ZERO,
                    ));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.2 += 1;
            row.3 += usize::from(result.checker_clean);
            row.4 += usize::from(result.deterministic);
            row.5 = row.5.max(result.wall);
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<26} {:<8} {:>6} {:>6} {:>7} {:>10}",
            "scenario", "engine", "seeds", "clean", "replay", "worst-wall"
        );
        for (name, engine, runs, clean, deterministic, worst) in &rows {
            let _ = writeln!(
                out,
                "{:<26} {:<8} {:>6} {:>6} {:>7} {:>8.0}ms",
                name,
                engine.label(),
                runs,
                clean,
                deterministic,
                worst.as_secs_f64() * 1e3,
            );
        }
        for failure in self.failures() {
            let _ = writeln!(
                out,
                "!! seed {} [{} {}]: checker_clean={} deterministic={}",
                failure.seed,
                failure.engine.label(),
                failure.scenario,
                failure.checker_clean,
                failure.deterministic,
            );
            for violation in &failure.violations {
                let _ = writeln!(out, "     {violation}");
            }
        }
        let _ = writeln!(
            out,
            "swept {} seeds in {:.1}s",
            self.results.len(),
            self.wall.as_secs_f64(),
        );
        out
    }
}

/// Runs one catalog entry under the simulator with `seed`, twice, and
/// reports the checker and replay-determinism verdicts.
fn run_seed(seed: u64, run: &ScenarioRun) -> Result<SeedRunResult, SpecError> {
    let started = Instant::now();
    let outcome = run_scenario_sim(run.engine, &run.scenario, seed)?;
    let replay = run_scenario_sim(run.engine, &run.scenario, seed)?;
    let deterministic =
        replay.summary() == outcome.summary() && replay.fingerprint() == outcome.fingerprint();
    Ok(SeedRunResult {
        seed,
        engine: run.engine,
        scenario: run.scenario.name.clone(),
        summary: outcome.summary(),
        fingerprint: outcome.fingerprint(),
        checker_clean: outcome.passed(),
        deterministic,
        violations: outcome.violations,
        wall: started.elapsed(),
    })
}

/// The (seed, catalog entry) pairs [`run_sim_sweep`] runs.
///
/// # Errors
///
/// A sweep of nothing — `only` names no scenario, or zero seeds — yields a
/// message listing the catalog's scenario names (a gate must fail, not pass
/// on zero runs); a structurally invalid scenario yields its [`SpecError`].
fn sweep_jobs(config: &SimSweepConfig) -> Result<Vec<(u64, ScenarioRun)>, String> {
    let only = config.only.as_deref();
    if config.seeds == 0 {
        let catalog = catalog_for(config.base_seed, None)?;
        return Err(format!(
            "--seeds 0 sweeps nothing (scenarios: {})",
            scenario_names(&catalog)
        ));
    }
    let mut jobs = Vec::new();
    for i in 0..config.seeds {
        let seed = config.base_seed + i;
        let mut entries = catalog_for(seed, only)?;
        let entry = entries.swap_remove(i as usize % entries.len());
        entry
            .scenario
            .spec
            .validate()
            .map_err(|error| format!("invalid scenario in catalog: {error}"))?;
        jobs.push((seed, entry));
    }
    Ok(jobs)
}

/// Runs the sweep: seeds `base_seed .. base_seed + seeds`, each assigned one
/// of the selected catalog entries round-robin, each run twice (checker gate
/// + replay gate), fanned out over `threads` workers.
///
/// # Errors
///
/// A sweep that selects nothing, or a structurally invalid scenario: the
/// message to print before exiting 2.
pub fn run_sim_sweep(config: &SimSweepConfig) -> Result<SweepReport, String> {
    let started = Instant::now();
    let jobs = sweep_jobs(config)?;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<SeedRunResult>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((seed, run)) = jobs.get(i) else {
                    break;
                };
                let result = run_seed(*seed, run).expect("jobs were pre-validated");
                results
                    .lock()
                    .expect("no panics hold the lock")
                    .push(result);
            });
        }
    });
    let mut results = results.into_inner().expect("workers joined");
    results.sort_by_key(|r| r.seed);
    Ok(SweepReport {
        results,
        wall: started.elapsed(),
    })
}

/// One committed replay-regression entry: a named (scenario, seed) pair and
/// the history fingerprint its simulation must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Stable name of the corpus entry.
    pub name: &'static str,
    /// Engine the scenario runs against.
    pub engine: EngineKind,
    /// Catalog scenario name.
    pub scenario: &'static str,
    /// Seed (workload, faults, simulator interleaving).
    pub seed: u64,
    /// Recorded [`ScenarioOutcome::fingerprint`] of the run.
    pub fingerprint: u64,
}

/// The committed seed-replay corpus.
///
/// The seeds are the ones the sweep and the chaos-smoke CI jobs lean on
/// hardest (the default catalog seed 42, the sweep's base seed 1) plus a
/// spread of arbitrary seeds over the fault-heavy entries, so the corpus
/// pins one exact interleaving of every delivery mechanism: clean runs,
/// partitions, duplicates, reordering, and the model-checker regressions.
///
/// A fingerprint mismatch means the same seed now produces a *different
/// history* — a protocol, scheduler, or recorder change altered an
/// interleaving. That is sometimes intended (e.g. a protocol-round change);
/// re-record with `cargo run -p sss-bench --release --bin sim-sweep --
/// --print-corpus` and commit the new values alongside the change that
/// explains them.
pub fn replay_corpus() -> Vec<CorpusEntry> {
    let entry = |name, engine, scenario, seed, fingerprint| CorpusEntry {
        name,
        engine,
        scenario,
        seed,
        fingerprint,
    };
    vec![
        entry(
            "control-42",
            EngineKind::Sss,
            "control",
            42,
            0xce3922f40faf7443,
        ),
        entry(
            "partition-heal-7",
            EngineKind::Sss,
            "partition-heal",
            7,
            0x2de57b1e4cbe4dcf,
        ),
        entry(
            "duplicate-storm-1001",
            EngineKind::Sss,
            "duplicate-storm",
            1001,
            0xcd17c5311c66700e,
        ),
        entry(
            "reorder-burst-31337",
            EngineKind::Sss,
            "reorder-burst",
            31337,
            0x29ab579e4c375385,
        ),
        entry(
            "chaos-mix-97",
            EngineKind::Sss,
            "chaos-mix",
            97,
            0x0a267b6b8e5f659f,
        ),
        entry(
            "mc-duplicate-prepare-13",
            EngineKind::Sss,
            "mc-duplicate-prepare",
            13,
            0x8b7052c36a6e5a24,
        ),
        entry(
            "twopc-partition-heal-1",
            EngineKind::TwoPc,
            "partition-heal",
            1,
            0xd6545986523d7974,
        ),
        // The fault-survival entries: one pinned interleaving each of the
        // reliable-delivery layer under sustained loss and of the two
        // crash-stop/restart shapes (coordinator node mid-commit, round
        // leader mid-epoch), so retransmit timing, mailbox purge and the
        // recovery round stay bit-reproducible.
        entry(
            "lossy-link-669",
            EngineKind::Sss,
            "lossy-link",
            669,
            0xde97b293c262a599,
        ),
        entry(
            "crash-restart-during-commit-669",
            EngineKind::Sss,
            "crash-restart-during-commit",
            669,
            0x4021c564bac5a1c2,
        ),
        entry(
            "leader-crash-mid-epoch-669",
            EngineKind::Sss,
            "leader-crash-mid-epoch",
            669,
            0x4cb68759bddea4d7,
        ),
    ]
}

/// Replays one corpus entry under the simulator and returns its outcome.
///
/// # Errors
///
/// Returns the [`SpecError`] of a structurally invalid scenario (corpus
/// construction bugs surface here).
pub fn run_corpus_entry(entry: &CorpusEntry) -> Result<ScenarioOutcome, SpecError> {
    let run = catalog_for(entry.seed, Some(entry.scenario))
        .unwrap_or_else(|message| panic!("corpus entry {}: {message}", entry.name))
        .into_iter()
        .find(|r| r.engine == entry.engine)
        .unwrap_or_else(|| panic!("corpus entry {} names no catalog scenario", entry.name));
    run_scenario_sim(run.engine, &run.scenario, entry.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parses_flags() {
        let args: Vec<String> = [
            "bin",
            "--seeds",
            "8",
            "--base-seed",
            "100",
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let config = SimSweepConfig::from_args(&args);
        assert_eq!(config.seeds, 8);
        assert_eq!(config.base_seed, 100);
        assert_eq!(config.threads, 2);
        let default = SimSweepConfig::from_args(&["bin".to_string()]);
        assert_eq!(default.seeds, 200);
        assert_eq!(default.base_seed, 1);
    }

    #[test]
    fn corpus_entries_name_catalog_scenarios() {
        for entry in replay_corpus() {
            assert!(
                catalog_for(entry.seed, Some(entry.scenario))
                    .is_ok_and(|runs| runs.iter().any(|r| r.engine == entry.engine)),
                "corpus entry {} names no catalog scenario",
                entry.name
            );
        }
    }

    fn sweep(seeds: u64, only: Option<&str>) -> SimSweepConfig {
        SimSweepConfig {
            seeds,
            base_seed: 1,
            only: only.map(str::to_string),
            threads: 1,
        }
    }

    /// `(seed, engine, scenario)` of every job, no runs.
    fn picks(config: &SimSweepConfig) -> Vec<(u64, EngineKind, String)> {
        sweep_jobs(config)
            .expect("the selection is not empty")
            .into_iter()
            .map(|(seed, run)| (seed, run.engine, run.scenario.name))
            .collect()
    }

    #[test]
    fn round_robin_covers_the_whole_catalog() {
        let catalog = catalog_for(1, None).unwrap();
        // Seed `base + i` runs entry `i mod len` of the whole catalog: every
        // entry exactly once across one catalog-length stretch of seeds.
        let expected: Vec<_> = catalog
            .iter()
            .zip(1u64..)
            .map(|(run, seed)| (seed, run.engine, run.scenario.name.clone()))
            .collect();
        assert_eq!(picks(&sweep(catalog.len() as u64, None)), expected);
        let distinct: std::collections::HashSet<_> = expected
            .iter()
            .map(|(_, engine, name)| (*engine, name))
            .collect();
        assert_eq!(distinct.len(), catalog.len());
    }

    /// `--only` narrows the catalog *before* the round-robin, so `--seeds N
    /// --only X` is N seeds of X, not the few of N that happened to land
    /// on it.
    #[test]
    fn only_sweeps_every_seed_over_the_named_scenario() {
        let picked = picks(&sweep(6, Some("pause-during-commit")));
        assert_eq!(
            picked.iter().map(|(seed, ..)| *seed).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 6]
        );
        assert!(picked
            .iter()
            .all(|(_, _, name)| name == "pause-during-commit"));
        // Several engines run `partition-heal`: the seeds rotate over them.
        let engines: std::collections::HashSet<_> = picks(&sweep(6, Some("partition-heal")))
            .into_iter()
            .map(|(_, engine, _)| engine)
            .collect();
        assert!(engines.len() > 1);
    }

    /// A sweep of nothing is an error naming the catalog, not zero seeds
    /// that are "all checker-clean".
    #[test]
    fn an_empty_sweep_is_an_error_listing_the_catalog() {
        for empty in [sweep(3, Some("no-such-scenario")), sweep(0, None)] {
            let message = run_sim_sweep(&empty).expect_err("nothing to sweep");
            for name in ["control", "lossy-link", "pause-during-commit"] {
                assert!(message.contains(name), "{message}");
            }
        }
    }
}
