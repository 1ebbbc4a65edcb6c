//! The chaos-scenario catalog: named fault plans run against SSS and the
//! baselines, with post-run consistency verification.
//!
//! Each catalog entry pairs an engine with a [`ChaosScenario`] (workload +
//! fault plan + expected-outcome assertions, see `sss_workload::scenario`).
//! Every injected fault is safety-preserving in the paper's system model:
//! delay, reorder, duplicate, partition-with-heal and pause are so
//! natively, while message loss and crash-stop plans auto-enable the
//! reliable-delivery layer plus the restart-recovery protocol (see
//! `sss_core::SssCluster::start`). SSS must keep external consistency
//! through every entry and read-only abort freedom through every
//! crash-free entry (a read parked on a crashing node aborts and retries —
//! [`ScenarioExpectations::sss_under_crash`]); the serializable baselines
//! must keep consistency; Walter (PSI) is run for liveness only.

use std::collections::BTreeSet;
use std::time::Duration;

use sss_engine::{EngineKind, TraceSpan};
use sss_workload::scenario::{
    run_scenario_tuned, ChaosScenario, ScenarioExpectations, ScenarioOutcome,
};
use sss_workload::{FaultPlan, LinkFault, LinkSelector, SpecError, WorkloadSpec};

/// A labelled group of trace spans, ready for
/// [`sss_engine::chrome_trace_json`].
pub type TraceGroup = (String, Vec<TraceSpan>);

/// Configuration of one catalog execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Shrinks cluster size and operation counts so the whole catalog runs
    /// in seconds (the CI smoke configuration).
    pub smoke: bool,
    /// Base seed of the workload streams and fault plans.
    pub seed: u64,
    /// Re-run every SSS scenario a second time and fail unless the outcome
    /// summaries are bit-identical.
    pub check_determinism: bool,
    /// Only run scenarios whose name equals this filter.
    pub only: Option<String>,
    /// Only run scenarios for this engine.
    pub engine: Option<EngineKind>,
    /// Build engines with observability on: phase tracing into per-node
    /// rings, per-phase histograms, and the watchdog's trace dump on a
    /// stuck run. The outcome summaries are bit-identical either way.
    pub observability: bool,
    /// Write every run's drained trace spans as one Chrome-trace JSON file
    /// to this path (implies `observability`).
    pub trace_out: Option<String>,
}

impl ScenarioConfig {
    /// Parses `--smoke`, `--seed N`, `--check-determinism`, `--only NAME`,
    /// `--engine NAME`, `--obs` and `--trace-out PATH` flags.
    pub fn from_args(args: &[String]) -> Self {
        let trace_out = crate::cli::parse_value(args, "--trace-out");
        ScenarioConfig {
            smoke: crate::cli::parse_flag(args, "--smoke"),
            seed: crate::cli::parse_u64(args, "--seed").unwrap_or(42),
            check_determinism: crate::cli::parse_flag(args, "--check-determinism"),
            only: crate::cli::parse_value(args, "--only"),
            engine: crate::cli::parse_value(args, "--engine")
                .map(|name| name.parse().expect("unknown engine name")),
            observability: crate::cli::parse_flag(args, "--obs") || trace_out.is_some(),
            trace_out,
        }
    }
}

/// One catalog entry: which engine runs which scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Engine under test.
    pub engine: EngineKind,
    /// The scenario to run.
    pub scenario: ChaosScenario,
}

fn base_spec(smoke: bool, seed: u64) -> WorkloadSpec {
    if smoke {
        WorkloadSpec::new(3)
            .clients_per_node(2)
            .total_keys(64)
            .read_only_percent(50)
            .seed(seed)
    } else {
        WorkloadSpec::new(4)
            .clients_per_node(3)
            .total_keys(256)
            .read_only_percent(50)
            .seed(seed)
    }
}

fn scenario(name: &str, smoke: bool, seed: u64) -> ChaosScenario {
    let ops = if smoke { 120 } else { 300 };
    ChaosScenario::new(name, base_spec(smoke, seed)).ops_per_client(ops)
}

/// The named chaos scenarios run against SSS. Scheduled windows start a few
/// milliseconds in (the fixed-operation workload is still running by then)
/// and are sized well under the engine's protocol timeouts, so faults slow
/// the run without forcing spurious give-ups.
pub fn sss_scenarios(smoke: bool, seed: u64) -> Vec<ChaosScenario> {
    let ms = Duration::from_millis;
    let us = Duration::from_micros;
    vec![
        // A clean control run: catches harness regressions and gives the
        // faulted entries a baseline to compare against.
        scenario("control", smoke, seed),
        // Node 0 is cut off from the rest of the cluster, then the
        // partition heals and the held messages flood in.
        scenario("partition-heal", smoke, seed).faults(FaultPlan::new(seed).partition(
            [0],
            ms(5),
            ms(40),
        )),
        // One direction of one link is slow and jittery; the reverse
        // direction stays clean (the classic asymmetric gray failure).
        scenario("asymmetric-slow-link", smoke, seed).faults(
            FaultPlan::new(seed).link_fault(
                LinkFault::on(LinkSelector::Directed { from: 0, to: 1 })
                    .jitter(us(500))
                    .spike(40, ms(2)),
            ),
        ),
        // Forty percent of all messages are delivered twice: exercises
        // the idempotency of every protocol handler.
        scenario("duplicate-storm", smoke, seed).faults(
            FaultPlan::new(seed)
                .link_fault(LinkFault::on(LinkSelector::All).duplicate(40, us(200))),
        ),
        // A third of all messages are held back long enough for later
        // traffic to overtake them: exercises out-of-order delivery across
        // priority classes and message types.
        scenario("reorder-burst", smoke, seed).faults(
            FaultPlan::new(seed).link_fault(
                LinkFault::on(LinkSelector::All)
                    .jitter(us(300))
                    .reorder(30, ms(1)),
            ),
        ),
        // Nodes stall mid-run while commits are in flight, then resume and
        // drain their backlogs (rolling GC-pause / CPU-starvation model).
        scenario("pause-during-commit", smoke, seed).faults(
            FaultPlan::new(seed)
                .pause(1, ms(3), ms(30))
                .pause(2, ms(40), ms(30)),
        ),
        // Everything at once: jitter, spikes, duplicates, a partition and
        // a pause, overlapping.
        scenario("chaos-mix", smoke, seed).faults(
            FaultPlan::new(seed)
                .link_fault(
                    LinkFault::on(LinkSelector::All)
                        .jitter(us(300))
                        .spike(10, ms(1))
                        .duplicate(15, us(100)),
                )
                .partition([1], ms(10), ms(30))
                .pause(0, ms(45), ms(25)),
        ),
        // A fifth of all wire attempts (retransmissions included) vanish on
        // every link. The plan's loss makes the cluster auto-enable the
        // reliable-delivery layer, whose ack/retransmit machinery must
        // restore effectively-once delivery — and the full SSS guarantee
        // set — over the lossy wire.
        scenario("lossy-link", smoke, seed)
            .faults(FaultPlan::new(seed).link_fault(LinkFault::on(LinkSelector::All).loss(20))),
        // Node 1 crash-stops mid-run (mailbox purged, volatile protocol
        // state wiped) and restarts 40ms later: the restarted node rebuilds
        // its begin snapshot from peers via a StateQuery round, outstanding
        // messages to it are retransmitted, and its colocated clients —
        // briefly gated on `NodeUnavailable` backoff — must finish their
        // fixed operation count after the restart. Reads parked on the
        // crashing node abort and retry (`sss_under_crash`); consistency
        // and all-committed still gate.
        scenario("crash-restart-during-commit", smoke, seed)
            .faults(FaultPlan::new(seed).crash(1, ms(5), ms(40)))
            .expect(ScenarioExpectations::sss_under_crash()),
        // Node 0 — the confirmation-round leader for every transaction its
        // clients coordinate — crashes while grouped confirmation rounds
        // are in flight (link jitter keeps rounds airborne longer), then
        // restarts: queued members' waiters observe the coalescer reset,
        // degrade along the timeout path, and the post-restart committers
        // lead fresh rounds.
        scenario("leader-crash-mid-epoch", smoke, seed)
            .faults(
                FaultPlan::new(seed)
                    .link_fault(LinkFault::on(LinkSelector::All).jitter(us(200)))
                    .crash(0, ms(8), ms(40)),
            )
            .expect(ScenarioExpectations::sss_under_crash()),
        // Regression scenarios seeded from model-checker counterexamples:
        // each targets the fault class an `sss-model` mutation's minimal
        // trace exploits (see `modelcheck_regressions` and the
        // `seeded_scenarios_match_the_checker_classification` test, which
        // re-derives the classification from the live checker).
        modelcheck_regression(sss_model::Mutation::DuplicatePrepare, smoke, seed),
        modelcheck_regression(sss_model::Mutation::AbortOvertakesPrepare, smoke, seed),
    ]
}

/// The catalog name of the regression scenario seeded from `mutation`'s
/// counterexample.
pub fn modelcheck_scenario_name(mutation: sss_model::Mutation) -> &'static str {
    match mutation {
        sss_model::Mutation::DuplicatePrepare => "mc-duplicate-prepare",
        sss_model::Mutation::AbortOvertakesPrepare => "mc-abort-overtakes-prepare",
        sss_model::Mutation::PrematureRelease => "mc-premature-release",
        sss_model::Mutation::DroppedExclusionCeiling => "mc-dropped-ceiling",
    }
}

/// Maps a counterexample's fault class to the chaos-plan knobs that stress
/// the same delivery mechanism on a real cluster. The rates are deliberately
/// high: the checker proved one adversarial delivery suffices, so the
/// scenario saturates that channel instead of hoping to hit it.
pub fn fault_plan_for(fault: sss_model::chaos::FaultKind, seed: u64) -> FaultPlan {
    let ms = Duration::from_millis;
    let us = Duration::from_micros;
    match fault {
        // The trace delivers one envelope twice: duplicate half of all
        // messages so every handler's dedup path is hammered.
        sss_model::chaos::FaultKind::Duplicate => {
            FaultPlan::new(seed).link_fault(LinkFault::on(LinkSelector::All).duplicate(50, us(150)))
        }
        // The trace needs a later send to overtake an earlier one (e.g. a
        // Decide overtaking its Prepare): hold a large fraction of messages
        // long enough for subsequent traffic to pass them.
        sss_model::chaos::FaultKind::Reorder => FaultPlan::new(seed).link_fault(
            LinkFault::on(LinkSelector::All)
                .jitter(us(400))
                .reorder(40, ms(2)),
        ),
        // Plain adversarial delay.
        sss_model::chaos::FaultKind::Delay => FaultPlan::new(seed).link_fault(
            LinkFault::on(LinkSelector::All)
                .jitter(us(500))
                .spike(30, ms(2)),
        ),
    }
}

/// One regression scenario seeded from a model-checker counterexample.
///
/// The checker's BFS found a minimal trace violating an SSS invariant with
/// the mutation applied (`sss-model`, `tests/model_check.rs`); the trace's
/// fault class — re-derived live by the catalog test — picks the fault
/// plan, and the scenario then asserts the *unmutated* production engine
/// holds the full SSS guarantee set under a saturated dose of that fault:
///
/// * `DuplicatePrepare`: an 18-action trace delivering one `Prepare` twice
///   wedges the commit queue (quiescence violation) once the handler's
///   dedup is removed → `Duplicate` faults.
/// * `AbortOvertakesPrepare`: a 21-action trace delivering a `Decide`
///   (abort) before its `Prepare` wedges the prepare path once the abort
///   tombstone is removed → `Reorder` faults.
fn modelcheck_regression(mutation: sss_model::Mutation, smoke: bool, seed: u64) -> ChaosScenario {
    let fault = match mutation {
        sss_model::Mutation::DuplicatePrepare => sss_model::chaos::FaultKind::Duplicate,
        sss_model::Mutation::AbortOvertakesPrepare => sss_model::chaos::FaultKind::Reorder,
        sss_model::Mutation::PrematureRelease => sss_model::chaos::FaultKind::Delay,
        sss_model::Mutation::DroppedExclusionCeiling => sss_model::chaos::FaultKind::Delay,
    };
    scenario(modelcheck_scenario_name(mutation), smoke, seed).faults(fault_plan_for(fault, seed))
}

/// The full catalog: every SSS scenario plus the partition-heal scenario
/// for each baseline engine. The baselines run on the same `sss-net`
/// transport as SSS, so the partition genuinely severs their traffic too;
/// each run goes through population, the fixed-operation loop, history
/// recording and the post-run checker.
pub fn scenario_catalog(config: &ScenarioConfig) -> Vec<ScenarioRun> {
    let mut catalog: Vec<ScenarioRun> = sss_scenarios(config.smoke, config.seed)
        .into_iter()
        .map(|scenario| ScenarioRun {
            engine: EngineKind::Sss,
            scenario,
        })
        .collect();
    for engine in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Rococo] {
        let faulted = scenario("partition-heal", config.smoke, config.seed)
            .faults(FaultPlan::new(config.seed).partition(
                [0],
                Duration::from_millis(5),
                Duration::from_millis(40),
            ))
            .expect(ScenarioExpectations::of(engine));
        // ROCOCO runs unreplicated, as in the paper's comparison.
        let faulted = if engine == EngineKind::Rococo {
            faulted.replication(1)
        } else {
            faulted
        };
        catalog.push(ScenarioRun {
            engine,
            scenario: faulted,
        });
    }
    catalog
}

/// The result of one catalog entry, including the determinism re-run
/// verdict when requested.
#[derive(Debug)]
pub struct CatalogResult {
    /// The entry that ran.
    pub run: ScenarioRun,
    /// The scenario outcome.
    pub outcome: ScenarioOutcome,
    /// `Some(true)` when a determinism re-run produced a bit-identical
    /// summary, `Some(false)` when it diverged, `None` when not checked.
    pub deterministic: Option<bool>,
}

impl CatalogResult {
    /// `true` when the scenario passed and (if checked) replayed
    /// deterministically.
    pub fn passed(&self) -> bool {
        self.outcome.passed() && self.deterministic != Some(false)
    }
}

/// The catalog entries `config.only` / `config.engine` select.
///
/// # Errors
///
/// A selection that matches nothing (a misspelt or renamed scenario, an
/// engine with no entry of that name) yields a message listing the catalog's
/// scenario names: a gate looping over `--only NAME` must fail, not pass on
/// zero runs.
pub fn selected_catalog(config: &ScenarioConfig) -> Result<Vec<ScenarioRun>, String> {
    let catalog = scenario_catalog(config);
    let selected = |run: &ScenarioRun| {
        config
            .only
            .as_ref()
            .map_or(true, |n| &run.scenario.name == n)
            && config.engine.map_or(true, |engine| run.engine == engine)
    };
    if !catalog.iter().any(selected) {
        return Err(format!(
            "no catalog entry matches --only {} --engine {} (scenarios: {})",
            config.only.as_deref().unwrap_or("*"),
            config.engine.map_or("*", |engine| engine.label()),
            scenario_names(&catalog)
        ));
    }
    Ok(catalog.into_iter().filter(selected).collect())
}

/// The distinct scenario names of `catalog`, comma-separated: what a
/// selection that ran nothing is answered with.
pub(crate) fn scenario_names(catalog: &[ScenarioRun]) -> String {
    let names: BTreeSet<&str> = catalog.iter().map(|r| r.scenario.name.as_str()).collect();
    Vec::from_iter(names).join(", ")
}

/// Runs `catalog` (see [`selected_catalog`]), returning each entry's result
/// and its drained trace spans as labelled groups ready for
/// [`sss_engine::chrome_trace_json`] — one group per entry that ran with
/// observability on (empty when [`ScenarioConfig::observability`] is off).
///
/// # Errors
///
/// Returns the [`SpecError`] of the first structurally invalid scenario
/// (catalog construction bugs surface here rather than as bogus runs).
pub fn run_catalog_traced(
    config: &ScenarioConfig,
    catalog: Vec<ScenarioRun>,
) -> Result<(Vec<CatalogResult>, Vec<TraceGroup>), SpecError> {
    // With observability on, the engine is built with an obs hub whose
    // trace rings are drained after the run.
    let run_entry = |run: &ScenarioRun| {
        run_scenario_tuned(run.engine, &run.scenario, None, |builder| {
            builder.observability(config.observability)
        })
    };
    let mut results = Vec::new();
    let mut trace_groups = Vec::new();
    for run in catalog {
        let (outcome, engine) = run_entry(&run)?;
        if let Some(hub) = engine.observability() {
            let spans = hub.drain_spans();
            if !spans.is_empty() {
                trace_groups.push((
                    format!("{} {}", run.engine.label(), run.scenario.name),
                    spans,
                ));
            }
        }
        // Shut the cluster down before a re-run boots its own.
        drop(engine);
        // Crash-window scenarios are excluded from the *threaded*
        // determinism re-run: which reads sit parked on the node at the
        // wall-clock instant the crash fires is scheduling-dependent, so
        // the summary's abort counts legitimately vary. The simulator tier
        // (`sim-sweep`) pins those scenarios to bit-exact replays on
        // virtual time instead.
        let deterministic = if config.check_determinism
            && run.engine == EngineKind::Sss
            && run.scenario.faults.crashes.is_empty()
        {
            let (replay, _) = run_entry(&run)?;
            Some(replay.summary() == outcome.summary())
        } else {
            None
        };
        results.push(CatalogResult {
            run,
            outcome,
            deterministic,
        });
    }
    Ok((results, trace_groups))
}

/// Renders the catalog results as an aligned report.
pub fn render_results(results: &[CatalogResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<8} {:>10} {:>8} {:>9} {:>8} {:>12} {:>9} {:>8}",
        "scenario",
        "engine",
        "committed",
        "ro-cmt",
        "ro-abort",
        "retries",
        "consistency",
        "elapsed",
        "verdict"
    );
    for result in results {
        let o = &result.outcome;
        let consistency = match &o.consistency {
            None => "unchecked",
            Some(Ok(())) => "ok",
            Some(Err(_)) => "VIOLATED",
        };
        let verdict = if !result.passed() {
            "FAIL"
        } else if result.deterministic == Some(true) {
            "pass+det"
        } else {
            "pass"
        };
        let _ = writeln!(
            out,
            "{:<22} {:<8} {:>10} {:>8} {:>9} {:>8} {:>12} {:>8.1}ms {:>8}",
            o.scenario,
            o.engine,
            o.committed,
            o.committed_read_only,
            o.read_only_aborts,
            o.update_retries,
            consistency,
            o.elapsed.as_secs_f64() * 1e3,
            verdict,
        );
        for violation in &o.violations {
            let _ = writeln!(out, "    !! {violation}");
        }
        if let Some(diagnostics) = &o.diagnostics {
            for line in diagnostics.lines() {
                let _ = writeln!(out, "    | {line}");
            }
        }
        if let Some(dump) = &o.trace_dump {
            let _ = writeln!(
                out,
                "    | trace dump captured at stall ({} bytes of Chrome-trace JSON)",
                dump.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_required_scenarios() {
        let config = ScenarioConfig {
            smoke: true,
            seed: 1,
            check_determinism: false,
            only: None,
            engine: None,
            observability: false,
            trace_out: None,
        };
        let catalog = scenario_catalog(&config);
        let sss_named: Vec<&str> = catalog
            .iter()
            .filter(|r| r.engine == EngineKind::Sss)
            .map(|r| r.scenario.name.as_str())
            .collect();
        assert!(
            sss_named.len() >= 5,
            "need at least 5 named SSS scenarios, got {sss_named:?}"
        );
        for engine in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Rococo] {
            assert!(
                catalog
                    .iter()
                    .any(|r| r.engine == engine && r.scenario.name == "partition-heal"),
                "{engine} is missing its partition-heal run"
            );
        }
        // The catalog now includes the loss and crash-stop fault classes.
        for required in [
            "lossy-link",
            "crash-restart-during-commit",
            "leader-crash-mid-epoch",
        ] {
            assert!(
                sss_named.contains(&required),
                "SSS catalog is missing its {required} run"
            );
        }
        // Every SSS entry asserts the full guarantee set; crash-stop plans
        // relax only the abort-free-reads headline (a read parked on the
        // crashing node aborts and retries), never consistency or liveness.
        for run in catalog.iter().filter(|r| r.engine == EngineKind::Sss) {
            let expected = if !run.scenario.faults.crashes.is_empty() {
                ScenarioExpectations::sss_under_crash()
            } else {
                ScenarioExpectations::sss()
            };
            assert_eq!(
                run.scenario.expect, expected,
                "scenario {}",
                run.scenario.name
            );
        }
    }

    /// The seeded regression scenarios stay honest: re-run the checker on
    /// each source mutation and assert its counterexample still classifies
    /// into the fault class whose knobs the scenario uses. If a model change
    /// shifts the minimal trace to a different mechanism, this fails and the
    /// scenario must be re-seeded.
    #[test]
    fn seeded_scenarios_match_the_checker_classification() {
        use sss_model::{bfs_check, ChaosHints, CheckConfig, Mutation, SssModel};
        for (mutation, expected) in [
            (
                Mutation::DuplicatePrepare,
                sss_model::chaos::FaultKind::Duplicate,
            ),
            (
                Mutation::AbortOvertakesPrepare,
                sss_model::chaos::FaultKind::Reorder,
            ),
        ] {
            let model = SssModel::new(sss_model::ModelConfig::mutated(mutation));
            let report = bfs_check(&model, &CheckConfig::default());
            let cx = report
                .violation
                .unwrap_or_else(|| panic!("{mutation:?} must still produce a counterexample"));
            let hints = ChaosHints::from_counterexample(&cx);
            assert_eq!(
                hints.fault,
                expected,
                "{mutation:?} reclassified; re-seed {}",
                modelcheck_scenario_name(mutation)
            );
            let named = sss_scenarios(true, 1)
                .into_iter()
                .find(|s| s.name == modelcheck_scenario_name(mutation))
                .expect("seeded scenario is in the catalog");
            assert_eq!(named.expect, ScenarioExpectations::sss());
            assert_eq!(named.faults, fault_plan_for(expected, 1));
        }
    }

    /// An empty selection is an error naming the catalog, not zero runs
    /// that "all passed": CI's crash/loss gate loops over `--only NAME`.
    #[test]
    fn an_empty_selection_is_an_error_listing_the_catalog() {
        let select = |list: &[&str]| {
            let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            selected_catalog(&ScenarioConfig::from_args(&args))
        };
        let names = |runs: Vec<ScenarioRun>| -> Vec<(EngineKind, String)> {
            runs.into_iter()
                .map(|r| (r.engine, r.scenario.name))
                .collect()
        };
        assert_eq!(select(&["bin", "--smoke"]).unwrap().len(), 15);
        assert_eq!(
            names(select(&["bin", "--only", "lossy-link"]).unwrap()),
            vec![(EngineKind::Sss, "lossy-link".to_string())]
        );
        assert_eq!(
            names(select(&["bin", "--engine", "walter"]).unwrap()),
            vec![(EngineKind::Walter, "partition-heal".to_string())]
        );
        for empty in [
            &["bin", "--only", "no-such-scenario"][..],
            &["bin", "--only", "lossy-link", "--engine", "2pc"],
        ] {
            let message = select(empty).unwrap_err();
            assert!(
                message.contains("lossy-link, mc-abort-overtakes-prepare,")
                    && message.matches("partition-heal").count() == 1,
                "unexpected message: {message}"
            );
        }
    }

    #[test]
    fn config_parses_flags() {
        let args: Vec<String> = ["bin", "--smoke", "--seed", "7", "--check-determinism"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let config = ScenarioConfig::from_args(&args);
        assert!(config.smoke);
        assert!(config.check_determinism);
        assert_eq!(config.seed, 7);
        let default = ScenarioConfig::from_args(&["bin".to_string()]);
        assert!(!default.smoke);
        assert_eq!(default.seed, 42);
    }
}
