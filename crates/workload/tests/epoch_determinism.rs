//! Grouped external-commit confirmation must be invisible to protocol
//! behaviour: the same seeded chaos scenario produces the bit-identical
//! outcome summary whether every update transaction runs its own
//! `ConfirmExternal` round (epoch window 1 — the base protocol of §III-C)
//! or up to a full window shares one round with piggybacked
//! release/remove traffic. Grouping changes *which messages carry* the
//! confirmation barrier, never what any transaction observes.

use std::time::Duration;

use sss_engine::{EngineBuilder, FaultInjector, DEFAULT_CONFIRM_EPOCH};
use sss_workload::scenario::{run_scenario_on, ChaosScenario, ScenarioExpectations};
use sss_workload::{EngineKind, FaultPlan, LinkFault, LinkSelector, WorkloadSpec};

fn scenario(seed: u64) -> ChaosScenario {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(48)
        .read_only_percent(40)
        .seed(seed);
    ChaosScenario::new("epoch-window-probe", spec)
        .ops_per_client(30)
        .expect(ScenarioExpectations::sss())
        .faults(
            FaultPlan::new(seed).link_fault(
                LinkFault::on(LinkSelector::All)
                    .jitter(Duration::from_micros(150))
                    .reorder(20, Duration::from_micros(120))
                    .duplicate(15, Duration::from_micros(80)),
            ),
        )
}

/// Runs the seeded scenario on an SSS engine built with `tune` applied to
/// the default builder.
fn run_with_tuning(
    tune: impl FnOnce(EngineBuilder) -> EngineBuilder,
    seed: u64,
) -> sss_workload::ScenarioOutcome {
    let scenario = scenario(seed);
    let injector = FaultInjector::new(scenario.faults.clone());
    let builder = tune(scenario.engine(EngineKind::Sss, &injector));
    let engine = builder.clone().build();
    let outcome = run_scenario_on(engine.as_ref(), &injector, &scenario);
    injector.disarm();
    assert!(
        outcome.passed(),
        "SSS built from {builder:?} violated expectations: {:?}",
        outcome.violations
    );
    outcome
}

/// The SSS chaos-scenario outcome summary is bit-identical with grouping
/// disabled (window 1: one standalone confirmation round and release per
/// update transaction) and with the default epoch window — the tentpole
/// acceptance check of the protocol-round-reduction change.
#[test]
fn sss_scenario_summary_is_identical_across_epoch_windows() {
    let singleton = run_with_tuning(|b| b.confirm_epoch(1), 23);
    let grouped = run_with_tuning(|b| b.confirm_epoch(DEFAULT_CONFIRM_EPOCH), 23);
    assert_eq!(
        singleton.summary(),
        grouped.summary(),
        "confirmation epoch window must not change the SSS outcome summary"
    );
    assert_eq!(singleton.read_only_aborts, 0);
}

/// Same property for the piggybacking A/B arm: grouped confirmation with
/// releases and removes sent standalone (piggyback off) matches the fully
/// piggybacked default bit-for-bit.
#[test]
fn sss_scenario_summary_is_identical_with_piggyback_off() {
    let standalone = run_with_tuning(|b| b.piggyback(false), 23);
    let piggybacked = run_with_tuning(|b| b.piggyback(true), 23);
    assert_eq!(
        standalone.summary(),
        piggybacked.summary(),
        "release/remove piggybacking must not change the SSS outcome summary"
    );
    assert_eq!(standalone.read_only_aborts, 0);
}

/// Grouping composes with delivery batching: sweeping both knobs together
/// still yields one bit-identical summary.
#[test]
fn sss_scenario_summary_is_identical_across_combined_sweeps() {
    let baseline = run_with_tuning(|b| b.delivery_batch(1).confirm_epoch(1), 29);
    for (batch, window) in [(1, 8), (16, 1), (16, DEFAULT_CONFIRM_EPOCH)] {
        let swept = run_with_tuning(|b| b.delivery_batch(batch).confirm_epoch(window), 29);
        assert_eq!(
            baseline.summary(),
            swept.summary(),
            "batch {batch} x epoch window {window} changed the SSS outcome summary"
        );
    }
}
