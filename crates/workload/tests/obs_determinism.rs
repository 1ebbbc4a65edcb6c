//! Observability must be pure measurement: building an engine with phase
//! tracing, per-phase histograms and trace rings on (`EngineBuilder::
//! observability`) may not change what any transaction observes. The same
//! seeded chaos scenario must therefore produce the bit-identical outcome
//! summary with tracing on and off for SSS (whose summary is fully
//! deterministic), and the logically deterministic outcome projection for
//! the baselines (whose retry counts are timing-dependent with or without
//! tracing, as in the sharding determinism suite). The traced runs must
//! also actually record spans — the flag is not allowed to be a silent
//! no-op.

use std::time::Duration;

use sss_engine::FaultInjector;
use sss_workload::scenario::{run_scenario_on, ChaosScenario, ScenarioExpectations};
use sss_workload::{
    EngineKind, FaultPlan, LinkFault, LinkSelector, TransactionEngine, WorkloadSpec,
};

fn scenario(seed: u64, expect: ScenarioExpectations, replication: usize) -> ChaosScenario {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(48)
        .read_only_percent(40)
        .seed(seed);
    ChaosScenario::new("obs-probe", spec)
        .ops_per_client(25)
        .replication(replication)
        .expect(expect)
        .faults(
            FaultPlan::new(seed).link_fault(
                LinkFault::on(LinkSelector::All)
                    .jitter(Duration::from_micros(150))
                    .reorder(20, Duration::from_micros(120))
                    .duplicate(15, Duration::from_micros(80)),
            ),
        )
}

fn run(
    kind: EngineKind,
    scenario: &ChaosScenario,
    observability: bool,
) -> sss_workload::ScenarioOutcome {
    let injector = FaultInjector::new(scenario.faults.clone());
    let engine = scenario
        .engine(kind, &injector)
        .observability(observability)
        .build();
    let outcome = run_scenario_on(engine.as_ref(), &injector, scenario);
    injector.disarm();
    assert!(
        outcome.passed(),
        "{kind:?} (observability={observability}) violated expectations: {:?}",
        outcome.violations
    );
    match engine.observability() {
        Some(hub) => {
            assert!(observability, "hub present despite tracing off");
            assert!(
                hub.spans_recorded() > 0,
                "{kind:?} ran with tracing on but recorded no spans"
            );
        }
        None => assert!(!observability, "tracing on but no hub retrievable"),
    }
    outcome
}

fn expectations(kind: EngineKind) -> (ScenarioExpectations, usize) {
    match kind {
        EngineKind::Sss => (ScenarioExpectations::sss(), 2),
        EngineKind::TwoPc => (ScenarioExpectations::serializable_baseline(), 2),
        EngineKind::Walter => (ScenarioExpectations::weak_baseline(), 2),
        // ROCOCO runs unreplicated, as in the paper's comparison.
        EngineKind::Rococo => (ScenarioExpectations::serializable_baseline(), 1),
    }
}

/// SSS: the full outcome summary is bit-identical with tracing on and off.
#[test]
fn sss_chaos_summary_is_identical_with_tracing_on_and_off() {
    let (expect, replication) = expectations(EngineKind::Sss);
    let scenario = scenario(31, expect, replication);
    let traced = run(EngineKind::Sss, &scenario, true);
    let untraced = run(EngineKind::Sss, &scenario, false);
    assert_eq!(
        traced.summary(),
        untraced.summary(),
        "observability changed the SSS chaos outcome summary"
    );
    assert_eq!(traced.read_only_aborts, 0);
}

/// Every baseline: the logically deterministic projection — every
/// generated transaction commits, the generator-derived read-only mix, a
/// clean checker verdict, no stall — is identical with tracing on and off
/// (retry counts are timing-dependent either way).
#[test]
fn baseline_chaos_outcome_is_identical_with_tracing_on_and_off() {
    for kind in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Rococo] {
        let (expect, replication) = expectations(kind);
        let scenario = scenario(31, expect, replication);
        let traced = run(kind, &scenario, true);
        let untraced = run(kind, &scenario, false);
        assert_eq!(traced.committed, untraced.committed, "{kind:?} committed");
        assert_eq!(
            traced.committed_read_only, untraced.committed_read_only,
            "{kind:?} read-only mix"
        );
        assert_eq!(traced.aborted, untraced.aborted, "{kind:?} abandoned");
        assert_eq!(traced.stuck, untraced.stuck, "{kind:?} stuck flag");
        assert_eq!(traced.consistency, untraced.consistency, "{kind:?} checker");
    }
}
