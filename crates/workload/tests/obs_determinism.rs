//! Observability must be pure measurement: building an engine with phase
//! tracing, per-phase histograms and trace rings on (`EngineBuilder::
//! observability`) may not change what any transaction observes. The same
//! seeded chaos scenario must therefore produce the bit-identical outcome
//! summary with tracing on and off for SSS (whose summary is fully
//! deterministic), and the logically deterministic outcome projection for
//! the baselines (whose retry counts are timing-dependent with or without
//! tracing, as in the sharding determinism suite). The traced runs must
//! also actually record spans — the flag is not allowed to be a silent
//! no-op — and the spans must cover exactly the engine's documented phase
//! taxonomy (`Phase::for_engine`).

use std::collections::BTreeSet;
use std::time::Duration;

use sss_engine::{EngineBuilder, Phase, DEFAULT_CONFIRM_EPOCH};
use sss_workload::scenario::{run_scenario_tuned, ChaosScenario, ScenarioExpectations};
use sss_workload::{EngineKind, FaultPlan, LinkFault, LinkSelector, WorkloadSpec};

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
    let (outcome, phases) = run_tuned(kind, scenario, |b| b.observability(observability));
    assert_eq!(
        !phases.is_empty(),
        observability,
        "{kind:?} (observability={observability}) recorded spans for {phases:?}"
    );
    outcome
}

/// Runs `scenario` on `kind` built with `tune` applied to the scenario's
/// builder; returns the outcome and the labels of the phases the engine's
/// hub recorded spans for (empty with tracing off).
fn run_tuned(
    kind: EngineKind,
    scenario: &ChaosScenario,
    tune: impl FnOnce(EngineBuilder) -> EngineBuilder,
) -> (sss_workload::ScenarioOutcome, BTreeSet<&'static str>) {
    // A copy of the tuned builder names the sweep arm in a failure message.
    let mut built = None;
    let tune = |builder| built.insert(tune(builder)).clone();
    let (outcome, engine) = run_scenario_tuned(kind, scenario, None, tune).expect("valid scenario");
    assert!(
        outcome.passed(),
        "{built:?} violated expectations: {:?}",
        outcome.violations
    );
    let phases: BTreeSet<&'static str> = engine
        .observability()
        .map(|hub| hub.drain_spans())
        .unwrap_or_default()
        .iter()
        .map(|span| span.phase.label())
        .collect();
    (outcome, phases)
}

fn expectations(kind: EngineKind) -> (ScenarioExpectations, usize) {
    // ROCOCO runs unreplicated, as in the paper's comparison.
    let replication = if kind == EngineKind::Rococo { 1 } else { 2 };
    (ScenarioExpectations::of(kind), replication)
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

/// Every engine's traced run covers its documented span taxonomy exactly:
/// every phase of `Phase::for_engine`, nothing outside it. SSS's `release`
/// is a separate wait only on the per-transaction confirmation path
/// (window 1); at the default window the release rides the next round.
#[test]
fn traced_spans_cover_exactly_the_engine_taxonomy() {
    let traced = |kind: EngineKind, window: usize| {
        let (expect, replication) = expectations(kind);
        let scenario = scenario(31, expect, replication);
        run_tuned(kind, &scenario, |b| {
            b.observability(true).confirm_epoch(window)
        })
        .1
    };
    let taxonomy = |kind: EngineKind| -> BTreeSet<&'static str> {
        let phases = Phase::for_engine(kind.label()).iter();
        phases.map(|phase| phase.label()).collect()
    };
    for kind in EngineKind::ALL {
        assert_eq!(traced(kind, 1), taxonomy(kind), "{kind:?}, window 1");
    }
    let mut grouped = taxonomy(EngineKind::Sss);
    grouped.remove(Phase::Release.label());
    assert_eq!(
        traced(EngineKind::Sss, DEFAULT_CONFIRM_EPOCH),
        grouped,
        "SSS, default window"
    );
}
