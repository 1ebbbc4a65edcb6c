//! Observability must be pure measurement: building an engine with phase
//! tracing, per-phase histograms and trace rings on (`EngineBuilder::
//! observability`) may not change what any transaction observes. The same
//! seeded chaos scenario must therefore produce the bit-identical outcome
//! summary with tracing on and off for SSS (whose summary is fully
//! deterministic), and the logically deterministic outcome projection for
//! the baselines (whose retry counts are timing-dependent with or without
//! tracing). The traced runs must also actually record spans — the flag is
//! not allowed to be a silent no-op — and the spans must cover exactly the
//! engine's documented phase taxonomy (`Phase::for_engine`).

use std::collections::BTreeSet;
use std::time::Duration;

use sss_engine::Phase;
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

/// Runs `scenario` on `kind` with tracing on or off; returns the outcome and
/// the labels of the phases the engine's hub recorded spans for (empty with
/// tracing off).
fn run(
    kind: EngineKind,
    scenario: &ChaosScenario,
    observability: bool,
) -> (sss_workload::ScenarioOutcome, BTreeSet<&'static str>) {
    let (outcome, engine) =
        run_scenario_tuned(kind, scenario, None, |b| b.observability(observability))
            .expect("valid scenario");
    assert!(
        outcome.passed(),
        "{kind:?} (observability={observability}) violated expectations: {:?}",
        outcome.violations
    );
    let phases: BTreeSet<&'static str> = engine
        .observability()
        .map(|hub| hub.drain_spans())
        .unwrap_or_default()
        .iter()
        .map(|span| span.phase.label())
        .collect();
    assert_eq!(
        !phases.is_empty(),
        observability,
        "{kind:?} (observability={observability}) recorded spans for {phases:?}"
    );
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
    let (traced, _) = run(EngineKind::Sss, &scenario, true);
    let (untraced, _) = run(EngineKind::Sss, &scenario, false);
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
        let (traced, _) = run(kind, &scenario, true);
        let (untraced, _) = run(kind, &scenario, false);
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
/// every phase of `Phase::for_engine`, nothing outside it.
#[test]
fn traced_spans_cover_exactly_the_engine_taxonomy() {
    for kind in EngineKind::ALL {
        let (expect, replication) = expectations(kind);
        let scenario = scenario(31, expect, replication);
        let (_, traced) = run(kind, &scenario, true);
        let phases = Phase::for_engine(kind.label()).iter();
        let taxonomy: BTreeSet<&'static str> = phases.map(|phase| phase.label()).collect();
        assert_eq!(traced, taxonomy, "{kind:?}");
    }
}
