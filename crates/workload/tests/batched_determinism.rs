//! Batched message delivery must be invisible to protocol behaviour: the
//! same seeded chaos scenario produces the bit-identical outcome summary
//! whether workers drain one message per wakeup or a full batch. Batching
//! changes *when* a worker picks messages up, never what any transaction
//! observes — and the fault interposer is consulted once per message, so
//! per-link fault decisions are identical across batch sizes.

use std::time::Duration;

use sss_workload::scenario::{run_scenario_tuned, ChaosScenario, ScenarioExpectations};
use sss_workload::{EngineKind, FaultPlan, LinkFault, LinkSelector, WorkloadSpec};

fn scenario(kind: EngineKind, seed: u64) -> ChaosScenario {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(48)
        .read_only_percent(40)
        .seed(seed);
    ChaosScenario::new("batch-size-probe", spec)
        .ops_per_client(30)
        .expect(ScenarioExpectations::of(kind))
        .faults(
            FaultPlan::new(seed).link_fault(
                LinkFault::on(LinkSelector::All)
                    .jitter(Duration::from_micros(150))
                    .reorder(20, Duration::from_micros(120))
                    .duplicate(15, Duration::from_micros(80)),
            ),
        )
}

fn run_with_batch(kind: EngineKind, batch: usize, seed: u64) -> sss_workload::ScenarioOutcome {
    let (outcome, _) = run_scenario_tuned(kind, &scenario(kind, seed), None, |b| {
        b.delivery_batch(batch)
    })
    .expect("valid scenario");
    assert!(
        outcome.passed(),
        "{kind} with batch {batch} violated expectations: {:?}",
        outcome.violations
    );
    outcome
}

/// The SSS chaos-scenario outcome summary is bit-identical whether workers
/// deliver one message per wakeup (batch 1) or a full batch — mirroring the
/// shard-count determinism test of PR 3 for the batching layer.
#[test]
fn sss_scenario_summary_is_identical_across_batch_sizes() {
    let unbatched = run_with_batch(EngineKind::Sss, 1, 23);
    let batched = run_with_batch(EngineKind::Sss, 16, 23);
    assert_eq!(
        unbatched.summary(),
        batched.summary(),
        "delivery batch size must not change the SSS outcome summary"
    );
    assert_eq!(unbatched.read_only_aborts, 0);
}

/// Same logically-deterministic-outcome property for a baseline engine
/// whose abort counts are timing-dependent: committed totals, read-only mix
/// and the checker verdict are identical across batch sizes.
#[test]
fn baseline_deterministic_outcome_is_identical_across_batch_sizes() {
    let unbatched = run_with_batch(EngineKind::TwoPc, 1, 23);
    let batched = run_with_batch(EngineKind::TwoPc, 16, 23);
    assert_eq!(unbatched.committed, batched.committed);
    assert_eq!(unbatched.committed_read_only, batched.committed_read_only);
    assert_eq!(unbatched.consistency, Some(Ok(())));
    assert_eq!(batched.consistency, Some(Ok(())));
}
