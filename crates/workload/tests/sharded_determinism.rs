//! Storage sharding must be invisible to protocol behaviour: the same
//! seeded chaos scenario produces the bit-identical outcome summary no
//! matter how many shards the storage layer is partitioned into. Sharding
//! changes *where* keys live inside a node, never what any transaction
//! observes.

use std::time::Duration;

use sss_workload::scenario::{run_scenario_tuned, ChaosScenario, ScenarioExpectations};
use sss_workload::{EngineKind, FaultPlan, LinkFault, LinkSelector, WorkloadSpec};

fn scenario(kind: EngineKind, seed: u64) -> ChaosScenario {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(48)
        .read_only_percent(40)
        .seed(seed);
    ChaosScenario::new("shard-count-probe", spec)
        .ops_per_client(30)
        .expect(ScenarioExpectations::of(kind))
        .faults(
            FaultPlan::new(seed).link_fault(
                LinkFault::on(LinkSelector::All)
                    .jitter(Duration::from_micros(150))
                    .duplicate(15, Duration::from_micros(80)),
            ),
        )
}

fn run_with_shards(kind: EngineKind, shards: usize, seed: u64) -> sss_workload::ScenarioOutcome {
    let (outcome, _) = run_scenario_tuned(kind, &scenario(kind, seed), None, |b| {
        b.storage_shards(shards)
    })
    .expect("valid scenario");
    assert!(
        outcome.passed(),
        "{kind} with {shards} shard(s) violated expectations: {:?}",
        outcome.violations
    );
    outcome
}

/// The `scenarios` catalog's SSS outcome summaries are bit-identical
/// whether the storage layer runs unsharded (arity 1, the pre-sharding
/// layout) or fully sharded: sharding changes where keys live inside a
/// node, never what any transaction observes.
#[test]
fn sss_scenario_summary_is_identical_across_shard_counts() {
    let unsharded = run_with_shards(EngineKind::Sss, 1, 11);
    let sharded = run_with_shards(EngineKind::Sss, 8, 11);
    assert_eq!(
        unsharded.summary(),
        sharded.summary(),
        "shard count must not change the SSS outcome summary"
    );
    assert_eq!(unsharded.read_only_aborts, 0);
}

/// For a baseline whose abort counts are timing-dependent (2PC read-only
/// transactions validate and may abort-and-retry), the *logically*
/// deterministic outcome — every generated transaction eventually commits,
/// with the generator-derived read-only mix, and a clean checker verdict —
/// must still be identical across shard counts.
#[test]
fn baseline_deterministic_outcome_is_identical_across_shard_counts() {
    let unsharded = run_with_shards(EngineKind::TwoPc, 1, 11);
    let sharded = run_with_shards(EngineKind::TwoPc, 8, 11);
    assert_eq!(unsharded.committed, sharded.committed);
    assert_eq!(unsharded.committed_read_only, sharded.committed_read_only);
    assert_eq!(unsharded.consistency, Some(Ok(())));
    assert_eq!(sharded.consistency, Some(Ok(())));
}
