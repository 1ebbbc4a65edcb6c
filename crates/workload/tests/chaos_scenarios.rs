//! Integration tests of the chaos-scenario layer: determinism of faulted
//! runs and of simulated message counts, non-vacuousness of the post-run
//! consistency checking, and the known violations of the `hot_keys` gate's
//! shape.

use std::time::Duration;

use sss_consistency::{check_all, Dependency, DsgChecker, Edge, History, TxnRecord};
use sss_engine::{MailboxStats, NetProfile};
use sss_storage::TxnId;
use sss_workload::scenario::{
    run_scenario, run_scenario_sim, run_scenario_tuned, ChaosScenario, ScenarioOutcome,
};
use sss_workload::{
    EngineKind, FaultPlan, LinkFault, LinkSelector, NodeId, WorkloadGenerator, WorkloadSpec,
};

fn faulted_scenario(seed: u64) -> ChaosScenario {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(48)
        .read_only_percent(50)
        .seed(seed);
    ChaosScenario::new("determinism-probe", spec)
        .ops_per_client(40)
        .faults(
            FaultPlan::new(seed)
                .link_fault(
                    LinkFault::on(LinkSelector::All)
                        .jitter(Duration::from_micros(200))
                        .duplicate(20, Duration::from_micros(100)),
                )
                .partition([0], Duration::from_millis(3), Duration::from_millis(20))
                .pause(1, Duration::from_millis(8), Duration::from_millis(15)),
        )
}

/// Same seed + same fault plan ⇒ identical outcome summary
/// (committed/aborted counts, read-only mix, checker verdict) across runs.
#[test]
fn same_seed_and_fault_plan_reproduce_the_outcome_summary() {
    let scenario = faulted_scenario(7);
    let first = run_scenario(EngineKind::Sss, &scenario).expect("valid scenario");
    let second = run_scenario(EngineKind::Sss, &scenario).expect("valid scenario");
    assert!(first.passed(), "violations: {:?}", first.violations);
    assert_eq!(
        first.summary(),
        second.summary(),
        "scenario outcome summary must be bit-identical across replays"
    );
    assert_eq!(first.committed, scenario.expected_total());
    assert_eq!(first.read_only_aborts, 0);

    // Guard against a trivially constant summary: the read-only mix must be
    // exactly the seed-derived mix of the generator streams, computed here
    // independently of the scenario runner.
    let spec = &scenario.spec;
    let mut expected_read_only = 0u64;
    for node in 0..spec.nodes {
        for client in 0..spec.clients_per_node {
            let mut generator = WorkloadGenerator::new(spec, sss_workload::NodeId(node), client);
            for _ in 0..scenario.ops_per_client {
                if generator.next_txn().is_read_only() {
                    expected_read_only += 1;
                }
            }
        }
    }
    assert_eq!(first.committed_read_only, expected_read_only);
}

/// Mailbox counters of one fault-free simulated SSS run (4 nodes × 4
/// clients × 25 updates-mostly transactions, seed 1), population included.
fn simulated_mailbox_counts() -> MailboxStats {
    let spec = WorkloadSpec::new(4)
        .clients_per_node(4)
        .total_keys(256)
        .read_only_percent(10)
        .seed(1);
    let scenario = ChaosScenario::new("mailbox-counts", spec).ops_per_client(25);
    let (outcome, engine) =
        run_scenario_tuned(EngineKind::Sss, &scenario, Some(1), |b| b).expect("valid scenario");
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);
    assert_eq!(outcome.committed, 400);
    let totals = engine.mailbox_totals().expect("SSS counts its mailboxes");
    assert!(
        MailboxStats::conserves(&MailboxStats::default(), &totals),
        "mailbox books do not balance: {totals:?}"
    );
    assert_eq!(
        totals.per_kind.iter().sum::<u64>(),
        totals.total_enqueued() + totals.local_delivered,
        "every send is attributed to exactly one kind"
    );
    totals
}

/// Under the simulator every mailbox count is a function of the seed alone:
/// a second run reproduces each of them exactly.
#[test]
fn simulated_mailbox_counts_are_a_function_of_the_seed() {
    assert_eq!(
        simulated_mailbox_counts(),
        simulated_mailbox_counts(),
        "the same seed must reproduce every count"
    );
}

/// Mutation test: the consistency checker must reject a deliberately
/// corrupted history — a guard against a vacuously passing checker.
///
/// The corruption reverses real time for one attributed observation: a
/// reader that observed writer `W` is rewritten to have completed *before*
/// `W` started, which creates a write-read edge `W -> R` plus a real-time
/// edge `R -> W` — a cycle every external-consistency checker must find.
#[test]
fn checker_rejects_a_corrupted_scenario_history() {
    let scenario = faulted_scenario(5).ops_per_client(20);
    let outcome = run_scenario(EngineKind::Sss, &scenario).expect("valid scenario");
    assert!(outcome.passed(), "violations: {:?}", outcome.violations);
    assert_eq!(
        outcome.consistency,
        Some(Ok(())),
        "the genuine history must pass"
    );

    // Find a reader with an attributed writer present in the history.
    let history = &outcome.history;
    let (reader_id, writer_started) = history
        .read_onlys()
        .find_map(|reader| {
            reader.reads.iter().find_map(|read| {
                let writer = read.observed_writer?;
                let writer_record = history.get(writer)?;
                Some((reader.id, writer_record.started))
            })
        })
        .expect("a faulted run must contain at least one attributed read");

    let corrupted: History = history
        .transactions()
        .iter()
        .cloned()
        .map(|mut record: TxnRecord| {
            if record.id == reader_id {
                record.started = writer_started - Duration::from_millis(2);
                record.finished = writer_started - Duration::from_millis(1);
            }
            record
        })
        .collect();

    assert!(
        check_all(&corrupted).is_err(),
        "the checker accepted a history with a reversed real-time edge"
    );
}

/// The `hot_keys` correctness gate's shape under the simulator, with one
/// replica per key: 4 nodes × 1 client, 8 keys, half the transactions
/// read-only over 4 keys each, 150 transactions per client, no latency.
/// Each seed runs twice and must replay bit-identically.
fn hot_keys_gate_sim(seed: u64) -> ScenarioOutcome {
    let spec = WorkloadSpec::new(4)
        .clients_per_node(1)
        .total_keys(8)
        .read_only_percent(50)
        .read_only_access_count(4)
        .seed(seed);
    let scenario = ChaosScenario::new("hot-keys-gate", spec)
        .ops_per_client(150)
        .replication(1)
        .profile(NetProfile::Instant);
    let run = || run_scenario_sim(EngineKind::Sss, &scenario, seed).expect("valid scenario");
    let (first, second) = (run(), run());
    assert_eq!(first.summary(), second.summary(), "seed {seed} must replay");
    assert_eq!(
        first.fingerprint(),
        second.fingerprint(),
        "seed {seed} must replay"
    );
    first
}

/// Known violation, pinned until the protocol closes it: a long fork. Two
/// writers (T1.98, T3.107) and two read-only transactions that each observe
/// one of them and miss the other, the anomaly Parallel Snapshot Isolation
/// allows by design and external consistency forbids. The fix flips this
/// test: the run must then pass the checker.
#[test]
fn hot_keys_gate_seed_14_long_fork_is_a_known_violation() {
    let outcome = hot_keys_gate_sim(14);
    assert!(
        matches!(&outcome.consistency, Some(Err(cycle)) if cycle.contains("serialization cycle")),
        "the long fork no longer reproduces: {:?}",
        outcome.consistency
    );
    let t = |origin, seq| TxnId::new(NodeId(origin), seq);
    let dsg = DsgChecker::build(&outcome.history);
    for (from, to, dependency) in [
        (t(4, 98), t(1, 98), Dependency::WriteRead),
        (t(1, 98), t(2, 108), Dependency::ReadWrite),
        (t(2, 108), t(3, 107), Dependency::WriteRead),
        (t(3, 107), t(4, 98), Dependency::ReadWrite),
    ] {
        let edge = Edge {
            from,
            to,
            dependency,
        };
        assert!(dsg.edges().contains(&edge), "missing {edge}");
    }
    assert_eq!(outcome.read_only_aborts, 0);
}

/// Known violation, pinned until the protocol closes it: one read-only
/// transaction aborts, because a read waited out its `READ_TIMEOUT`. The
/// fix flips this test: the run must then report no read-only abort.
#[test]
fn hot_keys_gate_seed_4_read_only_abort_is_a_known_violation() {
    let outcome = hot_keys_gate_sim(4);
    assert_eq!(outcome.read_only_aborts, 1, "{}", outcome.summary());
    assert_eq!(outcome.consistency, Some(Ok(())));
}
