//! Grouped external-commit confirmation must be invisible to protocol
//! behaviour: the same seeded chaos scenario produces the bit-identical
//! outcome summary whether every update transaction runs its own
//! `ConfirmExternal` round (epoch window 1 — the base protocol of §III-C)
//! or up to a full window shares one round with piggybacked
//! release/remove traffic. Grouping changes *which messages carry* the
//! confirmation barrier, never what any transaction observes.

use std::time::Duration;

use sss_engine::{EngineBuilder, MailboxStats, DEFAULT_CONFIRM_EPOCH};
use sss_workload::scenario::{run_scenario_tuned, ChaosScenario, ScenarioExpectations};
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
    // A copy of the tuned builder names the sweep arm in a failure message.
    let mut built = None;
    let tune = |builder| built.insert(tune(builder)).clone();
    let (outcome, _) =
        run_scenario_tuned(EngineKind::Sss, &scenario(seed), None, tune).expect("valid scenario");
    assert!(
        outcome.passed(),
        "SSS built from {built:?} violated expectations: {:?}",
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

/// A partial window agrees too: windows 1, 8 and the default sweep to one
/// bit-identical summary.
#[test]
fn sss_scenario_summary_is_identical_across_combined_sweeps() {
    let baseline = run_with_tuning(|b| b.confirm_epoch(1), 29);
    for window in [8, DEFAULT_CONFIRM_EPOCH] {
        let swept = run_with_tuning(|b| b.confirm_epoch(window), 29);
        assert_eq!(
            baseline.summary(),
            swept.summary(),
            "epoch window {window} changed the SSS outcome summary"
        );
    }
}

/// Mailbox counters of one fault-free simulated run (4 nodes × 4 clients ×
/// 25 updates-mostly transactions, seed 1) at confirmation window `window`,
/// population included. Under the simulator the counts are a function of
/// the seed alone, so the comparisons below are exact.
fn simulated_message_counts(window: usize) -> MailboxStats {
    let spec = WorkloadSpec::new(4)
        .clients_per_node(4)
        .total_keys(256)
        .read_only_percent(10)
        .seed(1);
    let scenario = ChaosScenario::new("epoch-message-economy", spec).ops_per_client(25);
    let (outcome, engine) = run_scenario_tuned(EngineKind::Sss, &scenario, Some(1), |b| {
        b.confirm_epoch(window)
    })
    .expect("valid scenario");
    assert!(
        outcome.passed(),
        "window {window}: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.committed, 400);
    let totals = engine.mailbox_totals().expect("SSS counts its mailboxes");
    assert!(
        MailboxStats::conserves(&MailboxStats::default(), &totals),
        "window {window}: mailbox books do not balance: {totals:?}"
    );
    assert_eq!(
        totals.per_kind.iter().sum::<u64>(),
        totals.total_enqueued() + totals.local_delivered,
        "window {window}: every send is attributed to exactly one kind"
    );
    totals
}

/// What grouping is *for*: the default window sends strictly fewer
/// `ConfirmExternal`s, fewer `ReleaseExternal`s and fewer messages per
/// committed transaction than the per-transaction rounds of window 1 — and
/// the same seed reproduces every count.
#[test]
fn grouped_confirmation_sends_fewer_messages_than_per_transaction_rounds() {
    let kind = |label: &str| {
        sss_core::SssMessage::KIND_LABELS
            .iter()
            .position(|l| *l == label)
            .expect("a protocol message kind")
    };
    let singleton = simulated_message_counts(1);
    let grouped = simulated_message_counts(DEFAULT_CONFIRM_EPOCH);
    for label in ["ConfirmExternal", "ReleaseExternal"] {
        let (one, many) = (
            singleton.per_kind[kind(label)],
            grouped.per_kind[kind(label)],
        );
        assert!(
            many < one,
            "{label}: grouped {many} vs per-transaction {one}"
        );
    }
    // Both runs committed the same 400 transactions, so fewer messages is
    // fewer messages per transaction.
    let sent = |stats: &MailboxStats| stats.total_enqueued() + stats.local_delivered;
    assert!(
        sent(&grouped) < sent(&singleton),
        "grouped {} vs per-transaction {} messages for 400 commits",
        sent(&grouped),
        sent(&singleton)
    );
    assert_eq!(
        grouped,
        simulated_message_counts(DEFAULT_CONFIRM_EPOCH),
        "the same seed must reproduce every count"
    );
}
