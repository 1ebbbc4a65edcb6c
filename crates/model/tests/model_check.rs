//! Exhaustive protocol checks: clean configurations must verify completely,
//! and every seeded mutation must yield a minimal replayable counterexample.
//!
//! The exhaustive runs are heavyweight in debug builds, so all but the
//! smallest are ignored there and exercised in release mode by the CI
//! `modelcheck` job (and by `cargo test --release -p sss-model`).

use sss_model::checker::replay;
use sss_model::{bfs_check, ChaosHints, CheckConfig, Model, ModelConfig, Mutation, SssModel};

fn check(cfg: ModelConfig) -> sss_model::CheckReport<sss_model::sss::Action> {
    bfs_check(&SssModel::new(cfg), &CheckConfig::default())
}

/// Runs in debug too, so tier-1 itself steps the production handlers.
#[test]
fn clean_2n2t_verifies_exhaustively() {
    let report = check(ModelConfig::clean_2n2t());
    assert!(report.complete, "state space not exhausted");
    assert!(
        report.violation.is_none(),
        "violation:\n{}",
        report.violation.unwrap().render()
    );
    assert!(report.unique_states > 100, "suspiciously small state space");
}

/// The canonical encoding leaves out clocks, hash order and reply-channel
/// identity: one recorded trace replayed through two models — each with its
/// own nodes, held clock, hash seeds and channels — encodes byte for byte
/// the same at every step.
#[test]
fn a_replayed_trace_encodes_identically_at_every_step() {
    let recorder = SssModel::new(ModelConfig::contended_2n3t());
    let (mut state, mut trace, mut enabled) = (recorder.init(), Vec::new(), Vec::new());
    loop {
        enabled.clear();
        recorder.actions(&state, &mut enabled);
        let Some(&action) = enabled.last() else { break };
        state = recorder
            .step(&state, action)
            .expect("a clean configuration");
        trace.push(action);
    }
    assert!(trace.len() > 30, "the recorded run ended early: {trace:?}");
    let encodings = |model: &SssModel| -> Vec<Vec<u8>> {
        let encode = |state| {
            let mut bytes = Vec::new();
            model.encode(state, &mut bytes);
            bytes
        };
        replay(model, &trace).iter().map(encode).collect()
    };
    let first = encodings(&recorder);
    assert_eq!(first.len(), trace.len() + 1);
    assert!(first.windows(2).all(|pair| pair[0] != pair[1]));
    assert_eq!(first, encodings(&recorder));
    assert_eq!(
        first,
        encodings(&SssModel::new(ModelConfig::contended_2n3t()))
    );
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn conflicting_writers_2n2t_verify_exhaustively() {
    let report = check(ModelConfig::conflict_2n2t());
    assert!(
        report.verified(),
        "violation: {:?}",
        report.violation.map(|v| v.render())
    );
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn clean_3n2t_verifies_exhaustively() {
    let report = check(ModelConfig::clean_3n2t());
    assert!(
        report.verified(),
        "violation: {:?}",
        report.violation.map(|v| v.render())
    );
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn clean_2n3t_verifies_exhaustively() {
    let report = check(ModelConfig::clean_2n3t());
    assert!(
        report.verified(),
        "violation: {:?}",
        report.violation.map(|v| v.render())
    );
    assert!(
        report.unique_states > 10_000,
        "expected a five-figure state space"
    );
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn contended_2n3t_verifies_exhaustively() {
    let report = check(ModelConfig::contended_2n3t());
    assert!(
        report.verified(),
        "violation: {:?}",
        report.violation.map(|v| v.render())
    );
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn duplicated_prepare_is_harmless_without_the_mutation() {
    // The network may duplicate a Prepare; the prepared_ever dedup absorbs
    // it. (The mutation test below removes the dedup and must fail.)
    let cfg = ModelConfig {
        duplicate_prepare_budget: 1,
        ..ModelConfig::clean_2n2t()
    };
    let report = check(cfg);
    assert!(
        report.verified(),
        "violation: {:?}",
        report.violation.map(|v| v.render())
    );
}

/// Every mutation's exposing config must verify cleanly with the mutation
/// switched off — otherwise the mutation tests would prove nothing.
#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn mutation_configs_verify_when_unmutated() {
    for m in [
        Mutation::DuplicatePrepare,
        Mutation::AbortOvertakesPrepare,
        Mutation::PrematureRelease,
        Mutation::DroppedExclusionCeiling,
    ] {
        let mut cfg = ModelConfig::mutated(m);
        cfg.mutation = None;
        if m == Mutation::DuplicatePrepare {
            cfg.duplicate_prepare_budget = 0;
        }
        let report = check(cfg);
        assert!(
            report.verified(),
            "{m:?} config violates unmutated: {:?}",
            report.violation.map(|v| v.render())
        );
    }
}

fn assert_mutation_caught(m: Mutation, invariant_needle: &str) -> ChaosHints {
    let report = check(ModelConfig::mutated(m));
    let cx = report
        .violation
        .unwrap_or_else(|| panic!("{m:?} must produce a counterexample"));
    assert!(
        cx.invariant.contains(invariant_needle),
        "{m:?} violated the wrong invariant: {}",
        cx.invariant
    );
    assert!(
        cx.actions.len() <= 40,
        "{m:?} counterexample too long ({} actions):\n{}",
        cx.actions.len(),
        cx.render()
    );
    // The trace replays deterministically up to the violating step.
    let states = replay(&SssModel::new(ModelConfig::mutated(m)), &cx.actions);
    assert!(states.len() >= cx.actions.len());
    ChaosHints::from_counterexample(&cx)
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn mutation_duplicate_prepare_is_caught() {
    let hints = assert_mutation_caught(Mutation::DuplicatePrepare, "quiescence");
    assert_eq!(hints.fault, sss_model::chaos::FaultKind::Duplicate);
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn mutation_abort_overtaking_prepare_is_caught() {
    let hints = assert_mutation_caught(Mutation::AbortOvertakesPrepare, "quiescence");
    assert_eq!(hints.fault, sss_model::chaos::FaultKind::Reorder);
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn mutation_premature_release_is_caught() {
    assert_mutation_caught(Mutation::PrematureRelease, "release overtook confirmation");
}

#[cfg_attr(debug_assertions, ignore = "exhaustive BFS: run with --release")]
#[test]
fn mutation_dropped_exclusion_ceiling_is_caught() {
    assert_mutation_caught(Mutation::DroppedExclusionCeiling, "exclusion stability");
}

/// The long fork `modelcheck` finds in `crossed-readers-2n4t` (a known
/// violation), replayed by its action labels: each reader pins its snapshot
/// at its origin, observes the local writer once it is confirmed, and misses
/// the remote one, which has passed Pre-Commit but is not yet confirmed. The
/// terminal check must name the cycle. Runs in debug too: a replay is 46
/// steps, not a search.
#[test]
fn the_crossed_readers_long_fork_replays_and_is_caught() {
    let mut trace = vec![
        "start t0 (update)",
        "start t1 (update)",
        "start t2 (read-only)",
        "start t3 (read-only)",
        "deliver ReadReq t0 k0 -> n0",
        "deliver ReadReq t1 k1 -> n1",
        "deliver ReadRet n0 -> t0",
        "deliver ReadRet n1 -> t1",
        "deliver Prepare t0 -> n0",
        "deliver Prepare t1 -> n1",
        "deliver Vote+ t0 n0 -> t0",
        "deliver Vote+ t1 n1 -> t1",
        "deliver Decide-commit t0 -> n0",
        "deliver ReadReq t2 k0 -> n0",
        "deliver Decide-commit t1 -> n1",
        "deliver ReadReq t3 k1 -> n1",
        "deliver ExtAck t0 n0 -> t0",
        "deliver ExtAck t1 n1 -> t1",
    ];
    // Writer `w`'s confirmation round at its origin and its release; then
    // the read-only `r` there observes it, reads key `other` at the other
    // node and finishes, its `Remove` riding the leader's flush.
    let confirm_then_read = |w: usize, r: usize, other: usize| {
        let (n, m) = (w, 1 - w);
        [
            format!("coalesce n{n}"),
            format!("deliver Confirm [t{w}] -> n0"),
            format!("deliver Confirm [t{w}] -> n1"),
            format!("deliver ConfirmAck r{w} n0 -> n{n}"),
            format!("deliver ConfirmAck r{w} n1 -> n{n}"),
            format!("coalesce n{n}"),
            format!("deliver Release [t{w}] -> n0"),
            format!("deliver Release [t{w}] -> n1"),
            format!("deliver ReadRet n{n} -> t{r}"),
            format!("deliver ReadReq t{r} k{other} -> n{m}"),
            format!("coalesce n{n}"),
            format!("deliver ReadRet n{m} -> t{r}"),
            format!("deliver Remove [t{r}] -> n0"),
            format!("deliver Remove [t{r}] -> n1"),
        ]
    };
    let tail = [confirm_then_read(0, 2, 1), confirm_then_read(1, 3, 0)];
    trace.extend(tail.iter().flatten().map(String::as_str));
    assert_eq!(trace.len(), 46);

    let model = SssModel::new(ModelConfig::crossed_readers_2n4t());
    let (mut state, mut enabled) = (model.init(), Vec::new());
    for label in trace {
        enabled.clear();
        model.actions(&state, &mut enabled);
        let action = enabled
            .iter()
            .copied()
            .find(|&a| model.describe(&state, a) == label)
            .unwrap_or_else(|| panic!("`{label}` is not enabled"));
        state = model.step(&state, action).expect("no step-local violation");
    }
    enabled.clear();
    model.actions(&state, &mut enabled);
    assert!(enabled.is_empty(), "the trace ends in a terminal state");
    let violation = model
        .check(&state, true)
        .expect_err("the long fork is caught");
    // The cycle may be reported from any of its transactions.
    assert!(violation.starts_with("serializability: "), "{violation}");
    for hop in ["t0 -wr-> t2", "t2 -rw-> t1", "t1 -wr-> t3", "t3 -rw-> t0"] {
        assert!(violation.contains(hop), "{hop} missing from: {violation}");
    }
}
