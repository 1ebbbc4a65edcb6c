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
