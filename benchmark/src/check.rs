//! The correctness gate of every run: a recorded scenario of the workload's
//! shape through the repository's own scenario runner, whose history must
//! pass the external-consistency checker with no read-only abort and every
//! transaction committed.

use crate::api;
use crate::workloads::{Runtime, Workload};

/// Runs the gate; returns what it found wrong (nothing, when correct).
pub fn gate(workload: &Workload, seed: u64) -> Vec<String> {
    let shape = workload.gate_shape();
    let outcome = match workload.runtime {
        Runtime::Threaded => api::gate_threaded(&shape, seed),
        Runtime::Simulated => api::gate_sim(&shape, seed),
    };
    let mut violations: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("recorded scenario: {v}"))
        .collect();
    if outcome.consistency != Some(Ok(())) && violations.is_empty() {
        violations.push("recorded scenario: the consistency checker did not run".to_string());
    }
    violations
}
