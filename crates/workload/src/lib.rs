//! YCSB-style workload generation and closed-loop benchmark driving.
//!
//! The paper's evaluation (§V) uses YCSB ported to a key-value store with
//! two transaction profiles: *update* transactions that read and write two
//! keys, and *read-only* transactions that read two or more keys. Clients
//! are colocated with processing nodes, issue transactions in a closed loop
//! (a client only issues a new request when the previous one returned), keys
//! are chosen uniformly at random (optionally with a local-access bias), and
//! every reported number is the average of several trials.
//!
//! This crate reproduces that methodology in an engine-agnostic way:
//!
//! * [`WorkloadSpec`] describes the mix (read-only percentage, transaction
//!   sizes, key count, locality, clients per node, duration),
//! * [`WorkloadGenerator`] produces the per-client operation stream,
//! * the driver runs against the engine layer's
//!   [`TransactionEngine`] / [`EngineSession`] traits (owned by the
//!   `sss-engine` crate, whose `EngineKind` registry builds every engine),
//! * [`populate`] pre-loads the key space and [`run_workload`] drives the
//!   closed loop, collecting a [`WorkloadReport`] (throughput, abort rate,
//!   latency percentiles, and the internal/external commit latency split
//!   used by Figure 5).

//! ## Chaos scenarios
//!
//! Beyond the throughput-oriented driver, the [`scenario`] layer runs
//! *chaos scenarios*: a [`ChaosScenario`] pairs a [`WorkloadSpec`] with an
//! `sss-faults` fault plan and expected-outcome assertions, executes a
//! fixed-operation closed loop with history recording and a stuck-run
//! detector, and verifies the run with the `sss-consistency` checker. See
//! [`run_scenario`].

#![deny(missing_docs)]

mod driver;
mod generator;
mod report;
pub mod scenario;
mod spec;

pub use driver::{populate, run_trials, run_workload};
pub use generator::{TxnTemplate, WorkloadGenerator};
pub use report::{LatencySummary, WorkloadReport};
pub use scenario::{
    run_scenario, run_scenario_on, run_scenario_sim, run_scenario_sim_on, ChaosScenario,
    ScenarioExpectations, ScenarioOutcome,
};
pub use spec::{KeySelection, SpecError, WorkloadSpec};

pub use sss_engine::{EngineKind, EngineSession, TransactionEngine, TxnOutcome};
pub use sss_faults::{FaultPlan, LinkFault, LinkSelector};
pub use sss_storage::{Key, Value};
pub use sss_vclock::NodeId;
