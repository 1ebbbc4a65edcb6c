//! YCSB-style workload generation and the one way to run a workload.
//!
//! The paper's evaluation (§V) uses YCSB ported to a key-value store with
//! two transaction profiles: *update* transactions that read and write two
//! keys, and *read-only* transactions that read two or more keys. Clients
//! are colocated with processing nodes and issue transactions in a closed
//! loop (a client only issues a new request when the previous one
//! returned); keys are chosen uniformly at random, optionally with a
//! local-access bias.
//!
//! This crate reproduces that methodology in an engine-agnostic way:
//!
//! * [`WorkloadSpec`] describes the mix (read-only percentage, transaction
//!   sizes, key count, locality, clients per node, seed),
//! * [`WorkloadGenerator`] produces the per-client operation stream,
//! * the [`scenario`] layer runs it. A [`ChaosScenario`] pairs a spec with
//!   an operation count per client, a replication degree, a network
//!   profile, an `sss-faults` fault plan (empty for a plain measurement)
//!   and expected-outcome assertions. **One closed-loop client and one
//!   runner body** execute it against any engine of the `sss-engine`
//!   registry — on threads ([`run_scenario`]) or under the deterministic
//!   simulator in virtual time ([`run_scenario_sim`]) — recording every
//!   commit in a history the `sss-consistency` checker verifies and every
//!   committed update's latency (with SSS's internal/external split, the
//!   paper's Figure 5) in histograms on the [`ScenarioOutcome`].
//!   [`run_scenario_tuned`] is the prologue both go through; a harness that
//!   sweeps an engine tuning value or wants the engine back afterwards
//!   calls it directly.
//!
//! There is no second, duration-based driver: the chaos catalog, the seed
//! sweeps, the determinism suites, `sss-bench`'s figure sweeps and the
//! repository benchmark's correctness gate are all scenarios.

#![deny(missing_docs)]

mod generator;
pub mod scenario;
mod spec;

pub use generator::{TxnTemplate, WorkloadGenerator};
pub use scenario::{
    run_scenario, run_scenario_sim, run_scenario_tuned, ChaosScenario, ScenarioExpectations,
    ScenarioOutcome,
};
pub use spec::{KeySelection, SpecError, WorkloadSpec};

pub use sss_engine::{EngineKind, EngineSession, TransactionEngine, TxnOutcome};
pub use sss_faults::{FaultPlan, LinkFault, LinkSelector};
pub use sss_storage::{Key, Value};
pub use sss_vclock::NodeId;
