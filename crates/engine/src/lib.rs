//! # The SSS engine layer
//!
//! Every system evaluated by the paper — SSS itself (§III) and the three
//! competitors (§V: 2PC-baseline, Walter-style PSI, ROCOCO-style) — plugs in
//! behind this crate. It owns:
//!
//! * the **trait surface** an engine exposes to the rest of the workspace:
//!   [`TransactionEngine`], [`EngineSession`] and [`TxnOutcome`];
//! * the **registry**: [`EngineKind`] enumerates the engines and
//!   [`EngineKind::builder`] starts an [`EngineBuilder`] — node count,
//!   replication degree, [`NetProfile`], observability, an optional
//!   `sss-faults` [`FaultInjector`] and an optional simulation scheduler —
//!   whose `build` boots any of them behind a
//!   `Box<dyn TransactionEngine>`. [`EngineKind::build`] and
//!   [`EngineKind::build_sim`] are the two shorthands for "defaults on this
//!   network", threaded and simulated;
//! * the **trait bindings** of the engines onto the trait.
//!
//! ## Layering
//!
//! How a transaction executes lives *with the engine*: `sss_core::adapter`
//! runs whole SSS transactions on native sessions, and `sss_baselines`
//! gives its three protocols one generic cluster and session. This crate
//! sits above both and contributes only the trait impls and the builder.
//! That keeps the dependency graph acyclic — the engine crates know nothing
//! about the registry — while still giving every consumer (`sss-workload`'s
//! scenario runner, `sss-bench`'s sweeps on it, the examples and the
//! integration tests) a single construction path:
//!
//! ```rust
//! use sss_engine::{EngineKind, NetProfile};
//!
//! let engine = EngineKind::Sss.build(3, 2, NetProfile::Instant);
//! let mut session = engine.session(0);
//! let outcome = session.run_update(&[], &[("k".into(), b"v".to_vec().into())]);
//! assert!(outcome.is_committed());
//! ```

#![deny(missing_docs)]

mod bindings;
mod profile;
mod registry;
mod traits;

pub use profile::NetProfile;
pub use registry::{EngineBuilder, EngineKind, ParseEngineKindError};
pub use traits::{EngineSession, TransactionEngine, TxnOutcome};

pub use sss_faults::{FaultInjector, FaultPlan};
pub use sss_net::MailboxStats;
pub use sss_obs::{
    chrome_trace_json, Histogram, MetricsRegistry, MetricsSnapshot, NodeLiveness, ObsHub, Phase,
    TraceSpan, WatchdogConfig, WatchdogCore, WatchdogVerdict,
};
pub use sss_sim::SimRuntime;
pub use sss_storage::StorageStats;
pub use sss_vclock::runtime::SchedulerHandle;
