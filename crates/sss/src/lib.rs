//! # SSS — Scalable key-value store with external consistent, abort-free read-only transactions
//!
//! This is the facade crate of the SSS reproduction workspace. It re-exports
//! the public API of every sub-crate so downstream users can depend on a
//! single crate:
//!
//! * [`core`] — the SSS distributed concurrency control (the paper's
//!   contribution): vector-clock based visibility, snapshot-queuing,
//!   internal/pre/external commit, abort-free read-only transactions.
//! * [`baselines`] — the competitors evaluated by the paper: a 2PC baseline,
//!   a Walter-style PSI engine, and a ROCOCO-style dependency-tracking engine.
//! * [`engine`] — the engine layer: the `TransactionEngine` trait surface
//!   and the `EngineKind` registry through which every engine (SSS and the
//!   baselines alike) is constructed.
//! * [`net`] — the in-process message-passing substrate (priority queues,
//!   latency injection) every engine runs on.
//! * [`faults`] — deterministic fault injection: seeded fault plans (delay
//!   spikes, jitter, reordering, duplication, transient partitions, node
//!   pauses) interposed on the transport; the chaos-scenario layer in
//!   [`workload`] runs them with post-run consistency verification.
//! * [`storage`] — multi-version and single-version node-local stores, lock
//!   table, replica placement.
//! * [`workload`] — YCSB-style workload generator and the one scenario
//!   runner (closed-loop clients on threads or in virtual time).
//! * [`consistency`] — history recording and external-consistency checking.
//!
//! ## Quickstart
//!
//! ```rust
//! use sss::core::{SssCluster, SssConfig};
//! use sss::storage::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 3-node cluster, every key replicated on 2 nodes.
//! let cluster = SssCluster::start(SssConfig::new(3).replication(2))?;
//!
//! // Clients are colocated with nodes; open a session on node 0.
//! let session = cluster.session(0);
//!
//! // Update transaction.
//! let mut txn = session.begin_update();
//! txn.write("answer", b"42".to_vec());
//! txn.commit()?;
//!
//! // Abort-free read-only transaction.
//! let mut ro = session.begin_read_only();
//! assert_eq!(ro.read("answer")?, Some(Value::from(&b"42"[..])));
//! ro.commit()?;
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

pub use sss_baselines as baselines;
pub use sss_consistency as consistency;
pub use sss_core as core;
pub use sss_engine as engine;
pub use sss_faults as faults;
pub use sss_net as net;
pub use sss_storage as storage;
pub use sss_vclock as vclock;
pub use sss_workload as workload;
