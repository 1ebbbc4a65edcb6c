//! # SSS concurrency control
//!
//! A from-scratch implementation of **SSS** (Kishi, Peluso, Korth, Palmieri —
//! ICDCS 2019): a scalable transactional key-value store whose distributed
//! concurrency control provides *external consistency* for all transactions
//! and *abort-free* read-only transactions, without specialized hardware
//! (no TrueTime), without a centralized synchronization source, and without
//! ordering communication primitives.
//!
//! ## How it works (paper §III)
//!
//! * Every node keeps a vector clock (`NodeVC`), a log of internally
//!   committed transactions (`NLog`) and a commit queue (`CommitQ`) that
//!   orders transactions by their commit vector clock entry for that node.
//! * Every key keeps a **snapshot-queue**: read-only transactions enqueue at
//!   read time, update transactions enqueue after their commit decision.
//!   Entries carry an *insertion-snapshot*; transactions with lesser
//!   insertion-snapshots serialize before conflicting ones with higher
//!   insertion-snapshots.
//! * Update transactions commit in three stages: **internal commit** (2PC,
//!   written versions become visible), **pre-commit** (the transaction sits
//!   in the snapshot-queues of its written keys while concurrent read-only
//!   transactions that must serialize before it are still running) and
//!   **external commit** (the client is finally answered). Delaying only the
//!   *client response* — not the visibility of the written data — is what
//!   lets SSS keep its throughput while guaranteeing that the order of
//!   client-observed completions matches the serialization order.
//! * Read-only transactions never abort and never block update transactions;
//!   their reads select versions within a vector-clock visibility bound and
//!   exclude writers that are still in their pre-commit phase beyond that
//!   bound.
//!
//! ## Quick example
//!
//! ```rust
//! use sss_core::{SssCluster, SssConfig};
//! use sss_storage::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = SssCluster::start(SssConfig::new(4).replication(2))?;
//! let session = cluster.session(0);
//!
//! let mut t = session.begin_update();
//! t.write("x", Value::from_u64(1));
//! t.write("y", Value::from_u64(2));
//! let info = t.commit()?;
//! assert!(info.external_latency >= info.internal_latency);
//!
//! let mut ro = session.begin_read_only();
//! let x = ro.read("x")?.and_then(|v| v.to_u64());
//! let y = ro.read("y")?.and_then(|v| v.to_u64());
//! assert_eq!((x, y), (Some(1), Some(2)));
//! ro.commit()?;
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod adapter;
mod cluster;
pub mod coalescer;
mod commit_queue;
pub mod config;
pub mod coordinator;
mod error;
mod messages;
mod nlog;
mod node;
pub mod protocol;
mod session;
mod squeue;
mod stats;

pub use cluster::SssCluster;
pub use coalescer::{CoalescerCore, PendingConfirm, RoundPlan};
pub use commit_queue::{CommitEntry, CommitQueue, CommitStatus};
pub use config::SssConfig;
pub use error::{AbortReason, SssError};
pub use messages::{Ack, PropagatedEntry, ReadReturn, SssMessage, StateReply, Vote};
pub use nlog::{NLog, NLogEntry};
#[doc(hidden)]
pub use node::step::{ByteSink, SeededBug, SteppedCluster};
pub use node::SssNode;
pub use session::{CommitInfo, ReadOnlyTransaction, Session, UpdateTransaction};
pub use squeue::{EntryKind, ReadEntry, SnapshotQueue, SnapshotQueues, WriteEntry};
pub use stats::{ClusterStats, NodeStats};

pub use sss_faults::{FaultInjector, FaultPlan};
pub use sss_storage::{Key, TxnId, Value};
pub use sss_vclock::{NodeId, VectorClock};
