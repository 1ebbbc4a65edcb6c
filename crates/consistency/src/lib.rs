//! History recording and consistency checking for the SSS reproduction.
//!
//! The paper's correctness argument (§IV) is based on Adya's Direct
//! Serialization Graph (DSG): a history is external consistent iff the DSG
//! built from its dependencies *plus* the client-observed completion order
//! is acyclic. This crate provides:
//!
//! * [`HistoryRecorder`] / [`History`] — a thread-safe recorder that clients
//!   use to log every committed transaction (reads with the observed writer,
//!   writes, wall-clock start/finish instants),
//! * [`DsgChecker`] — builds the DSG (write-read, write-write, read-write
//!   and real-time edges) and searches for cycles,
//! * [`check_all`] and friends — higher-level assertions used by the
//!   test-suite: external consistency, snapshot atomicity of read-only
//!   transactions, and monotonicity of client-observed prefixes.
//!
//! The checker is engine-agnostic: SSS and every baseline engine are checked
//! with the same code, which is how the test-suite demonstrates both that
//! SSS *is* externally consistent and that the intentionally weaker Walter
//! engine admits the anomalies PSI allows.

#![deny(missing_docs)]

mod checks;
mod dsg;
mod history;

pub use checks::{
    check_all, check_external_consistency, check_read_only_snapshots, has_read_only_traffic,
    ConsistencyError,
};
pub use dsg::{Dependency, DsgChecker, Edge};
pub use history::{
    History, HistoryRecorder, ReadRecord, TxnKind, TxnRecord, TxnRecordBuilder, WriteRecord,
};

pub use sss_storage::{Key, TxnId, Value};
