//! Competitor engines from the SSS evaluation (paper §V).
//!
//! The paper compares SSS against three systems, all re-implemented "using
//! the same software infrastructure of SSS" so that every competitor shares
//! the same network and storage optimizations. This crate follows the same
//! methodology: every engine below runs on the `sss-net` transport and the
//! `sss-storage` substrates, and exposes the same session-per-node client
//! API as the SSS core.
//!
//! * [`twopc`] — the **2PC-baseline**: "all transactions execute as SSS's
//!   update transactions; read-only transactions validate their execution,
//!   therefore they can abort; and no multi-version data repository is
//!   deployed. As SSS, 2PC-baseline guarantees external consistency."
//! * [`walter`] — a **Walter-style PSI engine**: multi-version storage and
//!   vector clocks, write-write conflict detection only (no read
//!   validation), read-only transactions served from the start snapshot.
//!   Parallel Snapshot Isolation is weaker than external consistency (and
//!   even than serializability), which is exactly why the paper treats
//!   Walter as an upper bound on attainable throughput.
//! * [`rococo`] — a **ROCOCO-style engine**: a two-round
//!   dependency-collecting commit where every update piece is deferrable
//!   (update transactions never abort and are reordered on the servers),
//!   while read-only transactions execute multi-round version checks and
//!   must wait for — or retry after — conflicting in-flight updates. The
//!   reproduction preserves the performance profile the paper's comparison
//!   relies on (lock-free updates, read-only cost growing with the read-set
//!   size).
//!
//! What the three share — configuration, boot and teardown, counters, the
//! client session with its phase tracing and its request rounds — is
//! written once in [`cluster`], generic over the [`Protocol`] each module
//! implements. The two lock-based baselines, 2PC and Walter, also share the
//! server half of two-phase commit: one prepare/decide participant.

pub mod cluster;
mod participant;
pub mod rococo;
pub mod twopc;
pub mod walter;

pub use cluster::{BaselineCluster, BaselineConfig, BaselineSession, Observed, Protocol};
pub use rococo::{Rococo, RococoCluster};
pub use twopc::{TwoPc, TwoPcCluster};
pub use walter::{Walter, WalterCluster};

pub use sss_storage::{Key, TxnId, Value};
