//! # Exhaustive verification harness for the SSS protocol core
//!
//! This crate contains two complementary exhaustive-verification tools that
//! back the probabilistic chaos suite with *complete* coverage of small
//! configurations:
//!
//! * [`checker`] — a generic explicit-state **BFS model checker** (canonical
//!   state fingerprints, frontier dedup, state/depth budgets, minimal
//!   counterexample traces), and [`sss`] — the SSS protocol as a model whose
//!   nodes are the *production* `SssNode`s, stepped one message at a time
//!   through `sss_core::SteppedCluster`: what is verified is the handlers
//!   that ship, with scripted clients and a scripted confirmation leader
//!   loop around them.
//! * [`interleave`] — a **schedule-enumerating interleaving harness**: a
//!   deterministic DFS over every interleaving of two or three step lists,
//!   applied to the shared-state hot spots (sharded `MvStore` copy-on-write
//!   install vs. chain walk, `Mailbox` batch push/pop/close races,
//!   `CoalescerCore` leadership handoff).
//!
//! The model checks, on every reachable state of 2–3 node / 2–3 transaction
//! configurations:
//!
//! 1. **External consistency** — a transaction beginning after another's
//!    external commit observes a snapshot dominating that commit, and a
//!    read-only transaction never completes having observed a writer that
//!    has not externally committed.
//! 2. **Snapshot-bounded reads** — every returned version is within the
//!    read's visibility bound.
//! 3. **No unconfirmed reads** — a read-only transaction is never served a
//!    version whose writer's global confirmation round has not completed.
//! 4. **Release never overtakes confirmation** — no node processes a
//!    `ReleaseExternal` for a transaction before its round completed.
//! 5. **Exclusion-ceiling stability** — a version that was ever excluded
//!    for a reader is never later returned to that reader.
//! 6. **Deadlock freedom / quiescence** — in every terminal state all
//!    transactions are decided and every queue, lock and parked read has
//!    drained.
//!
//! Seeded mutations ([`sss::Mutation`]) re-introduce four historical bugs —
//! three of them by reverting a line of the production handlers —
//! and the test-suite asserts the checker produces a (minimal, replayable)
//! counterexample for each; the traces convert into chaos regression
//! scenarios via [`chaos`].

#![deny(missing_docs)]

pub mod chaos;
pub mod checker;
pub mod interleave;
pub mod sss;

pub use chaos::ChaosHints;
pub use checker::{bfs_check, CheckConfig, CheckReport, Counterexample, Model};
pub use interleave::{explore_schedules, Schedule, ScheduleOutcome};
pub use sss::{ModelConfig, Mutation, SssModel, TxnSpec};
