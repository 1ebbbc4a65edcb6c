//! Deterministic fault injection for the in-process SSS cluster.
//!
//! The paper (§II) assumes *reliable asynchronous channels*: messages may
//! be delayed arbitrarily, reordered and duplicated, and nodes may stall,
//! but nothing in flight is ever lost. Every guarantee this repository
//! verifies — external consistency of update transactions, abort-free
//! read-only transactions — is claimed under exactly that adversary, yet
//! the benchmark transport is a perfectly behaved network. This crate
//! supplies the missing adversary:
//!
//! * [`FaultPlan`] — pure data describing one run's faults: per-link jitter
//!   bursts, delay spikes, reordering holds, duplication and probabilistic
//!   message loss ([`LinkFault`] over a [`LinkSelector`]), transient
//!   network partitions with scheduled heals ([`PartitionWindow`]), node
//!   pause/resume windows ([`PauseWindow`]), and crash-stop windows with
//!   scheduled restarts ([`CrashWindow`]). Plans are seeded and
//!   comparable, so the same plan replays the same adversary.
//! * [`FaultInjector`] — executes a plan against a running cluster by
//!   implementing the `sss-net` [`FaultInterposer`]
//!   hook (consulted by the transport on every send), and by scheduling
//!   the plan's windows on the cluster's one timer executor
//!   (`sss_vclock::runtime::Timers`): pause windows flip the per-node
//!   [`PauseControl`] gates, crash windows fire the cluster-attached
//!   [`CrashHook`].
//!
//! Message loss and crashes violate the paper's *reliable asynchronous
//! channel* assumption (§II), so they are only safety-preserving when the
//! cluster compensates: plans whose
//! [`FaultPlan::needs_reliable_delivery`] returns `true` require the
//! `sss-net` retransmission layer (acks, seeded-backoff retransmits,
//! receiver dedup) and, for crashes, the node-level recovery protocol.
//! The delay-only faults (jitter, spikes, reordering, duplication,
//! partitions-that-heal, pauses) remain safety-preserving on the bare
//! transport, exactly as before.

#![deny(missing_docs)]

mod injector;
mod plan;

pub use injector::{CrashHook, FaultInjector};
pub use plan::{CrashWindow, FaultPlan, LinkFault, LinkSelector, PartitionWindow, PauseWindow};

pub use sss_net::{FaultInterposer, PauseControl, SendPlan};
pub use sss_vclock::NodeId;
