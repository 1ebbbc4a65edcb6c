//! In-process asynchronous message-passing substrate.
//!
//! The SSS paper evaluates its protocol on a cluster whose nodes communicate
//! through *reliable asynchronous channels* (paper §II) and whose
//! implementation uses an "optimized network component where multiple network
//! queues, each for a different message type, are deployed" so that
//! high-priority protocol messages (e.g. `Remove`) are never stuck behind
//! bulk traffic (paper §V).
//!
//! This crate reproduces that substrate for an in-process cluster:
//!
//! * every logical node owns a [`Mailbox`] with one queue per
//!   [`Priority`] class and a pool of worker threads draining it,
//! * senders interact only through the [`Transport`] trait, so protocol
//!   code never touches another node's state directly,
//! * an optional [`LatencyModel`] delays deliveries to reproduce the
//!   asynchrony (and reordering across priority classes) of a real network.
//!
//! The substrate is engine-agnostic: SSS, the 2PC baseline, Walter and
//! ROCOCO all run on it unchanged.
//!
//! # One send path, four routes
//!
//! [`Transport::send`] and [`Transport::send_batch`] share one routing body
//! that sends each message down one of four routes — *lost*, *local*,
//! *immediate* or *timed*; the table is on [`ChannelTransport`]. The timed
//! route is one wire crossing (plan, per-copy latency sample, one timer per
//! copy on the transport's [`Timers`](sss_vclock::runtime::Timers)), which
//! the optional reliable-delivery layer ([`TransportConfig::reliable`])
//! reuses for its acks and retransmissions. The same `Timers` runs the
//! fault injector's windows, so a threaded cluster has a single timer
//! thread and a simulated one has none.
//!
//! Delivery is batched at both ends of a mailbox: a `send_batch` is one
//! enqueue and one wakeup round per destination, and workers drain up to a
//! configurable number of same-priority messages per wakeup
//! ([`Mailbox::pop_batch`], [`NodeRuntime::spawn_batched`]). Batching is
//! invisible to the fault layer: interposers are consulted per message, so
//! a batch faults exactly like the equivalent sequence of single sends.
//!
//! # One way to block
//!
//! A worker on an empty mailbox, a worker behind a pause or crash gate and a
//! requester on a [`ReplyReceiver`] all block on a
//! [`Signal`](sss_vclock::runtime::Signal) and are woken through it, and
//! workers start through [`runtime::spawn`](sss_vclock::runtime::spawn): a
//! condvar and a thread normally, a parked task and a spawned task under the
//! simulator, with nothing in this crate telling the two apart. Mailboxes
//! (and their gates) are built with the transport's scheduler handle,
//! because host threads close and resume them; reply channels are not,
//! because both of their ends run on tasks.
//!
//! # The cluster chassis
//!
//! [`NodeHost`] puts the pieces together once for every engine: it creates
//! the transport, registers the message classifier and each node's local
//! fast path, hands the pause gates to the fault interposer, starts the
//! worker runtimes, and tears all of it down (idempotently, and on drop).
//! Coordinators wait for their participants through
//! [`ReplyReceiver::gather`].

#![deny(missing_docs)]

mod host;
mod latency;
mod mailbox;
mod reliable;
mod reply;
mod runtime;
mod transport;

pub use host::NodeHost;
pub use latency::LatencyModel;
pub use mailbox::{
    Mailbox, MailboxStats, PauseControl, Priority, DEFAULT_DELIVERY_BATCH, MESSAGE_KIND_SLOTS,
};
pub use reliable::{ReliabilityStats, RETRANSMIT_RTO};
pub use reply::{reply_channel, Gather, ReplyReceiver, ReplySender, ReplyTryRecvError};
pub use runtime::{NodeRuntime, NodeService};
pub use transport::{
    ChannelTransport, Envelope, FaultInterposer, LocalDispatch, SendPlan, Transport,
    TransportConfig, TransportError, TransportExt,
};

pub use sss_vclock::NodeId;
