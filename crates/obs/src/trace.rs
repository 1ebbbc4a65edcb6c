//! Per-transaction phase tracing: spans, per-node trace rings, and the
//! [`ObsHub`] that engines thread through their sessions.
//!
//! A client session carries a [`TxnTrace`] through each transaction and
//! flips it between [`Phase`]s at protocol boundaries; on finish the spans
//! land in the owning node's [`TraceRing`] (fixed capacity, wait-free slot
//! allocation, oldest entries overwritten) and each span's duration is
//! recorded into the hub's per-phase latency [`Histogram`]. Server-side
//! phases that never pass through a client session (2PC/Walter lock
//! acquisition) are pushed as standalone spans on a reserved per-node lane.
//!
//! Drained spans serialize to Chrome-trace JSON (`chrome://tracing`,
//! Perfetto): see [`chrome_trace_json`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::hist::Histogram;
use crate::metrics::{Counter, MetricsRegistry, SharedHistogram};

/// A protocol phase a transaction can spend time in. One flat enum covers
/// every engine; [`Phase::for_engine`] lists which subset an engine's spans
/// can use (the span taxonomy `sss-workload`'s `obs_determinism` test
/// validates trace coverage against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Reading the transaction's read set (all engines).
    Read,
    /// SSS Pre-Commit: prepare multicast through vote collection.
    PreCommit,
    /// SSS: decide multicast through install acknowledgements (the
    /// commit-queue wait of the write replicas, observed from the client).
    CommitQueueWait,
    /// SSS: external-commit confirmation round(s), including the leader
    /// linger of the grouped path.
    ConfirmWait,
    /// SSS: standalone `ReleaseExternal` broadcast (singleton-confirmation
    /// path only; the grouped path piggybacks releases).
    Release,
    /// 2PC/Walter: prepare multicast through vote collection.
    Prepare,
    /// 2PC/Walter: decide multicast (2PC: until the decide is sent).
    Decide,
    /// 2PC: waiting for the write replicas' install acknowledgements.
    InstallAck,
    /// 2PC/Walter server-side: lock acquisition inside prepare handling.
    LockAcquire,
    /// ROCOCO: first round — dispatching update pieces to key owners.
    Dispatch,
    /// ROCOCO: second round — commit messages and piece execution.
    Execute,
}

impl Phase {
    /// Number of phases (size of per-phase arrays).
    pub const COUNT: usize = 11;

    /// Every phase, in label order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Read,
        Phase::PreCommit,
        Phase::CommitQueueWait,
        Phase::ConfirmWait,
        Phase::Release,
        Phase::Prepare,
        Phase::Decide,
        Phase::InstallAck,
        Phase::LockAcquire,
        Phase::Dispatch,
        Phase::Execute,
    ];

    /// Stable snake_case label used in traces and in the repository
    /// benchmark's `core.phase.*` metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::PreCommit => "pre_commit",
            Phase::CommitQueueWait => "commit_queue_wait",
            Phase::ConfirmWait => "confirm_wait",
            Phase::Release => "release",
            Phase::Prepare => "prepare",
            Phase::Decide => "decide",
            Phase::InstallAck => "install_ack",
            Phase::LockAcquire => "lock_acquire",
            Phase::Dispatch => "dispatch",
            Phase::Execute => "execute",
        }
    }

    /// Dense index into per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Read => 0,
            Phase::PreCommit => 1,
            Phase::CommitQueueWait => 2,
            Phase::ConfirmWait => 3,
            Phase::Release => 4,
            Phase::Prepare => 5,
            Phase::Decide => 6,
            Phase::InstallAck => 7,
            Phase::LockAcquire => 8,
            Phase::Dispatch => 9,
            Phase::Execute => 10,
        }
    }

    /// `true` for phases measured inside a server's message handler rather
    /// than across a client-observed protocol step. Server-scope spans
    /// overlap the client-scope ones covering the same wall-clock time, so
    /// per-phase *share* computations exclude them from the denominator.
    pub fn is_server_scope(self) -> bool {
        matches!(self, Phase::LockAcquire)
    }

    /// The span taxonomy of the engine registered under `engine` (the
    /// `TransactionEngine::name` labels): every phase this engine's traces
    /// can emit. Empty for unknown names. The `release` phase only appears
    /// on SSS's singleton-confirmation path (`confirm_epoch <= 1`).
    pub fn for_engine(engine: &str) -> &'static [Phase] {
        match engine {
            "SSS" => &[
                Phase::Read,
                Phase::PreCommit,
                Phase::CommitQueueWait,
                Phase::ConfirmWait,
                Phase::Release,
            ],
            "2PC" => &[
                Phase::Read,
                Phase::LockAcquire,
                Phase::Prepare,
                Phase::Decide,
                Phase::InstallAck,
            ],
            "Walter" => &[
                Phase::Read,
                Phase::LockAcquire,
                Phase::Prepare,
                Phase::Decide,
            ],
            "ROCOCO" => &[Phase::Dispatch, Phase::Execute, Phase::Read],
            _ => &[],
        }
    }
}

/// One completed span: a transaction spent `dur_ns` in `phase` starting at
/// `start_ns` (nanoseconds since the hub's epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// The protocol phase.
    pub phase: Phase,
    /// Node the span is attributed to (the client's colocated node, or the
    /// handling server for server-scope spans).
    pub node: u32,
    /// Trace lane (one per client session; server-scope spans use a
    /// reserved per-node lane). Becomes the Chrome-trace thread id.
    pub lane: u64,
    /// Transaction sequence number (0 for server-scope spans that are not
    /// attributed to one transaction).
    pub txn: u64,
    /// Span start, nanoseconds since the hub epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Whether the owning transaction eventually committed (server-scope
    /// spans report `true`).
    pub committed: bool,
}

/// Default per-node trace-ring capacity (spans).
pub const DEFAULT_RING_CAPACITY: usize = 32_768;

/// Base of the reserved server lanes (see [`ObsHub::server_lane`]); client
/// lanes are allocated densely from zero and never reach it.
const SERVER_LANE_BASE: u64 = 1 << 32;

/// A fixed-capacity ring of completed spans. Slot allocation is a single
/// `fetch_add` (no lock, no allocation on the push path beyond the slot
/// write), and the ring overwrites its oldest entries when full — tracing
/// never blocks or grows, it just forgets the distant past.
pub struct TraceRing {
    slots: Vec<Mutex<Option<TraceSpan>>>,
    head: AtomicUsize,
    pushed: AtomicU64,
}

impl TraceRing {
    /// Creates a ring holding up to `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            pushed: AtomicU64::new(0),
        }
    }

    /// Records a span, overwriting the oldest entry when full.
    pub fn push(&self, span: TraceSpan) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[slot].lock() = Some(span);
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Total spans ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Takes every retained span out of the ring, ordered by start time.
    pub fn drain(&self) -> Vec<TraceSpan> {
        let mut spans: Vec<TraceSpan> = self.slots.iter().filter_map(|s| s.lock().take()).collect();
        spans.sort_by_key(|s| (s.start_ns, s.lane));
        spans
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.pushed())
            .finish()
    }
}

/// The per-cluster observability hub: the time base, lane allocator,
/// metrics registry, per-phase latency histograms and per-node trace rings
/// shared by every session and node of one engine instance.
///
/// Engines carry an `Option<Arc<ObsHub>>` in their configuration; `None`
/// reduces every instrumentation site to a single branch, which is what
/// keeps the tracing-off cost near zero.
pub struct ObsHub {
    epoch: Instant,
    lanes: AtomicU64,
    registry: MetricsRegistry,
    phase_hist: Vec<Arc<SharedHistogram>>,
    rings: Vec<TraceRing>,
    committed: Arc<Counter>,
    aborted: Arc<Counter>,
}

impl ObsHub {
    /// Creates a hub for a cluster of `nodes` nodes with the default
    /// per-node ring capacity.
    pub fn new(nodes: usize) -> Arc<Self> {
        ObsHub::with_ring_capacity(nodes, DEFAULT_RING_CAPACITY)
    }

    /// Creates a hub with an explicit per-node ring capacity. The time base
    /// is the runtime clock's "now": virtual time when called from inside a
    /// simulation task, wall-clock time otherwise.
    pub fn with_ring_capacity(nodes: usize, capacity: usize) -> Arc<Self> {
        Self::with_epoch(nodes, capacity, sss_vclock::runtime::now())
    }

    /// Creates a hub whose trace time base starts at `epoch`. Simulated
    /// clusters pass the scheduler's virtual "now" so that trace timestamps
    /// are virtual (and reproducible per seed) even though the hub itself
    /// is constructed on a host thread outside the simulation.
    pub fn with_epoch(nodes: usize, capacity: usize, epoch: Instant) -> Arc<Self> {
        let registry = MetricsRegistry::new();
        let phase_hist = Phase::ALL
            .iter()
            .map(|p| registry.histogram(&format!("phase/{}", p.label())))
            .collect();
        let committed = registry.counter("txn/committed");
        let aborted = registry.counter("txn/aborted");
        Arc::new(ObsHub {
            epoch,
            lanes: AtomicU64::new(0),
            registry,
            phase_hist,
            rings: (0..nodes.max(1))
                .map(|_| TraceRing::new(capacity))
                .collect(),
            committed,
            aborted,
        })
    }

    /// Nanoseconds since the hub was created (the trace time base), read
    /// from the runtime clock so simulated clusters record virtual time.
    pub fn now_ns(&self) -> u64 {
        sss_vclock::runtime::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    /// Allocates a fresh client trace lane (one per session).
    pub fn next_lane(&self) -> u64 {
        self.lanes.fetch_add(1, Ordering::Relaxed)
    }

    /// The reserved lane server-scope spans of `node` are recorded on.
    pub fn server_lane(node: usize) -> u64 {
        SERVER_LANE_BASE + node as u64
    }

    /// The hub's metrics registry (phase histograms are registered as
    /// `phase/<label>`, transaction outcomes as `txn/committed` and
    /// `txn/aborted`).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records a completed span into the owning node's ring and the
    /// per-phase latency histogram (microseconds).
    pub fn record_span(&self, span: TraceSpan) {
        self.phase_hist[span.phase.index()].record(span.dur_ns / 1_000);
        let ring = &self.rings[(span.node as usize).min(self.rings.len() - 1)];
        ring.push(span);
    }

    /// Records a server-scope span (e.g. 2PC lock acquisition) measured
    /// around `started` on `node`.
    pub fn record_server_span(&self, node: usize, phase: Phase, started: Instant) {
        let dur_ns = sss_vclock::runtime::now()
            .saturating_duration_since(started)
            .as_nanos() as u64;
        let end_ns = self.now_ns();
        self.record_span(TraceSpan {
            phase,
            node: node as u32,
            lane: ObsHub::server_lane(node),
            txn: 0,
            start_ns: end_ns.saturating_sub(dur_ns),
            dur_ns,
            committed: true,
        });
    }

    /// Marks a transaction outcome on the hub's counters.
    pub fn record_outcome(&self, committed: bool) {
        if committed {
            self.committed.inc();
        } else {
            self.aborted.inc();
        }
    }

    /// Snapshot of every per-phase latency histogram (microseconds), in
    /// [`Phase::ALL`] order.
    pub fn phase_snapshot(&self) -> Vec<(Phase, Histogram)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phase_hist[p.index()].snapshot()))
            .collect()
    }

    /// Drains every node's trace ring into one start-time-ordered list.
    pub fn drain_spans(&self) -> Vec<TraceSpan> {
        let mut spans: Vec<TraceSpan> = self.rings.iter().flat_map(|r| r.drain()).collect();
        spans.sort_by_key(|s| (s.start_ns, s.lane));
        spans
    }

    /// Total spans recorded so far (including ring-overwritten ones).
    pub fn spans_recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.pushed()).sum()
    }
}

impl std::fmt::Debug for ObsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHub")
            .field("nodes", &self.rings.len())
            .field("lanes", &self.lanes.load(Ordering::Relaxed))
            .field("spans_recorded", &self.spans_recorded())
            .finish()
    }
}

/// The phase trace of one in-flight transaction. At most one phase is open
/// at a time; entering a phase closes the previous one, and
/// [`TxnTrace::finish`] closes the last span and flushes everything to the
/// hub. Dropping an unfinished trace discards it (aborted paths call
/// `finish(false)` explicitly where the outcome is known).
pub struct TxnTrace {
    hub: Arc<ObsHub>,
    node: u32,
    lane: u64,
    txn: u64,
    open: Option<(Phase, u64)>,
    spans: Vec<(Phase, u64, u64)>,
}

impl TxnTrace {
    /// Starts a trace for transaction `txn` on client lane `lane` of
    /// `node`. No span is open until the first [`TxnTrace::enter`].
    pub fn begin(hub: Arc<ObsHub>, node: usize, lane: u64, txn: u64) -> Self {
        TxnTrace {
            hub,
            node: node as u32,
            lane,
            txn,
            open: None,
            spans: Vec::with_capacity(4),
        }
    }

    /// Enters `phase`, closing the currently open span (if any). Re-entering
    /// the open phase is a no-op, so per-operation call sites (e.g. one per
    /// read) cost one branch after the first.
    pub fn enter(&mut self, phase: Phase) {
        if let Some((open, _)) = self.open {
            if open == phase {
                return;
            }
        }
        let now = self.hub.now_ns();
        if let Some((open, start)) = self.open.take() {
            self.spans.push((open, start, now.saturating_sub(start)));
        }
        self.open = Some((phase, now));
    }

    /// Closes the open span without entering a new phase (protocol gaps the
    /// taxonomy does not attribute).
    pub fn exit(&mut self) {
        if let Some((open, start)) = self.open.take() {
            let now = self.hub.now_ns();
            self.spans.push((open, start, now.saturating_sub(start)));
        }
    }

    /// Closes the open span, flushes every span to the hub tagged with the
    /// transaction's outcome, and records the outcome counters.
    pub fn finish(mut self, committed: bool) {
        self.exit();
        for (phase, start_ns, dur_ns) in self.spans.drain(..) {
            self.hub.record_span(TraceSpan {
                phase,
                node: self.node,
                lane: self.lane,
                txn: self.txn,
                start_ns,
                dur_ns,
                committed,
            });
        }
        self.hub.record_outcome(committed);
    }
}

impl std::fmt::Debug for TxnTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnTrace")
            .field("node", &self.node)
            .field("lane", &self.lane)
            .field("txn", &self.txn)
            .field("open", &self.open.map(|(p, _)| p))
            .field("spans", &self.spans.len())
            .finish()
    }
}

fn push_json_escaped(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serializes labelled span groups as Chrome-trace JSON (the
/// `{"traceEvents": [...]}` format `chrome://tracing` and Perfetto load).
///
/// Each `(label, spans)` group gets its own process-id space so several
/// benchmark cells can share one trace file: a span of node `n` in group
/// `g` renders as pid `g * 64 + n` with a `process_name` metadata record
/// of `"<label> node<n>"`. Lanes become thread ids; timestamps and
/// durations are microseconds (fractional).
pub fn chrome_trace_json(groups: &[(String, Vec<TraceSpan>)]) -> String {
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (group_index, (label, spans)) in groups.iter().enumerate() {
        let nodes: BTreeSet<u32> = spans.iter().map(|s| s.node).collect();
        for node in nodes {
            let pid = group_index as u64 * 64 + node as u64;
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ");
            let _ = write!(out, "{pid}");
            out.push_str(", \"args\": {\"name\": \"");
            push_json_escaped(&mut out, label);
            let _ = write!(out, " node{node}");
            out.push_str("\"}}");
        }
        for span in spans {
            let pid = group_index as u64 * 64 + span.node as u64;
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": {}, \"tid\": {}, \"args\": {{\"txn\": {}, \"committed\": {}}}}}",
                span.phase.label(),
                span.start_ns as f64 / 1_000.0,
                span.dur_ns as f64 / 1_000.0,
                pid,
                span.lane,
                span.txn,
                span.committed,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_and_indices_are_dense() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        let labels: std::collections::BTreeSet<&str> =
            Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), Phase::COUNT, "labels must be unique");
    }

    #[test]
    fn engine_taxonomies_cover_known_engines() {
        for engine in ["SSS", "2PC", "Walter", "ROCOCO"] {
            assert!(!Phase::for_engine(engine).is_empty(), "{engine}");
        }
        assert!(Phase::for_engine("SSS").contains(&Phase::ConfirmWait));
        assert!(Phase::for_engine("2PC").contains(&Phase::InstallAck));
        assert!(Phase::for_engine("nope").is_empty());
        assert!(Phase::LockAcquire.is_server_scope());
        assert!(!Phase::ConfirmWait.is_server_scope());
    }

    #[test]
    fn trace_spans_flow_to_ring_and_histograms() {
        let hub = ObsHub::new(2);
        let lane = hub.next_lane();
        let mut trace = TxnTrace::begin(Arc::clone(&hub), 1, lane, 7);
        trace.enter(Phase::Read);
        trace.enter(Phase::Read); // no-op re-entry
        trace.enter(Phase::PreCommit);
        trace.finish(true);
        let spans = hub.drain_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Read);
        assert_eq!(spans[1].phase, Phase::PreCommit);
        assert!(spans
            .iter()
            .all(|s| s.node == 1 && s.txn == 7 && s.committed));
        let phases = hub.phase_snapshot();
        assert_eq!(phases[Phase::Read.index()].1.count(), 1);
        assert_eq!(phases[Phase::PreCommit.index()].1.count(), 1);
        assert_eq!(hub.registry().snapshot().counters["txn/committed"], 1);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = TraceRing::new(2);
        let span = |txn| TraceSpan {
            phase: Phase::Read,
            node: 0,
            lane: 0,
            txn,
            start_ns: txn,
            dur_ns: 1,
            committed: true,
        };
        for txn in 0..5 {
            ring.push(span(txn));
        }
        assert_eq!(ring.pushed(), 5);
        let spans = ring.drain();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.txn >= 3), "oldest overwritten");
        assert!(ring.drain().is_empty(), "drain takes the spans out");
    }

    #[test]
    fn server_spans_use_the_reserved_lane() {
        let hub = ObsHub::new(1);
        hub.record_server_span(0, Phase::LockAcquire, Instant::now());
        let spans = hub.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, ObsHub::server_lane(0));
        assert_eq!(spans[0].phase, Phase::LockAcquire);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let hub = ObsHub::new(1);
        let mut trace = TxnTrace::begin(Arc::clone(&hub), 0, hub.next_lane(), 1);
        trace.enter(Phase::Read);
        trace.finish(false);
        let json = chrome_trace_json(&[("SSS e32".to_string(), hub.drain_spans())]);
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\": \"read\""));
        assert!(json.contains("\"committed\": false"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn dropped_trace_records_nothing() {
        let hub = ObsHub::new(1);
        let mut trace = TxnTrace::begin(Arc::clone(&hub), 0, 0, 1);
        trace.enter(Phase::Read);
        drop(trace);
        assert_eq!(hub.spans_recorded(), 0);
    }
}
