//! Spans the benchmark records around its calls into the program
//! (`Session::begin_*`, `read`, `commit`), kept in memory during the run
//! and written as Chrome-trace JSON when it ends. Spans inside the program
//! are the program's own business (`ObsHub`).

use std::time::Instant;

use crate::api::{runtime, CommitInfo, Key, Session, SssError, Value};
use crate::client::{Attempt, TxnRunner};
use crate::json::Json;
use crate::stats::quantile_sorted;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One attempt of an update transaction, begin to commit outcome.
    TxnUpdate,
    /// A read-only transaction, begin to commit.
    TxnReadOnly,
    /// One `read` call (child of the transaction).
    Read,
    /// The `commit` call (child of the transaction).
    Commit,
    /// `commit` entry to the internal commit (child of `Commit`).
    CommitInternal,
    /// Internal commit to the client's answer (child of `Commit`).
    ExternalLag,
    /// The pause between an aborted attempt and the next one.
    Retry,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::TxnUpdate => "txn.update",
            SpanKind::TxnReadOnly => "txn.read_only",
            SpanKind::Read => "read",
            SpanKind::Commit => "commit",
            SpanKind::CommitInternal => "commit_internal",
            SpanKind::ExternalLag => "external_lag",
            SpanKind::Retry => "retry",
        }
    }
}

/// No parent: a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    /// Nanoseconds since the runner's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same runner's list, or [`ROOT`].
    pub parent: u32,
    /// The transaction the span belongs to (`origin << 48 | seq`).
    pub txn: u64,
    /// For transaction spans: did the attempt commit?
    pub committed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The traced runner: native sessions, with a span around every call.
pub struct TracedRunner {
    session: Session,
    epoch: Instant,
    spans: Vec<Span>,
    /// Set when an update attempt aborted: when, and for which transaction.
    retry_from: Option<(u64, u64)>,
}

impl TracedRunner {
    pub fn new(session: Session, epoch: Instant, capacity: usize) -> Self {
        TracedRunner {
            session,
            epoch,
            spans: Vec::with_capacity(capacity),
            retry_from: None,
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        runtime::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    fn open(&mut self, kind: SpanKind, start_ns: u64, parent: u32, txn: u64) -> u32 {
        self.spans.push(Span {
            kind,
            start_ns,
            end_ns: start_ns,
            parent,
            txn,
            committed: false,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }

    fn closed(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, parent: u32, txn: u64) -> u32 {
        let index = self.open(kind, start_ns, parent, txn);
        self.close(index, end_ns);
        index
    }

    fn finish(&mut self, txn_span: u32, attempt: Attempt) -> Attempt {
        let now = self.now_ns();
        let span = &mut self.spans[txn_span as usize];
        span.end_ns = now;
        span.committed = attempt == Attempt::Committed;
        attempt
    }
}

fn txn_tag(id: crate::api::TxnId) -> u64 {
    ((id.origin.index() as u64) << 48) | (id.seq & 0xffff_ffff_ffff)
}

impl TxnRunner for TracedRunner {
    fn update(&mut self, keys: &[Key], writes: &[(Key, Value)]) -> Attempt {
        let begin = self.now_ns();
        let mut txn = self.session.begin_update();
        let tag = txn_tag(txn.id());
        if let Some((from, aborted)) = self.retry_from.take() {
            self.closed(SpanKind::Retry, from, begin, ROOT, aborted);
        }
        let txn_span = self.open(SpanKind::TxnUpdate, begin, ROOT, tag);
        for key in keys {
            let start = self.now_ns();
            if txn.read(key.clone()).is_err() {
                return self.finish(txn_span, Attempt::Failed);
            }
            let end = self.now_ns();
            self.closed(SpanKind::Read, start, end, txn_span, tag);
        }
        for (key, value) in writes {
            txn.write(key.clone(), value.clone());
        }
        let commit_start = self.now_ns();
        let outcome = txn.commit();
        let commit_end = self.now_ns();
        let commit_span = self.closed(SpanKind::Commit, commit_start, commit_end, txn_span, tag);
        let attempt = match outcome {
            Ok(CommitInfo {
                internal_latency, ..
            }) => {
                // `internal_latency` counts from `begin_update`.
                let internal_at =
                    (begin + internal_latency.as_nanos() as u64).clamp(commit_start, commit_end);
                self.closed(
                    SpanKind::CommitInternal,
                    commit_start,
                    internal_at,
                    commit_span,
                    tag,
                );
                self.closed(
                    SpanKind::ExternalLag,
                    internal_at,
                    commit_end,
                    commit_span,
                    tag,
                );
                Attempt::Committed
            }
            // The transaction is installed and visible; only its
            // confirmation round timed out (the engine adapter reports the
            // same case as a commit).
            Err(SssError::ExternalCommitTimeout) => Attempt::Committed,
            Err(SssError::Aborted(_)) => Attempt::Aborted,
            Err(_) => Attempt::Failed,
        };
        if attempt == Attempt::Aborted {
            self.retry_from = Some((commit_end, tag));
        }
        self.finish(txn_span, attempt)
    }

    fn read_only(&mut self, keys: &[Key]) -> Attempt {
        let begin = self.now_ns();
        let mut txn = self.session.begin_read_only();
        let tag = txn_tag(txn.id());
        let txn_span = self.open(SpanKind::TxnReadOnly, begin, ROOT, tag);
        for key in keys {
            let start = self.now_ns();
            if txn.read(key.clone()).is_err() {
                return self.finish(txn_span, Attempt::Failed);
            }
            let end = self.now_ns();
            self.closed(SpanKind::Read, start, end, txn_span, tag);
        }
        let commit_start = self.now_ns();
        let outcome = txn.commit();
        let commit_end = self.now_ns();
        self.closed(SpanKind::Commit, commit_start, commit_end, txn_span, tag);
        let attempt = if outcome.is_ok() {
            Attempt::Committed
        } else {
            Attempt::Failed
        };
        self.finish(txn_span, attempt)
    }
}

/// Durations and self times of one client's spans inside `[from_ns, to_ns)`.
#[derive(Debug, Default)]
pub struct SpanTimes {
    pub update_read_ns: Vec<u64>,
    pub read_only_read_ns: Vec<u64>,
    pub commit_internal_ns: Vec<u64>,
    pub external_lag_ns: Vec<u64>,
    /// Duration of a transaction span minus its direct children.
    pub update_self_ns: Vec<u64>,
    pub read_only_self_ns: Vec<u64>,
    /// Time inside update attempts, committed or aborted.
    pub update_attempt_total_ns: u64,
    /// Time inside the reads of update attempts.
    pub update_read_total_ns: u64,
    pub spans: usize,
}

impl SpanTimes {
    /// Adds the spans of one client that ended inside the window.
    pub fn add(&mut self, spans: &[Span], from_ns: u64, to_ns: u64) {
        let mut children_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != ROOT {
                children_ns[span.parent as usize] += span.duration_ns();
            }
        }
        for (index, span) in spans.iter().enumerate() {
            let top = if span.parent == ROOT {
                span
            } else {
                let parent = &spans[span.parent as usize];
                if parent.parent == ROOT {
                    parent
                } else {
                    &spans[parent.parent as usize]
                }
            };
            if top.end_ns < from_ns || top.end_ns >= to_ns {
                continue;
            }
            self.spans += 1;
            let duration = span.duration_ns();
            match span.kind {
                SpanKind::TxnUpdate => {
                    self.update_attempt_total_ns += duration;
                    if span.committed {
                        self.update_self_ns.push(duration - children_ns[index]);
                    }
                }
                SpanKind::TxnReadOnly => self.read_only_self_ns.push(duration - children_ns[index]),
                SpanKind::Read if top.kind == SpanKind::TxnUpdate => {
                    self.update_read_total_ns += duration;
                    self.update_read_ns.push(duration);
                }
                SpanKind::Read => self.read_only_read_ns.push(duration),
                SpanKind::CommitInternal => self.commit_internal_ns.push(duration),
                SpanKind::ExternalLag => self.external_lag_ns.push(duration),
                SpanKind::Commit | SpanKind::Retry => {}
            }
        }
    }
}

/// Median of `values` in microseconds (0 when there is none).
pub fn p50_us(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, 0.5) as f64 / 1e3
}

/// Spans written to the trace file at most: the head of the run is enough
/// to look at, and the file stays a few megabytes.
pub const TRACE_FILE_SPANS: usize = 40_000;

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of the first spans of
/// every client; one thread lane per client.
pub fn chrome_trace(clients: &[Vec<Span>]) -> String {
    let per_client = TRACE_FILE_SPANS / clients.len().max(1);
    let mut events = Vec::new();
    for (client, spans) in clients.iter().enumerate() {
        for (index, span) in spans.iter().take(per_client).enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::str(span.kind.label())),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(client as f64)),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(index as f64)),
                        (
                            "parent",
                            if span.parent == ROOT {
                                Json::Null
                            } else {
                                Json::Num(span.parent as f64)
                            },
                        ),
                        ("txn", Json::Num(span.txn as f64)),
                        ("committed", Json::Bool(span.committed)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64, parent: u32, committed: bool) -> Span {
        Span {
            kind,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 7,
            committed,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(SpanKind::TxnUpdate, 0, 1000, ROOT, true),
            span(SpanKind::Read, 10, 110, 0, false),
            span(SpanKind::Read, 120, 220, 0, false),
            span(SpanKind::Commit, 250, 950, 0, false),
            span(SpanKind::CommitInternal, 250, 450, 3, false),
            span(SpanKind::ExternalLag, 450, 950, 3, false),
            span(SpanKind::TxnReadOnly, 1000, 1300, ROOT, true),
            span(SpanKind::Read, 1010, 1210, 6, false),
            // Ends outside the window: left out with all its children.
            span(SpanKind::TxnUpdate, 1300, 5000, ROOT, true),
            span(SpanKind::Read, 1310, 1320, 8, false),
        ];
        let mut times = SpanTimes::default();
        times.add(&spans, 0, 2000);
        assert_eq!(times.update_self_ns, [100]);
        assert_eq!(times.read_only_self_ns, [100]);
        assert_eq!(times.update_read_ns, [100, 100]);
        assert_eq!(times.read_only_read_ns, [200]);
        assert_eq!(times.commit_internal_ns, [200]);
        assert_eq!(times.external_lag_ns, [500]);
        assert_eq!(times.update_attempt_total_ns, 1000);
        assert_eq!(times.update_read_total_ns, 200);
        assert_eq!(times.spans, 8);
        assert_eq!(p50_us(&[3000, 1000, 2000]), 2.0);
    }

    #[test]
    fn the_trace_file_is_valid_json_with_parents() {
        let spans = vec![
            span(SpanKind::TxnReadOnly, 0, 300, ROOT, true),
            span(SpanKind::Read, 10, 210, 0, false),
        ];
        let json = Json::parse(&chrome_trace(&[spans])).unwrap();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("read"));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
