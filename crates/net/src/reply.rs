//! One-shot / first-of-many reply channels.
//!
//! SSS read operations are sent "to all nodes that replicate the requested
//! key", and the transaction waits "for the fastest to answer" (paper
//! §III-C). The reply channel therefore supports *multiple* producers; the
//! consumer keeps the first reply and ignores the rest.

use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use sss_vclock::{runtime, NodeId};

/// Error returned by [`ReplyReceiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyTryRecvError {
    /// No reply has arrived yet.
    Empty,
    /// All senders were dropped without replying.
    Disconnected,
}

impl std::fmt::Display for ReplyTryRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplyTryRecvError::Empty => write!(f, "no reply available yet"),
            ReplyTryRecvError::Disconnected => write!(f, "all repliers disconnected"),
        }
    }
}

impl std::error::Error for ReplyTryRecvError {}

/// How a [`ReplyReceiver::gather`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gather {
    /// Every expected sender replied and every reply was accepted.
    Complete,
    /// A reply was refused by the caller; the gather stopped there.
    Rejected,
    /// The deadline passed, or every sender was dropped, before the
    /// expected number of distinct senders replied.
    TimedOut,
}

/// Sending half of a reply channel. Cloneable so that a request can be
/// fanned out to every replica of a key.
#[derive(Debug, Clone)]
pub struct ReplySender<T> {
    inner: Sender<T>,
}

impl<T> ReplySender<T> {
    /// Delivers a reply. Returns `false` if the requester already went away
    /// or the channel is full (a faster replica already answered and the
    /// buffer is exhausted) — both are benign for the protocol.
    pub fn send(&self, value: T) -> bool {
        let delivered = self.inner.try_send(value).is_ok();
        if delivered {
            if let Some(scheduler) = runtime::current() {
                scheduler.wake();
            }
        }
        delivered
    }
}

impl<T> Drop for ReplySender<T> {
    fn drop(&mut self) {
        // Under simulation a receiver may be parked waiting for either a
        // reply or disconnection; dropping the last sender is the
        // disconnect signal, so every sender drop wakes parked tasks.
        if let Some(scheduler) = runtime::current() {
            scheduler.wake();
        }
    }
}

/// Receiving half of a reply channel.
#[derive(Debug)]
pub struct ReplyReceiver<T> {
    inner: Receiver<T>,
}

impl<T> ReplyReceiver<T> {
    /// Waits for the first reply, up to `timeout`.
    ///
    /// Returns `None` on timeout or if every sender was dropped without
    /// replying (e.g. the target node was shut down).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        if let Some(scheduler) = runtime::current() {
            // Simulated: poll-and-park against the virtual clock instead of
            // blocking the OS thread. Senders and sender drops wake us.
            let deadline = scheduler.now() + timeout;
            loop {
                match self.inner.try_recv() {
                    Ok(v) => return Some(v),
                    Err(TryRecvError::Disconnected) => return None,
                    Err(TryRecvError::Empty) => {}
                }
                if scheduler.now() >= deadline {
                    return None;
                }
                scheduler.park(Some(deadline));
            }
        }
        match self.inner.recv_timeout(timeout) {
            Ok(v) => Some(v),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Waits for the first reply without a timeout. Returns `None` if all
    /// senders disconnected without replying.
    pub fn recv(&self) -> Option<T> {
        if let Some(scheduler) = runtime::current() {
            loop {
                match self.inner.try_recv() {
                    Ok(v) => return Some(v),
                    Err(TryRecvError::Disconnected) => return None,
                    Err(TryRecvError::Empty) => scheduler.park(None),
                }
            }
        }
        self.inner.recv().ok()
    }

    /// Collects the first reply of each of `expected` distinct senders,
    /// waiting at most `timeout` in total (virtual time under a simulation
    /// scheduler).
    ///
    /// `sender` names who a reply is from, or `None` for a reply that does
    /// not belong to this request (a stale answer to an earlier one), which
    /// is skipped. A sender's second reply is skipped too: the network may
    /// duplicate messages, and counting replies alone could reach `expected`
    /// while a slower node's answer was still outstanding. `accept` consumes
    /// each counted reply and returns `false` to stop early (a negative
    /// vote).
    pub fn gather(
        &self,
        expected: usize,
        timeout: Duration,
        sender: impl Fn(&T) -> Option<NodeId>,
        mut accept: impl FnMut(T) -> bool,
    ) -> Gather {
        let deadline = runtime::now() + timeout;
        let mut seen: Vec<NodeId> = Vec::with_capacity(expected);
        while seen.len() < expected {
            let remaining = deadline.saturating_duration_since(runtime::now());
            let Some(reply) = self.recv_timeout(remaining) else {
                return Gather::TimedOut;
            };
            match sender(&reply) {
                Some(from) if !seen.contains(&from) => seen.push(from),
                _ => continue,
            }
            if !accept(reply) {
                return Gather::Rejected;
            }
        }
        Gather::Complete
    }

    /// Non-blocking poll for a reply.
    pub fn try_recv(&self) -> Result<T, ReplyTryRecvError> {
        self.inner.try_recv().map_err(|e| match e {
            TryRecvError::Empty => ReplyTryRecvError::Empty,
            TryRecvError::Disconnected => ReplyTryRecvError::Disconnected,
        })
    }
}

/// Creates a reply channel able to buffer up to `capacity` replies.
///
/// `capacity` is typically the number of replicas contacted; extra replies
/// beyond the first are simply never read.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn reply_channel<T>(capacity: usize) -> (ReplySender<T>, ReplyReceiver<T>) {
    assert!(capacity > 0, "reply channel capacity must be non-zero");
    let (tx, rx) = bounded(capacity);
    (ReplySender { inner: tx }, ReplyReceiver { inner: rx })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reply_wins() {
        let (tx, rx) = reply_channel(3);
        let tx2 = tx.clone();
        assert!(tx.send("fast"));
        assert!(tx2.send("slow"));
        assert_eq!(rx.recv(), Some("fast"));
    }

    #[test]
    fn timeout_when_nobody_replies() {
        let (_tx, rx) = reply_channel::<u8>(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
    }

    #[test]
    fn disconnected_when_all_senders_dropped() {
        let (tx, rx) = reply_channel::<u8>(1);
        drop(tx);
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.try_recv(), Err(ReplyTryRecvError::Disconnected));
    }

    #[test]
    fn try_recv_reports_empty_then_value() {
        let (tx, rx) = reply_channel(1);
        assert_eq!(rx.try_recv(), Err(ReplyTryRecvError::Empty));
        tx.send(7u8);
        assert_eq!(rx.try_recv(), Ok(7));
    }

    #[test]
    fn sends_beyond_capacity_are_dropped_silently() {
        let (tx, rx) = reply_channel(1);
        assert!(tx.send(1));
        assert!(!tx.send(2));
        assert_eq!(rx.recv(), Some(1));
    }

    /// `(sender, positive?)` replies, gathered by sender.
    fn gather_votes(rx: &ReplyReceiver<(usize, bool)>, expected: usize) -> (Gather, Vec<usize>) {
        gather_votes_within(rx, expected, Duration::from_millis(20))
    }

    fn gather_votes_within(
        rx: &ReplyReceiver<(usize, bool)>,
        expected: usize,
        timeout: Duration,
    ) -> (Gather, Vec<usize>) {
        let mut accepted = Vec::new();
        let outcome = rx.gather(
            expected,
            timeout,
            |(from, _)| Some(NodeId(*from)),
            |(from, ok)| {
                accepted.push(from);
                ok
            },
        );
        (outcome, accepted)
    }

    #[test]
    fn gather_counts_each_sender_once_and_skips_foreign_replies() {
        let (tx, rx) = reply_channel(4);
        for vote in [(0, true), (0, false), (1, true)] {
            tx.send(vote);
        }
        // The duplicate from node 0 (even a negative one) is skipped, so two
        // distinct senders complete the gather.
        assert_eq!(gather_votes(&rx, 2), (Gather::Complete, vec![0, 1]));

        let (tx, rx) = reply_channel(2);
        tx.send((7, true));
        tx.send((1, true));
        let outcome = rx.gather(
            1,
            Duration::from_millis(20),
            |(from, _)| (*from != 7).then_some(NodeId(*from)),
            |_| true,
        );
        assert_eq!(outcome, Gather::Complete, "the stale reply is not counted");
    }

    #[test]
    fn gather_stops_at_the_first_rejecting_reply() {
        let (tx, rx) = reply_channel(3);
        for vote in [(0, true), (1, false), (2, true)] {
            tx.send(vote);
        }
        assert_eq!(gather_votes(&rx, 3), (Gather::Rejected, vec![0, 1]));
        assert_eq!(rx.try_recv(), Ok((2, true)), "the rest stays unread");
    }

    #[test]
    fn gather_times_out_on_a_missing_sender_and_on_dropped_senders() {
        let (tx, rx) = reply_channel(2);
        tx.send((0, true));
        let started = std::time::Instant::now();
        assert_eq!(gather_votes(&rx, 2), (Gather::TimedOut, vec![0]));
        assert!(started.elapsed() >= Duration::from_millis(20));

        // A disconnected channel ends the gather at once, not at the
        // deadline.
        drop(tx);
        let long = Duration::from_secs(60);
        let started = std::time::Instant::now();
        assert_eq!(gather_votes_within(&rx, 1, long).0, Gather::TimedOut);
        assert!(started.elapsed() < long);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = reply_channel::<u8>(0);
    }
}
