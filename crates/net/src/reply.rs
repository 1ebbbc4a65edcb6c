//! One-shot / first-of-many reply channels.
//!
//! SSS read operations are sent "to all nodes that replicate the requested
//! key", and the transaction waits "for the fastest to answer" (paper
//! §III-C). The reply channel therefore supports *multiple* producers; the
//! consumer keeps the first reply and ignores the rest.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sss_vclock::runtime::{self, Signal};
use sss_vclock::NodeId;

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

/// What the two halves share: a bounded queue that knows who is still
/// attached to it.
#[derive(Debug)]
struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    capacity: usize,
    /// Notified on every delivered reply and on every sender drop; only the
    /// receiver waits on it. Built without a scheduler handle: requesters
    /// and repliers both run on simulation tasks (or both on threads).
    changed: Signal,
}

#[derive(Debug)]
struct ChannelState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

/// Sending half of a reply channel. Cloneable so that a request can be
/// fanned out to every replica of a key.
#[derive(Debug)]
pub struct ReplySender<T> {
    channel: Arc<Channel<T>>,
}

impl<T> ReplySender<T> {
    /// Delivers a reply. Returns `false` if the requester already went away
    /// or the channel is full (a faster replica already answered and the
    /// buffer is exhausted) — both are benign for the protocol. Never
    /// blocks.
    pub fn send(&self, value: T) -> bool {
        {
            let mut state = self.channel.state.lock();
            if !state.receiver_alive || state.queue.len() >= self.channel.capacity {
                return false;
            }
            state.queue.push_back(value);
        }
        self.channel.changed.notify_one();
        true
    }
}

impl<T> Clone for ReplySender<T> {
    fn clone(&self) -> Self {
        self.channel.state.lock().senders += 1;
        ReplySender {
            channel: Arc::clone(&self.channel),
        }
    }
}

impl<T> Drop for ReplySender<T> {
    fn drop(&mut self) {
        self.channel.state.lock().senders -= 1;
        // Dropping the last sender is the disconnect the receiver may be
        // waiting for. Every drop notifies, not only the last: under the
        // simulator a notify lets every parked task re-check, and these
        // are part of the recorded interleavings.
        self.channel.changed.notify_all();
    }
}

/// Receiving half of a reply channel.
#[derive(Debug)]
pub struct ReplyReceiver<T> {
    channel: Arc<Channel<T>>,
}

impl<T> Drop for ReplyReceiver<T> {
    fn drop(&mut self) {
        self.channel.state.lock().receiver_alive = false;
    }
}

impl<T> ReplyReceiver<T> {
    /// Waits for the first reply, up to `timeout` (virtual time under a
    /// simulation scheduler).
    ///
    /// Returns `None` on timeout or if every sender was dropped without
    /// replying (e.g. the target node was shut down).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        self.recv_until(Some(runtime::now() + timeout))
    }

    /// Waits for the first reply without a timeout. Returns `None` if all
    /// senders disconnected without replying.
    pub fn recv(&self) -> Option<T> {
        self.recv_until(None)
    }

    fn recv_until(&self, deadline: Option<Instant>) -> Option<T> {
        let mut state = self.channel.state.lock();
        let mut timed_out = false;
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Some(value);
            }
            // Checked after the queue on every round, so a reply or a
            // disconnect that raced with the deadline still counts.
            if state.senders == 0 || timed_out {
                return None;
            }
            timed_out = self.channel.changed.wait(&mut state, deadline);
        }
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
        let deadline = Some(runtime::now() + timeout);
        let mut seen: Vec<NodeId> = Vec::with_capacity(expected);
        while seen.len() < expected {
            let Some(reply) = self.recv_until(deadline) else {
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
        let mut state = self.channel.state.lock();
        match state.queue.pop_front() {
            Some(value) => Ok(value),
            None if state.senders == 0 => Err(ReplyTryRecvError::Disconnected),
            None => Err(ReplyTryRecvError::Empty),
        }
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
    let channel = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        capacity,
        changed: Signal::default(),
    });
    let sender = ReplySender {
        channel: Arc::clone(&channel),
    };
    (sender, ReplyReceiver { channel })
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

    #[test]
    fn a_full_channel_refuses_without_blocking() {
        let (tx, rx) = reply_channel(1);
        assert!(tx.send(1));
        // Returns at all: a blocking send would hang here, nobody receives.
        assert!(!tx.send(2));
        assert_eq!(rx.recv(), Some(1));
        assert!(tx.send(3), "a received reply frees its slot");
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn a_send_after_the_receiver_is_dropped_returns_false() {
        let (tx, rx) = reply_channel(2);
        let clone = tx.clone();
        drop(rx);
        assert!(!tx.send(1));
        assert!(!clone.send(2));
    }

    #[test]
    fn recv_returns_none_once_the_last_cloned_sender_drops() {
        let (tx, rx) = reply_channel::<u8>(2);
        let clones = [tx.clone(), tx.clone()];
        let changed = Arc::clone(&rx.channel);
        let receiver = std::thread::spawn(move || rx.recv());
        let blocked = || {
            let deadline = Instant::now() + Duration::from_secs(5);
            while changed.changed.waiting() == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            changed.changed.waiting() == 1
        };
        // A dropped sender wakes the receiver, which goes back to waiting
        // for as long as another sender could still reply.
        assert!(blocked());
        drop(tx);
        let [first, last] = clones;
        drop(first);
        assert!(blocked());
        assert!(!receiver.is_finished());
        drop(last);
        assert_eq!(receiver.join().unwrap(), None);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = reply_channel(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), None);
        let waiting = Arc::clone(&rx.channel);
        let replier = std::thread::spawn(move || {
            // Reply only once the receiver is blocked, so the wake-up path
            // is the one exercised.
            while waiting.changed.waiting() == 0 {
                std::thread::yield_now();
            }
            assert!(tx.send(7u8));
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Some(7));
        replier.join().unwrap();
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
