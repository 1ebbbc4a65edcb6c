//! The closed-loop client: one transaction at a time, the next only after
//! the previous one completed. The same loop runs on an OS thread (wall
//! clock) and as a simulator task (virtual clock); `runtime::now()` reads
//! whichever clock applies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::api::{retry_pause, runtime, EngineSession, Key, Value};
use crate::gen::{TxnGen, MAX_TXN_KEYS};
use crate::procfs;

/// Attempts of one update transaction before it counts as failed.
pub const RETRY_CAP: u32 = 20;

/// What one attempt of a transaction came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt {
    Committed,
    /// Aborted by concurrency control; an update may be retried.
    Aborted,
    /// A call returned an error or timed out.
    Failed,
}

impl Attempt {
    /// The engine layer's sessions report errors and time-outs as aborts;
    /// an update that keeps failing exhausts its retry cap and is counted
    /// then.
    fn from_outcome(committed: bool) -> Self {
        if committed {
            Attempt::Committed
        } else {
            Attempt::Aborted
        }
    }
}

/// Executes whole transactions against the program under test.
pub trait TxnRunner {
    fn update(&mut self, keys: &[Key], writes: &[(Key, Value)]) -> Attempt;
    fn read_only(&mut self, keys: &[Key]) -> Attempt;
}

/// The untraced runner: the engine layer's whole-transaction sessions.
pub struct EngineRunner(pub Box<dyn EngineSession>);

impl TxnRunner for EngineRunner {
    fn update(&mut self, keys: &[Key], writes: &[(Key, Value)]) -> Attempt {
        Attempt::from_outcome(self.0.run_update(keys, writes).is_committed())
    }

    fn read_only(&mut self, keys: &[Key]) -> Attempt {
        Attempt::from_outcome(self.0.run_read_only(keys).is_committed())
    }
}

/// One completed client transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Completion time, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// First attempt to completion, retries and their pauses included
    /// (saturating at 4.29 s, far beyond any time-out of the program).
    pub latency_ns: u32,
    pub read_only: bool,
    pub failed: bool,
    pub attempts: u8,
}

/// When a client stops issuing transactions.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant of the client's clock.
    At(Instant),
    /// After this many transactions.
    After(usize),
}

/// Counts committed client transactions across all clients and reads the
/// resident set size at the moment the `target`-th one commits.
#[derive(Debug)]
pub struct RssMark {
    target: u64,
    committed: AtomicU64,
    rss_mib_bits: AtomicU64,
}

impl RssMark {
    /// `target` 0 never fires (the caller reads memory itself).
    pub fn new(target: u64) -> Self {
        RssMark {
            target,
            committed: AtomicU64::new(0),
            rss_mib_bits: AtomicU64::new(0),
        }
    }

    fn on_commit(&self) {
        if self.committed.fetch_add(1, Ordering::Relaxed) + 1 == self.target {
            self.rss_mib_bits
                .store(procfs::rss_mib().to_bits(), Ordering::Relaxed);
        }
    }

    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// The reading, if the mark was reached.
    pub fn rss_mib(&self) -> Option<f64> {
        match self.rss_mib_bits.load(Ordering::Relaxed) {
            0 => None,
            bits => Some(f64::from_bits(bits)),
        }
    }
}

/// A sample buffer allocated and touched before the run, so that recording
/// a sample never faults a page in or reallocates inside the window.
pub fn sample_buffer(capacity: usize) -> Vec<Sample> {
    let filler = Sample {
        end_ns: 0,
        latency_ns: 0,
        read_only: false,
        failed: false,
        attempts: 0,
    };
    let mut buffer = vec![filler; capacity];
    buffer.clear();
    buffer
}

/// Runs one closed-loop client until `stop`, appending to `samples`.
pub fn run_client<R: TxnRunner>(
    runner: &mut R,
    gen: &mut TxnGen,
    key_table: &[Key],
    epoch: Instant,
    stop: Stop,
    mark: &RssMark,
    samples: &mut Vec<Sample>,
) {
    let mut picks: Vec<u32> = Vec::with_capacity(MAX_TXN_KEYS);
    let mut keys: Vec<Key> = Vec::with_capacity(MAX_TXN_KEYS);
    let mut writes: Vec<(Key, Value)> = Vec::with_capacity(MAX_TXN_KEYS);
    let mut issued = 0usize;
    loop {
        match stop {
            Stop::At(deadline) if runtime::now() >= deadline => break,
            Stop::After(count) if issued >= count => break,
            _ => {}
        }
        issued += 1;
        let read_only = gen.next_txn(&mut picks);
        keys.clear();
        keys.extend(picks.iter().map(|&k| key_table[k as usize].clone()));
        if !read_only {
            writes.clear();
            for key in &keys {
                writes.push((key.clone(), Value::from_u64(gen.next_value())));
            }
        }
        let started = runtime::now();
        let mut attempts: u32 = 0;
        let committed = loop {
            attempts += 1;
            let attempt = if read_only {
                runner.read_only(&keys)
            } else {
                runner.update(&keys, &writes)
            };
            match attempt {
                Attempt::Committed => break true,
                // A read-only transaction must never abort; it is not
                // retried, it is a failed operation.
                Attempt::Aborted if !read_only && attempts < RETRY_CAP => retry_pause(attempts),
                Attempt::Aborted | Attempt::Failed => break false,
            }
        };
        let finished = runtime::now();
        samples.push(Sample {
            end_ns: finished.saturating_duration_since(epoch).as_nanos() as u64,
            latency_ns: u32::try_from(finished.saturating_duration_since(started).as_nanos())
                .unwrap_or(u32::MAX),
            read_only,
            failed: !committed,
            attempts: attempts as u8,
        });
        if committed {
            mark.on_commit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::key_table;
    use crate::gen::Mix;

    /// Aborts every update `aborts` times before committing it, and fails
    /// every read-only transaction when `fail_reads` is set.
    struct Scripted {
        aborts: u32,
        seen: u32,
        fail_reads: bool,
    }

    impl TxnRunner for Scripted {
        fn update(&mut self, _: &[Key], writes: &[(Key, Value)]) -> Attempt {
            assert_eq!(writes.len(), 2);
            if self.seen < self.aborts {
                self.seen += 1;
                Attempt::Aborted
            } else {
                self.seen = 0;
                Attempt::Committed
            }
        }

        fn read_only(&mut self, _: &[Key]) -> Attempt {
            if self.fail_reads {
                Attempt::Aborted
            } else {
                Attempt::Committed
            }
        }
    }

    const MIX: Mix = Mix {
        update_percent: 50,
        read_only_keys: 2,
        key_space: 4096,
        hot: None,
    };

    fn drive(mut runner: Scripted, count: usize, mark: &RssMark) -> Vec<Sample> {
        let keys = key_table();
        let mut samples = sample_buffer(count);
        let mut gen = TxnGen::new(1, 0, MIX);
        run_client(
            &mut runner,
            &mut gen,
            &keys,
            Instant::now(),
            Stop::After(count),
            mark,
            &mut samples,
        );
        samples
    }

    #[test]
    fn retried_updates_commit_and_count_their_attempts() {
        let mark = RssMark::new(10);
        let runner = Scripted {
            aborts: 2,
            seen: 0,
            fail_reads: false,
        };
        let samples = drive(runner, 40, &mark);
        assert_eq!(samples.len(), 40);
        assert!(samples.iter().all(|s| !s.failed));
        assert!(samples
            .iter()
            .all(|s| s.attempts == if s.read_only { 1 } else { 3 }));
        assert_eq!(mark.committed(), 40);
        assert!(mark.rss_mib().is_some(), "the 10th commit reads memory");
    }

    #[test]
    fn exhausted_retries_and_aborted_reads_are_failures() {
        let mark = RssMark::new(0);
        let runner = Scripted {
            aborts: u32::MAX,
            seen: 0,
            fail_reads: true,
        };
        let samples = drive(runner, 30, &mark);
        assert!(samples.iter().all(|s| s.failed));
        for s in &samples {
            let expected = if s.read_only { 1 } else { RETRY_CAP as u8 };
            assert_eq!(s.attempts, expected);
        }
        assert_eq!(mark.committed(), 0);
        assert_eq!(mark.rss_mib(), None);
    }
}
