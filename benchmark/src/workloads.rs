//! The four workloads. `BENCHMARK.json` repeats the names and the reasons;
//! a unit test keeps the two in step.

use crate::api::{GateShape, NetProfile, KEY_SPACE};
use crate::gen::{HotSet, Mix};
use std::time::Duration;

/// How a workload is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// OS threads and the wall clock, `CLIENT_THREADS` closed-loop clients.
    Threaded,
    /// The deterministic simulator: virtual time, fixed work.
    Simulated,
}

/// Closed-loop client threads of a threaded run, colocated with nodes 0
/// and 1.
pub const CLIENT_THREADS: usize = 2;

/// One-way message delay of the simulated workload: 50 µs plus up to 10 µs
/// of seeded jitter. The jitter is what makes two seeds read differently in
/// virtual time; the same seed still replays bit for bit.
pub const SIM_DELAY: NetProfile = NetProfile::Uniform {
    base: Duration::from_micros(50),
    jitter: Duration::from_micros(10),
};
/// Mean one-way delay of [`SIM_DELAY`] in microseconds (a "hop").
pub const SIM_HOP_US: f64 = 55.0;
/// Virtual clients per node of a simulated run: the concurrency at which
/// epoch-grouped confirmation groups.
pub const SIM_CLIENTS_PER_NODE: usize = 8;
/// Schedules (simulator seeds) a simulated run takes its medians over.
pub const SIM_SCHEDULES: usize = 5;
/// Transactions each virtual client commits per schedule. The simulator
/// hands its single turn from OS thread to OS thread, which costs about
/// 2.7 ms of wall time per transaction at 32 clients on this host, so the
/// simulated work is sized to the wall-clock budget of a run (8 000
/// transactions plus the replay: 27 s).
pub const SIM_TXNS_PER_CLIENT: usize = 50;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub runtime: Runtime,
    pub mix: Mix,
    /// Memory is read when this many client transactions have committed
    /// since population (equal work, not equal time). Simulated runs do
    /// fixed work and read it at the end.
    pub rss_mark: u64,
}

const fn uniform(update_percent: u32, read_only_keys: usize) -> Mix {
    Mix {
        update_percent,
        read_only_keys,
        key_space: KEY_SPACE as u32,
        hot: None,
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "commit_path",
        why: "90% 2-key updates, 2 threads: the update pipeline (prepare, commit queue, confirmation linger) and net hand-offs; storage and the read path idle",
        runtime: Runtime::Threaded,
        mix: uniform(90, 2),
        rss_mark: 8_000,
    },
    Workload {
        name: "long_reads",
        why: "80% 16-key read-only, 2 threads, CPU-bound: the read path (ReadRequests, MvStore chains, vector clocks, NLog, snapshot queues) that commit_path bypasses",
        runtime: Runtime::Threaded,
        mix: uniform(20, 16),
        rss_mark: 16_000,
    },
    Workload {
        name: "hot_keys",
        why: "50/50 mix, 90% of picks on 4 hot keys: lock contention, validation aborts and retries, parked reads; where abort-free reads separate from the baselines",
        runtime: Runtime::Threaded,
        mix: Mix {
            update_percent: 50,
            read_only_keys: 4,
            key_space: KEY_SPACE as u32,
            hot: Some(HotSet {
                keys: 4,
                percent: 90,
            }),
        },
        rss_mark: 10_000,
    },
    Workload {
        name: "net_delay",
        why: "simulated, virtual time, 55 us hops, 32 clients, fixed work: latency is message rounds plus protocol timers, so CPU-only changes must leave it unchanged",
        runtime: Runtime::Simulated,
        mix: uniform(50, 2),
        rss_mark: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The recorded scenario of the same shape that the correctness gate
    /// replays through the repository's own scenario runner and checker
    /// (600 transactions on threads, 608 simulated). The runner knows
    /// uniform keys only, so the hot-key workload is replayed over a key
    /// space of 8.
    pub fn gate_shape(&self) -> GateShape {
        let simulated = self.runtime == Runtime::Simulated;
        GateShape {
            name: self.name,
            clients_per_node: if simulated { SIM_CLIENTS_PER_NODE } else { 1 },
            ops_per_client: if simulated { 19 } else { 150 },
            keys: if self.mix.hot.is_some() { 8 } else { KEY_SPACE },
            read_only_percent: (100 - self.mix.update_percent) as u8,
            read_only_keys: self.mix.read_only_keys,
            delay: if simulated {
                SIM_DELAY
            } else {
                NetProfile::Instant
            },
        }
    }
}
