//! A threaded run: `CLIENT_THREADS` closed-loop clients on OS threads for a
//! warm-up that is discarded and then the measured window.

use std::time::{Duration, Instant};

use crate::api::Key;
use crate::client::{run_client, sample_buffer, RssMark, Sample, Stop, TxnRunner};
use crate::gen::{Mix, TxnGen};
use crate::procfs::{self, CpuTime};

/// Generous bound on one client's transactions per second, used to size
/// the preallocated sample buffers.
const SAMPLES_PER_SECOND: usize = 10_000;

#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    pub seed: u64,
    pub mix: Mix,
    /// Load that is run and discarded before the window: the host's CPU
    /// allocation settles and the program's bounded logs fill, so the
    /// window measures the steady state.
    pub warm_up: Duration,
    pub measure: Duration,
    /// See [`RssMark`]; counts from the start of the warm-up.
    pub rss_mark: u64,
}

/// What a window observed. `before` and `after` are the caller's counter
/// snapshots taken at the window's two edges.
#[derive(Debug)]
pub struct WindowData<T> {
    pub window_ns: u64,
    /// Transactions completed inside the window, `end_ns` relative to its
    /// start, in completion order.
    pub samples: Vec<Sample>,
    pub before: T,
    pub after: T,
    /// Process CPU time at the window's start and after each second of it.
    pub cpu: Vec<CpuTime>,
    /// Memory at the mark, if the mark was reached before the run ended.
    pub rss_at_mark_mib: Option<f64>,
    /// Client transactions committed since population, warm-up included.
    pub committed_since_populate: u64,
}

/// Runs `clients` closed-loop clients through the warm-up and the window.
/// `make_runner(client, epoch)` builds client `i`'s runner (colocated with
/// node `i`); the runners are handed back in client order.
pub fn run_window<R: TxnRunner + Send, T>(
    clients: usize,
    make_runner: impl Fn(usize, Instant) -> R,
    key_table: &[Key],
    snapshot: impl Fn() -> T,
    plan: &WindowPlan,
) -> (WindowData<T>, Vec<R>) {
    let total = plan.warm_up + plan.measure;
    let capacity = SAMPLES_PER_SECOND * (total.as_secs() as usize + 1);
    let mut buffers: Vec<Vec<Sample>> = (0..clients).map(|_| sample_buffer(capacity)).collect();
    let mark = RssMark::new(plan.rss_mark);
    let epoch = Instant::now();
    let mut runners: Vec<R> = (0..clients)
        .map(|client| make_runner(client, epoch))
        .collect();
    let window_start = epoch + plan.warm_up;
    let deadline = epoch + total;
    let mut cpu = Vec::with_capacity(plan.measure.as_secs() as usize + 2);

    let (before, after) = std::thread::scope(|scope| {
        for (client, (runner, buffer)) in runners.iter_mut().zip(buffers.iter_mut()).enumerate() {
            let mut gen = TxnGen::new(plan.seed, client as u64, plan.mix);
            let mark = &mark;
            scope.spawn(move || {
                run_client(
                    runner,
                    &mut gen,
                    key_table,
                    epoch,
                    Stop::At(deadline),
                    mark,
                    buffer,
                );
            });
        }
        sleep_until(window_start);
        let before = snapshot();
        cpu.push(procfs::cpu_time());
        let mut next = window_start + Duration::from_secs(1);
        while next <= deadline {
            sleep_until(next);
            cpu.push(procfs::cpu_time());
            next += Duration::from_secs(1);
        }
        sleep_until(deadline);
        (before, snapshot())
    });

    let warm_ns = plan.warm_up.as_nanos() as u64;
    let window_ns = plan.measure.as_nanos() as u64;
    let mut samples: Vec<Sample> = buffers
        .iter()
        .flatten()
        .filter(|s| s.end_ns >= warm_ns && s.end_ns < warm_ns + window_ns)
        .map(|s| Sample {
            end_ns: s.end_ns - warm_ns,
            ..*s
        })
        .collect();
    samples.sort_by_key(|s| s.end_ns);
    let data = WindowData {
        window_ns,
        samples,
        before,
        after,
        cpu,
        rss_at_mark_mib: mark.rss_mib(),
        committed_since_populate: mark.committed(),
    };
    (data, runners)
}

fn sleep_until(instant: Instant) {
    let now = Instant::now();
    if instant > now {
        std::thread::sleep(instant - now);
    }
}
