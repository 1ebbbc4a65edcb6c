//! A simulated run: the same closed-loop clients as cooperative tasks of
//! the repository's deterministic simulator. Time is virtual, so CPU costs
//! nothing and latency is message hops plus protocol timers; the schedule
//! seed selects the interleaving and the same seed replays bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::api::{self, runtime, Key, SimRuntime, TransactionEngine};
use crate::client::{run_client, RssMark, Sample, Stop, TxnRunner};
use crate::gen::{Mix, TxnGen};

/// The work of one schedule.
#[derive(Debug, Clone, Copy)]
pub struct SchedulePlan {
    /// Seed of the generated inputs.
    pub seed: u64,
    pub mix: Mix,
    pub clients_per_node: usize,
    pub txns_per_client: usize,
}

/// What one schedule observed. `before` and `after` are the caller's
/// counter snapshots around the clients' work.
pub struct Schedule<R, T> {
    /// Every client's samples in completion order (virtual nanoseconds
    /// since the clients started).
    pub samples: Vec<Sample>,
    /// Virtual nanoseconds from the clients' start to the last completion.
    pub window_ns: u64,
    pub before: T,
    pub after: T,
    /// The runners, in client order.
    pub runners: Vec<R>,
    /// Wall-clock seconds to build the cluster, to populate it, to run the
    /// clients, and to shut the cluster down.
    pub build_wall_s: f64,
    pub populate_wall_s: f64,
    pub clients_wall_s: f64,
    pub teardown_wall_s: f64,
}

/// What the clients hand back: client index, runner, samples.
type Finished<R> = Arc<Mutex<Vec<(usize, R, Vec<Sample>)>>>;

impl<R, T> Schedule<R, T> {
    /// Build + populate + shut down, in wall-clock seconds.
    pub fn setup_wall_s(&self) -> f64 {
        self.build_wall_s + self.populate_wall_s + self.teardown_wall_s
    }
}

/// Builds and populates the cluster, runs `nodes × clients_per_node`
/// closed-loop clients for `txns_per_client` transactions each and shuts the
/// cluster down. `make_runner(engine, node, epoch)` builds a client's runner
/// inside the simulation, where `epoch` is the virtual instant the clients
/// start.
pub fn run_schedule<E, R, T>(
    build: impl FnOnce() -> (Arc<SimRuntime>, Arc<E>),
    key_table: &Arc<Vec<Key>>,
    plan: SchedulePlan,
    make_runner: impl Fn(&E, usize, Instant) -> R + Send + 'static,
    snapshot: impl Fn(&E) -> T,
) -> Schedule<R, T>
where
    E: TransactionEngine + 'static,
    R: TxnRunner + Send + 'static,
{
    let build_started = Instant::now();
    let (sim, engine) = build();
    let build_wall_s = build_started.elapsed().as_secs_f64();
    let populate_started = Instant::now();
    {
        let engine = Arc::clone(&engine);
        let key_table = Arc::clone(key_table);
        sim.block_on("populate", move || {
            api::populate(&mut *engine.session(0), &key_table)
        });
    }
    // Frozen at quiescence, so nothing moves while the host takes the
    // snapshot and spawns the driver.
    sim.freeze();
    let populate_wall_s = populate_started.elapsed().as_secs_f64();
    let before = snapshot(&engine);

    let clients = engine.nodes() * plan.clients_per_node;
    let finished: Finished<R> = Arc::new(Mutex::new(Vec::new()));
    let clients_started = Instant::now();
    {
        let engine = Arc::clone(&engine);
        let key_table = Arc::clone(key_table);
        let finished = Arc::clone(&finished);
        // The driver task spawns the clients from inside the simulation,
        // which keeps the spawn order (and so the seeded interleaving)
        // deterministic.
        sim.block_on("clients", move || {
            let scheduler = runtime::current().expect("the driver runs on a simulation task");
            let epoch = runtime::now();
            let remaining = Arc::new(AtomicUsize::new(clients));
            for client in 0..clients {
                let mut runner = make_runner(&engine, client / plan.clients_per_node, epoch);
                let key_table = Arc::clone(&key_table);
                let finished = Arc::clone(&finished);
                let remaining = Arc::clone(&remaining);
                scheduler.spawn_task(
                    format!("client-{client}"),
                    false,
                    Box::new(move || {
                        let mut gen = TxnGen::new(plan.seed, client as u64, plan.mix);
                        let mut samples = Vec::with_capacity(plan.txns_per_client);
                        run_client(
                            &mut runner,
                            &mut gen,
                            &key_table,
                            epoch,
                            Stop::After(plan.txns_per_client),
                            &RssMark::new(0),
                            &mut samples,
                        );
                        finished
                            .lock()
                            .expect("no client panicked holding the results")
                            .push((client, runner, samples));
                        remaining.fetch_sub(1, Ordering::SeqCst);
                        if let Some(scheduler) = runtime::current() {
                            scheduler.wake();
                        }
                    }),
                );
            }
            while remaining.load(Ordering::SeqCst) > 0 {
                scheduler.park(None);
            }
        });
    }
    sim.wait_quiescent();
    let clients_wall_s = clients_started.elapsed().as_secs_f64();
    let after = snapshot(&engine);

    let mut finished = std::mem::take(
        &mut *finished
            .lock()
            .expect("no client panicked holding the results"),
    );
    finished.sort_by_key(|(client, _, _)| *client);
    let mut samples = Vec::with_capacity(clients * plan.txns_per_client);
    let mut runners = Vec::with_capacity(clients);
    for (_, runner, client_samples) in finished {
        samples.extend(client_samples);
        runners.push(runner);
    }
    samples.sort_by_key(|s| s.end_ns);

    let teardown_started = Instant::now();
    drop(engine);
    sim.wait_quiescent();
    Schedule {
        window_ns: samples.last().map_or(1, |s| s.end_ns + 1),
        samples,
        before,
        after,
        runners,
        build_wall_s,
        populate_wall_s,
        clients_wall_s,
        teardown_wall_s: teardown_started.elapsed().as_secs_f64(),
    }
}
