//! The runtime half of the subsystem: turns a [`FaultPlan`] into transport
//! interposition and scheduled pause/resume and crash/restart actions.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sss_net::{FaultInterposer, NodeId, PauseControl, SendPlan};
use sss_vclock::runtime::Timers;

use crate::plan::FaultPlan;

/// Callback the cluster attaches so crash-stop windows reach it: invoked
/// with `(node, true)` when a scheduled crash begins and `(node, false)`
/// when the node restarts. The injector itself only tracks *which* nodes
/// are down; purging mailboxes, wiping volatile protocol state and running
/// recovery is the cluster's job.
pub type CrashHook = Arc<dyn Fn(usize, bool) + Send + Sync>;

/// A scheduled fault action. Variant order is the tie-break for events at
/// the same instant on the same node: recoveries (resume/restart) sort
/// before outages (pause/crash) so back-to-back windows hand over cleanly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum FaultEvent {
    Resume,
    Restart,
    Pause,
    Crash,
}

/// What the scheduled window events act on; shared with the closures
/// waiting on the executor.
struct Targets {
    /// `false` once disarmed. Held across each firing, so
    /// [`FaultInjector::disarm`] waits out an event in flight and every
    /// later one is a no-op: a pause can never land after the resume-all.
    live: Mutex<bool>,
    controls: Mutex<Vec<Arc<PauseControl>>>,
    /// Cluster-attached callback for crash/restart events; `None` until the
    /// cluster registers one, in which case crash windows only mark the
    /// node in `crashed` (useful for injector-level tests).
    crash_hook: Mutex<Option<CrashHook>>,
    /// Nodes currently inside a crash window. `disarm` restarts the
    /// leftovers before it resumes pause gates, so an abandoned scenario
    /// never leaves a node permanently dead.
    crashed: Mutex<HashSet<usize>>,
}

impl Targets {
    /// Fires one scheduled fault action against the attached controls/hook.
    fn fire(&self, node: usize, event: FaultEvent) {
        let live = self.live.lock();
        if !*live {
            return;
        }
        match event {
            FaultEvent::Pause => {
                if let Some(control) = self.controls.lock().get(node) {
                    control.pause();
                }
            }
            FaultEvent::Resume => {
                if let Some(control) = self.controls.lock().get(node) {
                    control.resume();
                }
            }
            FaultEvent::Crash => {
                self.crashed.lock().insert(node);
                self.call_hook(node, true);
            }
            FaultEvent::Restart => {
                self.crashed.lock().remove(&node);
                self.call_hook(node, false);
            }
        }
    }

    fn call_hook(&self, node: usize, down: bool) {
        // Cloned out of the lock: the hook purges mailboxes and may take
        // its time; holding the hook lock would serialize it against a
        // cluster attaching one.
        let hook = self.crash_hook.lock().clone();
        if let Some(hook) = hook {
            hook(node, down);
        }
    }
}

/// Executes a [`FaultPlan`] against a running cluster.
///
/// The injector plays two roles:
///
/// * as a [`FaultInterposer`] it is consulted by the transport on every
///   send and translates the plan's partitions and per-link faults into
///   [`SendPlan`]s (extra delays and duplicated copies);
/// * once [`FaultInjector::arm`]ed, the plan's pause and crash windows are
///   events on the cluster's [`Timers`] (virtual-time events under the
///   simulator) that flip the [`PauseControl`]s and call the [`CrashHook`]
///   the cluster attached.
///
/// Faults are inert until `arm` is called, so a harness can boot a cluster
/// and pre-populate its key space fault-free, then arm the plan for the
/// measured window. [`FaultInjector::disarm`] (also run on drop and by the
/// cluster's shutdown) cancels the rest of the plan and resumes every
/// paused node.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Set exactly once by [`FaultInjector::arm`]; reads on the send hot
    /// path are lock-free after initialization.
    armed_at: std::sync::OnceLock<Instant>,
    links: Mutex<HashMap<(usize, usize), StdRng>>,
    targets: Arc<Targets>,
    /// The executor the windows run on: the cluster's, lent through
    /// [`FaultInterposer::attach`], or one of the injector's own when it is
    /// armed without ever being attached.
    timers: Mutex<Option<Arc<Timers>>>,
    /// Tokens of the scheduled window events, so disarm can cancel the
    /// remainder of the plan.
    scheduled: Mutex<Vec<u64>>,
}

impl FaultInjector {
    /// Creates an inert injector for `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            armed_at: std::sync::OnceLock::new(),
            links: Mutex::new(HashMap::new()),
            targets: Arc::new(Targets {
                live: Mutex::new(true),
                controls: Mutex::new(Vec::new()),
                crash_hook: Mutex::new(None),
                crashed: Mutex::new(HashSet::new()),
            }),
            timers: Mutex::new(None),
            scheduled: Mutex::new(Vec::new()),
        })
    }

    /// The plan this injector executes.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attaches the per-node pause gates of a booted cluster, indexed by
    /// node. Called by the cluster during start-up; scheduled pauses of
    /// nodes without an attached control are ignored.
    pub fn attach_pause_controls(&self, controls: Vec<Arc<PauseControl>>) {
        *self.targets.controls.lock() = controls;
    }

    /// Attaches the cluster's crash/restart callback. Called by the cluster
    /// during start-up, before [`FaultInjector::arm`]; crash windows fired
    /// without a hook only update the injector's crashed-node set.
    pub fn attach_crash_hook(&self, hook: CrashHook) {
        *self.targets.crash_hook.lock() = Some(hook);
    }

    /// `true` while `node` is inside a scheduled crash window (crashed and
    /// not yet restarted).
    pub fn is_node_crashed(&self, node: usize) -> bool {
        self.targets.crashed.lock().contains(&node)
    }

    /// Arms the plan: scheduled windows are measured from this instant and
    /// probabilistic faults start firing. Idempotent — only the first call
    /// sets the epoch.
    pub fn arm(&self) {
        let timers = Arc::clone(
            self.timers
                .lock()
                .get_or_insert_with(|| Arc::new(Timers::new(None))),
        );
        let epoch = timers.now();
        if self.armed_at.set(epoch).is_err() {
            return;
        }
        // Coalesce overlapping pause windows per node before flattening to
        // pause/resume events: the gate is a boolean, so the end of an
        // inner window must not resume a node whose outer window is still
        // active.
        let mut per_node: HashMap<usize, Vec<(Duration, Duration)>> = HashMap::new();
        for pause in &self.plan.pauses {
            per_node
                .entry(pause.node)
                .or_default()
                .push((pause.start, pause.start + pause.duration));
        }
        let mut events: Vec<(Duration, usize, FaultEvent)> = Vec::new();
        for (node, mut windows) in per_node {
            windows.sort();
            let mut merged: Vec<(Duration, Duration)> = Vec::new();
            for (start, end) in windows {
                match merged.last_mut() {
                    Some((_, last_end)) if start <= *last_end => {
                        *last_end = (*last_end).max(end);
                    }
                    _ => merged.push((start, end)),
                }
            }
            for (start, end) in merged {
                events.push((start, node, FaultEvent::Pause));
                events.push((end, node, FaultEvent::Resume));
            }
        }
        // Crash windows always restart (the plan builder enforces a
        // non-zero duration), so each contributes exactly one crash and one
        // restart event. Unlike pauses they are not coalesced: overlapping
        // crash windows on one node are a plan-authoring error.
        for crash in &self.plan.crashes {
            events.push((crash.start, crash.node, FaultEvent::Crash));
            events.push((crash.restarts_at(), crash.node, FaultEvent::Restart));
        }
        // The executor runs same-instant events in scheduling order, so
        // this sort fixes their order.
        events.sort_by_key(|(at, node, event)| (*at, *node, *event));
        let mut scheduled = self.scheduled.lock();
        for (at, node, event) in events {
            let targets = Arc::clone(&self.targets);
            scheduled.push(timers.schedule(epoch + at, move || targets.fire(node, event)));
        }
    }

    /// `true` once the plan has been armed.
    pub fn is_armed(&self) -> bool {
        self.armed_at.get().is_some()
    }

    /// Cancels the remaining windows and resumes every attached node.
    /// Idempotent; also invoked on drop and by cluster shutdown, so a
    /// harness abandoned mid-scenario never leaves nodes paused.
    pub fn disarm(&self) {
        *self.targets.live.lock() = false;
        if let Some(timers) = &*self.timers.lock() {
            for token in self.scheduled.lock().drain(..) {
                timers.cancel(token);
            }
        }
        // Restart nodes whose restart event was cancelled above (or whose
        // window outlived the scenario) *before* resuming pause gates, so a
        // node never comes back paused-but-alive with a purged mailbox.
        let mut leftover: Vec<usize> = self.targets.crashed.lock().drain().collect();
        leftover.sort_unstable();
        for node in leftover {
            self.targets.call_hook(node, false);
        }
        for control in self.targets.controls.lock().iter() {
            control.resume();
        }
    }

    fn link_rng_seed(&self, from: usize, to: usize) -> u64 {
        self.plan
            .seed
            .wrapping_add(((from as u64) << 32 | to as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

impl Drop for FaultInjector {
    fn drop(&mut self) {
        self.disarm();
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("armed", &self.is_armed())
            .finish()
    }
}

impl FaultInterposer for FaultInjector {
    fn attach(&self, pause_controls: Vec<Arc<PauseControl>>, timers: &Arc<Timers>) {
        *self.timers.lock() = Some(Arc::clone(timers));
        self.attach_pause_controls(pause_controls);
    }

    fn plan(&self, from: NodeId, to: NodeId, now: Instant) -> SendPlan {
        // A node can always talk to itself, and an unarmed plan is inert.
        if from == to {
            return SendPlan::pass();
        }
        let Some(epoch) = self.armed_at.get().copied() else {
            return SendPlan::pass();
        };
        let elapsed = now.saturating_duration_since(epoch);
        let (from_idx, to_idx) = (from.index(), to.index());

        // Transient partitions hold crossing messages until the heal: the
        // extra delay is exactly the time remaining in the longest active
        // severing window, so the backlog floods in at heal time.
        let mut extra = Duration::ZERO;
        for partition in &self.plan.partitions {
            if elapsed >= partition.start
                && elapsed < partition.heals_at()
                && partition.severs(from_idx, to_idx)
            {
                extra = extra.max(partition.heals_at() - elapsed);
            }
        }

        let mut duplicate = None;
        let matching: Vec<&crate::plan::LinkFault> = self
            .plan
            .link_faults
            .iter()
            .filter(|f| f.links.matches(from_idx, to_idx))
            .collect();
        if matching.is_empty() {
            // Partition-only / pause-only plans never touch the shared
            // per-link RNG map, keeping the send hot path lock-free.
            return SendPlan::delayed(extra);
        }
        let mut links = self.links.lock();
        for fault in matching {
            let rng = links
                .entry((from_idx, to_idx))
                .or_insert_with(|| StdRng::seed_from_u64(self.link_rng_seed(from_idx, to_idx)));
            // The loss draw comes FIRST in each fault's draw order: a lost
            // message consumes exactly one draw from the link's RNG stream
            // and skips the remaining shaping draws, which keeps replay
            // deterministic per seed regardless of what else the rule
            // configures.
            if fault.loss_percent > 0 && rng.gen_range(0..100u8) < fault.loss_percent {
                return SendPlan::lost();
            }
            if !fault.jitter.is_zero() {
                let nanos = rng.gen_range(0..=fault.jitter.as_nanos() as u64);
                extra += Duration::from_nanos(nanos);
            }
            if fault.spike_percent > 0 && rng.gen_range(0..100u8) < fault.spike_percent {
                extra += fault.spike;
            }
            if fault.reorder_percent > 0 && rng.gen_range(0..100u8) < fault.reorder_percent {
                extra += fault.reorder_hold;
            }
            if fault.duplicate_percent > 0 && rng.gen_range(0..100u8) < fault.duplicate_percent {
                duplicate = Some(fault.duplicate_skew);
            }
        }

        let plan = SendPlan::delayed(extra);
        match duplicate {
            // The copy's delay is computed from the *final* extra delay, so
            // the duplicate is guaranteed to trail the original by `skew`
            // even when a later rule added more delay to the original.
            Some(skew) => plan.duplicate(extra + skew),
            None => plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LinkFault, LinkSelector};

    fn interpose(injector: &FaultInjector, from: usize, to: usize) -> SendPlan {
        FaultInterposer::plan(injector, NodeId(from), NodeId(to), Instant::now())
    }

    #[test]
    fn unarmed_injector_is_inert() {
        let injector = FaultInjector::new(
            FaultPlan::new(1)
                .link_fault(LinkFault::on(LinkSelector::All).spike(100, Duration::from_millis(5))),
        );
        assert!(!injector.is_armed());
        assert!(interpose(&injector, 0, 1).is_pass());
    }

    #[test]
    fn self_links_are_never_faulted() {
        let injector = FaultInjector::new(
            FaultPlan::new(1)
                .link_fault(LinkFault::on(LinkSelector::All).spike(100, Duration::from_millis(5))),
        );
        injector.arm();
        assert!(interpose(&injector, 2, 2).is_pass());
        assert!(!interpose(&injector, 0, 1).is_pass());
    }

    #[test]
    fn active_partition_holds_messages_until_the_heal() {
        let injector = FaultInjector::new(FaultPlan::new(1).partition(
            [0],
            Duration::ZERO,
            Duration::from_millis(50),
        ));
        injector.arm();
        let held = interpose(&injector, 0, 1);
        let delay = held.deliveries()[0];
        assert!(delay > Duration::from_millis(25), "crossing link is held");
        assert!(delay <= Duration::from_millis(50), "held only to the heal");
        assert!(
            interpose(&injector, 1, 2).is_pass(),
            "non-crossing links are unaffected"
        );
    }

    #[test]
    fn healed_partition_stops_holding() {
        let injector = FaultInjector::new(FaultPlan::new(1).partition(
            [0],
            Duration::ZERO,
            Duration::from_millis(5),
        ));
        injector.arm();
        std::thread::sleep(Duration::from_millis(10));
        assert!(interpose(&injector, 0, 1).is_pass());
    }

    #[test]
    fn duplication_fires_at_the_configured_rate() {
        let injector = FaultInjector::new(FaultPlan::new(9).link_fault(
            LinkFault::on(LinkSelector::All).duplicate(100, Duration::from_micros(10)),
        ));
        injector.arm();
        for _ in 0..10 {
            assert_eq!(interpose(&injector, 0, 1).deliveries().len(), 2);
        }
    }

    #[test]
    fn link_decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::new(1234).link_fault(
            LinkFault::on(LinkSelector::All)
                .jitter(Duration::from_micros(500))
                .spike(30, Duration::from_millis(1))
                .duplicate(20, Duration::from_micros(50)),
        );
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        a.arm();
        b.arm();
        for from in 0..3usize {
            for to in 0..3usize {
                for _ in 0..50 {
                    assert_eq!(interpose(&a, from, to), interpose(&b, from, to));
                }
            }
        }
    }

    #[test]
    fn scheduler_pauses_and_resumes_attached_controls() {
        let injector = FaultInjector::new(FaultPlan::new(1).pause(
            1,
            Duration::from_millis(5),
            Duration::from_millis(20),
        ));
        let controls: Vec<Arc<PauseControl>> =
            (0..2).map(|_| Arc::new(PauseControl::new())).collect();
        injector.attach_pause_controls(controls.clone());
        injector.arm();
        let deadline = Instant::now() + Duration::from_secs(1);
        while !controls[1].is_paused() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(controls[1].is_paused(), "scheduled pause never fired");
        assert!(!controls[0].is_paused(), "only the scheduled node pauses");
        let deadline = Instant::now() + Duration::from_secs(1);
        while controls[1].is_paused() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!controls[1].is_paused(), "scheduled resume never fired");
    }

    #[test]
    fn overlapping_pause_windows_are_coalesced() {
        // Inner window [20, 30) ends while the outer [0, 80) is active; the
        // node must stay paused until the outer window's end.
        let injector = FaultInjector::new(
            FaultPlan::new(1)
                .pause(0, Duration::ZERO, Duration::from_millis(300))
                .pause(0, Duration::from_millis(20), Duration::from_millis(10)),
        );
        let control = Arc::new(PauseControl::new());
        injector.attach_pause_controls(vec![Arc::clone(&control)]);
        injector.arm();
        let deadline = Instant::now() + Duration::from_secs(1);
        while !control.is_paused() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(control.is_paused());
        // Well inside the outer window but past the inner window's end.
        std::thread::sleep(Duration::from_millis(45));
        assert!(
            control.is_paused(),
            "inner window's resume must not cut the outer window short"
        );
        injector.disarm();
    }

    #[test]
    fn loss_draws_are_deterministic_and_drop_the_message() {
        let plan = FaultPlan::new(77).link_fault(
            LinkFault::on(LinkSelector::All)
                .loss(40)
                .jitter(Duration::from_micros(200)),
        );
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        a.arm();
        b.arm();
        let mut lost = 0usize;
        for _ in 0..200 {
            let pa = interpose(&a, 0, 1);
            let pb = interpose(&b, 0, 1);
            assert_eq!(pa, pb, "loss draws must replay per seed");
            if pa.is_lost() {
                assert!(pa.deliveries().is_empty());
                lost += 1;
            }
        }
        assert!(lost > 40 && lost < 160, "≈40% loss rate, got {lost}/200");
    }

    #[test]
    fn full_loss_suppresses_every_delivery() {
        let injector = FaultInjector::new(
            FaultPlan::new(5).link_fault(LinkFault::on(LinkSelector::All).loss(100)),
        );
        injector.arm();
        for _ in 0..20 {
            assert!(interpose(&injector, 0, 1).is_lost());
        }
        assert!(
            interpose(&injector, 1, 1).is_pass(),
            "self-links never lose"
        );
    }

    #[test]
    fn crash_windows_fire_the_hook_and_track_crashed_nodes() {
        let injector = FaultInjector::new(FaultPlan::new(1).crash(
            1,
            Duration::from_millis(5),
            Duration::from_millis(20),
        ));
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        injector.attach_crash_hook(Arc::new(move |node, down| {
            sink.lock().push((node, down));
        }));
        injector.arm();
        let deadline = Instant::now() + Duration::from_secs(1);
        while !injector.is_node_crashed(1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(injector.is_node_crashed(1), "scheduled crash never fired");
        assert!(!injector.is_node_crashed(0));
        let deadline = Instant::now() + Duration::from_secs(1);
        while injector.is_node_crashed(1) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !injector.is_node_crashed(1),
            "scheduled restart never fired"
        );
        assert_eq!(*log.lock(), vec![(1, true), (1, false)]);
    }

    #[test]
    fn disarm_restarts_nodes_still_inside_a_crash_window() {
        let injector =
            FaultInjector::new(FaultPlan::new(1).crash(0, Duration::ZERO, Duration::from_secs(30)));
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        injector.attach_crash_hook(Arc::new(move |node, down| {
            sink.lock().push((node, down));
        }));
        injector.arm();
        let deadline = Instant::now() + Duration::from_secs(1);
        while !injector.is_node_crashed(0) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(injector.is_node_crashed(0));
        injector.disarm();
        assert!(!injector.is_node_crashed(0), "disarm must restart the node");
        assert_eq!(*log.lock(), vec![(0, true), (0, false)]);
        injector.disarm();
        assert_eq!(log.lock().len(), 2, "second disarm must not re-fire");
    }

    #[test]
    fn disarm_resumes_paused_nodes_and_is_idempotent() {
        let injector =
            FaultInjector::new(FaultPlan::new(1).pause(0, Duration::ZERO, Duration::from_secs(30)));
        let control = Arc::new(PauseControl::new());
        injector.attach_pause_controls(vec![Arc::clone(&control)]);
        injector.arm();
        let deadline = Instant::now() + Duration::from_secs(1);
        while !control.is_paused() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(control.is_paused());
        injector.disarm();
        assert!(!control.is_paused(), "disarm must resume paused nodes");
        injector.disarm();
    }
}
