//! The engine registry: one construction path for every engine.

use std::str::FromStr;
use std::sync::Arc;

use sss_baselines::{BaselineConfig, RococoCluster, TwoPcCluster, WalterCluster};
use sss_core::adapter::SssEngine;
use sss_core::SssConfig;
use sss_faults::FaultInjector;
use sss_obs::ObsHub;
use sss_sim::SimRuntime;
use sss_vclock::runtime::SchedulerHandle;

use crate::profile::NetProfile;
use crate::traits::TransactionEngine;

/// Which engine an experiment runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The SSS protocol (this paper).
    Sss,
    /// The 2PC-baseline.
    TwoPc,
    /// The Walter-style PSI engine.
    Walter,
    /// The ROCOCO-style engine.
    Rococo,
}

impl EngineKind {
    /// Every engine the registry can build, in the paper's presentation
    /// order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Sss,
        EngineKind::TwoPc,
        EngineKind::Walter,
        EngineKind::Rococo,
    ];

    /// Display name used in tables (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Sss => "SSS",
            EngineKind::TwoPc => "2PC",
            EngineKind::Walter => "Walter",
            EngineKind::Rococo => "ROCOCO",
        }
    }

    /// Starts describing an engine of this kind on `nodes` nodes with
    /// `replication` replicas per key (ROCOCO ignores the replication
    /// degree: the paper's comparison always runs it without replication).
    /// Everything else starts at the engines' defaults; see
    /// [`EngineBuilder`].
    ///
    /// This is the only way the rest of the workspace constructs an engine
    /// — the scenario runner, the figure sweeps, the examples and the
    /// integration tests all go through it, so adding an engine means adding
    /// a variant here and an arm in [`EngineBuilder::build`].
    ///
    /// ```rust
    /// use sss_engine::{EngineKind, FaultInjector, FaultPlan, NetProfile};
    ///
    /// let injector = FaultInjector::new(FaultPlan::new(7));
    /// let engine = EngineKind::TwoPc
    ///     .builder(3, 2)
    ///     .profile(NetProfile::CloudlabLike)
    ///     .observability(true)
    ///     .injector(&injector)
    ///     .build();
    /// assert_eq!(engine.nodes(), 3);
    /// assert!(engine.observability().is_some());
    /// ```
    pub fn builder(self, nodes: usize, replication: usize) -> EngineBuilder {
        EngineBuilder {
            kind: self,
            nodes,
            replication,
            profile: NetProfile::Instant,
            observability: false,
            injector: None,
            scheduler: None,
        }
    }

    /// Builds this engine with its defaults on a network with the given
    /// delay profile: shorthand for
    /// `self.builder(nodes, replication).profile(net_profile).build()`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the engine fails to boot (worker spawn
    /// failure).
    pub fn build(
        &self,
        nodes: usize,
        replication: usize,
        net_profile: NetProfile,
    ) -> Box<dyn TransactionEngine> {
        self.builder(nodes, replication)
            .profile(net_profile)
            .build()
    }

    /// Builds this engine under a deterministic-simulation scheduler: one
    /// call creates the simulator (seeded with `seed`) and the engine wired
    /// to it. Drive work through [`SimRuntime::block_on`]; the engine's
    /// message delivery, worker execution and protocol timeouts all move in
    /// virtual time.
    pub fn build_sim(
        &self,
        nodes: usize,
        replication: usize,
        net_profile: NetProfile,
        seed: u64,
    ) -> (Arc<SimRuntime>, Box<dyn TransactionEngine>) {
        let sim = SimRuntime::new(seed);
        let engine = self
            .builder(nodes, replication)
            .profile(net_profile)
            .scheduler(sim.handle())
            .build();
        (sim, engine)
    }
}

/// Everything that can be said about an engine before it boots, in terms
/// that do not depend on which engine it is. [`EngineBuilder::build`] lowers
/// it to the engine's own configuration and starts it.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    kind: EngineKind,
    nodes: usize,
    replication: usize,
    profile: NetProfile,
    observability: bool,
    injector: Option<Arc<FaultInjector>>,
    scheduler: Option<SchedulerHandle>,
}

impl EngineBuilder {
    /// Sets the one-way message delay of the cluster's network. Every
    /// engine runs on the same transport and pays it on every message.
    pub fn profile(mut self, profile: NetProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches an observability hub ([`ObsHub`]) to the engine:
    /// per-transaction phase tracing, per-phase latency histograms and
    /// per-node trace rings. Off by default — tracing-off engines pay one
    /// branch per instrumentation site. Retrieve the hub through
    /// [`TransactionEngine::observability`].
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = enabled;
        self
    }

    /// Places the engine under a caller-owned [`FaultInjector`]: it is
    /// interposed on the transport and attached to the per-node pause gates
    /// (and, for SSS, to crash-stop recovery). Every engine runs on the same
    /// transport, so the plan's faults hit SSS and the baselines alike.
    ///
    /// The injector is **not** armed: the caller arms it once the warm-up
    /// (e.g. key-space population) is done, so the plan's scheduled windows
    /// cover the measured phase.
    pub fn injector(mut self, injector: &Arc<FaultInjector>) -> Self {
        self.injector = Some(Arc::clone(injector));
        self
    }

    /// Runs the engine under a simulation scheduler: the transport delivers
    /// messages as virtual-time events, node workers run as cooperative
    /// simulation tasks, and the injector's windows are scheduled on the
    /// virtual clock.
    pub fn scheduler(mut self, scheduler: SchedulerHandle) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Boots the engine.
    ///
    /// # Panics
    ///
    /// Panics if the node count is zero or the engine fails to boot (worker
    /// spawn failure).
    pub fn build(self) -> Box<dyn TransactionEngine> {
        match self.kind {
            EngineKind::Sss => Box::new(SssEngine::with_config(self.sss_config())),
            EngineKind::TwoPc => Box::new(TwoPcCluster::start(self.baseline_config())),
            EngineKind::Walter => Box::new(WalterCluster::start(self.baseline_config())),
            EngineKind::Rococo => Box::new(RococoCluster::start(self.baseline_config())),
        }
    }

    /// One hub per engine instance: every session and node of the engine
    /// records into it.
    fn hub(&self) -> Option<Arc<ObsHub>> {
        self.observability.then(|| ObsHub::new(self.nodes))
    }

    fn sss_config(self) -> SssConfig {
        let observability = self.hub();
        SssConfig {
            observability,
            nodes: self.nodes,
            replication: self.replication,
            latency: self.profile.latency_model(),
            fault_injector: self.injector,
            scheduler: self.scheduler,
        }
    }

    fn baseline_config(self) -> BaselineConfig {
        let observability = self.hub();
        BaselineConfig {
            observability,
            nodes: self.nodes,
            replication: self.replication,
            latency: self.profile.latency_model(),
            scheduler: self.scheduler,
            interposer: self
                .injector
                .map(|injector| injector as Arc<dyn sss_net::FaultInterposer>),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown engine name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineKindError {
    input: String,
}

impl std::fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine {:?} (expected one of: sss, 2pc, walter, rococo)",
            self.input
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Parses the names used by the paper's legends, case-insensitively
    /// ("sss", "2pc" or "twopc", "walter", "rococo").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sss" => Ok(EngineKind::Sss),
            "2pc" | "twopc" | "2pc-baseline" => Ok(EngineKind::TwoPc),
            "walter" => Ok(EngineKind::Walter),
            "rococo" => Ok(EngineKind::Rococo),
            _ => Err(ParseEngineKindError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels() {
        assert_eq!(EngineKind::Sss.label(), "SSS");
        assert_eq!(EngineKind::TwoPc.label(), "2PC");
        assert_eq!(EngineKind::Walter.label(), "Walter");
        assert_eq!(EngineKind::Rococo.label(), "ROCOCO");
        assert_eq!(EngineKind::ALL.len(), 4);
    }

    #[test]
    fn engine_names_parse() {
        assert_eq!("sss".parse(), Ok(EngineKind::Sss));
        assert_eq!("2PC".parse(), Ok(EngineKind::TwoPc));
        assert_eq!("Walter".parse(), Ok(EngineKind::Walter));
        assert_eq!("ROCOCO".parse(), Ok(EngineKind::Rococo));
        assert!("spanner".parse::<EngineKind>().is_err());
    }
}
