//! Network profiles applied by the registry when it builds an engine.

use std::time::Duration;

use sss_net::LatencyModel;

/// One-way message-delay profile of the cluster an engine is built on.
///
/// Every engine boots on the same `sss-net` chassis and pays the profile's
/// delay on every message, so a comparison under a non-`Instant` profile
/// charges SSS and the baselines the same network.
///
/// The profile describes the network's *steady-state* delay; adversarial
/// behaviour (delay spikes, reordering, duplication, partitions, pauses)
/// is layered on top by an `sss-faults` fault plan via
/// [`EngineBuilder::injector`](crate::EngineBuilder::injector) — each
/// message's total delay is the profile sample plus the fault plan's extra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetProfile {
    /// Messages are delivered immediately (the benchmark default, so that
    /// relative engine performance is dominated by protocol behaviour).
    #[default]
    Instant,
    /// The paper's test bed: ~20µs one-way delay with small jitter.
    CloudlabLike,
    /// A uniform delay of `base` plus up to `jitter`.
    Uniform {
        /// Minimum one-way delay applied to every message.
        base: Duration,
        /// Maximum additional uniformly distributed delay.
        jitter: Duration,
    },
}

impl NetProfile {
    /// The latency model implementing this profile.
    pub fn latency_model(&self) -> LatencyModel {
        match self {
            NetProfile::Instant => LatencyModel::ZERO,
            NetProfile::CloudlabLike => LatencyModel::cloudlab_like(),
            NetProfile::Uniform { base, jitter } => LatencyModel::new(*base, *jitter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_map_to_latency_models() {
        assert!(NetProfile::Instant.latency_model().is_zero());
        assert!(!NetProfile::CloudlabLike.latency_model().is_zero());
        let custom = NetProfile::Uniform {
            base: Duration::from_micros(5),
            jitter: Duration::ZERO,
        };
        assert_eq!(custom.latency_model().base, Duration::from_micros(5));
        assert_eq!(NetProfile::default(), NetProfile::Instant);
    }
}
