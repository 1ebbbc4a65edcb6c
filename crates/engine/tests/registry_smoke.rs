//! Registry smoke test: every engine the registry knows about boots a
//! 3-node cluster through the factory, commits one update and one read-only
//! transaction, and SSS's read-only path never aborts (the paper's headline
//! property).

use std::sync::Arc;
use std::time::Duration;

use sss_engine::{EngineKind, NetProfile, SimRuntime, TransactionEngine, TxnOutcome};
use sss_storage::{Key, Value, DEFAULT_SHARDS};

#[test]
fn every_engine_kind_builds_and_commits_through_the_factory() {
    for kind in EngineKind::ALL {
        let engine = kind.build(3, 2, NetProfile::Instant);
        assert_eq!(engine.name(), kind.label(), "registry label mismatch");
        assert_eq!(engine.nodes(), 3, "{kind}: wrong cluster size");

        let mut session = engine.session(0);
        let writes = vec![
            (Key::new("smoke-a"), Value::from_u64(1)),
            (Key::new("smoke-b"), Value::from_u64(2)),
        ];
        // A single sequential client: the update may only abort through
        // engine bugs, not contention — but allow bounded retries for
        // engines whose commit path can time out spuriously.
        let mut update_committed = false;
        for _ in 0..16 {
            if session.run_update(&[], &writes).is_committed() {
                update_committed = true;
                break;
            }
        }
        assert!(
            update_committed,
            "{kind}: update transaction never committed"
        );

        let read_keys = vec![Key::new("smoke-a"), Key::new("smoke-b")];
        let outcome = session.run_read_only(&read_keys);
        assert!(
            outcome.is_committed(),
            "{kind}: read-only transaction aborted in a quiescent cluster"
        );
    }
}

#[test]
fn sss_read_only_transactions_never_abort_through_the_registry() {
    let engine = EngineKind::Sss.build(3, 2, NetProfile::Instant);
    let mut writer = engine.session(0);
    assert!(writer
        .run_update(&[], &[(Key::new("ro"), Value::from_u64(0))])
        .is_committed());

    // Abort-freedom is unconditional for SSS read-only transactions: check
    // it from every node, interleaved with writes.
    for round in 0..10u64 {
        assert!(writer
            .run_update(&[], &[(Key::new("ro"), Value::from_u64(round))])
            .is_committed());
        for node in 0..engine.nodes() {
            let mut reader = engine.session(node);
            let outcome = reader.run_read_only(&[Key::new("ro")]);
            assert!(
                matches!(outcome, TxnOutcome::Committed { .. }),
                "SSS read-only aborted on node {node} in round {round}"
            );
        }
    }
}

#[test]
fn every_engine_honours_the_storage_shard_tuning() {
    for kind in EngineKind::ALL {
        let engine = kind.builder(2, 1).build();
        let mut session = engine.session(0);
        assert!(
            session
                .run_update(&[], &[(Key::new("t"), Value::from_u64(7))])
                .is_committed(),
            "{kind} failed to commit"
        );
        assert!(session.run_read_only(&[Key::new("t")]).is_committed());
        let stats = engine
            .storage_stats()
            .unwrap_or_else(|| panic!("{kind} must expose storage stats"));
        // Every node's storage runs at the storage layer's arity, visible in
        // the per-shard breakdown of whichever store the engine runs (the
        // cluster aggregate sums node shards element-wise by index).
        if let Some(mv) = &stats.mv {
            assert_eq!(mv.per_shard.len(), DEFAULT_SHARDS, "{kind}: mv arity");
            assert!(mv.installed_versions > 0);
        }
        if let Some(sv) = &stats.sv {
            assert_eq!(sv.per_shard.len(), DEFAULT_SHARDS, "{kind}: sv arity");
            assert!(sv.writes > 0);
        }
        assert!(
            engine.mailbox_totals().is_some(),
            "{kind} must expose mailbox totals"
        );
    }
}

/// Every engine runs on the same transport and pays the profile's delay on
/// every message: the client of an update that involves a remote node
/// waits at least one hop (replies travel on reply channels, not the
/// transport), and the update's whole message exchange — request round and
/// decision round — moves the virtual clock by at least two. (The baselines
/// used to boot their transport without the profile: zero on both counts.)
#[test]
fn every_engine_pays_the_net_profile() {
    let hop = Duration::from_micros(50);
    let profile = NetProfile::Uniform {
        base: hop,
        jitter: Duration::ZERO,
    };
    // Eight keys: with any placement over four nodes, some are remote.
    let writes: Vec<(Key, Value)> = (0..8)
        .map(|i| (Key::new(format!("delay-{i}")), Value::from_u64(i)))
        .collect();
    for kind in EngineKind::ALL {
        let (sim, engine) = kind.build_sim(4, 2, profile, 7);
        let engine = Arc::new(engine);
        let outcome = {
            let (engine, writes) = (Arc::clone(&engine), writes.clone());
            sim.block_on("update", move || engine.session(0).run_update(&[], &writes))
        };
        let TxnOutcome::Committed { latency, .. } = outcome else {
            panic!("{kind}: a lone update aborted");
        };
        assert!(latency >= hop, "{kind}: committed in {latency:?}");
        sim.wait_quiescent();
        let elapsed = sim.virtual_elapsed();
        assert!(
            elapsed >= 2 * hop,
            "{kind}: the update moved virtual time by {elapsed:?}, under two {hop:?} hops"
        );
    }
}

/// `EngineKind::build` / `build_sim` are shorthands, not a second path: an
/// engine from the builder with nothing but the profile set behaves
/// bit-identically to one from the shorthand, for every kind. One client
/// per node in turn, in virtual time, so everything the probe returns —
/// observed values, commit latencies, the clock, every mailbox counter — is
/// a function of how the engine was built.
#[test]
fn the_builder_with_no_options_is_the_shorthand() {
    let keys: Vec<Key> = (0..6).map(|i| Key::new(format!("same-{i}"))).collect();
    let probe = |sim: Arc<SimRuntime>, engine: Box<dyn TransactionEngine>| {
        let engine = Arc::new(engine);
        let seen = {
            let (engine, keys) = (Arc::clone(&engine), keys.clone());
            sim.block_on("probe", move || {
                let mut seen = Vec::new();
                for round in 0..4 {
                    for node in 0..engine.nodes() {
                        let mut session = engine.session(node);
                        let value = Value::from_u64(round);
                        let writes: Vec<_> =
                            keys.iter().map(|k| (k.clone(), value.clone())).collect();
                        seen.push(session.run_update_observed(&keys, &writes));
                        seen.push(session.run_read_only_observed(&keys));
                    }
                }
                seen
            })
        };
        sim.wait_quiescent();
        assert!(seen.iter().all(|(outcome, _)| outcome.is_committed()));
        (seen, sim.virtual_elapsed(), engine.mailbox_totals())
    };
    for kind in EngineKind::ALL {
        let (sim, shorthand) = kind.build_sim(3, 2, NetProfile::CloudlabLike, 5);
        let from_shorthand = probe(sim, shorthand);
        let sim = SimRuntime::new(5);
        let built = kind
            .builder(3, 2)
            .profile(NetProfile::CloudlabLike)
            .scheduler(sim.handle())
            .build();
        assert_eq!(from_shorthand, probe(sim, built), "{kind}");
    }
}
