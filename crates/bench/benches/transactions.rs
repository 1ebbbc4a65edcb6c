//! Criterion benchmarks of end-to-end transactions on every engine, built
//! through the `sss-engine` registry.
//!
//! The evaluation figures themselves are regenerated by the `figures`
//! binary (see `src/bin/`); keeping them out of `cargo bench` keeps the
//! bench run short. The numbers a change is gated on come from neither: see
//! `benchmark/README.md`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use sss_engine::{EngineKind, NetProfile};
use sss_storage::{Key, Value};
use sss_workload::{populate, WorkloadSpec};

fn tiny_spec() -> WorkloadSpec {
    WorkloadSpec::new(2)
        .clients_per_node(1)
        .total_keys(128)
        .duration(Duration::from_millis(50))
}

fn bench_sss_transactions(c: &mut Criterion) {
    let spec = tiny_spec();
    let engine = EngineKind::Sss.build(spec.nodes, 2, NetProfile::Instant);
    populate(engine.as_ref(), &spec);
    let mut session = engine.session(0);
    let keys: Vec<Key> = (0..2).map(|i| Key::new(format!("key-{i}"))).collect();
    let writes: Vec<(Key, Value)> = keys
        .iter()
        .map(|k| (k.clone(), Value::from_u64(7)))
        .collect();

    let mut group = c.benchmark_group("sss");
    group.bench_function("update_txn_2keys", |b| {
        b.iter(|| assert!(session.run_update(&keys, &writes).is_committed()))
    });
    group.bench_function("read_only_txn_2keys", |b| {
        b.iter(|| assert!(session.run_read_only(&keys).is_committed()))
    });
    group.finish();
}

fn bench_baseline_transactions(c: &mut Criterion) {
    let spec = tiny_spec();
    let keys: Vec<Key> = (0..2).map(|i| Key::new(format!("key-{i}"))).collect();
    let writes: Vec<(Key, Value)> = keys
        .iter()
        .map(|k| (k.clone(), Value::from_u64(7)))
        .collect();

    let mut group = c.benchmark_group("baselines");

    let twopc = EngineKind::TwoPc.build(spec.nodes, 2, NetProfile::Instant);
    populate(twopc.as_ref(), &spec);
    let mut twopc_session = twopc.session(0);
    group.bench_function("twopc_update_2keys", |b| {
        b.iter(|| std::hint::black_box(twopc_session.run_update(&keys, &writes)))
    });

    let walter = EngineKind::Walter.build(spec.nodes, 2, NetProfile::Instant);
    populate(walter.as_ref(), &spec);
    let mut walter_session = walter.session(0);
    group.bench_function("walter_read_only_2keys", |b| {
        b.iter(|| assert!(walter_session.run_read_only(&keys).is_committed()))
    });

    let rococo = EngineKind::Rococo.build(spec.nodes, 1, NetProfile::Instant);
    populate(rococo.as_ref(), &spec);
    let mut rococo_session = rococo.session(0);
    group.bench_function("rococo_update_2keys", |b| {
        b.iter(|| assert!(rococo_session.run_update(&keys, &writes).is_committed()))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2));
    targets = bench_sss_transactions, bench_baseline_transactions
}
criterion_main!(benches);
