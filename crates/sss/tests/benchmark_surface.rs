//! Compiles the repository benchmark's own surface file
//! (`benchmark/src/api.rs`, the only file of the benchmark that names this
//! repository) against the facade, so tier-1 fails when a pinned name or
//! constructor signature moves — before the benchmark pipeline does. The
//! method-level calls in the benchmark's `micro.rs` / `layers.rs` are
//! covered by CI's `benchmark-check` job.
#![allow(dead_code, unused_imports)]

#[path = "../../../benchmark/src/api.rs"]
mod api;

#[test]
fn the_benchmark_surface_builds_and_populates_an_engine() {
    use api::TransactionEngine as _;
    let engine = api::build_threaded(api::EngineKind::Sss, 1);
    let keys = api::key_table();
    api::populate(engine.session(0).as_mut(), &keys[..64]);
}
