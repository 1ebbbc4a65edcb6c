//! The paper's evaluation (§V) as runnable sweeps, and the verification
//! tiers that run whole clusters.
//!
//! * [`harness`] builds engines exclusively through the `sss-engine`
//!   registry ([`EngineKind::build`](sss_engine::EngineKind::build)) and
//!   drives them with the `sss-workload` closed-loop driver, so that one
//!   code path runs every engine under identical conditions — the same
//!   methodology as the paper, which re-implemented every competitor on the
//!   same software infrastructure. This crate defines **no** engine
//!   adapters of its own; those live with the engines (`sss-core`,
//!   `sss-baselines`) behind the `sss-engine` trait surface.
//! * [`figures`] encodes each figure of the evaluation section as a
//!   parameter sweep returning printable rows. The `figures` binary is a
//!   thin wrapper around these functions; `cargo bench` runs
//!   reduced-scale end-to-end transactions on the same engines (component
//!   micro-benchmarks live in the crates owning the components).
//!
//! Absolute numbers differ from the paper (the paper uses a 20-node
//! InfiniBand cluster; this repository runs an in-process cluster on one
//! machine), but the sweeps preserve the comparisons the paper draws:
//! which engine wins in which regime, and how the gaps move as the read-only
//! share, the node count, the locality and the read-set size change.
//!
//! The numbers a change is gated on, end to end and per layer, do **not**
//! come from here but from the standalone `benchmark/` package declared by
//! `BENCHMARK.json` (see `benchmark/README.md`).
//!
//! * [`scenarios`] holds the *chaos catalog*: named fault plans
//!   (partition-heal, asymmetric-slow-link, duplicate-storm, reorder-burst,
//!   pause-during-commit, chaos-mix, …) built on `sss-faults` and executed
//!   through `sss-workload`'s scenario runner, with every recorded history
//!   verified by the `sss-consistency` checker. The `scenarios` binary
//!   prints the report (`--trace-out`: every run's phase spans as well).
//! * [`sim_sweep`] runs the same catalog under the deterministic
//!   discrete-event simulator across hundreds of seeds on virtual time (the
//!   `sim-sweep` binary and the release-tier `sim_sweep` test suite), gating
//!   every seed on a checker-clean history and a bit-identical replay, and
//!   holds the committed seed-replay regression corpus.
//! * [`cli`] owns the argument parsing shared by the binaries.

pub mod cli;
pub mod figures;
pub mod harness;
pub mod scenarios;
pub mod sim_sweep;

pub use harness::{run_engine, run_engine_with_profile};
pub use sim_sweep::{run_sim_sweep, SimSweepConfig, SweepReport};
pub use sss_engine::{EngineKind, NetProfile};

pub use cli::{figure_main, FigureSelection};
pub use figures::{
    fig3_throughput, fig4a_max_throughput, fig4b_latency, fig5_breakdown, fig6_rococo,
    fig7_locality, fig8_read_only_size, BenchScale, FigureRow, FigureTable,
};
