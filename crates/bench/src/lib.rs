//! The paper's evaluation (§V) as runnable sweeps, and the verification
//! tiers that run whole clusters.
//!
//! Everything here runs a workload one way: as an `sss-workload` scenario
//! (`run_scenario` on threads, `run_scenario_sim` in virtual time) against
//! an engine the `sss-engine` registry built — one closed-loop client, one
//! runner body, one history recorder and checker for every engine, the same
//! methodology as the paper, which re-implemented every competitor on the
//! same software infrastructure. This crate defines **no** engine adapters
//! and no driver of its own.
//!
//! * [`figures`] encodes each figure of the evaluation section as a
//!   parameter sweep returning printable rows. Every point is a seeded,
//!   checker-verified run under the deterministic simulator on the
//!   CloudLab-like network profile, so a table is byte-identical per seed
//!   on any host; a full run of the `figures` binary appends its tables to
//!   `BENCH_figures.json` at the repository root.
//!
//! Absolute numbers differ from the paper (the paper uses a 20-node
//! InfiniBand cluster; this repository simulates a cluster in one
//! process), but the sweeps preserve the comparisons the paper draws:
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
pub mod scenarios;
pub mod sim_sweep;

pub use sim_sweep::{run_sim_sweep, SimSweepConfig, SweepReport};
pub use sss_engine::{EngineKind, NetProfile};

pub use cli::{figure_main, FigureSelection};
pub use figures::{
    fig3_throughput, fig4a_max_throughput, fig4b_latency, fig5_breakdown, fig6_rococo,
    fig7_locality, fig8_read_only_size, BenchScale, FigureRow, FigureTable,
};
