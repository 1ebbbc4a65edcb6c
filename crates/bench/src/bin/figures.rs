//! Reproduces the figures of the evaluation (Figures 3 to 8) in virtual time
//! and prints their tables: seeded, checker-verified, byte-identical from
//! run to run.
//!
//! Usage: `cargo run -p sss-bench --release --bin figures -- [--only fig4b] [--paper-scale]`
//!
//! Without `--only` every figure runs in sequence and the run appends one
//! record to `BENCH_figures.json` at the repository root (a selected run
//! only prints); an unknown name exits non-zero and lists the valid ones.

fn main() {
    sss_bench::cli::figure_main();
}
