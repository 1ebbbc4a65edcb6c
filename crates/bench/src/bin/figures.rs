//! Reproduces the figures of the evaluation (Figures 3 to 8) and prints
//! their tables.
//!
//! Usage: `cargo run -p sss-bench --release --bin figures -- [--only fig4b] [--paper-scale]`
//!
//! Without `--only` every figure runs in sequence; an unknown name exits
//! non-zero and lists the valid ones.

fn main() {
    sss_bench::cli::figure_main();
}
