//! Shared command-line plumbing for the binaries.
//!
//! Every binary in `src/bin/` — the figure reproductions (`figures`), the
//! chaos-scenario runner `scenarios`, `sim-sweep`, `modelcheck` — parses its
//! arguments through this module rather than hand-rolling another copy of
//! the argument loop.

use std::time::{Duration, Instant};

use crate::figures::{
    fig3_throughput, fig4a_max_throughput, fig4b_latency, fig5_breakdown, fig6_rococo,
    fig7_locality, fig8_read_only_size, json_string, BenchScale, FigureTable, FIGURE_PROFILE,
    FIGURE_SEED,
};

/// `true` if `flag` (e.g. `--smoke`) appears in `args`.
pub fn parse_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The string value of `--key VALUE` style options. Returns `None` when
/// absent and panics with a usage message when the value is missing.
pub fn parse_value(args: &[String], key: &str) -> Option<String> {
    let position = args.iter().position(|a| a == key)?;
    Some(
        args.get(position + 1)
            .unwrap_or_else(|| panic!("{key} requires a value"))
            .clone(),
    )
}

/// The numeric value of `--key N` style options (e.g.
/// `parse_u64(args, "--seed")`). Returns `None` when absent and panics
/// with a usage message when the value is missing or not a number.
pub fn parse_u64(args: &[String], key: &str) -> Option<u64> {
    let value = parse_value(args, key)?;
    Some(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{key} expects a number, got {value:?}")),
    )
}

/// One figure of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureSelection {
    /// Figure 3 (throughput vs node count, three read-only mixes).
    Fig3,
    /// Figure 4(a) (maximum attainable throughput).
    Fig4a,
    /// Figure 4(b) (external-commit latency vs clients per node).
    Fig4b,
    /// Figure 5 (SSS latency breakdown).
    Fig5,
    /// Figure 6 (SSS vs ROCOCO vs 2PC, two read-only mixes).
    Fig6,
    /// Figure 7 (locality).
    Fig7,
    /// Figure 8 (read-only transaction size).
    Fig8,
}

impl FigureSelection {
    /// Every figure, in presentation order.
    pub const ALL: [FigureSelection; 7] = [
        FigureSelection::Fig3,
        FigureSelection::Fig4a,
        FigureSelection::Fig4b,
        FigureSelection::Fig5,
        FigureSelection::Fig6,
        FigureSelection::Fig7,
        FigureSelection::Fig8,
    ];

    /// The name `--only` selects this figure by.
    pub fn name(&self) -> &'static str {
        match self {
            FigureSelection::Fig3 => "fig3",
            FigureSelection::Fig4a => "fig4a",
            FigureSelection::Fig4b => "fig4b",
            FigureSelection::Fig5 => "fig5",
            FigureSelection::Fig6 => "fig6",
            FigureSelection::Fig7 => "fig7",
            FigureSelection::Fig8 => "fig8",
        }
    }

    /// The figures `--only NAME` selects: all of them when the option is
    /// absent.
    ///
    /// # Errors
    ///
    /// An unknown name yields a message listing the valid ones.
    pub fn select(only: Option<&str>) -> Result<Vec<FigureSelection>, String> {
        let Some(name) = only else {
            return Ok(Self::ALL.to_vec());
        };
        match Self::ALL.iter().find(|figure| figure.name() == name) {
            Some(figure) => Ok(vec![*figure]),
            None => {
                let valid: Vec<&str> = Self::ALL.iter().map(Self::name).collect();
                Err(format!(
                    "unknown figure {name:?} (expected one of: {})",
                    valid.join(", ")
                ))
            }
        }
    }

    /// The tables this figure renders at `scale`, in presentation order.
    pub fn tables(&self, scale: BenchScale) -> Vec<FigureTable> {
        match self {
            FigureSelection::Fig3 => [20u8, 50, 80]
                .iter()
                .map(|ro| fig3_throughput(scale, *ro))
                .collect(),
            FigureSelection::Fig4a => vec![fig4a_max_throughput(scale)],
            FigureSelection::Fig4b => vec![fig4b_latency(scale)],
            FigureSelection::Fig5 => vec![fig5_breakdown(scale)],
            FigureSelection::Fig6 => [20u8, 80]
                .iter()
                .map(|ro| fig6_rococo(scale, *ro))
                .collect(),
            FigureSelection::Fig7 => vec![fig7_locality(scale)],
            FigureSelection::Fig8 => vec![fig8_read_only_size(scale)],
        }
    }
}

/// Where a full `figures` run appends its record: the repository root.
const FIGURES_RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figures.json");

/// The whole body of the `figures` binary: parse `--only NAME` and the scale
/// from the process arguments, run the selected sweeps, print the tables —
/// standard output is a function of the scale alone, byte for byte. A full
/// run (no `--only`) then appends one record to `BENCH_figures.json` at the
/// repository root; a selected run only prints. Exits with status 2 on an
/// unknown figure name.
pub fn figure_main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = BenchScale::from_args(&args);
    let only = parse_value(&args, "--only");
    let figures = FigureSelection::select(only.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let started = Instant::now();
    let mut tables = Vec::new();
    for table in figures.iter().flat_map(|figure| figure.tables(scale)) {
        println!("{}", table.render());
        tables.push(table);
    }
    if only.is_none() {
        let record = figures_record(scale, &tables, started.elapsed());
        let history = std::fs::read_to_string(FIGURES_RECORD).unwrap_or_default();
        std::fs::write(FIGURES_RECORD, with_record(&history, &record))
            .unwrap_or_else(|e| panic!("failed to write {FIGURES_RECORD}: {e}"));
        eprintln!("appended a record to {FIGURES_RECORD}");
    }
}

/// Standard output of `program args`, trimmed; "unknown" if it cannot run.
fn output_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One `BENCH_figures.json` record, on one line: where and when the run
/// happened, what fixes its numbers (scale, seed, network profile — the
/// tables are a function of these), what it cost, and every table.
fn figures_record(scale: BenchScale, tables: &[FigureTable], wall: Duration) -> String {
    let tables: Vec<String> = tables.iter().map(FigureTable::to_json).collect();
    format!(
        "{{\"git_rev\":{},\"date\":{},\"scale\":{},\"seed\":{FIGURE_SEED},\
         \"net_profile\":{},\"ops_per_client\":{},\"host_cores\":{},\"wall_s\":{:.1},\
         \"tables\":[{}]}}",
        json_string(&output_of(
            "git",
            &[
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "describe",
                "--always",
                "--dirty"
            ]
        )),
        json_string(&output_of("date", &["-u", "+%Y-%m-%d"])),
        json_string(scale.label()),
        json_string(&format!("{FIGURE_PROFILE:?}")),
        scale.ops_per_client(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        wall.as_secs_f64(),
        tables.join(","),
    )
}

/// `history` — a JSON array with one record per line, or nothing yet — with
/// `record` appended: earlier records are kept, never overwritten.
fn with_record(history: &str, record: &str) -> String {
    let earlier = history
        .trim()
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
        .map_or("", str::trim);
    if earlier.is_empty() {
        format!("[\n{record}\n]\n")
    } else {
        format!("[\n{earlier},\n{record}\n]\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_options_parse() {
        let a = args(&["bin", "--smoke", "--seed", "99"]);
        assert!(parse_flag(&a, "--smoke"));
        assert!(!parse_flag(&a, "--paper-scale"));
        assert_eq!(parse_u64(&a, "--seed"), Some(99));
        assert_eq!(parse_u64(&a, "--missing"), None);
    }

    #[test]
    fn only_selects_one_figure_and_rejects_unknown_names() {
        assert_eq!(
            FigureSelection::select(None),
            Ok(FigureSelection::ALL.to_vec())
        );
        assert_eq!(
            FigureSelection::select(Some("fig4b")),
            Ok(vec![FigureSelection::Fig4b])
        );
        let message = FigureSelection::select(Some("fig9")).unwrap_err();
        assert!(message.contains("fig9") && message.contains("fig3, fig4a, fig4b"));
    }

    #[test]
    fn a_record_is_appended_to_the_history_not_written_over_it() {
        let record = figures_record(BenchScale::Quick, &[], Duration::from_millis(1500));
        assert!(record.starts_with("{\"git_rev\":\""), "{record}");
        assert!(
            record.contains("\"scale\":\"quick (reduced)\",\"seed\":42,")
                && record.contains("\"net_profile\":\"CloudlabLike\",")
                && record.ends_with("\"wall_s\":1.5,\"tables\":[]}"),
            "{record}"
        );
        let one = with_record("", "{\"n\":[1]}");
        assert_eq!(one, "[\n{\"n\":[1]}\n]\n");
        let two = with_record(&one, "{\"n\":[2]}");
        assert_eq!(two, "[\n{\"n\":[1]},\n{\"n\":[2]}\n]\n");
        assert_eq!(
            with_record(&two, "{}"),
            "[\n{\"n\":[1]},\n{\"n\":[2]},\n{}\n]\n"
        );
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn dangling_option_panics() {
        let a = args(&["bin", "--seed"]);
        let _ = parse_u64(&a, "--seed");
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn non_numeric_option_panics() {
        let a = args(&["bin", "--seed", "abc"]);
        let _ = parse_u64(&a, "--seed");
    }
}
