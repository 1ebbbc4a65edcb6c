//! The repo benchmark. One command per run:
//!
//! ```text
//! sss-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! sss-benchmark --check                 # every workload, briefly (<= 20 s)
//! sss-benchmark --summary <set-dir>     # median and quartiles of a set of runs
//! sss-benchmark --agree <set-a> <set-b> # do two sets agree within the bounds?
//! ```
//!
//! A run prints every metric by name and unit, writes
//! `benchmark/out/<workload>.json`, prints the driver's one-line JSON object
//! last, and exits non-zero when the outputs are not correct. See
//! `benchmark/README.md`.

mod api;
mod check;
mod client;
mod gen;
mod json;
mod layers;
mod measure;
mod micro;
mod procfs;
mod report;
mod run;
mod simrun;
mod spans;
mod stats;
mod threaded;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use report::RunResult;
use run::Scale;
use workloads::{Workload, WORKLOADS};

/// Seconds measured when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Command {
    Run(RunArgs),
    Check,
    Summary(String),
    Agree(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--check" => return Ok(Command::Check),
            "--summary" => return Ok(Command::Summary(value(&mut i, "--summary")?)),
            "--agree" => {
                let a = value(&mut i, "--agree")?;
                let b = value(&mut i, "--agree")?;
                return Ok(Command::Agree(a, b));
            }
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                workload = Some(workloads::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value(&mut i, "--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value(&mut i, "--seconds")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                trace = match value(&mut i, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// Runs one workload and its correctness gate.
fn run_one(args: &RunArgs, scale: &Scale) -> Result<RunResult, String> {
    let mut result = if args.trace {
        layers::traced(args.workload, args.seed)?
    } else {
        run::untraced(args.workload, args.seed, scale)?
    };
    result
        .violations
        .extend(check::gate(args.workload, args.seed));
    Ok(result)
}

fn finish(args: &RunArgs, result: &RunResult) -> Result<(), String> {
    println!("why: {}", args.workload.why);
    println!(
        "inputs: client 0 of seed {} starts with stream hash {:016x}",
        args.seed,
        gen::stream_hash(args.seed, 0, args.workload.mix, 1000)
    );
    print!("{}", result.table());
    let suffix = if result.traced { ".layers" } else { "" };
    let path = report::write_out(
        &format!("{}{suffix}.json", result.workload),
        &(result.file_json().render() + "\n"),
    )?;
    println!("wrote {}", path.display());
    println!("{}", result.driver_line());
    if result.correct() {
        Ok(())
    } else {
        Err(format!("{}: the outputs are not correct", result.workload))
    }
}

fn execute(command: Command) -> Result<(), String> {
    match command {
        Command::Run(args) => finish(&args, &run_one(&args, &Scale::full(args.seconds))?),
        Command::Check => {
            for workload in &WORKLOADS {
                let args = RunArgs {
                    workload,
                    seed: 1,
                    seconds: 1,
                    trace: false,
                };
                let result = run_one(&args, &Scale::check())?;
                print!("{}", result.table());
                if !result.correct() {
                    return Err(format!("{}: the outputs are not correct", workload.name));
                }
            }
            println!("check passed: {} workloads", WORKLOADS.len());
            Ok(())
        }
        Command::Summary(dir) => {
            print!(
                "{}",
                report::set_table(&report::summarize_set(Path::new(&dir))?)
            );
            Ok(())
        }
        Command::Agree(a, b) => {
            let a = report::summarize_set(Path::new(&a))?;
            let b = report::summarize_set(Path::new(&b))?;
            let found = report::disagreements(&a, &b);
            for line in &found {
                println!("DISAGREE {line}");
            }
            if found.is_empty() {
                println!("the two sets agree within every bound");
                Ok(())
            } else {
                Err(format!(
                    "{} medians differ by more than their bound",
                    found.len()
                ))
            }
        }
    }
}

fn main() -> ExitCode {
    procfs::pin_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(execute) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("sss-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use report::{END_TO_END, PER_LAYER};

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is at the root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let json = benchmark_json();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );

        let workloads = json.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), workload.name);
            assert_eq!(field(entry, "why"), workload.why);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }

        let end_to_end = json.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.as_str());
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(metric.bound)
            );
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        let per_layer = json.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.as_str());
        }
    }

    #[test]
    fn every_name_is_used_once_and_fits_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok),
                "{unit}"
            );
        }
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args: Vec<String> = "--workload hot_keys --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Command::Run(run)) = parse(&args) else {
            panic!("a run command");
        };
        assert_eq!(
            (run.workload.name, run.seed, run.seconds, run.trace),
            ("hot_keys", 7, 20, true)
        );
        let untraced: Vec<String> = "--workload net_delay --seed 1 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Command::Run(run)) = parse(&untraced) else {
            panic!("a run command");
        };
        assert_eq!((run.seconds, run.trace), (DEFAULT_SECONDS, false));
        assert!(parse(&[
            "--workload".into(),
            "nope".into(),
            "--seed".into(),
            "1".into()
        ])
        .is_err());
        assert!(parse(&["--seed".into(), "1".into()]).is_err());
        let bare: Vec<String> = "--workload net_delay --seed 1 --trace"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(parse(&bare).is_err(), "--trace takes 0 or 1");
    }
}
