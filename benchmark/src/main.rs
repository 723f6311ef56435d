//! Command line of the benchmark; `run.sh` builds and calls it.

use std::path::PathBuf;
use std::process::ExitCode;

use servo_benchmark::json::Json;
use servo_benchmark::runner::RunConfig;
use servo_benchmark::suite::SuiteConfig;
use servo_benchmark::workloads::{Plan, NAMES};
use servo_benchmark::{compare, run_workload, suite, DEFAULT_SECONDS, DEFAULT_SEED};

const USAGE: &str = "\
usage:
  servo-benchmark run --workload <name> [--seed N] [--seconds S | --smoke] [--trace 0|1]
                      [--out DIR]
  servo-benchmark suite [--seed N] [--seconds S | --smoke] [--reps N] [--out DIR]
                        [--rustc TEXT] [--commit TEXT]
  servo-benchmark compare <a.json> <b.json> [--benchmark-json PATH] [--exact-sim]";

/// `--key value` options, bare `--flag`s and positional arguments.
struct Args {
    options: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

const FLAGS: [&str; 2] = ["--smoke", "--exact-sim"];

/// Every option that takes a value. A misspelt one is an error, not a
/// silently ignored pair.
const OPTIONS: [&str; 9] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--out",
    "--reps",
    "--rustc",
    "--commit",
    "--benchmark-json",
];

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        while let Some(arg) = raw.next() {
            if FLAGS.contains(&arg.as_str()) {
                args.flags.push(arg);
            } else if OPTIONS.contains(&arg.as_str()) {
                let value = raw.next().ok_or_else(|| format!("{arg} needs a value"))?;
                args.options.push((arg, value));
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}\n{USAGE}"));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            None => Ok(default),
            Some(value) => value
                .parse()
                .map_err(|_| format!("{name} {value:?} is not a valid number")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.number("--seconds", DEFAULT_SECONDS)?;
        if seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds} is outside (0, 3600]"))
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.text("--out").unwrap_or("benchmark/out"))
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner() -> Result<bool, String> {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().ok_or(USAGE)?;
    let args = Args::parse(raw)?;
    match command.as_str() {
        "run" => {
            let workload = args.text("--workload").ok_or(USAGE)?;
            let trace = match args.text("--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
            };
            let plan = if args.flag("--smoke") {
                Plan::smoke()
            } else {
                Plan::for_seconds(args.seconds()?)
            };
            // A traced run sets up as often as an untraced one, so the two
            // windows start from the same allocator state.
            let setup_reps = if args.flag("--smoke") { 1 } else { 3 };
            let config = RunConfig {
                seed: args.number("--seed", DEFAULT_SEED)?,
                plan,
                trace,
                setup_reps,
                out_dir: Some(args.out_dir()),
            };
            let result = run_workload(workload, &config)?;
            result.print();
            println!("{}", result.contract_line());
            Ok(result.correct)
        }
        "suite" => suite::run(&SuiteConfig {
            seed: args.number("--seed", DEFAULT_SEED)?,
            seconds: args.seconds()?,
            smoke: args.flag("--smoke"),
            reps: args.number("--reps", 1)?,
            out_dir: args.out_dir(),
            rustc: args.text("--rustc").unwrap_or("unknown").to_string(),
            commit: args.text("--commit").unwrap_or("unknown").to_string(),
        }),
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err(USAGE.to_string());
            };
            let benchmark_json = args.text("--benchmark-json").unwrap_or("BENCHMARK.json");
            let bounds = compare::bounds(&read_json(benchmark_json)?)?;
            compare::compare(
                &read_json(a)?,
                &read_json(b)?,
                &bounds,
                args.flag("--exact-sim"),
            )
        }
        _ => Err(format!(
            "unknown command {command:?} (workloads: {})\n{USAGE}",
            NAMES.join(", ")
        )),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
