//! The full set: every workload untraced (optionally several times), then
//! once more traced, each in a process of its own so peak memory and CPU
//! time are the workload's alone. Collects the runs' detail files into
//! `results.json`.

use std::path::PathBuf;
use std::process::Command;

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, TRACE_OVERHEAD, TRACE_OVERHEAD_LIMIT};
use crate::stats::median;
use crate::workloads::NAMES;

/// What to run and what to record next to the numbers.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Seed of every workload.
    pub seed: u64,
    /// `--seconds` passed to every run (ignored with `smoke`).
    pub seconds: f64,
    /// Run the smoke plan instead.
    pub smoke: bool,
    /// Untraced repetitions per workload; the reported value is their
    /// median and `compare` derives each input's own spread from them.
    pub reps: usize,
    /// Output directory.
    pub out_dir: PathBuf,
    /// `rustc -V`, recorded verbatim.
    pub rustc: String,
    /// The git commit, recorded verbatim.
    pub commit: String,
}

fn run_child(config: &SuiteConfig, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &config.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&config.out_dir);
    if config.smoke {
        command.arg("--smoke");
    } else {
        command.args(["--seconds", &config.seconds.to_string()]);
    }
    // `status` waits for the child; its output goes straight to ours.
    let status = command
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    // A failed output check makes the child exit non-zero after it wrote
    // its detail file; only a missing file is fatal here.
    let mode = if trace { "traced" } else { "untraced" };
    let detail = config.out_dir.join(format!("{workload}.{mode}.json"));
    let text = std::fs::read_to_string(&detail).map_err(|e| {
        format!("{workload} ({mode}) exited with {status} and left no {detail:?}: {e}")
    })?;
    Json::parse(&text)
}

fn metric_value(detail: &Json, section: &str, name: &str) -> Option<f64> {
    detail.get(section)?.get(name)?.get("value")?.as_f64()
}

fn flag(detail: &Json, key: &str) -> bool {
    matches!(detail.get(key), Some(Json::Bool(true)))
}

/// Runs the set and writes `results.json`. Returns whether every output
/// check held, including that each workload's untraced and traced runs
/// produced the same `sim_fingerprint`.
pub fn run(config: &SuiteConfig) -> Result<bool, String> {
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("cannot create {:?}: {e}", config.out_dir))?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut scale = None;
    for workload in NAMES {
        let untraced: Vec<Json> = (0..config.reps.max(1))
            .map(|_| run_child(config, workload, false))
            .collect::<Result<_, _>>()?;
        let traced = run_child(config, workload, true)?;
        scale = scale.or(untraced[0].get("scale").and_then(Json::as_f64));

        let fingerprint = untraced[0].get("sim_fingerprint").cloned();
        let fingerprints_match = fingerprint.is_some()
            && untraced
                .iter()
                .chain([&traced])
                .all(|run| run.get("sim_fingerprint") == fingerprint.as_ref());
        let correct = untraced.iter().all(|run| flag(run, "correct")) && flag(&traced, "correct");
        if !fingerprints_match {
            println!("check FAIL {workload}: untraced and traced sim_fingerprint differ");
        }
        all_ok &= correct && fingerprints_match;

        let end_to_end = Json::obj(END_TO_END.map(|(name, unit)| {
            let samples: Vec<f64> = untraced
                .iter()
                .filter_map(|run| metric_value(run, "end_to_end", name))
                .collect();
            (
                name,
                Json::obj([
                    ("value", Json::Num(median(&samples))),
                    ("unit", Json::str(unit)),
                    (
                        "samples",
                        Json::Arr(samples.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            )
        }));
        let ticks_per_s = |run: &Json| metric_value(run, "end_to_end", "ticks_per_s");
        let untraced_rate: Vec<f64> = untraced.iter().filter_map(ticks_per_s).collect();
        let trace_overhead = 1.0 - ticks_per_s(&traced).unwrap_or(0.0) / median(&untraced_rate);
        println!(
            "{:<34} {trace_overhead:>18.6} {}",
            TRACE_OVERHEAD.0, TRACE_OVERHEAD.1
        );
        // Host noise between two processes, not an output check: flagged,
        // not fatal. At smoke size the windows are too short to tell.
        if trace_overhead > TRACE_OVERHEAD_LIMIT && !config.smoke {
            println!(
                "note {workload}: {} exceeds {TRACE_OVERHEAD_LIMIT}",
                TRACE_OVERHEAD.0
            );
        }
        let layer_values = PER_LAYER
            .map(|(name, unit)| {
                let value = metric_value(&traced, "per_layer", name).unwrap_or(0.0);
                (name, unit, value)
            })
            .into_iter()
            .chain([(TRACE_OVERHEAD.0, TRACE_OVERHEAD.1, trace_overhead)]);
        let per_layer = Json::obj(layer_values.map(|(name, unit, value)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }));
        let field = |key: &str| untraced[0].get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            workload,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("fingerprints_match", Json::Bool(fingerprints_match)),
                ("sim_fingerprint", fingerprint.unwrap_or(Json::Null)),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("samples", field("samples")),
                ("checks", field("checks")),
                (
                    "trace_coverage",
                    traced.get("trace_coverage").cloned().unwrap_or(Json::Null),
                ),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }
    let results = Json::obj([
        ("benchmark", Json::str("servo-benchmark")),
        ("seed", Json::Num(config.seed as f64)),
        ("scale", scale.map_or(Json::Null, Json::Num)),
        ("smoke", Json::Bool(config.smoke)),
        ("untraced_reps", Json::Num(config.reps.max(1) as f64)),
        (
            "hardware",
            Json::obj([("cores", Json::Num(host::cores() as f64))]),
        ),
        ("rustc", Json::str(&config.rustc)),
        ("commit", Json::str(&config.commit)),
        ("all_checks_passed", Json::Bool(all_ok)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = config.out_dir.join("results.json");
    std::fs::write(&path, results.to_pretty())
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("[saved {}]", path.display());
    Ok(all_ok)
}
