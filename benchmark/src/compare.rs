//! `compare <a.json> <b.json>`: one row per (workload, end-to-end metric)
//! of two `results.json` files, judged against the bounds `BENCHMARK.json`
//! fixes.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{higher_is_better, is_deterministic, END_TO_END};
use crate::stats::quartile_spread;
use crate::workloads::NAMES;

/// How a metric moved from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// An input's own run-to-run spread exceeds the bound, so a move of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a move from `a` to `b` of a metric with the given direction and
/// `bound` (a share of `a`); `spreads` are the inputs' own quartile
/// spreads, where known.
pub fn judge(
    a: f64,
    b: f64,
    higher_better: bool,
    bound: f64,
    spreads: [Option<f64>; 2],
) -> Verdict {
    if spreads.iter().flatten().any(|&s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_better { a - b } else { b - a } / a.abs();
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document, by metric name.
pub fn bounds(benchmark_json: &Json) -> Result<BTreeMap<String, f64>, String> {
    let metrics = benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err("end_to_end entry without name or bound".to_string()),
            }
        })
        .collect()
}

struct Sample {
    value: f64,
    spread: Option<f64>,
}

fn sample(results: &Json, workload: &str, metric: &str) -> Option<Sample> {
    let entry = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let samples: Vec<f64> = entry
        .get("samples")
        .and_then(Json::as_arr)
        .map(|s| s.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Sample {
        value: entry.get("value")?.as_f64()?,
        spread: quartile_spread(&samples),
    })
}

fn fingerprint<'a>(results: &'a Json, workload: &str) -> Option<&'a str> {
    results
        .get("workloads")?
        .get(workload)?
        .get("sim_fingerprint")?
        .as_str()
}

/// Prints the comparison table. Returns whether `b` passes: no metric is
/// `worse`, `ok_frac` did not drop, and — with `exact_sim`, for two sets of
/// one commit and seed — every deterministic metric and every
/// `sim_fingerprint` is identical.
pub fn compare(
    a: &Json,
    b: &Json,
    bounds: &BTreeMap<String, f64>,
    exact_sim: bool,
) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<20} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for workload in NAMES {
        for (metric, _unit) in END_TO_END {
            let (Some(sa), Some(sb)) = (sample(a, workload, metric), sample(b, workload, metric))
            else {
                return Err(format!("{workload}/{metric} missing from an input"));
            };
            let bound = *bounds
                .get(metric)
                .ok_or_else(|| format!("BENCHMARK.json fixes no bound for {metric}"))?;
            let verdict = judge(
                sa.value,
                sb.value,
                higher_is_better(metric),
                bound,
                [sa.spread, sb.spread],
            );
            let mut note = String::new();
            if verdict == Verdict::Worse {
                pass = false;
            }
            if metric == "ok_frac" && sb.value < sa.value {
                pass = false;
                note = " (more operations failed)".to_string();
            }
            if exact_sim && is_deterministic(metric) && sa.value != sb.value {
                pass = false;
                note = " (must repeat exactly)".to_string();
            }
            println!(
                "{workload:<20} {metric:<22} {:>14.6} {:>14.6} {:>9.4} {bound:>6.3}  {}{note}",
                sa.value,
                sb.value,
                sb.value / sa.value,
                verdict.label(),
            );
        }
        let (fa, fb) = (fingerprint(a, workload), fingerprint(b, workload));
        let equal = fa.is_some() && fa == fb;
        println!(
            "{workload:<20} {:<22} {:>14} {:>14} {:>9} {:>6}  {}",
            "sim_fingerprint",
            fa.unwrap_or("-"),
            fb.unwrap_or("-"),
            "",
            "",
            if equal { "equal" } else { "different" },
        );
        if exact_sim && !equal {
            pass = false;
        }
    }
    println!("ratios are b/a: a is the base");
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let none = [None, None];
        // Lower is better: +20 % is worse at a 10 % bound, -20 % better.
        assert_eq!(judge(100.0, 120.0, false, 0.1, none), Verdict::Worse);
        assert_eq!(judge(100.0, 80.0, false, 0.1, none), Verdict::Better);
        assert_eq!(judge(100.0, 105.0, false, 0.1, none), Verdict::Same);
        // Higher is better: the same moves flip.
        assert_eq!(judge(100.0, 120.0, true, 0.1, none), Verdict::Better);
        assert_eq!(judge(100.0, 80.0, true, 0.1, none), Verdict::Worse);
        // A noisy input cannot resolve a move of the bound's size.
        assert_eq!(
            judge(100.0, 120.0, false, 0.1, [Some(0.02), Some(0.3)]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 120.0, false, 0.1, [Some(0.02), Some(0.03)]),
            Verdict::Worse
        );
    }

    fn results(ticks_per_s: f64, samples: &[f64], ok_frac: f64, fingerprint: &str) -> Json {
        let workloads = NAMES.map(|name| {
            let metrics = END_TO_END.map(|(metric, unit)| {
                let value = match metric {
                    "ticks_per_s" => ticks_per_s,
                    "ok_frac" => ok_frac,
                    _ => 1.0,
                };
                let samples = if metric == "ticks_per_s" {
                    samples
                } else {
                    &[]
                };
                (
                    metric,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(unit)),
                        (
                            "samples",
                            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
                        ),
                    ]),
                )
            });
            (
                name,
                Json::obj([
                    ("sim_fingerprint", Json::str(fingerprint)),
                    ("end_to_end", Json::obj(metrics)),
                ]),
            )
        });
        Json::obj([("workloads", Json::obj(workloads))])
    }

    fn test_bounds() -> BTreeMap<String, f64> {
        END_TO_END
            .iter()
            .map(|(name, _)| (name.to_string(), 0.1))
            .collect()
    }

    #[test]
    fn compare_passes_equal_inputs_and_fails_regressions() {
        let base = results(1000.0, &[], 1.0, "aa");
        assert_eq!(compare(&base, &base, &test_bounds(), true), Ok(true));
        // Slower by more than the bound.
        let slow = results(800.0, &[], 1.0, "aa");
        assert_eq!(compare(&base, &slow, &test_bounds(), false), Ok(false));
        // Faster passes; a changed fingerprint only matters with exact_sim.
        let fast = results(1300.0, &[], 1.0, "bb");
        assert_eq!(compare(&base, &fast, &test_bounds(), false), Ok(true));
        assert_eq!(compare(&base, &fast, &test_bounds(), true), Ok(false));
        // More failed operations never pass.
        let failing = results(1000.0, &[], 0.99, "aa");
        assert_eq!(compare(&base, &failing, &test_bounds(), false), Ok(false));
        // Noisy samples make the slowdown unresolved instead of worse.
        let noisy = results(800.0, &[500.0, 800.0, 1100.0, 800.0], 1.0, "aa");
        assert_eq!(compare(&base, &noisy, &test_bounds(), false), Ok(true));
        assert!(compare(&base, &Json::Null, &test_bounds(), false).is_err());
    }

    #[test]
    fn reads_bounds_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&doc).unwrap()["setup_s"], 0.25);
        assert!(bounds(&Json::Null).is_err());
    }
}
