//! Runs one workload and turns what it did into the benchmark's metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use servo::metrics::percentile;

use crate::stats::median;
use crate::trace::{self_times, NameTotals, Tracer, NO_SPAN};
use crate::workloads::{Check, Plan, Workload};
use crate::{alloc, host, probes};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Size of the measured window.
    pub plan: Plan,
    /// Record spans, count allocations and run the layer probes.
    pub trace: bool,
    /// How many times to set up (the median is `setup_s`).
    pub setup_reps: usize,
    /// Where the detail file and the trace go; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`crate::metrics`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from [`crate::metrics`].
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// The run's configuration.
    pub config: RunConfig,
    /// All output checks passed.
    pub correct: bool,
    /// Operations attempted (measured ticks included).
    pub attempted: u64,
    /// Operations failed (violated checks included).
    pub failed: u64,
    /// Every end-to-end metric. Host-time ones are perturbed when
    /// `config.trace` is set.
    pub end_to_end: Vec<Metric>,
    /// Every per-layer metric (all zero unless `config.trace`).
    pub per_layer: Vec<Metric>,
    /// Hash of the modelled outcome.
    pub sim_fingerprint: String,
    /// Measured driver iterations (the sample count behind the host
    /// percentiles).
    pub samples: u64,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// Share of the measured window covered by driver spans.
    pub trace_coverage: Option<f64>,
    /// Calls, total and self time per span name (empty unless traced).
    pub span_totals: Vec<(&'static str, NameTotals)>,
    /// The output checks.
    pub checks: Vec<Check>,
}

fn metrics(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Runs workload `W` as configured.
pub fn run<W: Workload>(config: &RunConfig) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(false);

    // Set-up, repeated; the last instance is the one measured.
    let reps = config.setup_reps.max(1);
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    for rep in 0..reps {
        // Release the previous instance first, so peak memory stays that of
        // one system.
        drop(workload.take());
        tracer.set_enabled(config.trace && rep + 1 == reps);
        let started = Instant::now();
        workload = Some(W::setup(config.seed, config.plan, &mut tracer));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");

    // The measured window.
    let (segments, ticks_per_segment) = W::shape(config.plan);
    let total_ticks = segments as u64 * ticks_per_segment;
    let mut host_ns: Vec<f64> = Vec::with_capacity(total_ticks as usize);
    let mut window_ns = 0u128;
    let allocs_before = alloc::counted();
    let cpu_before = host::cpu_usage()?;
    let setup_spans = tracer.spans().len();
    tracer.set_enabled(config.trace);
    let mut tick_index = 0u64;
    for segment in 0..segments {
        let segment_start = Instant::now();
        let span = tracer.begin("driver.open_segment");
        workload.open_segment(segment);
        tracer.end(span);
        alloc::arm(config.trace);
        for _ in 0..ticks_per_segment {
            tracer.set_tick(tick_index);
            let started = Instant::now();
            let span = tracer.begin("driver.tick");
            workload.tick(&mut tracer);
            tracer.end(span);
            host_ns.push(started.elapsed().as_nanos() as f64);
            tick_index += 1;
        }
        alloc::arm(false);
        window_ns += segment_start.elapsed().as_nanos();
        // Reading the segment's outcome is not part of the window.
        workload.observe_segment(config.trace);
        let close_start = Instant::now();
        let span = tracer.begin("driver.close_segment");
        workload.close_segment();
        tracer.end(span);
        window_ns += close_start.elapsed().as_nanos();
    }
    let cpu_after = host::cpu_usage()?;
    let allocs_after = alloc::counted();
    let window_spans = tracer.spans().len();

    let outcome = workload.finish(&mut tracer);
    // Read before the probes build their scratch worlds.
    let peak_rss_mb = host::peak_rss_mb()?;

    // End-to-end metrics.
    let window_s = window_ns as f64 / 1e9;
    let sim_ms = &outcome.sim_tick_ms;
    let over_budget = sim_ms.iter().filter(|&&ms| ms > 50.0).count();
    let violated = outcome.checks.iter().filter(|c| !c.passed).count() as u64;
    let failed = outcome.failed_ops + violated;
    let attempted = outcome.attempted_ops + total_ticks;
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("ticks_per_s", total_ticks as f64 / window_s);
    e2e.insert("tick_host_p50_us", median(&host_ns) / 1e3);
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert("sim_tick_p50_ms", median(sim_ms));
    e2e.insert("sim_tick_p99_ms", percentile(sim_ms, 0.99));
    e2e.insert(
        "sim_qos_ok_frac",
        1.0 - over_budget as f64 / sim_ms.len().max(1) as f64,
    );
    e2e.insert(
        "sim_cost_usd_per_hour",
        outcome.cost_usd / outcome.sim_hours,
    );
    e2e.insert("ok_frac", 1.0 - failed as f64 / attempted as f64);

    // Per-layer metrics: counts, span means, host counters, probes.
    let mut layer: BTreeMap<&str, f64> = outcome.counts.clone();
    let mut trace_coverage = None;
    let mut span_totals = Vec::new();
    if config.trace {
        let totals = self_times(tracer.spans());
        for (span_name, metric) in [
            ("workload.fleet_tick", "workload.fleet_tick_ns"),
            ("server.run_tick", "server.run_tick_ns"),
            ("server.cluster_run_tick", "server.cluster_run_tick_ns"),
            ("core.flush_persistence", "core.flush_persistence_ns"),
            ("replication.subscribe", "replication.subscribe_ns"),
            ("replication.retarget", "replication.retarget_ns"),
        ] {
            if let Some(t) = totals.get(span_name) {
                let ops = t.calls * outcome.span_ops.get(span_name).copied().unwrap_or(1);
                layer.insert(metric, t.total_ns as f64 / ops.max(1) as f64);
            }
        }
        // Self times partition the root spans, so the window's self times
        // sum to the summed duration of its root spans.
        let covered_ns: u64 = tracer.spans()[setup_spans..window_spans]
            .iter()
            .filter(|s| s.parent == NO_SPAN)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        trace_coverage = Some(covered_ns as f64 / window_ns.max(1) as f64);
        span_totals = totals.into_iter().collect();

        // The 99th percentile sits on the knee between ordinary ticks and
        // the rare heavy ones (speculation batches, chunk loads), so it
        // swings by tens of per cent between runs: a per-layer number, not
        // a bounded end-to-end one.
        layer.insert("host.tick_p99_us", percentile(&host_ns, 0.99) / 1e3);
        layer.insert("host.user_s", cpu_after.user_s - cpu_before.user_s);
        layer.insert("host.sys_s", cpu_after.sys_s - cpu_before.sys_s);
        layer.insert(
            "host.minor_faults",
            (cpu_after.minor_faults - cpu_before.minor_faults) as f64,
        );
        layer.insert(
            "host.allocs_per_tick",
            (allocs_after.0 - allocs_before.0) as f64 / total_ticks as f64,
        );
        layer.insert(
            "host.alloc_bytes_per_tick",
            (allocs_after.1 - allocs_before.1) as f64 / total_ticks as f64,
        );
        layer.extend(probes::run(&outcome.probe, config.seed));
    }

    let result = RunResult {
        workload: W::NAME,
        config: config.clone(),
        correct: violated == 0,
        attempted,
        failed,
        end_to_end: metrics(&END_TO_END, &e2e),
        per_layer: metrics(&PER_LAYER, &layer),
        sim_fingerprint: outcome.fingerprint.hex(),
        samples: total_ticks,
        window_s,
        trace_coverage,
        span_totals,
        checks: outcome.checks,
    };
    if let Some(dir) = &config.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let mode = if config.trace { "traced" } else { "untraced" };
        let detail = dir.join(format!("{}.{mode}.json", W::NAME));
        std::fs::write(&detail, result.to_json().to_pretty())
            .map_err(|e| format!("cannot write {detail:?}: {e}"))?;
        if config.trace {
            let trace = dir.join(format!("{}.trace.jsonl", W::NAME));
            tracer
                .write_jsonl(&trace)
                .map_err(|e| format!("cannot write {trace:?}: {e}"))?;
        }
    }
    Ok(result)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

impl RunResult {
    /// The metrics the driver contract asks for: end-to-end ones from an
    /// untraced run, per-layer ones from a traced run.
    pub fn contract_metrics(&self) -> &[Metric] {
        if self.config.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one-line result object the driver reads from the last line of
    /// standard output.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(self.contract_metrics())),
        ])
        .to_line()
    }

    /// The full record written to the detail file and into `results.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.config.seed as f64)),
            ("scale", Json::Num(self.config.plan.scale)),
            ("trace", Json::Bool(self.config.trace)),
            ("setup_reps", Json::Num(self.config.setup_reps as f64)),
            ("cores", Json::Num(host::cores() as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("sim_fingerprint", Json::str(&self.sim_fingerprint)),
            ("samples", Json::Num(self.samples as f64)),
            ("window_s", Json::Num(self.window_s)),
            (
                "trace_coverage",
                self.trace_coverage.map_or(Json::Null, Json::Num),
            ),
            (
                "spans",
                Json::obj(self.span_totals.iter().map(|(name, t)| {
                    (
                        *name,
                        Json::obj([
                            ("calls", Json::Num(t.calls as f64)),
                            ("total_ns", Json::Num(t.total_ns as f64)),
                            ("self_ns", Json::Num(t.self_ns as f64)),
                        ]),
                    )
                })),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name)),
                                ("passed", Json::Bool(c.passed)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
        ])
    }

    /// Prints every reported metric by name with its unit, the checks and
    /// the fingerprint.
    pub fn print(&self) {
        let mode = if self.config.trace {
            "traced"
        } else {
            "untraced"
        };
        println!(
            "== {} ({mode}, seed {}, scale {:.4}, {} ticks in {:.3} s, {} cores)",
            self.workload,
            self.config.seed,
            self.config.plan.scale,
            self.samples,
            self.window_s,
            host::cores(),
        );
        for m in self.contract_metrics() {
            println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for (name, t) in &self.span_totals {
            println!(
                "span {name:<26} {:>8} calls {:>12.3} ms total {:>12.3} ms self",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        if let Some(coverage) = self.trace_coverage {
            println!(
                "driver spans cover {:.2} % of the measured window",
                coverage * 100.0
            );
        }
        println!(
            "host percentiles over {} samples ({} beyond p99)",
            self.samples,
            self.samples / 100
        );
        for check in &self.checks {
            let verdict = if check.passed { "ok  " } else { "FAIL" };
            println!("check {verdict} {} [{}]", check.name, check.detail);
        }
        println!("sim_fingerprint {}", self.sim_fingerprint);
    }
}
