//! The four workloads at smoke size (tick counts / 50): every output check
//! holds, the modelled outcome is a function of the seed alone, and a
//! traced run yields the per-layer metrics.

use std::time::Instant;

use servo_benchmark::metrics::{END_TO_END, PER_LAYER};
use servo_benchmark::run_workload;
use servo_benchmark::runner::{RunConfig, RunResult};
use servo_benchmark::workloads::{Plan, NAMES};

fn smoke(workload: &str, seed: u64, trace: bool) -> RunResult {
    let config = RunConfig {
        seed,
        plan: Plan::smoke(),
        trace,
        setup_reps: 1,
        out_dir: None,
    };
    run_workload(workload, &config).expect("the workload runs")
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .end_to_end
        .iter()
        .chain(&result.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn every_workload_passes_its_checks_quickly() {
    let started = Instant::now();
    for workload in NAMES {
        let result = smoke(workload, 7, false);
        for check in &result.checks {
            assert!(
                check.passed,
                "{workload}: {} [{}]",
                check.name, check.detail
            );
        }
        assert!(result.correct);
        assert_eq!(result.failed, 0, "{workload}");
        assert!(result.attempted >= result.samples);
        assert_eq!(result.end_to_end.len(), END_TO_END.len());
        for metric in &result.end_to_end {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{workload}: {} = {}",
                metric.name,
                metric.value
            );
        }
        // The result line is the contract's object.
        let line = result.contract_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!line.contains('\n'));
    }
    // ~4 s alone in an optimized build. Asserted by `cargo test --release`
    // only: the bound is there to catch a smoke mode that stopped being
    // one, not a slow or busy host.
    assert!(
        started.elapsed().as_secs() < 15 || cfg!(debug_assertions),
        "smoke runs took {:?}",
        started.elapsed()
    );
}

#[test]
fn modelled_outcome_is_a_function_of_the_seed() {
    for workload in ["sc_offload", "cluster_churn"] {
        let first = smoke(workload, 7, false);
        let again = smoke(workload, 7, true);
        let other = smoke(workload, 8, false);
        assert_eq!(first.sim_fingerprint, again.sim_fingerprint, "{workload}");
        assert_ne!(first.sim_fingerprint, other.sim_fingerprint, "{workload}");
        for name in [
            "sim_tick_p50_ms",
            "sim_tick_p99_ms",
            "sim_qos_ok_frac",
            "sim_cost_usd_per_hour",
            "ok_frac",
        ] {
            assert_eq!(
                value(&first, name),
                value(&again, name),
                "{workload} {name}"
            );
        }
    }
}

#[test]
fn traced_run_reports_the_layers_the_workload_exercises() {
    let result = smoke("replication_fanout", 7, true);
    assert!(result.correct);
    assert_eq!(result.per_layer.len(), PER_LAYER.len());
    for name in [
        "workload.fleet_tick_ns",
        "server.cluster_run_tick_ns",
        "server.msgs_per_tick",
        "core.spec_invocations",
        "core.flush_persistence_ns",
        "redstone.step_ns",
        "faas.invoke_ns",
        "pcg.generate_chunk_ns",
        "world.set_block_ns",
        "world.snapshot_bytes",
        "storage.writeback_ns_per_chunk",
        "storage.wal_append_ns",
        "storage.read_miss_ns",
        "storage.chunks_flushed",
        "replication.subscribe_ns",
        "replication.retarget_ns",
        "replication.ingest_ns_per_chunk",
        "replication.flush_ns_per_frame",
        "replication.frames",
        "host.allocs_per_tick",
    ] {
        assert!(value(&result, name) > 0.0, "{name} is not reported");
    }
    // A single-server run feeds the cluster-only layers nothing.
    assert_eq!(value(&result, "server.run_tick_ns"), 0.0);
    let coverage = result.trace_coverage.expect("a traced run has spans");
    assert!(coverage > 0.9 && coverage <= 1.0, "coverage {coverage}");
}
