//! The canonical wall-clock benchmark of the Servo reproduction.
//!
//! Four fixed-work workloads drive the `servo` library through its public
//! API, report host time next to modelled time, and — in a traced run —
//! attribute the host time to layers with driver spans, public counters
//! and isolated layer probes. See `README.md` for the metric tables.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod runner;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

use runner::{RunConfig, RunResult};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// The `--seconds` used when it is not given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
use workloads::{
    cluster_churn::ClusterChurn, replication_fanout::ReplicationFanout, sc_offload::ScOffload,
    terrain_explore::TerrainExplore, Workload,
};

/// Runs the workload called `name`.
pub fn run_workload(name: &str, config: &RunConfig) -> Result<RunResult, String> {
    match name {
        ScOffload::NAME => runner::run::<ScOffload>(config),
        TerrainExplore::NAME => runner::run::<TerrainExplore>(config),
        ClusterChurn::NAME => runner::run::<ClusterChurn>(config),
        ReplicationFanout::NAME => runner::run::<ReplicationFanout>(config),
        _ => Err(format!(
            "unknown workload {name:?}; the workloads are {}",
            workloads::NAMES.join(", ")
        )),
    }
}
