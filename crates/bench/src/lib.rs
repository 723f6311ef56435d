//! The experiment harness.
//!
//! Every table and figure in the paper's evaluation (Section IV) has a
//! corresponding binary in `src/bin/`; this library holds the shared pieces:
//!
//! * building the three systems under test (Servo, Opencraft, Minecraft),
//!   running capacity sweeps, and writing result tables ([`emit`]);
//! * [`hybrid`] — the border-construct cluster workload the ablations
//!   share: its constants, construct blueprints, player fleet, edit
//!   stream, drive loop and [`hybrid::Window`] summary;
//! * [`artefact`] — the one writer of the `BENCH_*.json` acceptance
//!   artefacts at the workspace root.
//!
//! Experiment binaries accept the `SERVO_EXPERIMENT_SCALE` environment
//! variable (default `1.0`): values below one shorten experiments for smoke
//! testing, values above one lengthen them for tighter statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artefact;
pub mod hybrid;

use std::path::PathBuf;

use servo_core::{ServoConfig, ServoDeployment, SpeculationConfig};
use servo_metrics::{max_supported, CapacityResult, Table};
use servo_redstone::generators;
use servo_server::{GameServer, ServerConfig};
use servo_simkit::SimRng;
use servo_types::SimDuration;
use servo_workload::{BehaviorKind, PlayerFleet};
use servo_world::WorldKind;

/// The three systems compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Servo: serverless offloading on top of Opencraft.
    Servo,
    /// The Opencraft research MVE (local simulation, local generation).
    Opencraft,
    /// The official Minecraft server (local simulation, local generation).
    Minecraft,
}

impl SystemKind {
    /// All systems, in the order the paper's figures list them.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::Servo,
        SystemKind::Opencraft,
        SystemKind::Minecraft,
    ];

    /// The display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Servo => "Servo",
            SystemKind::Opencraft => "Opencraft",
            SystemKind::Minecraft => "Minecraft",
        }
    }
}

/// The world and construct setup of an experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentWorld {
    /// View distance in blocks.
    pub view_distance: i32,
    /// World kind (flat for SC experiments, default for terrain
    /// experiments), matching Table I of the paper.
    pub world_kind: WorldKind,
    /// Number of simulated constructs placed in the world.
    pub constructs: usize,
    /// Size of each construct, in blocks.
    pub construct_size: usize,
}

impl ExperimentWorld {
    /// The flat-world setup used by the simulated-construct experiments
    /// (Sections IV-B, IV-C): a small view distance keeps terrain cost out
    /// of the picture.
    pub fn flat_sc(constructs: usize) -> Self {
        ExperimentWorld {
            view_distance: 32,
            world_kind: WorldKind::Flat,
            constructs,
            construct_size: 64,
        }
    }

    /// The default-world setup used by the terrain experiments
    /// (Sections IV-D, IV-E).
    pub fn default_world(view_distance: i32) -> Self {
        ExperimentWorld {
            view_distance,
            world_kind: WorldKind::Default,
            constructs: 0,
            construct_size: 64,
        }
    }
}

/// Builds one of the three systems with the given world setup.
pub fn build_system(kind: SystemKind, world: &ExperimentWorld, seed: u64) -> GameServer {
    let mut server = match kind {
        SystemKind::Servo => {
            let config = ServoConfig {
                server: ServerConfig::servo_base()
                    .with_view_distance(world.view_distance)
                    .with_world_kind(world.world_kind),
                // The capacity and terrain experiments measure the
                // offloading mechanism under continuously active constructs;
                // the loop-replay cost optimization is evaluated separately
                // (ablation_loop_detection), so it is disabled here to avoid
                // trivially replaying the synthetic constructs.
                speculation: SpeculationConfig {
                    loop_detection: false,
                    ..SpeculationConfig::default()
                },
                seed,
                ..ServoConfig::default()
            };
            ServoDeployment::from_config(config).server
        }
        SystemKind::Opencraft => ServoDeployment::opencraft_baseline(
            seed,
            &ServerConfig::opencraft()
                .with_view_distance(world.view_distance)
                .with_world_kind(world.world_kind),
        ),
        SystemKind::Minecraft => ServoDeployment::minecraft_baseline(
            seed,
            &ServerConfig::minecraft()
                .with_view_distance(world.view_distance)
                .with_world_kind(world.world_kind),
        ),
    };
    let size = world.construct_size;
    server.add_constructs(world.constructs, |_| generators::dense_circuit(size));
    server
}

/// Builds a full Servo deployment (server plus serverless handles) with the
/// given world setup.
pub fn build_servo_deployment(world: &ExperimentWorld, seed: u64) -> ServoDeployment {
    let config = ServoConfig {
        server: ServerConfig::servo_base()
            .with_view_distance(world.view_distance)
            .with_world_kind(world.world_kind),
        seed,
        ..ServoConfig::default()
    };
    let mut deployment = ServoDeployment::from_config(config);
    let size = world.construct_size;
    deployment
        .server
        .add_constructs(world.constructs, |_| generators::dense_circuit(size));
    deployment
}

/// The experiment duration scale from `SERVO_EXPERIMENT_SCALE` (default 1).
pub fn experiment_scale() -> f64 {
    std::env::var("SERVO_EXPERIMENT_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Scales a base duration (in virtual seconds) by the experiment scale,
/// with a floor of one second.
pub fn scaled_secs(base: u64) -> SimDuration {
    let secs = (base as f64 * experiment_scale()).max(1.0);
    SimDuration::from_millis((secs * 1000.0) as u64)
}

/// Runs one measurement: `players` connected players following `behavior`
/// against a freshly built system, returning the recorded tick durations
/// after a short warm-up.
pub fn measure_tick_durations(
    kind: SystemKind,
    world: &ExperimentWorld,
    behavior: BehaviorKind,
    players: usize,
    duration: SimDuration,
    seed: u64,
) -> Vec<SimDuration> {
    let mut server = build_system(kind, world, seed);
    let mut fleet = PlayerFleet::new(behavior, SimRng::seed(seed ^ 0x5eed));
    fleet.connect_all(players);
    // Warm-up: let the terrain around spawn load and speculation get
    // established, then discard those ticks, as the paper's measurements do.
    server.run_with_fleet(&mut fleet, SimDuration::from_secs(15));
    server.discard_reports();
    server.run_with_fleet(&mut fleet, duration);
    server.tick_durations()
}

/// Sweeps player counts and reports the maximum number of supported players
/// for one system, using the paper's QoS rule (<5% of ticks above 50 ms).
pub fn measure_capacity(
    kind: SystemKind,
    world: &ExperimentWorld,
    behavior: BehaviorKind,
    player_counts: &[u32],
    duration: SimDuration,
    seed: u64,
) -> CapacityResult {
    let mut consecutive_failures = 0u32;
    let mut skip_rest = false;
    max_supported(player_counts, |players| {
        if skip_rest {
            // Once a system has clearly collapsed, avoid wasting time on
            // even larger player counts: report an over-budget sample.
            return vec![SimDuration::from_millis(1000)];
        }
        let ticks = measure_tick_durations(kind, world, behavior, players as usize, duration, seed);
        if servo_metrics::qos_satisfied_default(&ticks) {
            consecutive_failures = 0;
        } else {
            consecutive_failures += 1;
            if consecutive_failures >= 3 {
                skip_rest = true;
            }
        }
        ticks
    })
}

/// The directory experiment binaries write their outputs to.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
}

/// Prints a table to stdout and writes it as CSV under `results/<name>.csv`.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("\n=== {title} ===");
    println!("{}", table.render());
    let path = results_dir().join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv()).expect("results CSV must be writable");
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systems_build_with_constructs() {
        let world = ExperimentWorld::flat_sc(3);
        for kind in SystemKind::ALL {
            let server = build_system(kind, &world, 1);
            assert_eq!(server.construct_count(), 3);
            assert_eq!(server.config().view_distance_blocks, 32);
        }
        assert_eq!(SystemKind::Servo.name(), "Servo");
    }

    #[test]
    fn scaled_secs_has_a_floor() {
        std::env::remove_var("SERVO_EXPERIMENT_SCALE");
        assert_eq!(scaled_secs(10), SimDuration::from_secs(10));
        assert!(scaled_secs(0) >= SimDuration::from_secs(1));
    }

    #[test]
    fn capacity_sweep_runs_quickly_on_tiny_setup() {
        let world = ExperimentWorld::flat_sc(0);
        let result = measure_capacity(
            SystemKind::Opencraft,
            &world,
            BehaviorKind::Bounded { radius: 24.0 },
            &[10, 20],
            SimDuration::from_secs(2),
            7,
        );
        assert_eq!(result.max_players, 20);
    }

    #[test]
    fn measure_tick_durations_returns_samples() {
        let world = ExperimentWorld::flat_sc(2);
        let ticks = measure_tick_durations(
            SystemKind::Servo,
            &world,
            BehaviorKind::Bounded { radius: 24.0 },
            5,
            SimDuration::from_secs(2),
            3,
        );
        assert!(ticks.len() >= 30);
    }

    #[test]
    fn artefact_layout_is_byte_exact() {
        use artefact::Object;
        let json = Object::new()
            .text("experiment", "golden")
            .object(
                "workload",
                Object::new()
                    .display("players", 60)
                    .display("zipf", 1.1)
                    .display("fraction", 2e-4),
            )
            .object(
                "arms",
                Object::multiline()
                    .object(
                        "a",
                        Object::new()
                            .fixed("mean_ms", 11.7414, 3)
                            .fixed("rate", 1.0, 4)
                            .fixed("bytes", 452_559_043.6, 0),
                    )
                    .object("b", Object::new().display("qos_ok", false)),
            )
            .fixed("required", 2.0, 1)
            .display("met", true)
            .render();
        assert_eq!(
            json,
            "{\n  \"experiment\": \"golden\",\n  \
             \"workload\": {\"players\": 60, \"zipf\": 1.1, \"fraction\": 0.0002},\n  \
             \"arms\": {\n    \
             \"a\": {\"mean_ms\": 11.741, \"rate\": 1.0000, \"bytes\": 452559044},\n    \
             \"b\": {\"qos_ok\": false}\n  },\n  \
             \"required\": 2.0,\n  \
             \"met\": true\n}\n"
        );
    }

    #[test]
    fn edit_stream_is_pinned_for_seed_13() {
        use servo_types::{BlockPos, PlayerId};
        use servo_workload::PlayerEvent::{BlockBroken, BlockPlaced};
        let mut stream = hybrid::EditStream::new(13);
        let events: Vec<_> = (0..4).flat_map(|_| stream.next_events()).collect();
        let expected = [
            (54, BlockBroken(BlockPos::new(-15, 9, 15))),
            (33, BlockPlaced(BlockPos::new(-17, 9, 30))),
            (19, BlockPlaced(BlockPos::new(-19, 9, -28))),
            (36, BlockBroken(BlockPos::new(34, 9, 10))),
            (53, BlockBroken(BlockPos::new(-20, 9, 22))),
            (6, BlockPlaced(BlockPos::new(38, 9, 9))),
            (35, BlockPlaced(BlockPos::new(-31, 9, 29))),
            (18, BlockBroken(BlockPos::new(-29, 9, 2))),
        ]
        .map(|(player, event)| (PlayerId::new(player), event));
        assert_eq!(events, expected);
    }
}
