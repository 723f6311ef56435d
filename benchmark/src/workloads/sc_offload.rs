//! `sc_offload` — the paper's key experiment: one Servo server whose
//! simulated constructs are all offloaded to the speculative FaaS backend.

use std::collections::BTreeMap;

use servo::core::{ServoConfig, ServoDeployment, SpeculationConfig};
use servo::redstone::generators;
use servo::server::{ServerConfig, ServerStats};
use servo::simkit::SimRng;
use servo::types::SimDuration;
use servo::workload::{BehaviorKind, PlayerFleet};
use servo::world::WorldKind;

use super::{
    construct_probe, count_platform, count_speculation, count_terrain, flat_terrain_probe,
    fold_durations, fold_report, fold_world, to_ms, total_cost, Check, Counts, Outcome, Plan,
    ProbeInputs, Workload,
};
use crate::stats::Fingerprint;
use crate::trace::Tracer;

const CONSTRUCTS: usize = 200;
const CONSTRUCT_BLOCKS: usize = 64;
const PLAYERS: usize = 100;
const WARMUP_TICKS: u64 = 300;
const FULL_TICKS: u64 = 40_000;

/// The running workload.
pub struct ScOffload {
    deployment: ServoDeployment,
    fleet: PlayerFleet,
    budget: SimDuration,
    /// Server counters when the measured window opened.
    baseline: ServerStats,
    ticks: u64,
}

fn resolutions(stats: &ServerStats) -> u64 {
    stats.sc_local + stats.sc_merged + stats.sc_replayed + stats.sc_skipped
}

impl Workload for ScOffload {
    const NAME: &'static str = "sc_offload";

    fn shape(plan: Plan) -> (usize, u64) {
        (1, plan.ticks(FULL_TICKS))
    }

    fn setup(seed: u64, _plan: Plan, _tracer: &mut Tracer) -> Self {
        let config = ServoConfig {
            server: ServerConfig::servo_base()
                .with_view_distance(32)
                .with_world_kind(WorldKind::Flat),
            // Loop detection off, as `servo_bench::build_system` sets it for
            // capacity runs: with it on, the synthetic circuits are replayed
            // from their first detected loop and the offloading path idles.
            speculation: SpeculationConfig {
                loop_detection: false,
                ..SpeculationConfig::default()
            },
            // The driver ticks the bare server, so nothing would ever drive
            // a persistence pipeline.
            persistence: None,
            seed,
            ..ServoConfig::default()
        };
        let mut deployment = ServoDeployment::from_config(config);
        deployment
            .server
            .add_constructs(CONSTRUCTS, |_| generators::dense_circuit(CONSTRUCT_BLOCKS));
        let mut fleet = PlayerFleet::new(
            BehaviorKind::Bounded { radius: 24.0 },
            SimRng::seed(seed ^ 0x5eed),
        );
        fleet.connect_all(PLAYERS);
        let budget = deployment.server.config().tick_budget();
        let mut workload = ScOffload {
            deployment,
            fleet,
            budget,
            baseline: ServerStats::default(),
            ticks: 0,
        };
        // Warm-up: spawn terrain loads and every construct gets its first
        // speculative sequence.
        let mut untraced = Tracer::new(false);
        for _ in 0..WARMUP_TICKS {
            workload.tick(&mut untraced);
        }
        workload.deployment.server.discard_reports();
        workload.baseline = workload.deployment.server.stats();
        workload.ticks = 0;
        workload
    }

    fn tick(&mut self, tracer: &mut Tracer) {
        let server = &mut self.deployment.server;
        let fleet = &mut self.fleet;
        let now = server.now();
        let budget = self.budget;
        let (events, positions) = tracer.span("workload.fleet_tick", || {
            let events = fleet.tick(now, budget);
            (events, fleet.positions())
        });
        tracer.span("server.run_tick", || server.run_tick(&positions, &events));
        self.ticks += 1;
    }

    fn finish(self, tracer: &mut Tracer) -> Outcome {
        let server = &self.deployment.server;
        let durations = server.tick_durations();
        let stats = server.stats();
        let spec = self.deployment.speculation.stats();
        let sc_platform = self.deployment.speculation.platform_stats();
        let terrain = self.deployment.terrain.stats();
        let terrain_platform = self.deployment.terrain.platform_stats();
        let now = server.now();

        let resolved = resolutions(&stats) - resolutions(&self.baseline);
        let checks = vec![
            Check::new(
                "construct_count == 200",
                server.construct_count() == CONSTRUCTS,
                format!("construct_count {}", server.construct_count()),
            ),
            Check::new(
                "every construct resolved on every measured tick",
                resolved == CONSTRUCTS as u64 * self.ticks,
                format!(
                    "sc_local+merged+replayed+skipped delta {resolved}, expected {}",
                    CONSTRUCTS as u64 * self.ticks
                ),
            ),
        ];

        let keep_probe_inputs = tracer.enabled();
        let mut fingerprint = Fingerprint::default();
        fold_durations(&mut fingerprint, &durations);
        fold_report(&mut fingerprint, &spec);
        fold_report(&mut fingerprint, &sc_platform);
        fold_report(&mut fingerprint, &terrain_platform);
        let chunks = fold_world(&mut fingerprint, server, keep_probe_inputs);

        let mut counts = Counts::new();
        count_speculation(&mut counts, &spec);
        count_terrain(&mut counts, &terrain);
        count_platform(&mut counts, &sc_platform);
        count_platform(&mut counts, &terrain_platform);

        let probe = if keep_probe_inputs {
            ProbeInputs {
                construct: Some(construct_probe(
                    generators::dense_circuit(CONSTRUCT_BLOCKS),
                    &self.deployment.config.speculation,
                )),
                terrain: Some(flat_terrain_probe(server)),
                chunks,
                ..ProbeInputs::default()
            }
        } else {
            ProbeInputs::default()
        };
        Outcome {
            sim_tick_ms: to_ms(&durations),
            sim_hours: now.as_secs_f64() / 3600.0,
            cost_usd: total_cost(&[
                self.deployment.speculation.billing_at(now),
                self.deployment.terrain.billing_at(now),
            ]),
            failed_ops: sc_platform.rejected
                + terrain_platform.rejected
                + spec.failed
                + terrain.failed,
            attempted_ops: sc_platform.invocations + terrain_platform.invocations,
            checks,
            counts,
            span_ops: BTreeMap::new(),
            fingerprint,
            probe,
        }
    }
}
