//! `terrain_explore` — five walkers fanning out over procedurally
//! generated terrain at view distance 128 (the shape of the paper's
//! Fig. 10), so terrain generation and world insertion dominate.
//!
//! The workload is episodic: every segment builds a fresh deployment,
//! walks it for a fixed number of ticks and drops it. One long walk grows
//! to gigabytes, and its wall time then swings with first-touch page
//! faults far more than with anything the code does; recycled episodes
//! repeat.

use std::collections::BTreeMap;

use servo::core::{ServoConfig, ServoDeployment};
use servo::pcg::DefaultGenerator;
use servo::server::ServerConfig;
use servo::simkit::SimRng;
use servo::types::{ChunkPos, SimDuration};
use servo::workload::{BehaviorKind, PlayerFleet};
use servo::world::{Chunk, WorldKind};

use super::{
    count_platform, count_terrain, fold_durations, fold_report, fold_world, to_ms, total_cost,
    Check, Counts, Outcome, Plan, ProbeInputs, Workload,
};
use crate::stats::Fingerprint;
use crate::trace::Tracer;

const PLAYERS: usize = 5;
const VIEW_DISTANCE: i32 = 128;
const FULL_EPISODES: u64 = 12;
const EPISODE_TICKS: u64 = 4_000;

struct Episode {
    deployment: ServoDeployment,
    fleet: PlayerFleet,
    budget: SimDuration,
}

impl Episode {
    fn build(seed: u64) -> Episode {
        let config = ServoConfig {
            server: ServerConfig::servo_base()
                .with_view_distance(VIEW_DISTANCE)
                .with_world_kind(WorldKind::Default),
            // The driver ticks the bare server; see `sc_offload`.
            persistence: None,
            seed,
            ..ServoConfig::default()
        };
        let deployment = ServoDeployment::from_config(config);
        let mut fleet = PlayerFleet::new(
            BehaviorKind::IncreasingStar {
                step_every: SimDuration::from_secs(50),
            },
            SimRng::seed(seed ^ 0x5eed),
        );
        fleet.connect_all(PLAYERS);
        let budget = deployment.server.config().tick_budget();
        Episode {
            deployment,
            fleet,
            budget,
        }
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
    }
}

/// The running workload: the current episode plus what finished episodes
/// contributed.
pub struct TerrainExplore {
    seed: u64,
    episode: Option<Episode>,
    sim_tick_ms: Vec<f64>,
    sim_hours: f64,
    cost_usd: f64,
    failed_ops: u64,
    attempted_ops: u64,
    counts: Counts,
    view_range_ok: Vec<bool>,
    fingerprint: Fingerprint,
    /// The last episode's generated positions and a sample of its chunks.
    last_positions: Vec<ChunkPos>,
    last_chunks: Vec<Chunk>,
}

/// Ticks per episode and episodes under `plan`: the plan scales the
/// episode count; below one full episode it shortens the single episode.
fn episodes(plan: Plan) -> (usize, u64) {
    let total = plan.ticks(FULL_EPISODES * EPISODE_TICKS);
    if total >= EPISODE_TICKS {
        (
            ((total as f64 / EPISODE_TICKS as f64).round() as usize).max(1),
            EPISODE_TICKS,
        )
    } else {
        (1, total)
    }
}

impl Workload for TerrainExplore {
    const NAME: &'static str = "terrain_explore";

    fn shape(plan: Plan) -> (usize, u64) {
        episodes(plan)
    }

    fn setup(seed: u64, plan: Plan, _tracer: &mut Tracer) -> Self {
        // One warm-up episode: the allocator and the page cache reach the
        // state every measured episode then starts from.
        let mut warmup = Episode::build(seed);
        let mut untraced = Tracer::new(false);
        for _ in 0..episodes(plan).1 {
            warmup.tick(&mut untraced);
        }
        drop(warmup);
        TerrainExplore {
            seed,
            episode: None,
            sim_tick_ms: Vec::new(),
            sim_hours: 0.0,
            cost_usd: 0.0,
            failed_ops: 0,
            attempted_ops: 0,
            counts: Counts::new(),
            view_range_ok: Vec::new(),
            fingerprint: Fingerprint::default(),
            last_positions: Vec::new(),
            last_chunks: Vec::new(),
        }
    }

    fn open_segment(&mut self, index: usize) {
        // Episode 0 is the warm-up's seed; measured episodes follow it.
        self.episode = Some(Episode::build(self.seed.wrapping_add(1 + index as u64)));
    }

    fn tick(&mut self, tracer: &mut Tracer) {
        self.episode
            .as_mut()
            .expect("a segment is open")
            .tick(tracer);
    }

    fn observe_segment(&mut self, keep_probe_inputs: bool) {
        let episode = self.episode.as_ref().expect("a segment is open");
        let server = &episode.deployment.server;
        let durations = server.tick_durations();
        let now = server.now();
        let terrain = episode.deployment.terrain.stats();
        let platform = episode.deployment.terrain.platform_stats();

        self.sim_tick_ms.extend(to_ms(&durations));
        self.sim_hours += now.as_secs_f64() / 3600.0;
        self.cost_usd += total_cost(&[
            episode.deployment.terrain.billing_at(now),
            episode.deployment.speculation.billing_at(now),
        ]);
        self.failed_ops += platform.rejected + terrain.failed;
        self.attempted_ops += platform.invocations;
        count_platform(&mut self.counts, &platform);
        count_terrain(&mut self.counts, &terrain);
        self.view_range_ok.push(
            server
                .reports()
                .last()
                .is_some_and(|r| r.view_range_blocks >= f64::from(VIEW_DISTANCE)),
        );

        fold_durations(&mut self.fingerprint, &durations);
        fold_report(&mut self.fingerprint, &platform);
        self.last_chunks = fold_world(&mut self.fingerprint, server, keep_probe_inputs);
        if keep_probe_inputs {
            self.last_positions = server.world().loaded_positions();
            self.last_positions.sort_by_key(|p| (p.x, p.z));
        }
    }

    fn close_segment(&mut self) {
        self.episode = None;
    }

    fn finish(self, _tracer: &mut Tracer) -> Outcome {
        let checks = vec![Check::new(
            "last-tick view range >= 128 in every episode",
            self.view_range_ok.iter().all(|&ok| ok),
            format!("per episode: {:?}", self.view_range_ok),
        )];
        // The measured episodes' seeds follow the warm-up's; the probe
        // regenerates the last episode's terrain.
        let last_seed = self.seed.wrapping_add(self.view_range_ok.len() as u64);
        Outcome {
            sim_tick_ms: self.sim_tick_ms,
            sim_hours: self.sim_hours,
            cost_usd: self.cost_usd,
            failed_ops: self.failed_ops,
            attempted_ops: self.attempted_ops,
            checks,
            counts: self.counts,
            span_ops: BTreeMap::new(),
            fingerprint: self.fingerprint,
            probe: ProbeInputs {
                terrain: Some((
                    Box::new(DefaultGenerator::new(last_seed)),
                    self.last_positions,
                )),
                chunks: self.last_chunks,
                ..ProbeInputs::default()
            },
        }
    }
}
