//! The four fixed-work workloads and what they share.
//!
//! Each workload drives the library through its public API only, from one
//! thread, in a closed loop: the next simulated tick starts when the
//! previous one returned. The amount of work is fixed by the [`Plan`]
//! (a number of simulated 50 ms ticks), so host time is the dependent
//! variable.

pub mod cluster_churn;
pub mod hybrid;
pub mod replication_fanout;
pub mod sc_offload;
pub mod terrain_explore;

use std::collections::BTreeMap;
use std::sync::Arc;

use servo::core::terrain::TerrainOffloadStats;
use servo::core::{SpeculationConfig, SpeculationStats};
use servo::faas::{BillingMeter, PlatformStats};
use servo::metrics::StatsReport;
use servo::pcg::{FlatGenerator, TerrainGenerator};
use servo::redstone::Blueprint;
use servo::replication::Interest;
use servo::server::GameServer;
use servo::simkit::SimRng;
use servo::types::{BlockPos, ChunkPos, PlayerId, SimDuration};
use servo::workload::PlayerEvent;
use servo::world::{Block, Chunk, ShardMap};

use crate::stats::Fingerprint;
use crate::trace::Tracer;

/// The workload names, in reporting order.
pub const NAMES: [&str; 4] = [
    "sc_offload",
    "terrain_explore",
    "cluster_churn",
    "replication_fanout",
];

/// Seconds of measured window the full-size tick counts were sized for on
/// the 2-core development box; `--seconds` scales every tick count by
/// `seconds / NOMINAL_SECONDS`.
pub const NOMINAL_SECONDS: f64 = 30.0;

/// The common factor applied to every workload's tick count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// `1.0` is the full size of the issue's sizing table.
    pub scale: f64,
}

impl Plan {
    /// The plan whose measured window nominally lasts `seconds`.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            scale: seconds / NOMINAL_SECONDS,
        }
    }

    /// The smoke plan: tick counts divided by 50.
    pub fn smoke() -> Plan {
        Plan { scale: 1.0 / 50.0 }
    }

    /// `full` ticks scaled by the plan (at least one).
    pub fn ticks(&self, full: u64) -> u64 {
        ((full as f64 * self.scale).round() as u64).max(1)
    }
}

/// One output check of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// The observed values.
    pub detail: String,
}

impl Check {
    /// Builds a check from a condition and the values it was evaluated on.
    pub fn new(name: &'static str, passed: bool, detail: String) -> Check {
        Check {
            name,
            passed,
            detail,
        }
    }
}

/// The inputs a workload fed the layers, kept for the isolated layer
/// probes that follow a traced run.
#[derive(Default)]
pub struct ProbeInputs {
    /// The workload's construct blueprint, with the work units one
    /// offloaded invocation of it carries.
    pub construct: Option<(Blueprint, f64)>,
    /// The terrain generator and the chunk positions it was asked for.
    pub terrain: Option<(Box<dyn TerrainGenerator>, Vec<ChunkPos>)>,
    /// A sample of the final world's chunks.
    pub chunks: Vec<Chunk>,
    /// The block writes of the measured window's first ticks, one batch
    /// per tick (empty for workloads without edits).
    pub edits: Vec<Vec<(BlockPos, Block)>>,
    /// Whether the workload persisted terrain (enables the storage probes).
    pub persistence: bool,
    /// The partition, subscriber interests and flush cohorts of the
    /// workload's replication hub.
    pub replication: Option<(Arc<ShardMap>, Vec<Interest>, u64)>,
}

/// Per-layer counts by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What a finished workload hands the runner.
pub struct Outcome {
    /// Modelled duration of every measured tick, in ms.
    pub sim_tick_ms: Vec<f64>,
    /// Simulated hours the FaaS meters below were billed over.
    pub sim_hours: f64,
    /// `total_cost_with_idle_usd` summed over every FaaS meter.
    pub cost_usd: f64,
    /// Operations that failed (see `failed_frac` in the README).
    pub failed_ops: u64,
    /// Operations attempted, not counting the measured ticks themselves.
    pub attempted_ops: u64,
    /// The workload's output checks.
    pub checks: Vec<Check>,
    /// Per-layer counts read through the public stats structs.
    pub counts: Counts,
    /// Operations per span, for span names where one span covers several
    /// (e.g. two retargets per tick): the divisor that turns the span's
    /// mean time into ns per operation.
    pub span_ops: BTreeMap<&'static str, u64>,
    /// Hash over modelled tick durations, statistics rows and world bytes.
    pub fingerprint: Fingerprint,
    /// Inputs for the layer probes.
    pub probe: ProbeInputs,
}

/// A workload as the runner drives it. The measured window consists of
/// `segments` segments of `ticks_per_segment` driver iterations each.
pub trait Workload: Sized {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// `(segments, ticks per segment)` of the measured window.
    fn shape(plan: Plan) -> (usize, u64);

    /// Builds the system and warms it up. Everything in here is `setup_s`.
    fn setup(seed: u64, plan: Plan, tracer: &mut Tracer) -> Self;

    /// Starts measured segment `index` (timed).
    fn open_segment(&mut self, _index: usize) {}

    /// One driver iteration: fleet tick, retargets, server tick (timed).
    fn tick(&mut self, tracer: &mut Tracer);

    /// Reads whatever the open segment's end state must contribute to the
    /// checks and the fingerprint (not timed). Probe inputs are kept only
    /// when asked for: they are copies of world state, and an untraced
    /// run's `peak_rss_mb` must not pay for them.
    fn observe_segment(&mut self, _keep_probe_inputs: bool) {}

    /// Ends the open segment (timed).
    fn close_segment(&mut self) {}

    /// Final flush, output checks and counters. Probe inputs are kept when
    /// `tracer` is recording.
    fn finish(self, tracer: &mut Tracer) -> Outcome;
}

/// The deterministic terrain-edit stream of the cluster ablations:
/// `per_tick` block edits per tick in the spawn area, placed or broken
/// with equal probability, attributed to a random player.
#[derive(Debug, Clone)]
pub struct EditStream {
    rng: SimRng,
    per_tick: usize,
    players: u64,
}

impl EditStream {
    /// A stream that is a pure function of `seed`.
    pub fn new(seed: u64, per_tick: usize, players: usize) -> EditStream {
        EditStream {
            rng: SimRng::seed(seed).substream("terrain-edits"),
            per_tick,
            players: players.max(1) as u64,
        }
    }

    /// The edits of the next tick.
    pub fn next_events(&mut self) -> Vec<(PlayerId, PlayerEvent)> {
        (0..self.per_tick)
            .map(|_| {
                let x = (self.rng.unit() * 81.0) as i32 - 40;
                let z = (self.rng.unit() * 81.0) as i32 - 40;
                let pos = BlockPos::new(x, 9, z);
                let event = if self.rng.unit() < 0.5 {
                    PlayerEvent::BlockPlaced(pos)
                } else {
                    PlayerEvent::BlockBroken(pos)
                };
                let player = (self.rng.unit() * self.players as f64) as u64;
                (PlayerId::new(player.min(self.players - 1)), event)
            })
            .collect()
    }
}

/// The block writes a tick's edit events cause on the server (a placed
/// block is stone, a broken one air).
pub fn edit_writes(events: &[(PlayerId, PlayerEvent)]) -> Vec<(BlockPos, Block)> {
    events
        .iter()
        .filter_map(|(_, event)| match event {
            PlayerEvent::BlockPlaced(pos) => Some((*pos, Block::Stone)),
            PlayerEvent::BlockBroken(pos) => Some((*pos, Block::Air)),
            _ => None,
        })
        .collect()
}

/// How many ticks' worth of edits a workload keeps for the layer probes.
pub const PROBE_EDIT_TICKS: usize = 1024;

/// How many chunks of the final world a workload keeps for the probes.
pub const PROBE_CHUNKS: usize = 256;

/// Folds modelled durations into a fingerprint, as whole microseconds
/// (the resolution of the simulated clock).
pub fn fold_durations(fp: &mut Fingerprint, durations: &[SimDuration]) {
    fp.u64(durations.len() as u64);
    for d in durations {
        fp.u64(d.as_micros());
    }
}

/// Folds every row of a statistics snapshot into a fingerprint.
pub fn fold_report(fp: &mut Fingerprint, report: &dyn StatsReport) {
    fp.str(report.section());
    for (key, value) in report.report() {
        fp.str(key);
        fp.str(&value);
    }
}

/// Folds a server's world into a fingerprint, chunk bytes in `(x, z)`
/// order. With `sample`, returns up to [`PROBE_CHUNKS`] of the chunks.
pub fn fold_world(fp: &mut Fingerprint, server: &GameServer, sample: bool) -> Vec<Chunk> {
    let world = server.world();
    let mut positions = world.loaded_positions();
    positions.sort_by_key(|p| (p.x, p.z));
    fp.u64(positions.len() as u64);
    let stride = positions.len().div_ceil(PROBE_CHUNKS).max(1);
    let mut chunks = Vec::new();
    for (i, pos) in positions.into_iter().enumerate() {
        world.read_chunk(pos, |chunk| {
            fp.bytes(&chunk.to_bytes());
            if sample && i % stride == 0 {
                chunks.push(chunk.clone());
            }
        });
    }
    chunks
}

fn add(counts: &mut Counts, name: &'static str, value: u64) {
    *counts.entry(name).or_default() += value as f64;
}

/// Adds one FaaS platform's counters to the `faas.*` counts.
pub fn count_platform(counts: &mut Counts, platform: &PlatformStats) {
    add(counts, "faas.invocations", platform.invocations);
    add(counts, "faas.cold_starts", platform.cold_starts);
    add(counts, "faas.queued", platform.queued);
    add(counts, "faas.rejected", platform.rejected);
}

/// Adds one terrain backend's counters to the `core.terrain_*` counts.
pub fn count_terrain(counts: &mut Counts, terrain: &TerrainOffloadStats) {
    add(counts, "core.terrain_invocations", terrain.invocations);
    add(
        counts,
        "core.terrain_chunks_delivered",
        terrain.chunks_delivered,
    );
}

/// Sets the `core.spec_*` counts from the (merged) speculation statistics.
pub fn count_speculation(counts: &mut Counts, spec: &SpeculationStats) {
    add(counts, "core.spec_invocations", spec.invocations);
    add(counts, "core.spec_applied", spec.speculative_applied);
    add(counts, "core.spec_loop_replayed", spec.loop_replayed);
    add(counts, "core.spec_local_fallback", spec.local_fallback);
    add(
        counts,
        "core.spec_discarded",
        spec.discarded_stale + spec.discarded_migrated,
    );
    counts.insert(
        "core.spec_efficiency_p50",
        spec.median_efficiency().unwrap_or(0.0),
    );
}

/// The redstone and faas probes' input: the workload's blueprint with the
/// work units one offloaded invocation of it carries.
pub fn construct_probe(blueprint: Blueprint, speculation: &SpeculationConfig) -> (Blueprint, f64) {
    let work = speculation
        .work_model
        .work_for(blueprint.len(), speculation.simulation_steps);
    (blueprint, work)
}

/// The flat-world generator with the chunk positions `server` loaded: the
/// terrain probe's input for the workloads on flat terrain.
pub fn flat_terrain_probe(server: &GameServer) -> (Box<dyn TerrainGenerator>, Vec<ChunkPos>) {
    let mut positions = server.world().loaded_positions();
    positions.sort_by_key(|p| (p.x, p.z));
    (Box::new(FlatGenerator::default()), positions)
}

/// `total_cost_with_idle_usd` summed over `meters`.
pub fn total_cost(meters: &[BillingMeter]) -> f64 {
    meters
        .iter()
        .map(BillingMeter::total_cost_with_idle_usd)
        .sum()
}

/// Modelled durations in ms.
pub fn to_ms(durations: &[SimDuration]) -> Vec<f64> {
    durations.iter().map(|d| d.as_millis_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_stream_is_a_pure_function_of_the_seed() {
        let take = |seed| {
            let mut stream = EditStream::new(seed, 8, 60);
            (0..50)
                .flat_map(|_| stream.next_events())
                .collect::<Vec<_>>()
        };
        let a = take(7);
        assert_eq!(a.len(), 400);
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        for (player, _) in &a {
            assert!(player.raw() < 60);
        }
        for (pos, _) in edit_writes(&a) {
            assert!((-40..=40).contains(&pos.x) && (-40..=40).contains(&pos.z));
        }
    }

    #[test]
    fn plan_scales_tick_counts_with_a_floor() {
        assert_eq!(Plan::for_seconds(30.0).ticks(40_000), 40_000);
        assert_eq!(Plan::for_seconds(12.0).ticks(15_000), 6_000);
        assert_eq!(Plan::smoke().ticks(3_000), 60);
        assert_eq!(Plan { scale: 1e-9 }.ticks(100), 1);
    }
}
