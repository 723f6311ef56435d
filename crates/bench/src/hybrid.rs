//! The border-construct hybrid workload shared by the cluster ablations.
//!
//! `ablation_hybrid`, `ablation_border`, `ablation_coldstart` and
//! `ablation_replication` all drive the same scenario: [`PLAYERS`] bounded
//! players around spawn, [`CONSTRUCTS`] [`CONSTRUCT_WIRES`]-block wire
//! constructs laid across east-facing zone seams, and two spawn-area block
//! edits per tick from the [`EditStream`]. `ablation_multiserver` and
//! `ablation_rebalance` reuse the fleet, the blueprints and the [`Window`]
//! summary. Because every binary builds the workload here, arms that name
//! the same seed and deployment reproduce each other's numbers exactly.

use servo_metrics::{qos_satisfied_default, Summary};
use servo_redstone::{generators, Blueprint};
use servo_server::cluster::{
    border_construct_sites, place_across_east_seam_at, ShardedGameCluster,
};
use servo_simkit::SimRng;
use servo_types::{BlockPos, ChunkPos, PlayerId, SimDuration};
use servo_workload::{seam_offset, BehaviorKind, PlayerEvent, PlayerFleet};
use servo_world::ShardMap;

/// Players in the construct-dominated scenario.
pub const PLAYERS: usize = 60;
/// Border-spanning constructs.
pub const CONSTRUCTS: usize = 160;
/// Blocks of wire per border construct.
pub const CONSTRUCT_WIRES: usize = 14;
/// Zones of the scaled-out arms, and of the reference map a single-zone
/// cluster borrows its construct sites from.
pub const ZONES: usize = 4;

/// Where a border construct sits across its seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// Eight blocks into the western chunk: eight wire blocks west of the
    /// seam, six east.
    Centred,
    /// The strict majority of the blocks on whichever side of the seam
    /// belongs to the *lower-indexed* zone — the deterministic target the
    /// border-traffic rebalancing term migrates towards.
    Weighted,
}

/// Blueprints for `count` wire constructs laid across the east-facing
/// seams of `map`. A single-zone map has no seams, so it borrows the sites
/// of a [`ZONES`]-zone map: the 1-zone baseline then simulates the *same*
/// constructs at the same world positions, just without borders.
pub fn border_blueprints(map: &ShardMap, count: usize, seam: Seam) -> Vec<Blueprint> {
    let reference = if map.zones() > 1 {
        map.clone()
    } else {
        ShardMap::contiguous(map.shard_count(), ZONES)
    };
    border_construct_sites(&reference, count)
        .into_iter()
        .map(|site| {
            let offset = match seam {
                Seam::Centred => 8,
                Seam::Weighted => {
                    let east = reference.zone_of_chunk(ChunkPos::new(site.x + 1, site.z));
                    let west = reference.zone_of_chunk(site);
                    seam_offset(CONSTRUCT_WIRES, west < east)
                }
            };
            place_across_east_seam_at(&generators::wire_line(CONSTRUCT_WIRES), site, 6, offset)
        })
        .collect()
}

/// `players` connected players wandering within 24 blocks of spawn, on
/// the fleet stream derived from `seed`.
pub fn bounded_fleet(seed: u64, players: usize) -> PlayerFleet {
    let mut fleet = PlayerFleet::new(
        BehaviorKind::Bounded { radius: 24.0 },
        SimRng::seed(seed ^ 0x5eed),
    );
    fleet.connect_all(players);
    fleet
}

/// The deterministic terrain-edit stream layered on top of the fleet:
/// every tick two players place or break a block in the (already loaded)
/// spawn area, so dirty shards, border-chunk mirroring and per-zone
/// persistence are genuinely exercised. Every arm with the same seed sees
/// the identical stream.
pub struct EditStream {
    rng: SimRng,
}

impl EditStream {
    /// The stream for `seed`, on its `"terrain-edits"` substream.
    pub fn new(seed: u64) -> Self {
        EditStream {
            rng: SimRng::seed(seed).substream("terrain-edits"),
        }
    }

    /// The next tick's two edits.
    pub fn next_events(&mut self) -> Vec<(PlayerId, PlayerEvent)> {
        (0..2)
            .map(|_| {
                let x = (self.rng.unit() * 81.0) as i32 - 40;
                let z = (self.rng.unit() * 81.0) as i32 - 40;
                let pos = BlockPos::new(x, 9, z);
                let event = if self.rng.unit() < 0.5 {
                    PlayerEvent::BlockPlaced(pos)
                } else {
                    PlayerEvent::BlockBroken(pos)
                };
                let player = (self.rng.unit() * PLAYERS as f64) as u64;
                (PlayerId::new(player.min(PLAYERS as u64 - 1)), event)
            })
            .collect()
    }
}

/// Drives `cluster` for `duration` like `run_with_fleet`, appending the
/// edit stream to each tick's player events. `per_tick` runs before every
/// tick with the cluster and that tick's events, to retarget subscribers
/// or add events of its own. Returns the number of ticks run.
pub fn drive(
    cluster: &mut ShardedGameCluster,
    fleet: &mut PlayerFleet,
    edits: &mut EditStream,
    duration: SimDuration,
    mut per_tick: impl FnMut(&mut ShardedGameCluster, &mut Vec<(PlayerId, PlayerEvent)>),
) -> usize {
    let end = cluster.now() + duration;
    let budget = cluster.servers()[0].config().tick_budget();
    let mut ticks = 0;
    while cluster.now() < end {
        let mut events = fleet.tick(cluster.now(), budget);
        events.extend(edits.next_events());
        per_tick(cluster, &mut events);
        cluster.run_tick(&fleet.positions(), &events);
        ticks += 1;
    }
    ticks
}

/// The summary of a measured window of ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Mean tick duration, ms.
    pub mean_ms: f64,
    /// 95th-percentile tick duration, ms.
    pub p95_ms: f64,
    /// 99th-percentile tick duration, ms.
    pub p99_ms: f64,
    /// Whether the window meets the paper's QoS rule.
    pub qos_ok: bool,
    /// Cross-server messages per tick.
    pub messages_per_tick: f64,
}

impl Window {
    /// Summarises `durations`, with `messages` spread over `ticks`.
    pub fn new(durations: &[SimDuration], messages: u64, ticks: usize) -> Self {
        let summary = Summary::from_durations(durations);
        Window {
            mean_ms: summary.mean,
            p95_ms: summary.p95,
            p99_ms: summary.p99,
            qos_ok: qos_satisfied_default(durations),
            messages_per_tick: messages as f64 / ticks.max(1) as f64,
        }
    }

    /// The critical-path window `cluster` recorded since its last
    /// `discard_ticks`, with the messages sent since the cluster's
    /// lifetime count stood at `messages_before`.
    pub fn of(cluster: &ShardedGameCluster, messages_before: u64) -> Self {
        Window::new(
            &cluster.critical_path_durations(),
            cluster.stats().cross_server_messages - messages_before,
            cluster.ticks().len(),
        )
    }
}
