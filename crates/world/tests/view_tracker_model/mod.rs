//! The differential model of [`ViewTracker`]: one tracker and the reference
//! functions ([`missing_chunks`], [`nearest_missing_distance_blocks`]) are
//! driven through the same sequence of avatar moves, chunk loads and
//! unloads and shard migrations, and compared after every step — the list
//! element for element, the view range bit for bit.
//!
//! Shared, via `#[path]`, by the world crate's property test
//! (`tests/view_tracker.rs`) and the facade's tier-1 case
//! (`tests/cross_properties.rs` at the workspace root).

use proptest::prelude::*;
use servo_types::{BlockPos, ChunkPos};
use servo_world::{
    missing_chunks, nearest_missing_distance_blocks, Chunk, ChunkIndex, ShardMap, ShardedWorld,
    ViewTracker,
};

/// The zone the tracker answers for in restricted scenarios.
const TRACKED_ZONE: usize = 0;

/// One thing that can happen between two ticks.
#[derive(Debug, Clone)]
pub enum Op {
    /// One avatar moves a few blocks: inside its chunk or across a border.
    Walk { avatar: usize, dx: i32, dz: i32 },
    /// One avatar jumps to the centre of the chunk another stands in.
    Join { avatar: usize, onto: usize },
    /// A new avatar connects at block `(x, z)`.
    Connect { x: i32, z: i32 },
    /// Every avatar disconnects.
    DisconnectAll,
    /// A chunk is loaded by someone other than the tick (a persistence
    /// worker, a border mirror, a migration's transfer).
    Insert(ChunkPos),
    /// The `nth` loaded chunk (in `(x, z)` order) is unloaded.
    RemoveLoaded { nth: usize },
    /// A shard changes owner: towards or away from the tracked zone.
    Migrate { shard: usize, zone: usize },
}

/// A view configuration, an ownership layout and a sequence of steps. Each
/// step is an [`Op`] followed by one tick, during which the given number of
/// missing chunks is integrated between the refresh and the view-range
/// query, as `GameServer::run_tick` does.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub view_distance_blocks: i32,
    pub generation_margin_blocks: i32,
    /// `None` tracks an unrestricted server; `Some(zones)` tracks zone 0 of
    /// a map over that many zones.
    pub zones: Option<usize>,
    pub steps: Vec<(Op, usize)>,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0usize..8, -20i32..21, -20i32..21)
            .prop_map(|(avatar, dx, dz)| Op::Walk { avatar, dx, dz }),
        1 => (0usize..8, 0usize..8).prop_map(|(avatar, onto)| Op::Join { avatar, onto }),
        2 => (-96i32..96, -96i32..96).prop_map(|(x, z)| Op::Connect { x, z }),
        1 => Just(Op::DisconnectAll),
        2 => (-10i32..10, -10i32..10).prop_map(|(x, z)| Op::Insert(ChunkPos::new(x, z))),
        3 => (0usize..1024).prop_map(|nth| Op::RemoveLoaded { nth }),
        2 => (0usize..16, 0usize..4).prop_map(|(shard, zone)| Op::Migrate { shard, zone }),
    ]
}

/// Arbitrary scenarios: zero and non-multiple-of-16 view distances, with
/// and without a margin, unrestricted and zone-restricted. A negative view
/// distance or margin counts as zero towards the generation horizon.
pub fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop_oneof![1 => Just(0i32), 1 => Just(16i32), 4 => 1i32..70, 1 => -40i32..0],
        prop_oneof![1 => Just(0i32), 2 => 1i32..40, 1 => -40i32..0],
        prop_oneof![1 => Just(None), 2 => (1usize..5).prop_map(Some)],
        prop::collection::vec((op(), 0usize..6), 1..40),
    )
        .prop_map(
            |(view_distance_blocks, generation_margin_blocks, zones, steps)| Scenario {
                view_distance_blocks,
                generation_margin_blocks,
                zones,
                steps,
            },
        )
}

/// The terrain the tracked zone answers for: foreign chunks count as
/// present.
struct OwnedTerrain<'a> {
    world: &'a ShardedWorld,
    owner: Option<(&'a ShardMap, usize)>,
}

impl OwnedTerrain<'_> {
    fn owns(&self, pos: ChunkPos) -> bool {
        self.owner
            .is_none_or(|(map, zone)| map.zone_of_chunk(pos) == zone)
    }
}

impl ChunkIndex for OwnedTerrain<'_> {
    fn contains_chunk(&self, pos: ChunkPos) -> bool {
        !self.owns(pos) || self.world.is_loaded(pos)
    }
}

/// Runs `scenario`, panicking at the first step after which the tracker
/// and the reference functions disagree.
pub fn run(scenario: &Scenario) {
    let world = ShardedWorld::flat(4);
    let map = ShardMap::contiguous(world.shard_count(), scenario.zones.unwrap_or(1));
    let owner = scenario.zones.map(|_| (&map, TRACKED_ZONE));
    let terrain = OwnedTerrain {
        world: &world,
        owner,
    };
    let view = scenario.view_distance_blocks;
    let horizon = view.max(0) + scenario.generation_margin_blocks.max(0);
    let mut tracker = ViewTracker::new(view, scenario.generation_margin_blocks);
    let mut avatars: Vec<BlockPos> = vec![BlockPos::new(8, 5, 8)];

    for (step, (op, integrate)) in scenario.steps.iter().enumerate() {
        match *op {
            Op::Walk { avatar, dx, dz } => {
                if !avatars.is_empty() {
                    let index = avatar % avatars.len();
                    avatars[index] = avatars[index] + BlockPos::new(dx, 0, dz);
                }
            }
            Op::Join { avatar, onto } => {
                if !avatars.is_empty() {
                    let target = ChunkPos::from(avatars[onto % avatars.len()]);
                    let index = avatar % avatars.len();
                    avatars[index] = target.min_block() + BlockPos::new(8, 5, 8);
                }
            }
            Op::Connect { x, z } => avatars.push(BlockPos::new(x, 5, z)),
            Op::DisconnectAll => avatars.clear(),
            Op::Insert(pos) => world.insert_chunk(Chunk::empty(pos)),
            Op::RemoveLoaded { nth } => {
                let mut loaded = world.loaded_positions();
                loaded.sort_unstable();
                if !loaded.is_empty() {
                    world.remove_chunk(loaded[nth % loaded.len()]);
                }
            }
            Op::Migrate { shard, zone } => {
                map.migrate(shard % map.shard_count(), zone % map.zones());
            }
        }

        // Step 1 of a tick: the list of reads to submit.
        let expected = missing_chunks(&terrain, &avatars, horizon);
        assert_eq!(
            tracker.refresh(&world, owner, &avatars),
            expected,
            "step {step} ({op:?}): missing list"
        );
        // Integration of delivered chunks, then step 4: the view range.
        for &pos in expected.iter().take(*integrate) {
            world.insert_chunk(Chunk::empty(pos));
        }
        let want = nearest_missing_distance_blocks(&terrain, &avatars, view);
        let got = tracker.view_range_blocks(&world, &avatars);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "step {step} ({op:?}): view range {got} != {want}"
        );
        assert_eq!(
            tracker.refresh(&world, owner, &avatars),
            &expected[(*integrate).min(expected.len())..],
            "step {step} ({op:?}): list after integration"
        );
    }
}
