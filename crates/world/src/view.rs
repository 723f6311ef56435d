//! View-distance helpers.
//!
//! Players must always have terrain loaded out to their configured view
//! distance (128 blocks by default in the paper's Figure 10 experiment).
//! These helpers compute which chunks are required for a set of avatar
//! positions and how close the nearest *missing* terrain is — the QoS metric
//! of the terrain-generation experiments.
//!
//! [`required_chunks`], [`missing_chunks`] and
//! [`nearest_missing_distance_blocks`] derive everything from scratch on
//! every call; callers on an interval cadence use them directly. The game
//! loop asks the same questions every tick and uses a [`ViewTracker`], which
//! keeps the answer between ticks and is tested against those functions.

use std::collections::BTreeSet;

use servo_types::consts::CHUNK_SIZE;
use servo_types::{BlockPos, ChunkPos};

use crate::partition::ShardMap;
use crate::sharded::ShardedWorld;
use crate::world::World;

/// Read access to which chunks are loaded, implemented by both the
/// single-threaded [`World`] and the concurrent [`ShardedWorld`] so the
/// view-distance helpers work against either.
pub trait ChunkIndex {
    /// Whether the chunk at `pos` is loaded.
    fn contains_chunk(&self, pos: ChunkPos) -> bool;
}

impl ChunkIndex for World {
    fn contains_chunk(&self, pos: ChunkPos) -> bool {
        self.is_loaded(pos)
    }
}

impl ChunkIndex for ShardedWorld {
    fn contains_chunk(&self, pos: ChunkPos) -> bool {
        self.is_loaded(pos)
    }
}

/// The number of chunks, beyond an avatar's own, that `distance_blocks`
/// reaches in each direction.
fn radius_chunks(distance_blocks: i32) -> i32 {
    (distance_blocks.max(0) + CHUNK_SIZE - 1) / CHUNK_SIZE
}

/// The distinct chunks the avatars stand in, sorted by `(x, z)`.
fn centre_chunks(avatar_positions: &[BlockPos]) -> Vec<ChunkPos> {
    let mut centres: Vec<ChunkPos> = avatar_positions
        .iter()
        .map(|&pos| ChunkPos::from(pos))
        .collect();
    centres.sort_unstable();
    centres.dedup();
    centres
}

/// The distance, in blocks, from `avatar` to the nearest corner of `chunk`
/// (zero along an axis on which the avatar is inside the chunk's extent).
fn corner_distance_blocks(avatar: BlockPos, chunk: ChunkPos) -> f64 {
    let min = chunk.min_block();
    let max_x = min.x + CHUNK_SIZE - 1;
    let max_z = min.z + CHUNK_SIZE - 1;
    let dx = if avatar.x < min.x {
        (min.x - avatar.x) as f64
    } else if avatar.x > max_x {
        (avatar.x - max_x) as f64
    } else {
        0.0
    };
    let dz = if avatar.z < min.z {
        (min.z - avatar.z) as f64
    } else if avatar.z > max_z {
        (avatar.z - max_z) as f64
    } else {
        0.0
    };
    (dx * dx + dz * dz).sqrt()
}

/// The set of chunk positions required to cover `view_distance_blocks`
/// around every given avatar position.
pub fn required_chunks(
    avatar_positions: &[BlockPos],
    view_distance_blocks: i32,
) -> BTreeSet<ChunkPos> {
    let radius = radius_chunks(view_distance_blocks) as u32;
    let mut required = BTreeSet::new();
    // Avatars sharing a chunk share a square: insert it once.
    for centre in centre_chunks(avatar_positions) {
        required.extend(centre.square_around(radius));
    }
    required
}

/// The required chunks that are not currently loaded in `world`.
pub fn missing_chunks(
    world: &impl ChunkIndex,
    avatar_positions: &[BlockPos],
    view_distance_blocks: i32,
) -> Vec<ChunkPos> {
    required_chunks(avatar_positions, view_distance_blocks)
        .into_iter()
        .filter(|pos| !world.contains_chunk(*pos))
        .collect()
}

/// The distance, in blocks, from the closest avatar to the closest missing
/// (not loaded) chunk within the view distance. If no chunk is missing the
/// view distance itself is returned — the "full view distance" plateau of
/// Figure 10a.
///
/// This is the vertical-axis metric of Figure 10 (left): it should stay at
/// the configured view distance (128) for good QoS, and drops when terrain
/// generation cannot keep up with player movement.
pub fn nearest_missing_distance_blocks(
    world: &impl ChunkIndex,
    avatar_positions: &[BlockPos],
    view_distance_blocks: i32,
) -> f64 {
    let mut nearest = view_distance_blocks as f64;
    for &avatar in avatar_positions {
        for chunk in required_chunks(&[avatar], view_distance_blocks) {
            if world.contains_chunk(chunk) {
                continue;
            }
            let dist = corner_distance_blocks(avatar, chunk);
            if dist < nearest {
                nearest = dist;
            }
        }
    }
    nearest
}

/// The missing terrain around a fleet of avatars, kept between ticks.
///
/// A game server asks every tick which owned chunks inside the generation
/// horizon are not loaded and how close the nearest of them is.
/// [`missing_chunks`] and [`nearest_missing_distance_blocks`] answer from
/// scratch in O(avatars x view area); the tracker stores the answer — the
/// sorted list of missing owned chunks — and does work only for what
/// changed. The stored list stays valid until one of three things moves:
///
/// * the set of chunks the avatars stand in (an avatar crossed a border,
///   joined or left);
/// * chunk ownership ([`ShardMap::version`]);
/// * the world's removal count ([`ShardedWorld::removal_count`]).
///
/// Chunk *inserts* need no key: a loaded chunk only ever has to leave the
/// list, which [`ViewTracker::refresh`] and
/// [`ViewTracker::view_range_blocks`] do by re-checking the listed
/// positions — nothing once the list is empty.
///
/// # Example
///
/// ```
/// use servo_types::{BlockPos, ChunkPos};
/// use servo_world::{ShardedWorld, ViewTracker};
///
/// let world = ShardedWorld::flat(4);
/// let avatars = [BlockPos::new(8, 5, 8)];
/// let mut tracker = ViewTracker::new(32, 0);
/// // 32 blocks reach two chunks out: a 5 x 5 square is missing.
/// assert_eq!(tracker.refresh(&world, None, &avatars).len(), 25);
/// for x in -2..=2 {
///     for z in -2..=2 {
///         world.ensure_chunk_at(ChunkPos::new(x, z));
///     }
/// }
/// assert_eq!(tracker.view_range_blocks(&world, &avatars), 32.0);
/// assert!(tracker.refresh(&world, None, &avatars).is_empty());
/// ```
#[derive(Debug)]
pub struct ViewTracker {
    view_distance_blocks: i32,
    view_radius: i32,
    horizon_radius: i32,
    /// The distinct chunks the avatars stood in at the last refresh.
    centres: Vec<ChunkPos>,
    /// The owned, not loaded chunks within the horizon of any centre,
    /// sorted by `(x, z)`.
    missing: Vec<ChunkPos>,
    /// The ownership version and removal count `missing` was built
    /// against; `None` until the first refresh and after
    /// [`ViewTracker::invalidate`].
    built_against: Option<(u64, u64)>,
}

impl ViewTracker {
    /// A tracker reporting the view range out to `view_distance_blocks` and
    /// listing missing terrain out to `generation_margin_blocks` beyond it.
    /// A negative view distance or margin counts as zero towards that
    /// horizon: the list must cover the view.
    pub fn new(view_distance_blocks: i32, generation_margin_blocks: i32) -> Self {
        let horizon = view_distance_blocks.max(0) + generation_margin_blocks.max(0);
        ViewTracker {
            view_distance_blocks,
            view_radius: radius_chunks(view_distance_blocks),
            horizon_radius: radius_chunks(horizon),
            centres: Vec::new(),
            missing: Vec::new(),
            built_against: None,
        }
    }

    /// Forces the next [`ViewTracker::refresh`] to rebuild the list. For
    /// ownership changes [`ShardMap::version`] does not count: a different
    /// map or zone altogether.
    pub fn invalidate(&mut self) {
        self.built_against = None;
    }

    /// Brings the list up to date for avatars at `avatar_positions` and
    /// returns it: every chunk within the generation horizon of an avatar
    /// that `owner`'s zone owns (`None` owns everything) and `world` has
    /// not loaded, sorted by `(x, z)` — element for element
    /// [`required_chunks`] filtered by ownership and presence.
    pub fn refresh(
        &mut self,
        world: &ShardedWorld,
        owner: Option<(&ShardMap, usize)>,
        avatar_positions: &[BlockPos],
    ) -> &[ChunkPos] {
        let centres = centre_chunks(avatar_positions);
        // Both counters are bumped after the change they count and read
        // here before the world is: a removal or migration racing this
        // refresh is at worst seen as a changed key by the next one.
        let key = (
            owner.map_or(0, |(map, _)| map.version()),
            world.removal_count(),
        );
        if self.built_against == Some(key) && self.centres == centres {
            self.drop_loaded(world);
        } else {
            self.missing.clear();
            for centre in &centres {
                self.missing
                    .extend(centre.square_around(self.horizon_radius as u32));
            }
            self.missing.sort_unstable();
            self.missing.dedup();
            self.missing.retain(|&pos| {
                owner.is_none_or(|(map, zone)| map.zone_of_chunk(pos) == zone)
                    && !world.is_loaded(pos)
            });
            self.centres = centres;
            self.built_against = Some(key);
        }
        &self.missing
    }

    /// The distance, in blocks, from the closest avatar to the closest
    /// listed chunk within the view distance, after dropping the chunks
    /// loaded since the last refresh; the view distance itself when there
    /// is none. Bit for bit [`nearest_missing_distance_blocks`] over the
    /// owner's terrain, provided `avatar_positions` are the ones last
    /// passed to [`ViewTracker::refresh`] and nothing but inserts happened
    /// to `world` since.
    pub fn view_range_blocks(
        &mut self,
        world: &ShardedWorld,
        avatar_positions: &[BlockPos],
    ) -> f64 {
        self.drop_loaded(world);
        let mut nearest = self.view_distance_blocks as f64;
        if self.missing.is_empty() {
            return nearest;
        }
        // Per avatar, only the listed chunks of its view square: the list
        // is sorted by `(x, z)`, so each column of the square is one
        // contiguous stretch of it. That bounds the work by the view area
        // however long the list is (a cold start lists the whole horizon
        // of every avatar).
        let radius = self.view_radius;
        for &avatar in avatar_positions {
            let centre = ChunkPos::from(avatar);
            for x in centre.x - radius..=centre.x + radius {
                let column = ChunkPos::new(x, centre.z - radius);
                let start = self.missing.partition_point(|&pos| pos < column);
                for &chunk in self.missing[start..]
                    .iter()
                    .take_while(|pos| pos.x == x && pos.z <= centre.z + radius)
                {
                    let dist = corner_distance_blocks(avatar, chunk);
                    if dist < nearest {
                        nearest = dist;
                    }
                }
            }
            if nearest == 0.0 {
                // An avatar stands in a missing chunk.
                break;
            }
        }
        nearest
    }

    fn drop_loaded(&mut self, world: &ShardedWorld) {
        self.missing.retain(|&pos| !world.is_loaded(pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servo_types::ChunkPos;

    #[test]
    fn required_chunks_covers_view_square() {
        let required = required_chunks(&[BlockPos::new(0, 64, 0)], 32);
        // 32 blocks -> 2 chunks radius -> 5x5 square.
        assert_eq!(required.len(), 25);
        assert!(required.contains(&ChunkPos::new(2, 2)));
        assert!(!required.contains(&ChunkPos::new(3, 0)));
    }

    #[test]
    fn required_chunks_merges_multiple_avatars() {
        let one = required_chunks(&[BlockPos::new(0, 64, 0)], 16);
        let far_apart = required_chunks(
            &[BlockPos::new(0, 64, 0), BlockPos::new(1000, 64, 1000)],
            16,
        );
        assert_eq!(far_apart.len(), one.len() * 2);
        let overlapping = required_chunks(&[BlockPos::new(0, 64, 0), BlockPos::new(1, 64, 1)], 16);
        assert_eq!(overlapping.len(), one.len());
    }

    #[test]
    fn missing_chunks_shrinks_as_world_loads() {
        let mut world = World::flat(4);
        let avatars = [BlockPos::new(8, 5, 8)];
        let missing_before = missing_chunks(&world, &avatars, 32);
        assert_eq!(missing_before.len(), 25);
        for pos in &missing_before {
            world.ensure_chunk_at(*pos);
        }
        assert!(missing_chunks(&world, &avatars, 32).is_empty());
    }

    #[test]
    fn nearest_missing_distance_is_view_distance_when_loaded() {
        let mut world = World::flat(4);
        let avatars = [BlockPos::new(8, 5, 8)];
        for pos in missing_chunks(&world, &avatars, 128) {
            world.ensure_chunk_at(pos);
        }
        let d = nearest_missing_distance_blocks(&world, &avatars, 128);
        assert_eq!(d, 128.0);
    }

    #[test]
    fn nearest_missing_distance_drops_when_terrain_missing() {
        let mut world = World::flat(4);
        let avatars = [BlockPos::new(8, 5, 8)];
        // Load only the avatar's own chunk.
        world.ensure_chunk_at(ChunkPos::new(0, 0));
        let d = nearest_missing_distance_blocks(&world, &avatars, 128);
        // The nearest missing chunk is adjacent: at most 8 blocks away.
        assert!(d <= 8.0, "distance was {d}");
        assert!(d > 0.0);
    }

    #[test]
    fn zero_view_distance_requires_single_chunk() {
        let required = required_chunks(&[BlockPos::new(5, 64, 5)], 0);
        assert_eq!(required.len(), 1);
    }
}
