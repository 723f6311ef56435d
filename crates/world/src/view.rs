//! View-distance helpers.
//!
//! Players must always have terrain loaded out to their configured view
//! distance (128 blocks by default in the paper's Figure 10 experiment).
//! These helpers compute which chunks are required for a set of avatar
//! positions and how close the nearest *missing* terrain is — the QoS metric
//! of the terrain-generation experiments.

use std::collections::BTreeSet;

use servo_types::consts::CHUNK_SIZE;
use servo_types::{BlockPos, ChunkPos};

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

/// The set of chunk positions required to cover `view_distance_blocks`
/// around every given avatar position.
pub fn required_chunks(
    avatar_positions: &[BlockPos],
    view_distance_blocks: i32,
) -> BTreeSet<ChunkPos> {
    let radius_chunks = (view_distance_blocks.max(0) + CHUNK_SIZE - 1) / CHUNK_SIZE;
    let mut required = BTreeSet::new();
    for &pos in avatar_positions {
        let centre = ChunkPos::from(pos);
        for chunk in centre.square_around(radius_chunks as u32) {
            required.insert(chunk);
        }
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
            // Distance from the avatar to the nearest corner of the chunk.
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
            let dist = (dx * dx + dz * dz).sqrt();
            if dist < nearest {
                nearest = dist;
            }
        }
    }
    nearest
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
