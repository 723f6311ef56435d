//! The in-memory world: a collection of loaded chunks.

use std::collections::HashMap;

use servo_types::consts::{CHUNK_BITS, CHUNK_HEIGHT, CHUNK_MASK, CHUNK_SIZE};
use servo_types::{BlockPos, ChunkPos, ServoError};

use crate::block::Block;
use crate::chunk::Chunk;

/// Splits a world position into its chunk position and chunk-local
/// coordinates in a single pass of shift/mask arithmetic (`CHUNK_SIZE` is a
/// power of two; the arithmetic shift floors correctly for negative
/// coordinates).
#[inline]
pub(crate) fn split_pos(pos: BlockPos) -> (ChunkPos, i32, i32, i32) {
    (
        ChunkPos::new(pos.x >> CHUNK_BITS, pos.z >> CHUNK_BITS),
        pos.x & CHUNK_MASK,
        pos.y,
        pos.z & CHUNK_MASK,
    )
}

/// The terrain flavour of a world, matching the paper's experiment setups
/// (Section IV-A: "default" procedurally generated terrain vs. the "flat"
/// world players use to prototype simulated constructs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorldKind {
    /// Procedurally generated terrain with mountains and rivers.
    #[default]
    Default,
    /// An infinite flat plain.
    Flat,
}

impl WorldKind {
    /// The chunk a world of this kind creates at `pos` when asked for one
    /// that is not loaded: the flat world's terrain with its surface at
    /// `flat_ground`, or air for the default world, whose terrain comes
    /// from a generator.
    pub(crate) fn new_chunk(self, pos: ChunkPos, flat_ground: i32) -> Chunk {
        match self {
            WorldKind::Flat => Chunk::flat(pos, flat_ground),
            WorldKind::Default => Chunk::empty(pos),
        }
    }
}

/// The in-memory game world: loaded chunks plus bookkeeping about
/// modifications, used by both the baseline servers and Servo.
///
/// Chunks are created explicitly (by a terrain generator or by loading from
/// storage); block access on a missing chunk returns `None` / an error so the
/// caller can trigger generation or loading.
///
/// # Example
///
/// ```
/// use servo_world::{Block, World};
/// use servo_types::{BlockPos, ChunkPos};
///
/// let mut w = World::flat(4);
/// w.ensure_chunk_at(ChunkPos::new(0, 0));
/// assert_eq!(w.block(BlockPos::new(3, 4, 3)), Some(Block::Grass));
/// assert_eq!(w.block(BlockPos::new(100, 4, 100)), None); // chunk not loaded
/// ```
#[derive(Debug, Clone, Default)]
pub struct World {
    kind: WorldKind,
    flat_ground_height: i32,
    chunks: HashMap<ChunkPos, Chunk>,
    total_modifications: u64,
}

impl World {
    /// Creates an empty world of the default (procedural) kind. Chunks must
    /// be inserted by a terrain generator.
    pub fn new() -> Self {
        World {
            kind: WorldKind::Default,
            flat_ground_height: 4,
            chunks: HashMap::new(),
            total_modifications: 0,
        }
    }

    /// Creates a flat world whose ground surface sits at `ground_height`.
    ///
    /// Chunks are still created lazily ([`World::ensure_chunk_at`]), but when
    /// created they are pre-filled with bedrock, dirt and a grass surface.
    pub fn flat(ground_height: i32) -> Self {
        World {
            kind: WorldKind::Flat,
            flat_ground_height: ground_height.clamp(1, CHUNK_HEIGHT - 1),
            chunks: HashMap::new(),
            total_modifications: 0,
        }
    }

    /// The world kind.
    pub fn kind(&self) -> WorldKind {
        self.kind
    }

    /// The configured flat-world ground height (meaningful for
    /// [`WorldKind::Flat`] worlds).
    pub(crate) fn flat_ground(&self) -> i32 {
        self.flat_ground_height
    }

    /// Number of chunks currently loaded in memory.
    pub fn loaded_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the chunk at `pos` is loaded.
    pub fn is_loaded(&self, pos: ChunkPos) -> bool {
        self.chunks.contains_key(&pos)
    }

    /// Iterates over the positions of all loaded chunks.
    pub fn loaded_positions(&self) -> impl Iterator<Item = ChunkPos> + '_ {
        self.chunks.keys().copied()
    }

    /// Total number of block modifications applied through this world.
    pub fn total_modifications(&self) -> u64 {
        self.total_modifications
    }

    /// Inserts a fully-built chunk (from a generator or storage), replacing
    /// any chunk already at that position.
    pub fn insert_chunk(&mut self, chunk: Chunk) {
        self.chunks.insert(chunk.pos(), chunk);
    }

    /// Removes and returns the chunk at `pos`, e.g. when it falls out of all
    /// players' view distance and is persisted to storage.
    pub fn remove_chunk(&mut self, pos: ChunkPos) -> Option<Chunk> {
        self.chunks.remove(&pos)
    }

    /// Returns a reference to the chunk at `pos`, if loaded.
    pub fn chunk(&self, pos: ChunkPos) -> Option<&Chunk> {
        self.chunks.get(&pos)
    }

    /// Returns a mutable reference to the chunk at `pos`, if loaded.
    pub fn chunk_mut(&mut self, pos: ChunkPos) -> Option<&mut Chunk> {
        self.chunks.get_mut(&pos)
    }

    /// Ensures a chunk exists at `pos`, creating a default one if missing.
    ///
    /// For [`WorldKind::Flat`] the created chunk has a bedrock floor, dirt
    /// body and grass surface at the configured ground height; for
    /// [`WorldKind::Default`] an empty chunk is created (procedural content
    /// is supplied by the `servo-pcg` generator instead).
    pub fn ensure_chunk_at(&mut self, pos: ChunkPos) -> &mut Chunk {
        let ground = self.flat_ground_height;
        let kind = self.kind;
        self.chunks
            .entry(pos)
            .or_insert_with(|| kind.new_chunk(pos, ground))
    }

    /// Combined lookup: the chunk containing `pos` plus the chunk-local
    /// coordinates of `pos`, resolved with a single hash of the chunk
    /// position. The hot accessors ([`World::block`], [`World::set_block`],
    /// [`World::height_at`]) are all built on this.
    #[inline]
    pub fn chunk_and_local(&self, pos: BlockPos) -> Option<(&Chunk, (i32, i32, i32))> {
        let (chunk_pos, lx, ly, lz) = split_pos(pos);
        Some((self.chunks.get(&chunk_pos)?, (lx, ly, lz)))
    }

    /// Reads the block at a world position. Returns `None` if the containing
    /// chunk is not loaded or `y` is out of range.
    pub fn block(&self, pos: BlockPos) -> Option<Block> {
        let (chunk, (lx, ly, lz)) = self.chunk_and_local(pos)?;
        chunk.local(lx, ly, lz)
    }

    /// Writes the block at a world position.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::ChunkNotLoaded`] if the containing chunk is not
    /// loaded, or [`ServoError::OutOfBounds`] if `y` is outside the world.
    pub fn set_block(&mut self, pos: BlockPos, block: Block) -> Result<(), ServoError> {
        let (chunk_pos, lx, ly, lz) = split_pos(pos);
        let chunk = self
            .chunks
            .get_mut(&chunk_pos)
            .ok_or(ServoError::ChunkNotLoaded {
                x: chunk_pos.x,
                z: chunk_pos.z,
            })?;
        chunk.set_local(lx, ly, lz, block)?;
        self.total_modifications += 1;
        Ok(())
    }

    /// Writes a batch of blocks, resolving the containing chunk once per
    /// run of consecutive same-chunk positions instead of once per block.
    /// Returns the number of blocks written.
    ///
    /// Writes are applied in order; on the first failing write the already
    /// applied prefix is kept and the error returned.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::ChunkNotLoaded`] or [`ServoError::OutOfBounds`]
    /// for the first offending position.
    pub fn set_blocks<I>(&mut self, blocks: I) -> Result<usize, ServoError>
    where
        I: IntoIterator<Item = (BlockPos, Block)>,
    {
        let mut items = blocks.into_iter().peekable();
        let mut written = 0usize;
        let mut result = Ok(());
        'runs: while let Some((pos, block)) = items.next() {
            let (chunk_pos, lx, ly, lz) = split_pos(pos);
            let Some(chunk) = self.chunks.get_mut(&chunk_pos) else {
                result = Err(ServoError::ChunkNotLoaded {
                    x: chunk_pos.x,
                    z: chunk_pos.z,
                });
                break;
            };
            if let Err(e) = chunk.set_local(lx, ly, lz, block) {
                result = Err(e);
                break;
            }
            written += 1;
            // Drain the rest of the same-chunk run without re-hashing.
            while let Some(&(next_pos, _)) = items.peek() {
                let (next_chunk, nlx, nly, nlz) = split_pos(next_pos);
                if next_chunk != chunk_pos {
                    break;
                }
                let (_, next_block) = items.next().expect("peeked item exists");
                if let Err(e) = chunk.set_local(nlx, nly, nlz, next_block) {
                    result = Err(e);
                    break 'runs;
                }
                written += 1;
            }
        }
        self.total_modifications += written as u64;
        result.map(|()| written)
    }

    /// Fills the axis-aligned region spanning `min..=max` (inclusive world
    /// coordinates) with `block`, taking each involved chunk once and
    /// filling it with a bulk box write. Returns the number of blocks whose
    /// value actually changed.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::ChunkNotLoaded`] if any overlapped chunk is not
    /// loaded, or [`ServoError::OutOfBounds`] if the `y` range leaves the
    /// world or the region is inverted. Nothing is written until the whole
    /// region has been validated as loaded.
    pub fn fill_region(
        &mut self,
        min: BlockPos,
        max: BlockPos,
        block: Block,
    ) -> Result<usize, ServoError> {
        if min.x > max.x || min.y > max.y || min.z > max.z {
            return Err(ServoError::OutOfBounds {
                what: format!("inverted region {min}..={max}"),
            });
        }
        if !(0..CHUNK_HEIGHT).contains(&min.y) || !(0..CHUNK_HEIGHT).contains(&max.y) {
            return Err(ServoError::OutOfBounds {
                what: format!("region y range {}..={}", min.y, max.y),
            });
        }
        let (min_chunk, max_chunk) = (ChunkPos::from(min), ChunkPos::from(max));
        for cx in min_chunk.x..=max_chunk.x {
            for cz in min_chunk.z..=max_chunk.z {
                if !self.chunks.contains_key(&ChunkPos::new(cx, cz)) {
                    return Err(ServoError::ChunkNotLoaded { x: cx, z: cz });
                }
            }
        }
        let mut changed = 0usize;
        for cx in min_chunk.x..=max_chunk.x {
            for cz in min_chunk.z..=max_chunk.z {
                let chunk_pos = ChunkPos::new(cx, cz);
                let base = chunk_pos.min_block();
                let lo = ((min.x - base.x).max(0), min.y, (min.z - base.z).max(0));
                let hi = (
                    (max.x - base.x).min(CHUNK_SIZE - 1),
                    max.y,
                    (max.z - base.z).min(CHUNK_SIZE - 1),
                );
                let chunk = self.chunks.get_mut(&chunk_pos).expect("validated above");
                changed += chunk.fill_box(lo, hi, block)?;
            }
        }
        self.total_modifications += changed as u64;
        Ok(changed)
    }

    /// The ground height (highest non-air block) at the given column, if the
    /// chunk is loaded.
    pub fn height_at(&self, x: i32, z: i32) -> Option<i32> {
        let (chunk, (lx, _, lz)) = self.chunk_and_local(BlockPos::new(x, 0, z))?;
        chunk.height_at(lx, lz)
    }

    /// Total number of stateful (simulated-construct) blocks across all
    /// loaded chunks.
    pub fn stateful_blocks(&self) -> usize {
        self.chunks.values().map(|c| c.stateful_blocks()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_world_chunks_have_surface() {
        let mut w = World::flat(4);
        w.ensure_chunk_at(ChunkPos::new(0, 0));
        w.ensure_chunk_at(ChunkPos::new(-1, -1));
        assert_eq!(w.loaded_chunks(), 2);
        assert_eq!(w.block(BlockPos::new(0, 0, 0)), Some(Block::Bedrock));
        assert_eq!(w.block(BlockPos::new(5, 4, 5)), Some(Block::Grass));
        assert_eq!(w.block(BlockPos::new(5, 5, 5)), Some(Block::Air));
        assert_eq!(w.block(BlockPos::new(-5, 4, -5)), Some(Block::Grass));
        assert_eq!(w.height_at(-5, -5), Some(4));
    }

    #[test]
    fn block_access_requires_loaded_chunk() {
        let mut w = World::flat(4);
        assert_eq!(w.block(BlockPos::new(100, 4, 100)), None);
        let err = w
            .set_block(BlockPos::new(100, 4, 100), Block::Stone)
            .unwrap_err();
        assert!(matches!(err, ServoError::ChunkNotLoaded { .. }));
    }

    #[test]
    fn set_block_across_chunks_and_negative_coords() {
        let mut w = World::flat(4);
        for cx in -3..=3 {
            for cz in -3..=3 {
                w.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        let positions = [
            BlockPos::new(0, 10, 0),
            BlockPos::new(-1, 10, -1),
            BlockPos::new(17, 10, -17),
            BlockPos::new(-33, 10, 31),
        ];
        for (i, &p) in positions.iter().enumerate() {
            w.set_block(p, Block::Lamp).unwrap();
            assert_eq!(w.block(p), Some(Block::Lamp), "position {i}");
        }
        assert_eq!(w.total_modifications(), positions.len() as u64);
        assert_eq!(w.stateful_blocks(), positions.len());
    }

    #[test]
    fn out_of_range_y_is_rejected() {
        let mut w = World::flat(4);
        w.ensure_chunk_at(ChunkPos::ORIGIN);
        assert!(w.set_block(BlockPos::new(0, 256, 0), Block::Stone).is_err());
        assert!(w.set_block(BlockPos::new(0, -1, 0), Block::Stone).is_err());
        assert_eq!(w.block(BlockPos::new(0, 300, 0)), None);
    }

    #[test]
    fn default_world_creates_empty_chunks() {
        let mut w = World::new();
        assert_eq!(w.kind(), WorldKind::Default);
        w.ensure_chunk_at(ChunkPos::ORIGIN);
        assert_eq!(w.block(BlockPos::new(0, 0, 0)), Some(Block::Air));
    }

    #[test]
    fn insert_and_remove_chunks() {
        let mut w = World::new();
        let mut chunk = Chunk::empty(ChunkPos::new(3, 3));
        chunk.fill_layer(7, Block::Sand).unwrap();
        w.insert_chunk(chunk);
        assert!(w.is_loaded(ChunkPos::new(3, 3)));
        assert_eq!(w.block(BlockPos::new(48, 7, 48)), Some(Block::Sand));
        let removed = w.remove_chunk(ChunkPos::new(3, 3)).unwrap();
        assert_eq!(removed.pos(), ChunkPos::new(3, 3));
        assert!(!w.is_loaded(ChunkPos::new(3, 3)));
        assert_eq!(w.remove_chunk(ChunkPos::new(3, 3)), None);
    }

    #[test]
    fn loaded_positions_iterates_all() {
        let mut w = World::flat(4);
        let mut expected: Vec<ChunkPos> = (0..5).map(|i| ChunkPos::new(i, -i)).collect();
        for &p in &expected {
            w.ensure_chunk_at(p);
        }
        let mut got: Vec<ChunkPos> = w.loaded_positions().collect();
        got.sort_by_key(|p| (p.x, p.z));
        expected.sort_by_key(|p| (p.x, p.z));
        // The exact position sets must match, not just their sizes.
        assert_eq!(got, expected);
    }

    #[test]
    fn set_blocks_matches_individual_writes() {
        let mut batch_world = World::flat(4);
        let mut single_world = World::flat(4);
        for cx in -1..=1 {
            for cz in -1..=1 {
                batch_world.ensure_chunk_at(ChunkPos::new(cx, cz));
                single_world.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        let writes: Vec<(BlockPos, Block)> = (0..100)
            .map(|i| {
                (
                    BlockPos::new(i % 40 - 16, 10 + i % 7, (i * 3) % 40 - 16),
                    Block::Lamp,
                )
            })
            .collect();
        let written = batch_world.set_blocks(writes.clone()).unwrap();
        assert_eq!(written, writes.len());
        for &(pos, block) in &writes {
            single_world.set_block(pos, block).unwrap();
        }
        for &(pos, _) in &writes {
            assert_eq!(batch_world.block(pos), single_world.block(pos));
        }
        assert_eq!(
            batch_world.total_modifications(),
            single_world.total_modifications()
        );
    }

    #[test]
    fn set_blocks_fails_on_first_unloaded_chunk() {
        let mut w = World::flat(4);
        w.ensure_chunk_at(ChunkPos::ORIGIN);
        let err = w
            .set_blocks([
                (BlockPos::new(1, 10, 1), Block::Stone),
                (BlockPos::new(100, 10, 100), Block::Stone),
            ])
            .unwrap_err();
        assert!(matches!(err, ServoError::ChunkNotLoaded { .. }));
        // The prefix before the failure was applied.
        assert_eq!(w.block(BlockPos::new(1, 10, 1)), Some(Block::Stone));
        assert_eq!(w.total_modifications(), 1);
    }

    #[test]
    fn fill_region_spans_chunks() {
        let mut w = World::flat(4);
        for cx in -1..=1 {
            for cz in -1..=1 {
                w.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        let changed = w
            .fill_region(
                BlockPos::new(-5, 10, -5),
                BlockPos::new(20, 12, 4),
                Block::Stone,
            )
            .unwrap();
        assert_eq!(changed, 26 * 3 * 10);
        assert_eq!(w.block(BlockPos::new(-5, 10, -5)), Some(Block::Stone));
        assert_eq!(w.block(BlockPos::new(20, 12, 4)), Some(Block::Stone));
        assert_eq!(w.block(BlockPos::new(-6, 10, -5)), Some(Block::Air));
        assert_eq!(w.block(BlockPos::new(20, 13, 4)), Some(Block::Air));
        assert_eq!(w.total_modifications(), changed as u64);
    }

    #[test]
    fn fill_region_requires_all_chunks_loaded() {
        let mut w = World::flat(4);
        w.ensure_chunk_at(ChunkPos::ORIGIN);
        // The region touches the unloaded chunk [1, 0]: nothing is written.
        let err = w
            .fill_region(
                BlockPos::new(0, 10, 0),
                BlockPos::new(17, 10, 0),
                Block::Stone,
            )
            .unwrap_err();
        assert!(matches!(err, ServoError::ChunkNotLoaded { x: 1, z: 0 }));
        assert_eq!(w.block(BlockPos::new(0, 10, 0)), Some(Block::Air));
        assert_eq!(w.total_modifications(), 0);
    }
}
