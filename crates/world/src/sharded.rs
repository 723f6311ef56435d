//! The sharded, concurrent world.
//!
//! The paper's core observation is that a modifiable virtual environment is
//! bottlenecked by the single game-loop thread of one server. The seed
//! [`crate::World`] mirrors that constraint: one `HashMap` behind one
//! `&mut` borrow. [`ShardedWorld`] removes it for the in-memory layer:
//! chunks are distributed over `N` power-of-two shards by a fast
//! FxHash-style hash of their [`ChunkPos`], and each shard keeps its chunks
//! in one `RwLock<HashMap>`. How a shard stores its chunks is decided here
//! and nowhere else. Cheap global counters (loaded chunks, total
//! modifications) are lock-free atomics.
//!
//! Concurrency model (also documented in `ARCHITECTURE.md`):
//!
//! * readers of different shards never contend; readers of one shard share
//!   that shard's read lock;
//! * writers contend at most within one shard;
//! * no operation ever holds two shards' locks at once, so lock ordering is
//!   trivial and deadlock-free — multi-chunk operations ([`set_blocks`],
//!   [`fill_region`], [`insert_chunks`]) visit shards one at a time, taking
//!   each involved shard's write guard once per batch;
//! * the counters are updated after the shard lock is released; they are
//!   eventually consistent with in-flight writers but exact once all
//!   writers have returned;
//! * every block modification also lands in the owning shard's *dirty set*
//!   (guarded by its own small mutex, never held together with the chunk
//!   lock) and bumps that shard's *epoch*. [`ShardedWorld::drain_dirty`]
//!   hands the per-shard deltas to the storage write-back pipeline, which
//!   therefore skips clean shards entirely.
//!
//! [`set_blocks`]: ShardedWorld::set_blocks
//! [`fill_region`]: ShardedWorld::fill_region
//! [`insert_chunks`]: ShardedWorld::insert_chunks

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use servo_types::consts::{CHUNK_HEIGHT, CHUNK_SIZE};
use servo_types::{BlockPos, ChunkPos, ServoError};

use crate::block::Block;
use crate::chunk::Chunk;
use crate::world::{split_pos, World, WorldKind};

/// A fast, non-cryptographic hasher in the style of rustc's FxHash
/// (multiply-rotate over machine words). Hand-rolled because this build
/// environment has no access to the `fxhash`/`rustc-hash` crates; the only
/// requirement is speed on small keys such as [`ChunkPos`], where the
/// default SipHash hasher costs more than the map probe itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier FxHash uses on 64-bit platforms (derived from the golden
/// ratio, `2^64 / phi`).
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.add_word(i as u32 as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], used by every shard map.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The FxHash of a chunk position, packing both coordinates into one word.
#[inline]
pub fn chunk_hash(pos: ChunkPos) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.add_word(((pos.x as u32 as u64) << 32) | pos.z as u32 as u64);
    hasher.finish()
}

/// The shard a chunk position belongs to, for a power-of-two `shard_count`.
///
/// Uses the *top* bits of the hash: FxHash accumulates entropy towards the
/// high bits of the multiply, so the top bits distribute better than the
/// bottom ones. Shared with the storage layer so cache batching groups
/// chunks exactly like the world shards them.
#[inline]
pub fn shard_index(pos: ChunkPos, shard_count: usize) -> usize {
    debug_assert!(shard_count.is_power_of_two());
    if shard_count <= 1 {
        return 0;
    }
    let bits = shard_count.trailing_zeros();
    (chunk_hash(pos) >> (64 - bits)) as usize
}

/// One shard's chunk map.
type ChunkMap = HashMap<ChunkPos, Chunk, FxBuildHasher>;

/// One shard: an independently locked chunk map plus its dirty tracking.
#[derive(Debug, Default)]
struct Shard {
    chunks: RwLock<ChunkMap>,
    /// Chunks modified since the last [`ShardedWorld::drain_dirty`]. Guarded
    /// by its own mutex so writers never hold it together with the chunk
    /// lock.
    dirty: Mutex<HashSet<ChunkPos, FxBuildHasher>>,
    /// Monotone per-shard modification counter: the number of block
    /// modifications this shard has absorbed over its lifetime. Storage
    /// consumers use it to order and deduplicate [`ShardDelta`]s.
    epoch: AtomicU64,
}

impl Shard {
    fn read(&self) -> RwLockReadGuard<'_, ChunkMap> {
        self.chunks.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, ChunkMap> {
        self.chunks.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// The set of chunks one world shard dirtied between two
/// [`ShardedWorld::drain_dirty`] calls — the unit of work the storage
/// write-back pipeline consumes. Write-back visits only the shards that
/// actually produced a delta, skipping clean shards entirely.
///
/// # Example
///
/// ```
/// use servo_world::{Block, ShardedWorld};
/// use servo_types::BlockPos;
///
/// let world = ShardedWorld::flat(4);
/// world.ensure_chunk_at(servo_types::ChunkPos::new(0, 0));
/// world.set_block(BlockPos::new(1, 10, 1), Block::Stone).unwrap();
/// let deltas = world.drain_dirty();
/// // One chunk was edited, so exactly one shard reports a delta.
/// assert_eq!(deltas.len(), 1);
/// assert_eq!(deltas[0].chunks, vec![servo_types::ChunkPos::new(0, 0)]);
/// // Draining leaves every shard clean again.
/// assert!(world.drain_dirty().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDelta {
    /// The index of the shard that produced this delta.
    pub shard: usize,
    /// The shard's modification epoch at drain time (its lifetime count of
    /// block modifications).
    pub epoch: u64,
    /// The chunks dirtied since the previous drain, sorted by `(x, z)` so
    /// downstream write-back consumes a deterministic order.
    pub chunks: Vec<ChunkPos>,
}

/// The default shard count. Sixteen shards keep the collision probability
/// low for up to a few tens of worker threads while costing only sixteen
/// small maps of overhead.
pub const DEFAULT_SHARDS: usize = 16;

/// A sharded, concurrently accessible game world.
///
/// Exposes the same block/chunk API as [`World`] plus closure-based
/// accessors ([`ShardedWorld::read_chunk`], [`ShardedWorld::with_chunk_mut`])
/// and batch operations that take each involved shard's write lock once per
/// batch instead of once per block. All methods take `&self`; the type is
/// `Send + Sync` and safe to share across `std::thread::scope` workers.
///
/// # Example
///
/// ```
/// use servo_world::{Block, ShardedWorld};
/// use servo_types::{BlockPos, ChunkPos};
///
/// let world = ShardedWorld::flat(4);
/// world.ensure_chunk_at(ChunkPos::new(0, 0));
/// std::thread::scope(|scope| {
///     scope.spawn(|| world.set_block(BlockPos::new(1, 10, 1), Block::Lamp).unwrap());
///     scope.spawn(|| world.block(BlockPos::new(3, 4, 3)));
/// });
/// assert_eq!(world.block(BlockPos::new(1, 10, 1)), Some(Block::Lamp));
/// ```
#[derive(Debug)]
pub struct ShardedWorld {
    kind: WorldKind,
    flat_ground_height: i32,
    shards: Box<[Shard]>,
    /// Number of loaded chunks, maintained outside the shard locks.
    loaded: AtomicUsize,
    /// Total block modifications, maintained outside the shard locks.
    modifications: AtomicU64,
    /// Chunks removed over the world's lifetime, bumped after each removal:
    /// what tells a [`ViewTracker`](crate::ViewTracker) that a chunk it
    /// saw loaded may be gone.
    removals: AtomicU64,
}

impl Default for ShardedWorld {
    fn default() -> Self {
        ShardedWorld::new()
    }
}

impl ShardedWorld {
    fn with_layout(kind: WorldKind, flat_ground_height: i32, shard_count: usize) -> Self {
        let shard_count = shard_count.clamp(1, 1 << 10).next_power_of_two();
        ShardedWorld {
            kind,
            flat_ground_height,
            shards: (0..shard_count).map(|_| Shard::default()).collect(),
            loaded: AtomicUsize::new(0),
            modifications: AtomicU64::new(0),
            removals: AtomicU64::new(0),
        }
    }

    /// Creates an empty world of the default (procedural) kind with
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_layout(WorldKind::Default, 4, DEFAULT_SHARDS)
    }

    /// Creates a flat world whose ground surface sits at `ground_height`,
    /// with [`DEFAULT_SHARDS`] shards.
    pub fn flat(ground_height: i32) -> Self {
        Self::with_layout(
            WorldKind::Flat,
            ground_height.clamp(1, CHUNK_HEIGHT - 1),
            DEFAULT_SHARDS,
        )
    }

    /// Returns this world re-created with `shard_count` shards (rounded up
    /// to a power of two, clamped to `1..=1024`). Existing chunks are
    /// redistributed.
    pub fn with_shards(mut self, shard_count: usize) -> Self {
        let rebuilt = Self::with_layout(self.kind, self.flat_ground_height, shard_count);
        rebuilt.modifications.store(
            self.modifications.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        // Undrained dirty chunks keep their write-back obligation across the
        // re-shard (epochs restart from zero: they are per-layout counters).
        for delta in self.drain_dirty() {
            for pos in delta.chunks {
                let target = &rebuilt.shards[rebuilt.shard_of(pos)];
                target
                    .dirty
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(pos);
            }
        }
        for shard in self.shards.iter_mut() {
            let chunks = shard.chunks.get_mut().unwrap_or_else(|e| e.into_inner());
            rebuilt.insert_chunks(chunks.drain().map(|(_, chunk)| chunk));
        }
        rebuilt
    }

    /// The world kind.
    pub fn kind(&self) -> WorldKind {
        self.kind
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning the chunk at `pos` — the partition key zone
    /// ownership and the storage batcher use.
    #[inline]
    pub fn shard_of(&self, pos: ChunkPos) -> usize {
        shard_index(pos, self.shards.len())
    }

    #[inline]
    fn shard(&self, pos: ChunkPos) -> &Shard {
        &self.shards[self.shard_of(pos)]
    }

    /// Number of chunks currently loaded, read from a lock-free counter.
    pub fn loaded_chunks(&self) -> usize {
        self.loaded.load(Ordering::Acquire)
    }

    /// Total number of block modifications applied through this world, read
    /// from a lock-free counter.
    pub fn total_modifications(&self) -> u64 {
        self.modifications.load(Ordering::Acquire)
    }

    /// Number of chunks [`ShardedWorld::remove_chunk`] has removed so far.
    /// Monotone; a reader that sees it unchanged knows every chunk it found
    /// loaded before is still loaded.
    pub fn removal_count(&self) -> u64 {
        self.removals.load(Ordering::Acquire)
    }

    /// The modification epoch of one shard: its lifetime count of block
    /// modifications. Monotone; storage consumers use it to order deltas.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch.load(Ordering::Acquire)
    }

    /// Number of shards currently holding dirty (modified since the last
    /// [`ShardedWorld::drain_dirty`]) chunks.
    pub fn dirty_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !s.dirty.lock().unwrap_or_else(|e| e.into_inner()).is_empty())
            .count()
    }

    /// Marks `delta_mods` block modifications against the chunk at `pos` in
    /// shard `shard`: bumps the global and per-shard counters and records the
    /// chunk in the shard's dirty set.
    fn note_modified(&self, shard: usize, pos: ChunkPos, delta_mods: u64) {
        if delta_mods == 0 {
            return;
        }
        self.modifications.fetch_add(delta_mods, Ordering::AcqRel);
        let s = &self.shards[shard];
        s.epoch.fetch_add(delta_mods, Ordering::AcqRel);
        s.dirty
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(pos);
    }

    /// Takes every shard's dirty set, returning one [`ShardDelta`] per shard
    /// that was modified since the previous drain. Shards that stayed clean
    /// produce no delta, which is what lets a storage write-back pass skip
    /// them without scanning anything.
    ///
    /// Chunk loads ([`ShardedWorld::insert_chunk`],
    /// [`ShardedWorld::insert_chunks`], [`ShardedWorld::ensure_chunk_at`])
    /// do *not* dirty a shard — only block modifications do — so terrain
    /// streaming in from storage never triggers its own write-back.
    pub fn drain_dirty(&self) -> Vec<ShardDelta> {
        let mut deltas = Vec::new();
        for index in 0..self.shards.len() {
            self.drain_one_shard(index, &mut deltas);
        }
        deltas
    }

    /// Like [`ShardedWorld::drain_dirty`], but restricted to the given shard
    /// indices — the per-zone drain view a zoned cluster uses so each zone
    /// server flushes and coordinates only the shards it owns. Out-of-range
    /// indices are ignored; duplicate indices drain (at most) once because
    /// the first drain leaves the shard clean.
    pub fn drain_dirty_shards(&self, shards: &[usize]) -> Vec<ShardDelta> {
        let mut deltas = Vec::new();
        for &index in shards {
            if index < self.shards.len() {
                self.drain_one_shard(index, &mut deltas);
            }
        }
        deltas.sort_by_key(|d| d.shard);
        deltas
    }

    fn drain_one_shard(&self, index: usize, deltas: &mut Vec<ShardDelta>) {
        let shard = &self.shards[index];
        let taken = {
            let mut dirty = shard.dirty.lock().unwrap_or_else(|e| e.into_inner());
            if dirty.is_empty() {
                return;
            }
            std::mem::take(&mut *dirty)
        };
        let mut chunks: Vec<ChunkPos> = taken.into_iter().collect();
        chunks.sort_by_key(|p| (p.x, p.z));
        deltas.push(ShardDelta {
            shard: index,
            epoch: shard.epoch.load(Ordering::Acquire),
            chunks,
        });
    }

    /// Whether the chunk at `pos` is loaded, checked under the owning
    /// shard's read lock.
    pub fn is_loaded(&self, pos: ChunkPos) -> bool {
        self.shard(pos).read().contains_key(&pos)
    }

    /// A snapshot of the positions of the chunks loaded in one shard,
    /// sorted by `(x, z)` — the transfer unit of a shard migration, which
    /// must hand the complete shard to its new owner deterministically.
    /// Out-of-range shards yield an empty set.
    pub fn shard_positions(&self, shard: usize) -> Vec<ChunkPos> {
        let Some(shard) = self.shards.get(shard) else {
            return Vec::new();
        };
        let mut positions: Vec<ChunkPos> = shard.read().keys().copied().collect();
        positions.sort_by_key(|p| (p.x, p.z));
        positions
    }

    /// A snapshot of the positions of all loaded chunks, shard by shard.
    pub fn loaded_positions(&self) -> Vec<ChunkPos> {
        let mut positions = Vec::with_capacity(self.loaded_chunks());
        for shard in self.shards.iter() {
            positions.extend(shard.read().keys().copied());
        }
        positions
    }

    /// Inserts a fully-built chunk, replacing any chunk already there.
    pub fn insert_chunk(&self, chunk: Chunk) {
        let pos = chunk.pos();
        let replaced = self.shard(pos).write().insert(pos, chunk).is_some();
        if !replaced {
            self.loaded.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Copies `chunk` over the chunk held at its position, into the
    /// arrays that chunk already owns ([`Chunk`]'s `clone_from`), or
    /// inserts a copy when none is held. Counts a new chunk as
    /// [`ShardedWorld::insert_chunk`] does and, like it, marks nothing
    /// dirty: this is how a border replica follows its owner's chunk.
    pub fn copy_chunk(&self, chunk: &Chunk) {
        let inserted = match self.shard(chunk.pos()).write().entry(chunk.pos()) {
            Entry::Occupied(mut held) => {
                held.get_mut().clone_from(chunk);
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(chunk.clone());
                true
            }
        };
        if inserted {
            self.loaded.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Inserts a batch of chunks, grouping them so each involved shard's
    /// write lock is taken once.
    pub fn insert_chunks<I: IntoIterator<Item = Chunk>>(&self, chunks: I) {
        let mut by_shard: Vec<Vec<Chunk>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for chunk in chunks {
            by_shard[self.shard_of(chunk.pos())].push(chunk);
        }
        for (shard, batch) in self.shards.iter().zip(by_shard) {
            if batch.is_empty() {
                continue;
            }
            let mut added = 0usize;
            {
                let mut chunks = shard.write();
                for chunk in batch {
                    if chunks.insert(chunk.pos(), chunk).is_none() {
                        added += 1;
                    }
                }
            }
            if added > 0 {
                self.loaded.fetch_add(added, Ordering::AcqRel);
            }
        }
    }

    /// Removes and returns the chunk at `pos`. The chunk also leaves its
    /// shard's dirty set: an unloaded chunk has nothing left to write back.
    pub fn remove_chunk(&self, pos: ChunkPos) -> Option<Chunk> {
        let shard = self.shard(pos);
        let removed = shard.write().remove(&pos);
        if removed.is_some() {
            shard
                .dirty
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&pos);
            self.loaded.fetch_sub(1, Ordering::AcqRel);
            self.removals.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// Ensures a chunk exists at `pos`, creating a default one if missing
    /// (pre-filled terrain for flat worlds, empty otherwise — the same rule
    /// as [`World::ensure_chunk_at`]).
    pub fn ensure_chunk_at(&self, pos: ChunkPos) {
        let shard = self.shard(pos);
        if shard.read().contains_key(&pos) {
            return;
        }
        // Build outside any lock; racing creators build identical chunks
        // and the vacancy check under the write lock keeps the first one.
        let chunk = self.kind.new_chunk(pos, self.flat_ground_height);
        let created = match shard.write().entry(pos) {
            Entry::Vacant(slot) => {
                slot.insert(chunk);
                true
            }
            Entry::Occupied(_) => false,
        };
        if created {
            self.loaded.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Runs `f` with shared access to the chunk at `pos`, or returns `None`
    /// if the chunk is not loaded. `f` runs under the owning shard's read
    /// lock: other readers of the shard proceed concurrently, writers of
    /// that shard wait until `f` returns.
    pub fn read_chunk<R>(&self, pos: ChunkPos, f: impl FnOnce(&Chunk) -> R) -> Option<R> {
        self.shard(pos).read().get(&pos).map(f)
    }

    /// Runs `f` with exclusive access to the chunk at `pos`, or returns
    /// `None` if the chunk is not loaded. Block changes `f` makes are folded
    /// into [`ShardedWorld::total_modifications`].
    pub fn with_chunk_mut<R>(&self, pos: ChunkPos, f: impl FnOnce(&mut Chunk) -> R) -> Option<R> {
        let shard = self.shard_of(pos);
        let (result, delta) = {
            let mut chunks = self.shards[shard].write();
            let chunk = chunks.get_mut(&pos)?;
            let before = chunk.modifications();
            let result = f(chunk);
            (result, chunk.modifications() - before)
        };
        self.note_modified(shard, pos, delta);
        Some(result)
    }

    /// Reads the block at a world position. Returns `None` if the containing
    /// chunk is not loaded or `y` is out of range.
    pub fn block(&self, pos: BlockPos) -> Option<Block> {
        let (chunk_pos, lx, ly, lz) = split_pos(pos);
        self.read_chunk(chunk_pos, |chunk| chunk.local(lx, ly, lz))?
    }

    /// Writes the block at a world position.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::ChunkNotLoaded`] if the containing chunk is not
    /// loaded, or [`ServoError::OutOfBounds`] if `y` is outside the world.
    pub fn set_block(&self, pos: BlockPos, block: Block) -> Result<(), ServoError> {
        let (chunk_pos, lx, ly, lz) = split_pos(pos);
        let shard = self.shard_of(chunk_pos);
        self.shards[shard]
            .write()
            .get_mut(&chunk_pos)
            .ok_or(ServoError::ChunkNotLoaded {
                x: chunk_pos.x,
                z: chunk_pos.z,
            })?
            .set_local(lx, ly, lz, block)?;
        self.note_modified(shard, chunk_pos, 1);
        Ok(())
    }

    /// Writes a batch of blocks, taking each involved shard's write lock
    /// once per batch (and resolving each chunk once per run of same-chunk
    /// positions within it) instead of locking per block. Returns the number
    /// of blocks written.
    ///
    /// Writes land shard by shard; within one shard they apply in input
    /// order. On the first failing write the already applied writes are kept
    /// and the error returned.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::ChunkNotLoaded`] or [`ServoError::OutOfBounds`]
    /// for the first offending position.
    pub fn set_blocks<I>(&self, blocks: I) -> Result<usize, ServoError>
    where
        I: IntoIterator<Item = (BlockPos, Block)>,
    {
        /// One write resolved to its chunk and local coordinates.
        type ResolvedWrite = (ChunkPos, i32, i32, i32, Block);
        let mut by_shard: Vec<Vec<ResolvedWrite>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, block) in blocks {
            let (chunk_pos, lx, ly, lz) = split_pos(pos);
            by_shard[self.shard_of(chunk_pos)].push((chunk_pos, lx, ly, lz, block));
        }
        let mut written = 0usize;
        let mut result = Ok(());
        'shards: for (shard_index, batch) in by_shard.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            // Per-chunk runs written under this shard's write lock, flushed
            // into the dirty tracking after the lock is released.
            let mut runs: Vec<(ChunkPos, u64)> = Vec::new();
            {
                let mut chunks = self.shards[shard_index].write();
                let mut i = 0;
                while i < batch.len() {
                    let chunk_pos = batch[i].0;
                    // The run of consecutive writes hitting this chunk.
                    let mut end = i;
                    while end < batch.len() && batch[end].0 == chunk_pos {
                        end += 1;
                    }
                    let run = &batch[i..end];
                    let outcome = chunks.get_mut(&chunk_pos).map(|chunk| {
                        let mut run_written = 0u64;
                        for &(_, lx, ly, lz, block) in run {
                            if let Err(e) = chunk.set_local(lx, ly, lz, block) {
                                return (run_written, Some(e));
                            }
                            run_written += 1;
                        }
                        (run_written, None)
                    });
                    match outcome {
                        None => {
                            result = Err(ServoError::ChunkNotLoaded {
                                x: chunk_pos.x,
                                z: chunk_pos.z,
                            });
                            break;
                        }
                        Some((run_written, maybe_err)) => {
                            written += run_written as usize;
                            if run_written > 0 {
                                runs.push((chunk_pos, run_written));
                            }
                            if let Some(e) = maybe_err {
                                result = Err(e);
                                break;
                            }
                        }
                    }
                    i = end;
                }
            }
            for (chunk_pos, run_written) in runs {
                self.note_modified(shard_index, chunk_pos, run_written);
            }
            if result.is_err() {
                break 'shards;
            }
        }
        result.map(|()| written)
    }

    /// Fills the axis-aligned region spanning `min..=max` (inclusive world
    /// coordinates) with `block`, taking each involved shard's write lock
    /// once and filling each chunk with one bulk box write. Returns the
    /// number of blocks whose value actually changed.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::ChunkNotLoaded`] if any overlapped chunk is not
    /// loaded, or [`ServoError::OutOfBounds`] if the `y` range leaves the
    /// world or the region is inverted. Nothing is written until the whole
    /// region has been validated as loaded. Validation takes shard read
    /// locks and filling then takes one write guard per shard, with no lock
    /// held in between: a concurrent `remove_chunk` can still surface as an
    /// error mid-fill, in which case the already filled chunks keep their
    /// contents.
    pub fn fill_region(
        &self,
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
        let mut by_shard: Vec<Vec<ChunkPos>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for cx in min_chunk.x..=max_chunk.x {
            for cz in min_chunk.z..=max_chunk.z {
                let pos = ChunkPos::new(cx, cz);
                if !self.is_loaded(pos) {
                    return Err(ServoError::ChunkNotLoaded { x: cx, z: cz });
                }
                by_shard[self.shard_of(pos)].push(pos);
            }
        }
        let mut changed = 0usize;
        let mut result = Ok(());
        'shards: for (shard_index, batch) in by_shard.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let mut runs: Vec<(ChunkPos, u64)> = Vec::new();
            {
                let mut chunks = self.shards[shard_index].write();
                for &chunk_pos in batch {
                    let base = chunk_pos.min_block();
                    let lo = ((min.x - base.x).max(0), min.y, (min.z - base.z).max(0));
                    let hi = (
                        (max.x - base.x).min(CHUNK_SIZE - 1),
                        max.y,
                        (max.z - base.z).min(CHUNK_SIZE - 1),
                    );
                    let Some(chunk) = chunks.get_mut(&chunk_pos) else {
                        result = Err(ServoError::ChunkNotLoaded {
                            x: chunk_pos.x,
                            z: chunk_pos.z,
                        });
                        break;
                    };
                    match chunk.fill_box(lo, hi, block) {
                        Ok(n) => {
                            changed += n;
                            if n > 0 {
                                runs.push((chunk_pos, n as u64));
                            }
                        }
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
            }
            // Flush the changes that did land even when a concurrent
            // remove_chunk surfaced as a mid-fill error — those blocks were
            // written and kept, so the counters must reflect them.
            for (chunk_pos, n) in runs {
                self.note_modified(shard_index, chunk_pos, n);
            }
            if result.is_err() {
                break 'shards;
            }
        }
        result.map(|()| changed)
    }

    /// The ground height (highest non-air block) at the given column, if the
    /// chunk is loaded.
    pub fn height_at(&self, x: i32, z: i32) -> Option<i32> {
        let (chunk_pos, lx, _, lz) = split_pos(BlockPos::new(x, 0, z));
        self.read_chunk(chunk_pos, |chunk| chunk.height_at(lx, lz))?
    }

    /// Total number of stateful (simulated-construct) blocks across all
    /// loaded chunks.
    pub fn stateful_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let chunks = shard.read();
                chunks.values().map(Chunk::stateful_blocks).sum::<usize>()
            })
            .sum()
    }

    /// Copies the world into a single-threaded [`World`] snapshot.
    pub fn to_world(&self) -> World {
        let mut world = match self.kind {
            WorldKind::Flat => World::flat(self.flat_ground_height),
            WorldKind::Default => World::new(),
        };
        for shard in self.shards.iter() {
            for chunk in shard.read().values() {
                world.insert_chunk(chunk.clone());
            }
        }
        world
    }
}

impl From<World> for ShardedWorld {
    fn from(mut world: World) -> ShardedWorld {
        let sharded = ShardedWorld::with_layout(world.kind(), world.flat_ground(), DEFAULT_SHARDS);
        sharded
            .modifications
            .store(world.total_modifications(), Ordering::Relaxed);
        let positions: Vec<ChunkPos> = world.loaded_positions().collect();
        sharded.insert_chunks(positions.into_iter().filter_map(|p| world.remove_chunk(p)));
        sharded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_is_stable_and_spreads() {
        let a = chunk_hash(ChunkPos::new(3, -2));
        let b = chunk_hash(ChunkPos::new(3, -2));
        assert_eq!(a, b);
        // Neighbouring chunks land on a healthy mix of shards.
        let mut seen = std::collections::HashSet::new();
        for x in 0..16 {
            for z in 0..16 {
                seen.insert(shard_index(ChunkPos::new(x, z), 16));
            }
        }
        assert!(seen.len() >= 12, "only {} shards used", seen.len());
    }

    #[test]
    fn shard_count_is_power_of_two() {
        assert_eq!(ShardedWorld::new().shard_count(), DEFAULT_SHARDS);
        assert_eq!(ShardedWorld::new().with_shards(3).shard_count(), 4);
        assert_eq!(ShardedWorld::new().with_shards(0).shard_count(), 1);
        assert_eq!(ShardedWorld::new().with_shards(8).shard_count(), 8);
    }

    #[test]
    fn behaves_like_world_for_basic_ops() {
        let world = ShardedWorld::flat(4);
        world.ensure_chunk_at(ChunkPos::new(0, 0));
        world.ensure_chunk_at(ChunkPos::new(-1, -1));
        assert_eq!(world.loaded_chunks(), 2);
        assert_eq!(world.block(BlockPos::new(0, 0, 0)), Some(Block::Bedrock));
        assert_eq!(world.block(BlockPos::new(5, 4, 5)), Some(Block::Grass));
        assert_eq!(world.block(BlockPos::new(-5, 4, -5)), Some(Block::Grass));
        assert_eq!(world.height_at(-5, -5), Some(4));
        assert_eq!(world.block(BlockPos::new(100, 4, 100)), None);

        world
            .set_block(BlockPos::new(1, 10, 1), Block::Lamp)
            .unwrap();
        assert_eq!(world.block(BlockPos::new(1, 10, 1)), Some(Block::Lamp));
        assert_eq!(world.total_modifications(), 1);
        assert_eq!(world.stateful_blocks(), 1);
        assert!(world
            .set_block(BlockPos::new(100, 4, 100), Block::Stone)
            .is_err());
    }

    #[test]
    fn closure_accessors_reach_the_chunk() {
        let world = ShardedWorld::flat(4);
        world.ensure_chunk_at(ChunkPos::ORIGIN);
        let ground = world
            .read_chunk(ChunkPos::ORIGIN, |chunk| chunk.height_at(3, 3))
            .unwrap();
        assert_eq!(ground, Some(4));
        let changed = world
            .with_chunk_mut(ChunkPos::ORIGIN, |chunk| {
                chunk.fill_box((0, 30, 0), (3, 30, 3), Block::Wood).unwrap()
            })
            .unwrap();
        assert_eq!(changed, 16);
        assert_eq!(world.total_modifications(), 16);
        assert!(world.read_chunk(ChunkPos::new(9, 9), |_| ()).is_none());
        assert!(world.with_chunk_mut(ChunkPos::new(9, 9), |_| ()).is_none());
    }

    #[test]
    fn batch_ops_agree_with_world() {
        let sharded = ShardedWorld::flat(4);
        let mut plain = World::flat(4);
        for cx in -2..=2 {
            for cz in -2..=2 {
                sharded.ensure_chunk_at(ChunkPos::new(cx, cz));
                plain.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        let writes: Vec<(BlockPos, Block)> = (0..200)
            .map(|i| {
                (
                    BlockPos::new((i * 7) % 64 - 32, 5 + i % 20, (i * 13) % 64 - 32),
                    if i % 2 == 0 {
                        Block::Stone
                    } else {
                        Block::Lamp
                    },
                )
            })
            .collect();
        assert_eq!(
            sharded.set_blocks(writes.clone()).unwrap(),
            plain.set_blocks(writes.clone()).unwrap()
        );
        let min = BlockPos::new(-30, 40, -30);
        let max = BlockPos::new(30, 42, 30);
        assert_eq!(
            sharded.fill_region(min, max, Block::Sand).unwrap(),
            plain.fill_region(min, max, Block::Sand).unwrap()
        );
        for &(pos, _) in &writes {
            assert_eq!(sharded.block(pos), plain.block(pos), "at {pos}");
        }
        assert_eq!(sharded.to_world().loaded_chunks(), plain.loaded_chunks());
    }

    #[test]
    fn insert_remove_and_conversions() {
        let sharded = ShardedWorld::new();
        let mut chunk = Chunk::empty(ChunkPos::new(3, 3));
        chunk.fill_layer(7, Block::Sand).unwrap();
        sharded.insert_chunk(chunk);
        assert!(sharded.is_loaded(ChunkPos::new(3, 3)));
        assert_eq!(sharded.block(BlockPos::new(48, 7, 48)), Some(Block::Sand));
        // Replacing does not inflate the loaded counter.
        sharded.insert_chunk(Chunk::empty(ChunkPos::new(3, 3)));
        assert_eq!(sharded.loaded_chunks(), 1);
        let removed = sharded.remove_chunk(ChunkPos::new(3, 3)).unwrap();
        assert_eq!(removed.pos(), ChunkPos::new(3, 3));
        assert_eq!(sharded.loaded_chunks(), 0);
        assert!(sharded.remove_chunk(ChunkPos::new(3, 3)).is_none());

        let mut plain = World::flat(4);
        for i in 0..20 {
            plain.ensure_chunk_at(ChunkPos::new(i, -i));
        }
        plain
            .set_block(BlockPos::new(1, 9, 1), Block::Wire)
            .unwrap();
        let converted = ShardedWorld::from(plain);
        assert_eq!(converted.loaded_chunks(), 20);
        assert_eq!(converted.total_modifications(), 1);
        assert_eq!(converted.block(BlockPos::new(1, 9, 1)), Some(Block::Wire));
        let mut positions = converted.loaded_positions();
        positions.sort_by_key(|p| (p.x, p.z));
        let mut expected: Vec<ChunkPos> = (0..20).map(|i| ChunkPos::new(i, -i)).collect();
        expected.sort_by_key(|p| (p.x, p.z));
        assert_eq!(positions, expected);
    }

    #[test]
    fn dirty_tracking_is_per_shard() {
        let world = ShardedWorld::flat(4);
        for cx in 0..4 {
            for cz in 0..4 {
                world.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        // Loading chunks does not dirty anything.
        assert_eq!(world.dirty_shard_count(), 0);
        assert!(world.drain_dirty().is_empty());

        // Edit blocks of exactly one chunk: exactly one shard reports dirt.
        world
            .set_block(BlockPos::new(1, 9, 1), Block::Stone)
            .unwrap();
        world
            .set_block(BlockPos::new(2, 9, 2), Block::Lamp)
            .unwrap();
        assert_eq!(world.dirty_shard_count(), 1);
        let deltas = world.drain_dirty();
        assert_eq!(deltas.len(), 1);
        let delta = &deltas[0];
        assert_eq!(delta.shard, world.shard_of(ChunkPos::new(0, 0)));
        assert_eq!(delta.chunks, vec![ChunkPos::new(0, 0)]);
        assert_eq!(delta.epoch, 2);
        assert_eq!(world.shard_epoch(delta.shard), 2);
        // Drained means clean.
        assert!(world.drain_dirty().is_empty());
        assert_eq!(world.dirty_shard_count(), 0);
        // The global counter is untouched by draining.
        assert_eq!(world.total_modifications(), 2);
    }

    #[test]
    fn batch_mutations_mark_dirty_chunks() {
        let world = ShardedWorld::flat(4);
        for cx in -2..=2 {
            for cz in -2..=2 {
                world.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        world
            .fill_region(
                BlockPos::new(-20, 40, -20),
                BlockPos::new(20, 41, 20),
                Block::Sand,
            )
            .unwrap();
        let filled: std::collections::HashSet<ChunkPos> = world
            .drain_dirty()
            .iter()
            .flat_map(|d| d.chunks.iter().copied())
            .collect();
        // The region spans chunks -2..=1 on both axes (blocks -20..=20).
        assert_eq!(filled.len(), 4 * 4);

        world
            .set_blocks([
                (BlockPos::new(0, 50, 0), Block::Wood),
                (BlockPos::new(17, 50, 17), Block::Wood),
            ])
            .unwrap();
        let edited: Vec<ChunkPos> = world
            .drain_dirty()
            .iter()
            .flat_map(|d| d.chunks.iter().copied())
            .collect();
        assert_eq!(edited.len(), 2);

        // with_chunk_mut folds its delta into the dirty tracking too; a
        // read-only closure stays clean.
        world
            .with_chunk_mut(ChunkPos::new(1, 1), |chunk| {
                chunk.fill_layer(60, Block::Stone).unwrap()
            })
            .unwrap();
        world.read_chunk(ChunkPos::new(0, 0), |c| c.modifications());
        let deltas = world.drain_dirty();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].chunks, vec![ChunkPos::new(1, 1)]);

        // Removing a chunk clears its pending dirt.
        world
            .set_block(BlockPos::new(33, 9, 33), Block::Lamp)
            .unwrap();
        world.remove_chunk(ChunkPos::new(2, 2)).unwrap();
        assert!(world.drain_dirty().is_empty());
    }

    #[test]
    fn drain_dirty_shards_is_a_restricted_view() {
        let world = ShardedWorld::flat(4);
        for cx in 0..6 {
            for cz in 0..6 {
                world.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        // Dirty two chunks living in different shards.
        let a = ChunkPos::new(0, 0);
        let mut b = ChunkPos::new(1, 0);
        for cx in 1..6 {
            for cz in 0..6 {
                let candidate = ChunkPos::new(cx, cz);
                if world.shard_of(candidate) != world.shard_of(a) {
                    b = candidate;
                }
            }
        }
        assert_ne!(world.shard_of(a), world.shard_of(b));
        world
            .set_block(a.min_block() + BlockPos::new(1, 9, 1), Block::Stone)
            .unwrap();
        world
            .set_block(b.min_block() + BlockPos::new(1, 9, 1), Block::Lamp)
            .unwrap();

        // Draining only a's shard leaves b's shard dirty.
        let drained = world.drain_dirty_shards(&[world.shard_of(a)]);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].chunks, vec![a]);
        let rest = world.drain_dirty();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].chunks, vec![b]);
        // Out-of-range and duplicate indices are harmless.
        assert!(world
            .drain_dirty_shards(&[world.shard_of(a), world.shard_of(a), 10_000])
            .is_empty());
    }

    #[test]
    fn insert_chunks_batches_per_shard() {
        let world = ShardedWorld::new().with_shards(4);
        let chunks: Vec<Chunk> = (0..40)
            .map(|i| Chunk::empty(ChunkPos::new(i, i * 2)))
            .collect();
        world.insert_chunks(chunks);
        assert_eq!(world.loaded_chunks(), 40);
        for i in 0..40 {
            assert!(world.is_loaded(ChunkPos::new(i, i * 2)));
        }
    }

    #[test]
    fn flat_chunks_match_world_construction() {
        let sharded = ShardedWorld::flat(9);
        let mut plain = World::flat(9);
        sharded.ensure_chunk_at(ChunkPos::ORIGIN);
        plain.ensure_chunk_at(ChunkPos::ORIGIN);
        let from_sharded = sharded
            .read_chunk(ChunkPos::ORIGIN, |c| c.to_bytes())
            .unwrap();
        assert_eq!(
            from_sharded,
            plain.chunk(ChunkPos::ORIGIN).unwrap().to_bytes()
        );
    }

    #[test]
    fn block_chunk_and_dirty_surface_end_to_end() {
        let world = ShardedWorld::flat(4);
        for cx in -2..=2 {
            for cz in -2..=2 {
                world.ensure_chunk_at(ChunkPos::new(cx, cz));
            }
        }
        assert_eq!(world.loaded_chunks(), 25);
        assert_eq!(world.block(BlockPos::new(0, 0, 0)), Some(Block::Bedrock));
        assert_eq!(world.block(BlockPos::new(5, 4, 5)), Some(Block::Grass));
        world
            .set_block(BlockPos::new(1, 10, 1), Block::Lamp)
            .unwrap();
        assert_eq!(world.block(BlockPos::new(1, 10, 1)), Some(Block::Lamp));
        let written = world
            .set_blocks((0..64).map(|i| {
                (
                    BlockPos::new(i % 32 - 16, 8 + i % 8, i % 32 - 16),
                    Block::Stone,
                )
            }))
            .unwrap();
        assert_eq!(written, 64);
        let filled = world
            .fill_region(
                BlockPos::new(-10, 40, -10),
                BlockPos::new(10, 41, 10),
                Block::Sand,
            )
            .unwrap();
        assert_eq!(filled, 21 * 21 * 2);
        assert_eq!(world.total_modifications(), 1 + 64 + 21 * 21 * 2);
        let dirty: usize = world.drain_dirty().iter().map(|d| d.chunks.len()).sum();
        assert!(dirty >= 4, "fill spans at least four chunks, saw {dirty}");
        let removed = world.remove_chunk(ChunkPos::new(2, 2)).unwrap();
        assert_eq!(removed.pos(), ChunkPos::new(2, 2));
        assert_eq!(world.loaded_chunks(), 24);
        assert!(!world.is_loaded(ChunkPos::new(2, 2)));
        // The fill raised the column height to the sand slab's top layer.
        assert_eq!(world.height_at(5, 5), Some(41));
        assert_eq!(world.loaded_positions().len(), 24);
        assert_eq!(world.to_world().loaded_chunks(), 24);
    }

    #[test]
    fn racing_ensure_chunk_at_elects_one_winner() {
        let world = ShardedWorld::flat(4);
        let pos = ChunkPos::new(5, 5);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    world.ensure_chunk_at(pos);
                });
            }
        });
        // Exactly one racer's chunk was kept and counted.
        assert_eq!(world.loaded_chunks(), 1);
        assert_eq!(world.loaded_positions(), vec![pos]);
        assert_eq!(world.shard_positions(world.shard_of(pos)), vec![pos]);
        assert_eq!(world.block(BlockPos::new(81, 4, 81)), Some(Block::Grass));
    }
}
