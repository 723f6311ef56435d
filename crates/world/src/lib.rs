//! Voxel world substrate.
//!
//! A modifiable virtual environment's terrain is a grid of blocks organised
//! in 16 x 16 x 256 chunks (the paper's Section II-A and IV-D). This crate
//! provides the block vocabulary ([`Block`]), the chunk container
//! ([`Chunk`]) with a compact run-length serialization, the in-memory
//! [`World`] with chunk lifecycle management, and view-distance helpers used
//! by terrain generation and storage experiments.
//!
//! # Example
//!
//! ```
//! use servo_world::{Block, World};
//! use servo_types::BlockPos;
//!
//! let mut world = World::flat(4); // flat bedrock/dirt/grass world, ground at y=4
//! world.ensure_chunk_at(BlockPos::new(10, 0, 10).into());
//! world.set_block(BlockPos::new(10, 5, 10), Block::Lamp).unwrap();
//! assert_eq!(world.block(BlockPos::new(10, 5, 10)), Some(Block::Lamp));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chunk;
pub mod partition;
pub mod rebalance;
pub mod sharded;
pub mod view;
pub mod world;

pub use block::Block;
pub use chunk::{BlockEdit, Chunk, ChunkSnapshot};
pub use partition::ShardMap;
pub use rebalance::{
    ConstructFootprint, ConstructMigration, RebalanceConfig, RebalancePolicy, ShardMigration,
    ZoneLoadSample,
};
pub use sharded::{
    chunk_hash, shard_index, FxBuildHasher, FxHasher, ShardDelta, ShardedWorld, DEFAULT_SHARDS,
};
pub use view::{
    missing_chunks, nearest_missing_distance_blocks, required_chunks, ChunkIndex, ViewTracker,
};
pub use world::{World, WorldKind};
