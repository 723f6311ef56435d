//! Storage substrates: local disk, serverless blob storage, the
//! cache + pre-fetch layer Servo puts in front of remote storage, and the
//! asynchronous [`ChunkService`] request/completion pipeline the game loop
//! talks to.
//!
//! The paper measures that reading terrain from managed cloud storage has a
//! latency body comparable to local disk but a far heavier tail (99.9th
//! percentile of 226 ms vs 16 ms, outliers to 500 ms — Figures 3 and 13),
//! which breaks the 50 ms tick budget. Servo's answer is a server-local
//! cache with a distance-based pre-fetch policy (Section III-E), which this
//! crate implements, together with latency models for the storage services
//! themselves.
//!
//! # Example
//!
//! ```
//! use servo_storage::{BlobStore, BlobTier, ObjectStore};
//! use servo_simkit::SimRng;
//! use servo_types::SimTime;
//!
//! let mut store = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
//! let w = store.write("chunk/0/0", vec![1, 2, 3], SimTime::ZERO).unwrap();
//! let r = store.read("chunk/0/0", w.completed_at).unwrap();
//! assert_eq!(r.data, vec![1, 2, 3]);
//! assert!(r.latency.as_micros() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod service;
pub mod wal;
pub mod writeback;

pub use backend::{
    BlobStore, BlobTier, FaultProfile, LocalDiskStore, ObjectStore, ReadResult, WriteResult,
};
pub use cache::{
    chunk_key, CacheStats, CachedChunkStore, CachedRead, ChunkLocation, RetryPolicy, TryRead,
};
pub use service::{
    ChunkCompletion, ChunkOutcome, ChunkRequest, ChunkService, PipelinedChunkService, Priority,
    SyncChunkService, Ticket,
};
pub use wal::{DeltaWal, RecordKind, SharedWal, WalRecord};
pub use writeback::{PersistenceStats, WriteBackDriver};
// Re-exported so service consumers can name the dirty-delta type without a
// direct `servo-world` dependency.
pub use servo_world::ShardDelta;
