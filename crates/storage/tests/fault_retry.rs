//! Transient storage faults and the bounded retry-and-backoff that
//! absorbs them: an armed [`FaultProfile`] makes individual remote reads
//! and writes fail at a seeded rate, a [`RetryPolicy`] retries them with
//! per-attempt backoff, and [`CacheStats`] counts both the retries and
//! the operations that exhausted their budget.

use std::sync::Arc;

use servo_simkit::SimRng;
use servo_storage::{
    BlobStore, BlobTier, CachedChunkStore, ChunkRequest, ChunkService, FaultProfile, ObjectStore,
    PipelinedChunkService, RetryPolicy,
};
use servo_types::{ChunkPos, SimDuration, SimTime};
use servo_world::{Chunk, ChunkSnapshot, ShardedWorld};

const GRID: i32 = 5;

/// A simple non-empty chunk: a stone layer at the flat ground height.
fn flat_chunk(pos: ChunkPos) -> Chunk {
    let mut chunk = Chunk::empty(pos);
    chunk.fill_layer(4, servo_world::Block::Stone).unwrap();
    chunk
}

/// A remote store holding a flat chunk for every grid position, with the
/// given transient-failure rates armed on a dedicated substream.
fn faulty_remote(read_rate: f64, write_rate: f64, seed: u64) -> BlobStore {
    let rng = SimRng::seed(seed);
    let faults = rng.substream("faults");
    let mut remote = BlobStore::new(BlobTier::Standard, rng);
    for x in 0..GRID {
        for z in 0..GRID {
            let bytes = flat_chunk(ChunkPos::new(x, z)).to_bytes();
            remote
                .write(&format!("terrain/{x}/{z}"), bytes, SimTime::ZERO)
                .unwrap();
        }
    }
    // Arm the faults only after seeding, so the seed writes always land.
    remote.with_faults(
        FaultProfile {
            read_fail_rate: read_rate,
            write_fail_rate: write_rate,
        },
        faults,
    )
}

#[test]
fn retries_absorb_transient_read_failures() {
    let mut cache = CachedChunkStore::new(faulty_remote(0.35, 0.0, 21), SimRng::seed(22));
    cache.set_retry(RetryPolicy {
        attempts: 8,
        backoff: SimDuration::from_millis(4),
    });
    let mut now = SimTime::ZERO;
    for x in 0..GRID {
        for z in 0..GRID {
            now += SimDuration::from_millis(50);
            let read = cache.read(ChunkPos::new(x, z), now);
            assert!(read.is_ok(), "read failed despite retry budget: {read:?}");
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.remote_misses, (GRID * GRID) as u64);
    assert!(
        stats.retries > 0,
        "a 35% fail rate over {} reads must trigger retries",
        GRID * GRID
    );
    assert_eq!(stats.retries_exhausted, 0, "the budget covered every read");
}

#[test]
fn exhausted_retries_surface_as_failures() {
    let attempts = 2u32;
    let mut cache = CachedChunkStore::new(faulty_remote(1.0, 0.0, 31), SimRng::seed(32));
    cache.set_retry(RetryPolicy {
        attempts,
        backoff: SimDuration::from_millis(4),
    });
    let reads = 6u64;
    let mut now = SimTime::ZERO;
    for i in 0..reads {
        now += SimDuration::from_millis(50);
        let read = cache.read(ChunkPos::new(i as i32 % GRID, i as i32 / GRID), now);
        assert!(read.is_err(), "a 100% fail rate can never satisfy a read");
    }
    let stats = cache.stats();
    assert_eq!(stats.retries, attempts as u64 * reads);
    assert_eq!(stats.retries_exhausted, reads);
}

#[test]
fn failed_write_backs_keep_the_chunk_dirty_until_a_retry_lands() {
    // Every write fails: the chunk must stay dirty (and recoverable)
    // across write-back passes rather than being silently dropped.
    let mut cache = CachedChunkStore::new(faulty_remote(0.0, 1.0, 41), SimRng::seed(42));
    cache.set_retry(RetryPolicy {
        attempts: 1,
        backoff: SimDuration::from_millis(4),
    });
    let pos = ChunkPos::new(1, 1);
    let snapshot = ChunkSnapshot {
        pos,
        bytes: flat_chunk(pos).to_bytes().into(),
    };
    cache
        .put(snapshot.clone(), SimTime::from_millis(10))
        .unwrap();
    let written = cache.write_back(&[pos], SimTime::from_millis(20));
    assert!(written.is_empty(), "no write can land at a 100% fail rate");
    let stats = cache.stats();
    assert_eq!(stats.write_backs, 0);
    assert_eq!(stats.retries_exhausted, 1);
    // The dirt survived the failed pass: the next delta still carries it.
    let deltas = cache.take_dirty_deltas();
    assert_eq!(deltas.len(), 1);
    assert_eq!(deltas[0].chunks, vec![pos]);

    // A flaky-but-not-dead store: the bounded retries eventually land it.
    let mut cache = CachedChunkStore::new(faulty_remote(0.0, 0.5, 43), SimRng::seed(44));
    cache.set_retry(RetryPolicy {
        attempts: 10,
        backoff: SimDuration::from_millis(4),
    });
    cache.put(snapshot, SimTime::from_millis(10)).unwrap();
    let written = cache.write_back(&[pos], SimTime::from_millis(20));
    assert_eq!(written, vec![pos]);
    assert_eq!(cache.stats().write_backs, 1);
    assert!(
        cache.take_dirty_deltas().is_empty(),
        "flushed chunk is clean"
    );
}

#[test]
fn pipelined_service_retries_through_a_flaky_store() {
    // End-to-end through the pipeline: every grid read completes
    // despite a 30% transient read-failure rate, with the retries visible
    // in the aggregated stats and no request stranded.
    let world = Arc::new(ShardedWorld::flat(4));
    let mut service = PipelinedChunkService::new(faulty_remote(0.3, 0.0, 51), SimRng::seed(52), 3)
        .with_world(Arc::clone(&world))
        .with_retry(RetryPolicy {
            attempts: 8,
            backoff: SimDuration::from_millis(4),
        });
    let mut tickets = std::collections::BTreeSet::new();
    for x in 0..GRID {
        for z in 0..GRID {
            tickets.insert(service.submit(ChunkRequest::read(ChunkPos::new(x, z))));
        }
    }
    // Advance virtual time: the first poll executes the lanes, and the
    // transfers (and retry backoffs) land as `now` passes their arrival.
    let mut now = SimTime::ZERO;
    let mut loaded = 0usize;
    for _ in 0..200_000 {
        now += SimDuration::from_millis(50);
        for completion in service.poll(now) {
            if let servo_storage::ChunkOutcome::Loaded { .. } = completion.outcome {
                if tickets.remove(&completion.ticket) {
                    loaded += 1;
                }
            }
        }
        if loaded == (GRID * GRID) as usize {
            break;
        }
    }
    assert_eq!(loaded, (GRID * GRID) as usize, "a read was stranded");
    let stats = service.stats();
    assert!(
        stats.retries > 0,
        "the flaky store must have forced retries"
    );
}
