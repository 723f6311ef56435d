//! Real-CPU benchmark of the storage cache hot paths (Figure 13's code
//! path: cache lookups, pre-fetch bookkeeping, serialization round trips)
//! and of what one staging writes to the write-ahead log.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use servo_simkit::SimRng;
use servo_storage::{
    BlobStore, BlobTier, CachedChunkStore, ChunkRequest, ChunkService, DeltaWal, ObjectStore,
    PipelinedChunkService, ShardDelta, SharedWal,
};
use servo_types::{BlockPos, ChunkPos, SimDuration, SimTime};
use servo_world::{Block, Chunk, ShardedWorld};

fn seeded_cache(chunks: i32) -> CachedChunkStore<BlobStore> {
    let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
    for x in 0..chunks {
        for z in 0..chunks {
            remote
                .write(
                    &format!("terrain/{x}/{z}"),
                    Chunk::empty(ChunkPos::new(x, z)).to_bytes(),
                    SimTime::ZERO,
                )
                .unwrap();
        }
    }
    CachedChunkStore::new(remote, SimRng::seed(2))
}

fn bench_cache_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("cached_chunk_store");
    group.bench_function("memory_hit", |b| {
        let mut store = seeded_cache(4);
        store.read(ChunkPos::new(0, 0), SimTime::ZERO).unwrap();
        b.iter(|| {
            store
                .read(ChunkPos::new(0, 0), SimTime::from_secs(1))
                .unwrap()
        });
    });
    group.bench_function("remote_miss_then_hit_cycle", |b| {
        let mut store = seeded_cache(16);
        let mut i = 0i32;
        b.iter(|| {
            i = (i + 1) % 16;
            store
                .read(ChunkPos::new(i, i), SimTime::from_secs(1))
                .unwrap()
        });
    });
    group.bench_function("prefetch_issue", |b| {
        let mut store = seeded_cache(24);
        let mut offset = 0i32;
        b.iter(|| {
            offset = (offset + 1) % 20;
            let targets: Vec<ChunkPos> = (0..4).map(|d| ChunkPos::new(offset + d, 0)).collect();
            store.prefetch(targets, SimTime::from_secs(2));
        });
    });
    group.finish();
}

/// Stagings of one chunk between two write-backs, which truncate its
/// records: the log stays as small as write-back keeps it.
const STAGINGS_PER_FLUSH: u64 = 64;

/// Writes `cluster_churn`'s typical change between two stagings: two
/// blocks above a flat chunk's ground, stone on even calls and air again
/// on odd ones.
fn change_two_blocks(chunk: &mut Chunk, call: u64) {
    let block = if call.is_multiple_of(2) {
        Block::Stone
    } else {
        Block::Air
    };
    chunk.set_local(3, 5, 7, block).unwrap();
    chunk.set_local(12, 6, 2, block).unwrap();
}

/// One staging of a chunk of `cluster_churn`'s shape (a flat chunk: one
/// mixed section, ~1 000 runs) with two changed blocks, as the WAL logs
/// it: a whole image and a fresh copy for the next diff, or the edits
/// against that copy, which then takes them.
fn bench_wal(c: &mut Criterion) {
    let pos = ChunkPos::new(3, 5);
    let world = ShardedWorld::flat(4);
    world.ensure_chunk_at(pos);
    let flat = world.read_chunk(pos, Chunk::clone).unwrap();
    let mut group = c.benchmark_group("wal");
    group.bench_function("stage_image", |b| {
        let (mut chunk, mut shadow) = (flat.clone(), flat.clone());
        let mut wal = DeltaWal::new(1);
        let mut call = 0u64;
        b.iter(|| {
            change_two_blocks(&mut chunk, call);
            let seq = wal.append(pos, chunk.to_bytes());
            shadow = chunk.clone();
            call += 1;
            if call.is_multiple_of(STAGINGS_PER_FLUSH) {
                wal.truncate(pos, seq);
            }
            seq
        });
        criterion::black_box(shadow);
    });
    group.bench_function("stage_edits", |b| {
        let (mut chunk, mut shadow) = (flat.clone(), flat.clone());
        let image = flat.to_bytes();
        let mut wal = DeltaWal::new(1);
        let mut seq = wal.append(pos, image.clone());
        let mut call = 0u64;
        b.iter(|| {
            change_two_blocks(&mut chunk, call);
            let edits = chunk.diff(&shadow);
            seq = wal
                .append_edits(pos, seq, &edits)
                .expect("the chain is intact");
            shadow.apply_edits(&edits);
            call += 1;
            // An even number of changes put the chunk back at `image`:
            // start the next chain from it without timing an encode.
            if call.is_multiple_of(STAGINGS_PER_FLUSH) {
                wal.truncate(pos, seq);
                seq = wal.append(pos, image.clone());
            }
            seq
        });
    });
    // The first staging after a landed write-back, as a persistence
    // pipeline logs it. Each iteration stages the chunk, writes it back and
    // changes two blocks untimed, then times the staging that follows.
    group.bench_function("stage_after_flush", |b| {
        let world = Arc::new(ShardedWorld::flat(4));
        world.ensure_chunk_at(pos);
        let mut service = PipelinedChunkService::new(
            BlobStore::new(BlobTier::Standard, SimRng::seed(3)),
            SimRng::seed(4),
            1,
        )
        .with_world_shards(Arc::clone(&world), &[])
        .with_wal(SharedWal::new(world.shard_count()));
        let staging = || {
            vec![ShardDelta {
                shard: world.shard_of(pos),
                epoch: 0,
                chunks: vec![pos],
            }]
        };
        let (mut call, mut now) = (0u64, SimTime::ZERO);
        b.iter_custom(|iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                service.stage_dirty(staging());
                service.submit(ChunkRequest::write_back());
                now += SimDuration::from_secs(1);
                service.poll(now);
                let block = if call.is_multiple_of(2) {
                    Block::Stone
                } else {
                    Block::Air
                };
                for at in [BlockPos::new(3, 5, 7), BlockPos::new(12, 6, 2)] {
                    world.set_block(pos.min_block() + at, block).unwrap();
                }
                call += 1;
                let deltas = staging();
                let start = Instant::now();
                service.stage_dirty(deltas);
                timed += start.elapsed();
            }
            timed
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cache_reads, bench_wal);
criterion_main!(benches);
