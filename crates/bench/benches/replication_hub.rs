//! Real-CPU benchmark of the replication hub at the shape of the
//! `replication_fanout` workload: 10 000 radius-2 subscribers, 8 flush
//! cohorts, and per tick ~2 dirty chunks and ~160 construct/avatar events.
//!
//! Every row runs twice: with zipf-shared interests (the workload's
//! shape: 10 000 subscribers over ~160 distinct interest centres) and with
//! 10 000 distinct interests, so that what the hub gains from interest
//! classes can be told from what it gains from stamping at ingest.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use servo_replication::{Interest, ReplicationHub};
use servo_simkit::SimRng;
use servo_types::ChunkPos;
use servo_workload::KeySkew;
use servo_world::sharded::shard_index;
use servo_world::{ShardDelta, ShardMap};

const SUBSCRIBERS: usize = 10_000;
const RADIUS: i32 = 2;
const COHORTS: u64 = 8;
const SHARDS: usize = 16;
const EVENTS_PER_TICK: usize = 160;
const DIRTY_PER_TICK: usize = 2;
/// Ticks of pre-drawn dirt and events the rows cycle through.
const TICKS: usize = 64;

/// Interest centres and a sampler of the positions that get dirt and
/// events.
struct Shape {
    name: &'static str,
    centers: Vec<ChunkPos>,
    hot: Box<dyn FnMut() -> ChunkPos>,
}

/// 10 000 centres drawn zipf-1.1 from a 14 x 14 grid, the workload's
/// skew; dirt and events land where the subscribers crowd.
fn zipf_shared() -> Shape {
    let grid: Vec<ChunkPos> = (-7..7)
        .flat_map(|x| (-7..7).map(move |z| ChunkPos::new(x, z)))
        .collect();
    let mut skew = KeySkew::zipf(grid.len(), 1.1, SimRng::seed(7).substream("centers"));
    let centers = (0..SUBSCRIBERS).map(|_| grid[skew.sample()]).collect();
    let mut hot = KeySkew::zipf(grid.len(), 1.1, SimRng::seed(7).substream("hot"));
    Shape {
        name: "zipf_shared",
        centers,
        hot: Box::new(move || grid[hot.sample()]),
    }
}

/// One subscriber per chunk of a 100 x 100 grid: no two share an
/// interest; dirt and events land uniformly on the grid.
fn distinct() -> Shape {
    let centers = (0..100)
        .flat_map(|x| (0..100).map(move |z| ChunkPos::new(x, z)))
        .collect();
    let mut rng = SimRng::seed(7).substream("hot");
    Shape {
        name: "distinct",
        centers,
        hot: Box::new(move || {
            let x = (rng.unit() * 100.0) as i32;
            let z = (rng.unit() * 100.0) as i32;
            ChunkPos::new(x, z)
        }),
    }
}

/// A hub with every subscriber registered and its keyframe sent.
fn hub(centers: &[ChunkPos]) -> ReplicationHub {
    let mut hub = ReplicationHub::new(Arc::new(ShardMap::contiguous(SHARDS, 4)));
    for &center in centers {
        hub.subscribe(Interest::new(center, RADIUS));
    }
    for _ in 0..COHORTS {
        hub.flush(COHORTS, |_| Some(4_096));
    }
    hub
}

fn bench_hub(c: &mut Criterion) {
    let mut group = c.benchmark_group("replication_hub");
    for mut shape in [zipf_shared(), distinct()] {
        let events: Vec<Vec<(ChunkPos, u32)>> = (0..TICKS)
            .map(|_| (0..EVENTS_PER_TICK).map(|_| ((shape.hot)(), 1)).collect())
            .collect();
        let dirt: Vec<Vec<ShardDelta>> = (1..=TICKS as u64)
            .map(|epoch| {
                (0..DIRTY_PER_TICK)
                    .map(|_| {
                        let pos = (shape.hot)();
                        ShardDelta {
                            shard: shard_index(pos, SHARDS),
                            epoch,
                            chunks: vec![pos],
                        }
                    })
                    .collect()
            })
            .collect();

        let mut hub = hub(&shape.centers);
        let mut tick = 0;
        group.bench_function(format!("ingest_events_160/{}", shape.name), |b| {
            b.iter(|| {
                tick = (tick + 1) % TICKS;
                hub.ingest_events(&events[tick]);
            })
        });
        group.bench_function(format!("ingest_2_chunks/{}", shape.name), |b| {
            b.iter(|| {
                tick = (tick + 1) % TICKS;
                hub.ingest(&dirt[tick]);
            })
        });
        // A flush only has work after ingest, so each iteration first
        // ingests one tick's dirt and events, which the two rows above
        // time on their own, then flushes one cohort (1 250 subscribers).
        group.bench_function(
            format!("ingest_tick_then_flush_cohort/{}", shape.name),
            |b| {
                b.iter(|| {
                    tick = (tick + 1) % TICKS;
                    hub.ingest(&dirt[tick]);
                    hub.ingest_events(&events[tick]);
                    hub.flush(COHORTS, |_| Some(4_096)).len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hub);
criterion_main!(benches);
