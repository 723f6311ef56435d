//! Real-CPU benchmark of procedural chunk generation (the work a terrain
//! generation function performs per invocation, Figure 11), of copying,
//! editing and encoding the chunks it produces, and of the game loop's
//! per-tick bookkeeping of which terrain is missing.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use servo_pcg::{DefaultGenerator, FlatGenerator, Perlin, TerrainGenerator};
use servo_types::{BlockPos, ChunkPos};
use servo_world::{
    missing_chunks, nearest_missing_distance_blocks, required_chunks, Block, Chunk, ShardedWorld,
    ViewTracker,
};

/// Chunks the resident generation benchmark keeps alive at most.
const RESIDENT_BATCH: usize = 2048;

fn bench_generators(c: &mut Criterion) {
    let default_gen = DefaultGenerator::new(7);
    let flat_gen = FlatGenerator::default();
    let mut group = c.benchmark_group("chunk_generation");
    group.bench_function("default_world", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i += 1;
            default_gen.generate(ChunkPos::new(i, -i))
        })
    });
    // The generated chunks stay alive, as a server keeps the terrain it
    // loads, so each call allocates its mixed sections afresh instead of
    // reusing the ones the previous call dropped. They are let go in
    // batches of 2 048 (about 40 MB), like the terrain of an episode.
    group.bench_function("default_world_resident", |b| {
        let mut i = 0i32;
        let mut resident = Vec::with_capacity(RESIDENT_BATCH);
        b.iter(|| {
            i += 1;
            if resident.len() == RESIDENT_BATCH {
                resident.clear();
            }
            resident.push(default_gen.generate(ChunkPos::new(i, -i)));
        })
    });
    // The chunk build alone: `from_columns` on layers the generator
    // worked out beforehand, for 64 chunks in turn.
    let columns: Vec<_> = (0..64)
        .map(|i| {
            (
                ChunkPos::new(i, -i),
                default_gen.columns(ChunkPos::new(i, -i)),
            )
        })
        .collect();
    group.bench_function("default_world_build", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % columns.len();
            let (pos, layers) = &columns[i];
            Chunk::from_columns(*pos, layers).unwrap()
        })
    });
    group.bench_function("flat_world", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i += 1;
            flat_gen.generate(ChunkPos::new(i, -i))
        })
    });
    group.finish();
}

fn bench_noise(c: &mut Criterion) {
    let noise = Perlin::new(3);
    c.bench_function("perlin_fbm_sample", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x += 0.37;
            noise.fbm(x, -x * 0.5, 5, 0.004)
        })
    });
    // One chunk's 16 x 16 columns per call, the grid `DefaultGenerator`
    // evaluates: 256 of the points `perlin_fbm_sample` computes one by one.
    c.bench_function("perlin_fbm_grid", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x += 16.0;
            let xs: [f64; 16] = std::array::from_fn(|i| x + i as f64);
            let zs: [f64; 16] = std::array::from_fn(|i| -x * 0.5 + i as f64);
            noise.fbm_grid(&xs, &zs, 5, 0.004)
        })
    });
}

/// The chunk shape the cluster's write-ahead log encodes most: a flat
/// chunk with a 14-block wire line on the grass and stone scattered over
/// y 4–6, all of it in section 0 (1 047 runs, one dense section).
fn flat_edited_chunk() -> Chunk {
    let mut chunk = FlatGenerator::default().generate(ChunkPos::new(3, 3));
    for x in 1..15 {
        chunk.set_local(x, 5, 8, Block::Wire).unwrap();
    }
    for i in 0..9 {
        let (x, z) = ((i * 5 + 3) % 16, (i * 7 + 2) % 16);
        chunk.set_local(x, 4 + i % 3, z, Block::Stone).unwrap();
    }
    chunk
}

fn bench_serialization(c: &mut Criterion) {
    let chunk = DefaultGenerator::new(7).generate(ChunkPos::new(3, 3));
    let bytes = chunk.to_bytes();
    let flat_edited = flat_edited_chunk();
    let mut group = c.benchmark_group("chunk_serialization");
    group.bench_function("to_bytes", |b| b.iter(|| chunk.to_bytes()));
    group.bench_function("to_bytes/flat_edited", |b| {
        b.iter(|| black_box(&flat_edited).to_bytes())
    });
    group.bench_function("serialized_size", |b| {
        b.iter(|| std::hint::black_box(&chunk).serialized_size())
    });
    group.bench_function("from_bytes", |b| {
        b.iter(|| Chunk::from_bytes(&bytes).unwrap())
    });
    group.finish();
}

/// What a loaded chunk costs to copy and to edit: the clone behind shard
/// migration, border mirrors and keyframes, a first write into a uniform
/// (all-air) section, which allocates that section's array, and a write
/// into a section that already has one.
fn bench_chunk_storage(c: &mut Criterion) {
    let chunk = DefaultGenerator::new(7).generate(ChunkPos::new(3, 3));
    let mut group = c.benchmark_group("chunk_storage");
    group.bench_function("chunk_clone", |b| b.iter(|| black_box(&chunk).clone()));
    group.bench_function("set_local/uniform_section_with_empty", |b| {
        b.iter(|| {
            let mut fresh = Chunk::empty(ChunkPos::new(3, 3));
            fresh.set_local(5, 200, 5, Block::Stone).unwrap();
            fresh
        })
    });
    let mut edited = chunk.clone();
    let mut stone = false;
    group.bench_function("set_local/dense_section", |b| {
        b.iter(|| {
            stone = !stone;
            let block = if stone { Block::Stone } else { Block::Dirt };
            // Section 0 is always mixed: bedrock at y 0.
            edited.set_local(5, 8, 5, black_box(block)).unwrap();
        })
    });
    group.finish();
}

/// The list of missing terrain per tick, tracker against the from-scratch
/// reference `missing_chunks`, for the two single-server shapes of the
/// canonical benchmark: five explorers at view 128 + margin 48, and a
/// hundred players at view 32 + margin 48.
fn bench_view_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_tracking");
    const MARGIN: i32 = 48;
    for (players, horizon) in [(5i32, 176i32), (100, 80)] {
        let view = horizon - MARGIN;
        // A loose grid, every avatar mid-chunk.
        let avatars: Vec<BlockPos> = (0..players)
            .map(|i| BlockPos::new((i % 10) * 48 + 8, 5, (i / 10) * 48 + 8))
            .collect();
        // The same fleet with the first avatar one chunk further east.
        let mut crossed = avatars.clone();
        crossed[0] = crossed[0] + BlockPos::new(16, 0, 0);
        let loaded = ShardedWorld::flat(4);
        for fleet in [&avatars, &crossed] {
            for pos in required_chunks(fleet, horizon) {
                loaded.ensure_chunk_at(pos);
            }
        }
        // Only the chunks the avatars stand in: no avatar is at distance
        // zero, so the view range has to look at every avatar.
        let spawn_only = ShardedWorld::flat(4);
        for &avatar in &avatars {
            spawn_only.ensure_chunk_at(ChunkPos::from(avatar));
        }
        let shape = format!("{players}_avatars_horizon_{horizon}");

        // Nobody crosses a chunk border and nothing is missing: the median
        // tick of both workloads.
        let mut tracker = ViewTracker::new(view, MARGIN);
        tracker.refresh(&loaded, None, &avatars);
        group.bench_function(format!("steady/tracker/{shape}"), |b| {
            b.iter(|| tracker.refresh(&loaded, None, black_box(&avatars)).len())
        });
        group.bench_function(format!("steady/reference/{shape}"), |b| {
            b.iter(|| missing_chunks(&loaded, black_box(&avatars), horizon).len())
        });

        // One avatar crosses a border every tick (back and forth), into
        // loaded terrain: a rebuild that ends with an empty list.
        let mut east = false;
        group.bench_function(format!("one_crosses/tracker/{shape}"), |b| {
            b.iter(|| {
                east = !east;
                let fleet = if east { &crossed } else { &avatars };
                tracker.refresh(&loaded, None, black_box(fleet)).len()
            })
        });
        group.bench_function(format!("one_crosses/reference/{shape}"), |b| {
            b.iter(|| {
                east = !east;
                let fleet = if east { &crossed } else { &avatars };
                missing_chunks(&loaded, black_box(fleet), horizon).len()
            })
        });

        // A server's first ticks: nearly everything listed, and the view
        // range taken over that full list (it stays long while the
        // loads-per-tick cap drains it).
        group.bench_function(format!("cold_rebuild/tracker/{shape}"), |b| {
            b.iter(|| {
                tracker.invalidate();
                let listed = tracker
                    .refresh(&spawn_only, None, black_box(&avatars))
                    .len();
                (listed, tracker.view_range_blocks(&spawn_only, &avatars))
            })
        });
        group.bench_function(format!("cold_rebuild/reference/{shape}"), |b| {
            b.iter(|| {
                let listed = missing_chunks(&spawn_only, black_box(&avatars), horizon).len();
                (
                    listed,
                    nearest_missing_distance_blocks(&spawn_only, &avatars, view),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_generators,
    bench_noise,
    bench_serialization,
    bench_chunk_storage,
    bench_view_tracking
);
criterion_main!(benches);
