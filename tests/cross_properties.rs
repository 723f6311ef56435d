//! Cross-crate property-based tests: the invariants Servo's correctness
//! rests on, checked with randomly generated constructs, schedules and
//! terrain.

use proptest::prelude::*;
use servo::core::{SpeculationConfig, SpeculativeScBackend};
use servo::faas::{FaasPlatform, FunctionConfig};
use servo::pcg::{DefaultGenerator, FlatGenerator, TerrainGenerator};
use servo::redstone::{Blueprint, CircuitBlock, Construct};
use servo::server::ScBackend;
use servo::simkit::SimRng;
use servo::storage::{BlobStore, BlobTier, CachedChunkStore};
use servo::types::{BlockPos, ChunkPos, ConstructId, MemoryMb, SimTime, Tick};
use servo::world::{Block, Chunk, ShardedWorld, World};

// The world crate's differential model of `ViewTracker`, shared with its
// property test so tier-1 covers the game loop's terrain bookkeeping.
#[path = "../crates/world/tests/view_tracker_model/mod.rs"]
mod view_tracker_model;

fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    prop::collection::vec(
        (
            (0i32..8, 0i32..2, 0i32..8),
            prop::sample::select(vec![
                CircuitBlock::PowerSource,
                CircuitBlock::Wire,
                CircuitBlock::Lamp,
                CircuitBlock::Repeater,
                CircuitBlock::Torch,
            ]),
        ),
        2..50,
    )
    .prop_map(|blocks| {
        let mut blueprint = Blueprint::new();
        for ((x, y, z), kind) in blocks {
            blueprint.add(BlockPos::new(x, y, z), kind);
        }
        blueprint
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Servo's central correctness property (Section III-C): speculative
    /// offloading never changes the construct's evolution, for any construct
    /// shape, tick lead, and simulation length.
    #[test]
    fn speculation_is_transparent(
        blueprint in arb_blueprint(),
        tick_lead in 0u64..40,
        simulation_steps in 5usize..120,
        loop_detection in any::<bool>(),
        seed in any::<u64>(),
        ticks in 50u64..250,
    ) {
        let config = SpeculationConfig {
            tick_lead,
            simulation_steps,
            loop_detection,
            ..SpeculationConfig::default()
        };
        let platform = FaasPlatform::new(
            FunctionConfig::aws_like(MemoryMb::new(2048)),
            SimRng::seed(seed),
        );
        let mut backend = SpeculativeScBackend::new(config, platform);
        let mut offloaded = Construct::new(blueprint.clone());
        let mut reference = Construct::new(blueprint);
        for t in 0..ticks {
            backend.resolve(
                ConstructId::new(0),
                &mut offloaded,
                Tick(t),
                SimTime::from_millis(t * 50),
            );
            reference.step();
            prop_assert_eq!(offloaded.state().hash(), reference.state().hash(), "tick {}", t);
            prop_assert_eq!(offloaded.state().step(), reference.state().step());
        }
    }

    /// Whatever is written through the cache is read back identically,
    /// regardless of eviction and write-back order.
    #[test]
    fn cache_is_coherent_with_remote(
        chunk_coords in prop::collection::vec((-20i32..20, -20i32..20), 1..15),
        evict_first in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let generator = FlatGenerator::new(5);
        let remote = BlobStore::new(BlobTier::Standard, SimRng::seed(seed));
        let mut cache = CachedChunkStore::new(remote, SimRng::seed(seed ^ 1));
        let mut expected = Vec::new();
        for (x, z) in &chunk_coords {
            let pos = ChunkPos::new(*x, *z);
            let chunk = generator.generate(pos);
            expected.push((pos, chunk.to_bytes()));
            cache.put(chunk.snapshot(), SimTime::ZERO).unwrap();
        }
        if evict_first {
            cache.write_back_dirty(SimTime::ZERO);
            cache.evict_except(&std::collections::HashSet::new(), SimTime::ZERO);
        }
        for (pos, bytes) in expected {
            let read = cache.read(pos, SimTime::from_secs(1)).unwrap();
            prop_assert_eq!(read.snapshot.bytes, bytes);
        }
    }

    /// Terrain generation is a pure function of (seed, chunk position): any
    /// two generators with the same seed agree, and serialization preserves
    /// the generated content exactly.
    #[test]
    fn generation_is_deterministic_and_serializable(
        seed in any::<u64>(),
        x in -500i32..500,
        z in -500i32..500,
    ) {
        let a = DefaultGenerator::new(seed).generate(ChunkPos::new(x, z));
        let b = DefaultGenerator::new(seed).generate(ChunkPos::new(x, z));
        prop_assert_eq!(a.to_bytes(), b.to_bytes());
        let restored = servo::world::Chunk::from_bytes(&a.to_bytes()).unwrap();
        prop_assert_eq!(restored.pos(), ChunkPos::new(x, z));
        prop_assert_eq!(restored.non_air_blocks(), a.non_air_blocks());
    }

    /// The FaaS platform never bills more invocations than were issued and
    /// never reports a completion before the request.
    #[test]
    fn faas_invocations_are_causal(
        works in prop::collection::vec(0.1f64..2000.0, 1..40),
        memory in prop::sample::select(MemoryMb::PAPER_SWEEP.to_vec()),
        seed in any::<u64>(),
    ) {
        let mut platform = FaasPlatform::new(FunctionConfig::aws_like(memory), SimRng::seed(seed));
        let mut now = SimTime::ZERO;
        let mut issued = 0u64;
        for work in works {
            let inv = platform.invoke(now, work).unwrap();
            prop_assert!(inv.completed_at > now);
            prop_assert!(inv.latency >= inv.compute);
            issued += 1;
            now = inv.completed_at;
        }
        prop_assert_eq!(platform.billing().invocations(), issued);
        prop_assert!(platform.stats().cold_starts >= 1);
        prop_assert!(platform.stats().cold_starts <= issued);
    }
}

/// One fixed-seed mixed schedule (single writes, batches, fills, loads,
/// unloads) leaves the sharded world and the plain `World` with the same
/// outcomes, counters, loaded set and chunk bytes.
#[test]
fn sharded_world_matches_plain_world_on_a_fixed_seed() {
    let mut rng = SimRng::seed(0x5ead);
    let mut draw = |lo: i32, hi: i32| lo + (rng.unit() * (hi - lo) as f64) as i32;
    let mut plain = World::flat(4);
    let sharded = ShardedWorld::flat(4);
    for cx in -3..3 {
        for cz in -3..3 {
            plain.ensure_chunk_at(ChunkPos::new(cx, cz));
            sharded.ensure_chunk_at(ChunkPos::new(cx, cz));
        }
    }
    for step in 0..400 {
        let block = Block::ALL[draw(0, Block::ALL.len() as i32) as usize];
        match step % 8 {
            0 => {
                let writes: Vec<(BlockPos, Block)> = (0..12)
                    .map(|_| {
                        (
                            BlockPos::new(draw(-48, 48), draw(1, 90), draw(-48, 48)),
                            block,
                        )
                    })
                    .filter(|(pos, _)| plain.is_loaded(ChunkPos::from(*pos)))
                    .collect();
                assert_eq!(plain.set_blocks(writes.clone()), sharded.set_blocks(writes));
            }
            1 => {
                let min = BlockPos::new(draw(-40, 30), draw(1, 60), draw(-40, 30));
                let max = min + BlockPos::new(draw(0, 20), draw(0, 5), draw(0, 20));
                assert_eq!(
                    plain.fill_region(min, max, block),
                    sharded.fill_region(min, max, block)
                );
            }
            2 => {
                let pos = ChunkPos::new(draw(-4, 4), draw(-4, 4));
                if step % 16 == 2 {
                    let (a, b) = (plain.remove_chunk(pos), sharded.remove_chunk(pos));
                    assert_eq!(a.map(|c| c.to_bytes()), b.map(|c| c.to_bytes()));
                } else {
                    plain.ensure_chunk_at(pos);
                    sharded.ensure_chunk_at(pos);
                }
            }
            _ => {
                let pos = BlockPos::new(draw(-64, 64), draw(0, 256), draw(-64, 64));
                assert_eq!(
                    plain.set_block(pos, block),
                    sharded.set_block(pos, block),
                    "at {pos}"
                );
            }
        }
    }
    assert_eq!(plain.total_modifications(), sharded.total_modifications());
    assert_eq!(plain.stateful_blocks(), sharded.stateful_blocks());
    let key = |p: &ChunkPos| (p.x, p.z);
    let mut expected: Vec<ChunkPos> = plain.loaded_positions().collect();
    let mut loaded = sharded.loaded_positions();
    expected.sort_unstable_by_key(key);
    loaded.sort_unstable_by_key(key);
    assert_eq!(expected, loaded);
    for pos in expected {
        assert_eq!(
            Some(plain.chunk(pos).unwrap().to_bytes()),
            sharded.read_chunk(pos, |c| c.to_bytes()),
            "bytes at {pos}"
        );
    }
    // Every undrained dirty chunk is still loaded, and one drain empties it.
    for delta in sharded.drain_dirty() {
        assert!(delta.chunks.iter().all(|&pos| plain.is_loaded(pos)));
    }
    assert!(sharded.drain_dirty().is_empty());
}

/// One fixed-seed case of `servo-world`'s `run_count_survives_every_kind_of_write`
/// property: after every step of a mixed write sequence that favours the
/// ends of columns and of the chunk, the O(1) `serialized_size` is the
/// encoded length and `to_bytes` is what the two-pass encoder it replaced
/// (collect the runs, then write them) produces.
#[test]
fn chunk_run_count_survives_a_fixed_seed_write_sequence() {
    fn reference_to_bytes(chunk: &Chunk) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&chunk.pos().x.to_le_bytes());
        out.extend_from_slice(&chunk.pos().z.to_le_bytes());
        let mut runs: Vec<(u32, u16)> = Vec::new();
        for x in 0..16 {
            for z in 0..16 {
                for y in 0..256 {
                    let b = chunk.local(x, y, z).unwrap().id();
                    match runs.last_mut() {
                        Some((count, id)) if *id == b => *count += 1,
                        _ => runs.push((1, b)),
                    }
                }
            }
        }
        out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (count, id) in runs {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    }

    let mut rng = SimRng::seed(0xc0dec);
    let mut draw = |hi: i32| (rng.unit() * hi as f64) as i32;
    // `0..max`, half of the time one of its two ends.
    let mut edge = |max: i32| match draw(4) {
        0 => 0,
        1 => max - 1,
        _ => draw(max),
    };
    let mut chunk = Chunk::empty(ChunkPos::new(-5, 9));
    for step in 0..300 {
        // Three ids only, so that writes often change nothing or join runs.
        let block = [Block::Air, Block::Stone, Block::Dirt][step % 3];
        let a = (edge(16), edge(256), edge(16));
        match step % 8 {
            0 | 1 => {
                let b = (edge(16), edge(256), edge(16));
                let lo = (a.0.min(b.0), a.1.min(b.1), a.2.min(b.2));
                let hi = (a.0.max(b.0), a.1.max(b.1), a.2.max(b.2));
                chunk.fill_box(lo, hi, block).unwrap();
            }
            2 => chunk.fill_layer(a.1, block).unwrap(),
            3 => chunk = Chunk::from_bytes(&chunk.to_bytes()).unwrap(),
            _ => chunk.set_local(a.0, a.1, a.2, block).unwrap(),
        }
        let bytes = chunk.to_bytes();
        assert_eq!(chunk.serialized_size(), bytes.len(), "step {step}");
        assert_eq!(bytes, reference_to_bytes(&chunk), "step {step}");
    }
}

/// Eight writers on disjoint layers race eight readers over one shared
/// grid (the `sharded_world` stress at reduced size): no write is lost and
/// the counters come out exact once every thread has joined.
#[test]
fn sharded_world_keeps_every_write_under_eight_threads() {
    const THREADS: usize = 8;
    const WRITES: i32 = 400;
    const SIDE: i32 = 4 * 16;
    let world = ShardedWorld::flat(4);
    for cx in 0..4 {
        for cz in 0..4 {
            world.ensure_chunk_at(ChunkPos::new(cx, cz));
        }
    }
    let barrier = std::sync::Barrier::new(2 * THREADS);
    std::thread::scope(|scope| {
        for thread_id in 0..THREADS {
            let (world, barrier) = (&world, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..WRITES {
                    let pos = BlockPos::new(i % SIDE, 20 + thread_id as i32, (i * 7) % SIDE);
                    world.set_block(pos, Block::Lamp).expect("chunk is loaded");
                }
            });
            scope.spawn(move || {
                barrier.wait();
                for i in 0..WRITES {
                    // The ground layer is never written: always grass.
                    let pos = BlockPos::new(i % SIDE, 4, (i * 11) % SIDE);
                    assert_eq!(world.block(pos), Some(Block::Grass));
                }
            });
        }
    });
    assert_eq!(
        world.total_modifications(),
        (THREADS as i32 * WRITES) as u64
    );
    assert_eq!(world.loaded_chunks(), 16);
    for thread_id in 0..THREADS {
        for i in 0..WRITES {
            let pos = BlockPos::new(i % SIDE, 20 + thread_id as i32, (i * 7) % SIDE);
            assert_eq!(world.block(pos), Some(Block::Lamp), "at {pos}");
        }
    }
    let epochs: u64 = (0..world.shard_count()).map(|s| world.shard_epoch(s)).sum();
    assert_eq!(epochs, world.total_modifications());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The game loop's incremental terrain bookkeeping equals the
    /// from-scratch reference after every avatar move, chunk load or unload
    /// and shard migration. The cases are fixed by the test name; the world
    /// crate's `view_tracker` test runs the same model at full width.
    #[test]
    fn view_tracker_matches_reference(scenario in view_tracker_model::scenario()) {
        view_tracker_model::run(&scenario);
    }
}
