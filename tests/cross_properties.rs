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

// The construct step before blueprints compiled to circuits, shared with
// the redstone crate's differential test.
#[path = "../crates/redstone/tests/bfs_engine/mod.rs"]
mod bfs_engine;

// The seeded game-loop workload of the core crate's speculation
// transparency test.
#[path = "../crates/core/tests/speculative_workload/mod.rs"]
mod speculative_workload;

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
            prop_assert_eq!(&*read.snapshot.bytes, &bytes[..]);
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

/// The same property inside the game loop, on one fixed seed: a server
/// on the speculative backend matches one stepping every construct
/// locally, tick for tick, through a mixed construct fleet with player
/// modifications mid-run, with loop detection on and off.
#[test]
fn speculation_is_transparent_in_the_game_loop() {
    for config in speculative_workload::configs() {
        speculative_workload::assert_transparent(77, 300, config, None);
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

/// A generated chunk keeps its memory budget and its bytes: it round-trips
/// to identical bytes, owns at most three mixed 16-high sections, and after
/// edits across a section edge (y 15/16), from the top of one column into
/// the bottom of the next, and over whole sections it still reads and
/// encodes exactly like a plain array of ids given the same edits.
#[test]
fn generated_chunk_stays_compact_and_matches_a_dense_model_under_edits() {
    let index = |x: i32, y: i32, z: i32| ((x * 16 + z) * 256 + y) as usize;
    let encode = |pos: ChunkPos, blocks: &[u16]| {
        let mut runs: Vec<(u32, u16)> = Vec::new();
        for &b in blocks {
            match runs.last_mut() {
                Some((count, id)) if *id == b => *count += 1,
                _ => runs.push((1, b)),
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(&pos.x.to_le_bytes());
        out.extend_from_slice(&pos.z.to_le_bytes());
        out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for (count, id) in runs {
            out.extend_from_slice(&count.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    };
    let pos = ChunkPos::new(3, -4);
    let mut chunk = DefaultGenerator::new(7).generate(pos);
    let bytes = chunk.to_bytes();
    assert_eq!(Chunk::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    assert!(chunk.heap_bytes() <= 3 * 8192, "{}", chunk.heap_bytes());

    let mut model = vec![0u16; 16 * 16 * 256];
    for x in 0..16 {
        for z in 0..16 {
            for y in 0..256 {
                model[index(x, y, z)] = chunk.local(x, y, z).unwrap().id();
            }
        }
    }
    assert_eq!(encode(pos, &model), bytes);
    let boxes = [
        ((4, 15, 4), (4, 15, 4), Block::Wire),
        ((4, 16, 4), (4, 16, 4), Block::Wire),
        ((7, 255, 2), (7, 255, 2), Block::Stone),
        ((7, 0, 3), (7, 0, 3), Block::Stone),
        ((0, 12, 0), (15, 20, 15), Block::Air),
        ((0, 32, 0), (15, 47, 15), Block::Sand),
        ((9, 40, 9), (9, 40, 9), Block::Lamp),
        ((0, 240, 0), (15, 255, 15), Block::Water),
    ];
    for (step, &(lo, hi, block)) in boxes.iter().enumerate() {
        if lo == hi {
            chunk.set_local(lo.0, lo.1, lo.2, block).unwrap();
        } else {
            chunk.fill_box(lo, hi, block).unwrap();
        }
        for x in lo.0..=hi.0 {
            for z in lo.2..=hi.2 {
                for y in lo.1..=hi.1 {
                    model[index(x, y, z)] = block.id();
                }
            }
        }
        if step == 5 {
            chunk = Chunk::from_bytes(&chunk.to_bytes()).unwrap();
        }
        for x in 0..16 {
            for z in 0..16 {
                for y in 0..256 {
                    assert_eq!(chunk.local(x, y, z).unwrap().id(), model[index(x, y, z)]);
                }
                let top = (0..256)
                    .rev()
                    .find(|&y| model[index(x, y, z)] != Block::Air.id());
                assert_eq!(chunk.height_at(x, z), top, "step {step}");
            }
        }
        let non_air = model.iter().filter(|&&b| b != Block::Air.id()).count();
        assert_eq!(chunk.non_air_blocks(), non_air, "step {step}");
        let stateful = model
            .iter()
            .filter(|&&b| Block::from_id(b).unwrap().is_stateful())
            .count();
        assert_eq!(chunk.stateful_blocks(), stateful, "step {step}");
        let bytes = chunk.to_bytes();
        assert_eq!(chunk.serialized_size(), bytes.len(), "step {step}");
        assert_eq!(bytes, encode(pos, &model), "step {step}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The compiled construct step equals the breadth-first-search step it
    /// replaced on the paper's 252-block construct, from starting powers
    /// anywhere in `0..=255` and through modifications between steps. One
    /// case, fixed by the test name; the redstone crate's
    /// `engine_reference` test runs arbitrary shapes.
    #[test]
    fn compiled_construct_step_matches_the_bfs_reference(
        powers in bfs_engine::powers(),
        ops in bfs_engine::ops(),
    ) {
        bfs_engine::run(servo::redstone::generators::paper_small(), &powers, &ops);
    }
}

/// The cluster tick at whose start [`composed_cluster_run`] crashes a zone.
const CRASH_AT: usize = 140;

/// One run of the composed cluster scenario: a 4-zone hybrid with the
/// speculative border exchange, per-zone persistence and write-ahead logs,
/// a hotspot on zone 0 that makes the rebalancer migrate shards and border
/// constructs, and a crash of zone 3 the survivors recover from — 200
/// ticks driven through `run_tick`.
fn composed_cluster_run(seed: u64) -> servo::core::HybridDeployment {
    use servo::redstone::generators;
    use servo::server::cluster::{
        border_construct_sites, place_across_east_seam_at, zone_hotspot_sites,
    };
    use servo::server::BorderExchange;
    use servo::types::consts::TICK_BUDGET;
    use servo::types::PlayerId;
    use servo::workload::{BehaviorKind, Hotspot, PlayerEvent, PlayerFleet};
    use servo::world::{RebalanceConfig, RebalancePolicy};

    const TICKS: u64 = 200;
    let mut hybrid = servo::core::ServoDeployment::builder()
        .seed(seed)
        .view_distance(32)
        .border_exchange(BorderExchange::Speculative)
        .hybrid(4);
    let map = hybrid.cluster.shard_map().clone();
    // Every other construct has most of its blocks east of the seam, on
    // the neighbour's side: the border-traffic term will move it there.
    for (index, site) in border_construct_sites(&map, 24).into_iter().enumerate() {
        let offset = if index % 2 == 0 { 8 } else { 12 };
        hybrid.cluster.add_construct(place_across_east_seam_at(
            &generators::wire_line(14),
            site,
            6,
            offset,
        ));
    }
    let mut fleet = PlayerFleet::new(
        BehaviorKind::Bounded { radius: 24.0 },
        SimRng::seed(seed ^ 0x5eed),
    );
    fleet.connect_all(32);
    fleet.set_hotspot(Hotspot {
        targets: Hotspot::chunk_centers(&zone_hotspot_sites(&map, 0, 4)),
        converge_at: SimTime::ZERO + TICK_BUDGET * 10,
        disperse_at: SimTime::ZERO + TICK_BUDGET * 10_000,
        travel_speed: 24.0,
        dwell_radius: 4.0,
    });
    hybrid.crash_zone(3, CRASH_AT as u64);
    hybrid.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 20,
        evaluate_every: 10,
        cooldown_ticks: 30,
        trigger_ratio: 1.3,
        min_gap_ms: 1.0,
        smoothing: 0.25,
        border_traffic: true,
        ..RebalanceConfig::default()
    }));
    let mut edits = SimRng::seed(seed).substream("terrain-edits");
    for _ in 0..TICKS {
        let mut events = fleet.tick(hybrid.cluster.now(), TICK_BUDGET);
        // Six block edits per tick around spawn keep terrain — border
        // chunks included — dirty, so mirroring, write-back and the
        // write-ahead log all have work.
        events.extend((0..6).map(|_| {
            let x = (edits.unit() * 81.0) as i32 - 40;
            let z = (edits.unit() * 81.0) as i32 - 40;
            let event = PlayerEvent::BlockPlaced(BlockPos::new(x, 9, z));
            (PlayerId::new(0), event)
        }));
        hybrid.cluster.run_tick(&fleet.positions(), &events);
    }
    hybrid
}

/// The message ledger, pinned from outside: every cross-server message a
/// tick reports is charged to both of its endpoint servers — except the
/// messages of crash detection and recovery, whose peer is a dead server
/// or the storage substrate and which therefore burden one server only.
/// And the whole composition is a function of the seed.
#[test]
fn cluster_messages_are_charged_to_their_endpoints_under_composed_churn() {
    const MESSAGE_COST_US: u64 = 500;
    let hybrid = composed_cluster_run(31);
    let cluster = &hybrid.cluster;

    // The scenario composed what it promises.
    let (stats, rebalance, recovery) = (
        cluster.stats(),
        cluster.rebalance_stats(),
        cluster.recovery_stats(),
    );
    assert!(rebalance.shard_migrations > 0, "no shard migrated");
    assert!(rebalance.construct_migrations > 0, "no construct migrated");
    assert!(rebalance.staged_dirty_handed_off > 0, "no staging moved");
    assert!(stats.speculation_handles > 0 && stats.speculative_replays > 0);
    assert!(stats.handoffs > 0 && stats.border_chunk_updates > 0);
    assert_eq!(recovery.crashes, 1);
    assert!(recovery.shards_adopted > 0 && recovery.constructs_adopted > 0);
    assert!(recovery.chunks_restored + recovery.chunks_replayed > 0);
    assert_eq!(recovery.chunks_lost, 0, "the write-ahead log was on");
    assert_eq!(cluster.pending_adoption_count(), 0);

    // One-sided messages exist only inside the recovery window, which
    // opens at the crash tick and lasts `recovery_ticks`.
    let window = CRASH_AT..CRASH_AT + recovery.recovery_ticks as usize;
    assert!(window.end < cluster.ticks().len(), "recovery never ended");
    let mut one_sided = 0u64;
    for (index, detail) in cluster.ticks().iter().enumerate() {
        let coordination_us: u64 = detail
            .zones
            .iter()
            .map(|zone| zone.coordination.as_micros())
            .sum();
        assert_eq!(coordination_us % MESSAGE_COST_US, 0, "tick {index}");
        let endpoints = coordination_us / MESSAGE_COST_US;
        let messages = detail.tick.cross_server_messages;
        if window.contains(&index) {
            assert!(
                (messages..=2 * messages).contains(&endpoints),
                "tick {index}: {messages} messages, {endpoints} endpoints charged"
            );
            one_sided += 2 * messages - endpoints;
        } else {
            assert_eq!(
                endpoints,
                2 * messages,
                "tick {index}: a message missed an endpoint"
            );
        }
    }
    assert_eq!(one_sided, recovery.recovery_messages);

    let again = composed_cluster_run(31);
    assert_eq!(cluster.ticks(), again.cluster.ticks());
    assert_eq!(stats, again.cluster.stats());
    assert_eq!(rebalance, again.cluster.rebalance_stats());
    assert_eq!(recovery, again.cluster.recovery_stats());
    assert_eq!(
        cluster.persistence_stats_total(),
        again.cluster.persistence_stats_total()
    );
    for zone in 0..cluster.zones() {
        let appended = |c: &servo::server::ShardedGameCluster| {
            c.persistence_wal(zone)
                .map(|wal| wal.with(|w| w.appended()))
        };
        assert_eq!(appended(cluster), appended(&again.cluster), "zone {zone}");
    }
}
