//! Differential property tests: [`SyncChunkService`] (executes at submit,
//! misses block) and [`PipelinedChunkService`] (executes at poll, misses
//! become transfers) must produce the same *final* state for the same
//! seeded request stream — identical world contents, identical write-back
//! sets and bytes in remote storage, and the same set of chunks delivered
//! to read tickets. Only when completions surface, and the tick-visible
//! cost, may differ.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use servo_simkit::SimRng;
use servo_storage::{
    BlobStore, BlobTier, CacheStats, ChunkCompletion, ChunkOutcome, ChunkRequest, ChunkService,
    ObjectStore, PipelinedChunkService, SyncChunkService, Ticket,
};
use servo_types::{BlockPos, ChunkPos, SimDuration, SimTime};
use servo_world::{Block, ShardedWorld};

/// Side length of the chunk grid every stream operates on.
const GRID: i32 = 5;
/// Operations per generated stream.
const OPS: usize = 120;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn grid_pos(r: u64) -> ChunkPos {
    ChunkPos::new((r % GRID as u64) as i32, ((r >> 8) % GRID as u64) as i32)
}

/// One operation of the seeded request stream, identical for both services.
#[derive(Debug, Clone)]
enum Op {
    Read(ChunkPos),
    Prefetch(Vec<ChunkPos>),
    Edit(BlockPos, Block),
    Evict(Vec<ChunkPos>),
    WriteBack,
}

fn stream(seed: u64) -> Vec<Op> {
    let mut state = seed ^ 0x5eed_cafe;
    (0..OPS)
        .map(|_| {
            let r = splitmix(&mut state);
            match r % 100 {
                0..=39 => Op::Read(grid_pos(r >> 16)),
                40..=59 => {
                    let n = (r >> 16) % 4 + 1;
                    Op::Prefetch(
                        (0..n)
                            .map(|i| grid_pos(splitmix(&mut state) >> (8 * (i % 3))))
                            .collect(),
                    )
                }
                60..=84 => {
                    let pos = grid_pos(r >> 16).min_block();
                    let block = if r.is_multiple_of(2) {
                        Block::Stone
                    } else {
                        Block::Lamp
                    };
                    let dx = ((r >> 32) % 16) as i32;
                    let dz = ((r >> 40) % 16) as i32;
                    let y = ((r >> 48) % 60) as i32 + 8;
                    Op::Edit(BlockPos::new(pos.x + dx, y, pos.z + dz), block)
                }
                85..=89 => {
                    let keep: Vec<ChunkPos> = (0..GRID)
                        .flat_map(|x| (0..GRID).map(move |z| ChunkPos::new(x, z)))
                        .filter(|p| (p.x + p.z) % 2 == (r % 2) as i32)
                        .collect();
                    Op::Evict(keep)
                }
                _ => Op::WriteBack,
            }
        })
        .collect()
}

/// Builds the pre-populated world every stream edits: the full grid of flat
/// chunks, loaded up front so edits apply identically no matter when read
/// completions arrive.
fn seeded_world() -> Arc<ShardedWorld> {
    let world = ShardedWorld::flat(4);
    for x in 0..GRID {
        for z in 0..GRID {
            world.ensure_chunk_at(ChunkPos::new(x, z));
        }
    }
    Arc::new(world)
}

/// Seeds the remote store with the same flat chunks the world holds.
fn seeded_remote(world: &ShardedWorld) -> BlobStore {
    let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
    for x in 0..GRID {
        for z in 0..GRID {
            let pos = ChunkPos::new(x, z);
            let bytes = world
                .read_chunk(pos, |c| c.to_bytes())
                .expect("grid chunk is loaded");
            remote
                .write(
                    &format!("terrain/{}/{}", pos.x, pos.z),
                    bytes,
                    SimTime::ZERO,
                )
                .unwrap();
        }
    }
    remote
}

/// What a run leaves behind, compared across the two services.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Serialized final world contents, per chunk.
    world: BTreeMap<ChunkPos, Vec<u8>>,
    /// Final remote-storage contents over the grid universe (the
    /// write-back set plus the seed data it overwrote).
    remote: BTreeMap<ChunkPos, Vec<u8>>,
    /// Chunk positions delivered to read tickets.
    read_loaded: BTreeSet<ChunkPos>,
}

/// Everything `poll` returned over a run, in order: each completion's
/// ticket and outcome kind, and which positions went to read tickets.
#[derive(Debug, Default, PartialEq, Eq)]
struct Trace {
    completions: Vec<(Ticket, &'static str)>,
    read_tickets: BTreeSet<Ticket>,
    read_loaded: BTreeSet<ChunkPos>,
}

impl Trace {
    fn record(&mut self, completions: Vec<ChunkCompletion>) {
        for completion in completions {
            let kind = match completion.outcome {
                ChunkOutcome::Loaded { pos, .. } => {
                    if self.read_tickets.contains(&completion.ticket) {
                        self.read_loaded.insert(pos);
                    }
                    "loaded"
                }
                ChunkOutcome::Missing { .. } => "missing",
                ChunkOutcome::Failed { .. } => "failed",
                ChunkOutcome::WroteBack { .. } => "wrote-back",
                ChunkOutcome::Evicted { .. } => "evicted",
            };
            self.completions.push((completion.ticket, kind));
        }
    }
}

/// Drives `seed`'s stream through `service` — one op every 20 ms, a poll
/// before and after each — then settles with exactly two more polls at a
/// far-future instant: the first harvests every outstanding arrival (no
/// request may be left pending after it), the second executes one final
/// write-back of all remaining dirt. Returns the trace and that instant.
fn drive(service: &mut impl ChunkService, world: &ShardedWorld, seed: u64) -> (Trace, SimTime) {
    let mut trace = Trace::default();
    let mut now = SimTime::ZERO;
    for op in stream(seed) {
        now += SimDuration::from_millis(20);
        trace.record(service.poll(now));
        match op {
            Op::Read(pos) => {
                let ticket = service.submit(ChunkRequest::read(pos));
                trace.read_tickets.insert(ticket);
            }
            Op::Prefetch(positions) => {
                service.submit(ChunkRequest::prefetch(positions));
            }
            Op::Edit(pos, block) => {
                world
                    .set_block(pos, block)
                    .expect("the whole grid is loaded");
            }
            Op::Evict(keep) => {
                service.submit(ChunkRequest::evict(keep));
            }
            Op::WriteBack => {
                service.submit(ChunkRequest::write_back());
            }
        }
        trace.record(service.poll(now));
    }
    let end = now + SimDuration::from_secs(1_000);
    trace.record(service.poll(end));
    assert_eq!(service.pending(), 0, "one poll past every arrival settles");
    service.submit(ChunkRequest::write_back());
    trace.record(service.poll(end));
    (trace, end)
}

fn world_fingerprint(world: &ShardedWorld) -> BTreeMap<ChunkPos, Vec<u8>> {
    let mut map = BTreeMap::new();
    for pos in world.loaded_positions() {
        map.insert(pos, world.read_chunk(pos, |c| c.to_bytes()).unwrap());
    }
    map
}

fn remote_fingerprint(remote: &mut BlobStore, now: SimTime) -> BTreeMap<ChunkPos, Vec<u8>> {
    let mut map = BTreeMap::new();
    for x in 0..GRID {
        for z in 0..GRID {
            let pos = ChunkPos::new(x, z);
            let key = format!("terrain/{}/{}", pos.x, pos.z);
            if remote.contains(&key) {
                map.insert(pos, remote.read(&key, now).unwrap().data);
            }
        }
    }
    map
}

fn run_sync(seed: u64) -> Outcome {
    let world = seeded_world();
    let remote = seeded_remote(&world);
    let mut service = SyncChunkService::new(remote, SimRng::seed(2)).with_world(Arc::clone(&world));
    let (trace, end) = drive(&mut service, &world, seed);
    Outcome {
        world: world_fingerprint(&world),
        remote: remote_fingerprint(service.remote_mut(), end),
        read_loaded: trace.read_loaded,
    }
}

fn run_pipelined(seed: u64) -> (Outcome, Vec<(Ticket, &'static str)>, CacheStats) {
    let world = seeded_world();
    let remote = seeded_remote(&world);
    let mut service =
        PipelinedChunkService::new(remote, SimRng::seed(2), 1).with_world(Arc::clone(&world));
    let (trace, end) = drive(&mut service, &world, seed);
    let outcome = Outcome {
        world: world_fingerprint(&world),
        remote: service.with_remote(|remote| remote_fingerprint(remote, end)),
        read_loaded: trace.read_loaded,
    };
    (outcome, trace.completions, service.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole equivalence: for an arbitrary seeded request stream the
    /// pipelined service converges to exactly the state the synchronous
    /// baseline produces.
    #[test]
    fn sync_and_pipelined_converge_to_identical_state(seed in 0u64..1_000_000) {
        let sync = run_sync(seed);
        let (pipelined, _, _) = run_pipelined(seed);
        prop_assert_eq!(&sync.world, &pipelined.world, "world diverged");
        prop_assert_eq!(&sync.remote, &pipelined.remote, "write-back sets diverged");
        prop_assert_eq!(&sync.read_loaded, &pipelined.read_loaded, "read deliveries diverged");
    }
}

/// The determinism contract: the request stream, the poll times and the
/// seeds fix every completion (ticket, kind, order), every cache counter
/// and every stored byte — two runs are indistinguishable.
#[test]
fn pipelined_run_is_a_function_of_its_inputs() {
    let first = run_pipelined(42);
    assert!(first.1.iter().any(|&(_, kind)| kind == "loaded"));
    assert!(first.1.iter().any(|&(_, kind)| kind == "wrote-back"));
    for _ in 0..4 {
        assert_eq!(first, run_pipelined(42));
    }
    assert_eq!(run_sync(42), first.0);
}

/// Editing chunks of a single shard must surface as exactly one
/// [`servo_storage::ShardDelta`] from the service, and a write-back driven
/// by it must skip every clean shard (issue acceptance criterion).
#[test]
fn one_shard_edit_yields_one_delta() {
    let world = seeded_world();
    let remote = BlobStore::new(BlobTier::Standard, SimRng::seed(3));
    let mut service = SyncChunkService::new(remote, SimRng::seed(4)).with_world(Arc::clone(&world));

    let target = ChunkPos::new(2, 2);
    let base = target.min_block();
    world
        .set_block(BlockPos::new(base.x + 1, 30, base.z + 1), Block::Wood)
        .unwrap();
    world
        .set_block(BlockPos::new(base.x + 2, 30, base.z + 2), Block::Wood)
        .unwrap();

    let deltas = service.drain_dirty();
    assert_eq!(deltas.len(), 1, "exactly one shard delta: {deltas:?}");
    assert_eq!(deltas[0].shard, world.shard_of(target));
    assert_eq!(deltas[0].chunks, vec![target]);

    service.submit(ChunkRequest::write_back());
    let completions = service.poll(SimTime::ZERO);
    assert!(completions
        .iter()
        .any(|c| matches!(c.outcome, ChunkOutcome::WroteBack { chunks: 1 })));
    // Only the edited chunk reached remote storage.
    assert_eq!(service.remote_mut().len(), 1);
    assert!(service.remote_mut().contains("terrain/2/2"));
}
