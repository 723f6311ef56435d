//! The game loop's terrain bookkeeping must notice what happens to the
//! world and to chunk ownership *between* ticks, with nobody moving: a
//! chunk unloaded behind its back is requested again, and a migrated
//! shard's missing terrain is requested by its new owner and no longer by
//! the old one. Observed from outside, through the reads a recording
//! [`ChunkService`] sees.

use std::sync::{Arc, Mutex};

use servo_server::cluster::ShardedGameCluster;
use servo_server::{GameServer, LocalScBackend, ServerConfig};
use servo_simkit::SimRng;
use servo_storage::{
    ChunkCompletion, ChunkLocation, ChunkOutcome, ChunkRequest, ChunkService, ShardDelta, Ticket,
};
use servo_types::{BlockPos, ChunkPos, SimDuration, SimTime};
use servo_world::{required_chunks, Chunk};

/// The positions of the reads submitted since the log was last taken.
type ReadLog = Arc<Mutex<Vec<ChunkPos>>>;

fn take(log: &ReadLog) -> Vec<ChunkPos> {
    std::mem::take(&mut *log.lock().unwrap())
}

/// Logs every read; when `deliver` is set, answers it with an empty chunk
/// on the next poll, otherwise never.
struct RecordingService {
    log: ReadLog,
    deliver: bool,
    queued: Vec<ChunkPos>,
    tickets: u64,
}

impl RecordingService {
    fn new(log: &ReadLog, deliver: bool) -> Self {
        RecordingService {
            log: Arc::clone(log),
            deliver,
            queued: Vec::new(),
            tickets: 0,
        }
    }
}

impl ChunkService for RecordingService {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        self.tickets += 1;
        if let ChunkRequest::Read { pos, .. } = request {
            self.log.lock().unwrap().push(pos);
            if self.deliver {
                self.queued.push(pos);
            }
        }
        Ticket(self.tickets)
    }

    fn poll(&mut self, _now: SimTime) -> Vec<ChunkCompletion> {
        self.queued
            .drain(..)
            .map(|pos| ChunkCompletion {
                ticket: Ticket(0),
                outcome: ChunkOutcome::Loaded {
                    pos,
                    chunk: Box::new(Chunk::empty(pos)),
                    location: ChunkLocation::Generated,
                    latency: SimDuration::ZERO,
                },
            })
            .collect()
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        Vec::new()
    }

    fn pending(&self) -> usize {
        self.queued.len()
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

fn config() -> ServerConfig {
    ServerConfig::opencraft().with_view_distance(32)
}

fn server(log: &ReadLog, deliver: bool) -> GameServer {
    GameServer::new(
        config(),
        Box::new(LocalScBackend::every_other_tick()),
        Box::new(RecordingService::new(log, deliver)),
        SimRng::seed(1),
    )
}

#[test]
fn a_chunk_unloaded_between_ticks_is_requested_again() {
    let log = ReadLog::default();
    let mut server = server(&log, true);
    let avatars = [BlockPos::new(8, 5, 8)];

    // Load everything around the motionless avatar.
    let mut settled = false;
    for _ in 0..50 {
        let report = server.run_tick(&avatars, &[]);
        if take(&log).is_empty() {
            assert_eq!(report.view_range_blocks, 32.0);
            settled = true;
            break;
        }
    }
    assert!(settled, "terrain never finished loading");
    server.run_tick(&avatars, &[]);
    assert!(take(&log).is_empty(), "a settled tick asks for nothing");

    // Someone else unloads the neighbouring chunk.
    let gone = ChunkPos::new(1, 0);
    assert!(server.world_handle().remove_chunk(gone).is_some());
    let report = server.run_tick(&avatars, &[]);
    assert_eq!(take(&log), vec![gone]);
    assert!(
        report.view_range_blocks < 32.0,
        "view range {} ignores the unloaded chunk",
        report.view_range_blocks
    );

    // It is delivered and integrated on the following tick.
    let report = server.run_tick(&avatars, &[]);
    assert_eq!(report.view_range_blocks, 32.0);
    assert!(server.world().is_loaded(gone));
    take(&log);
    server.run_tick(&avatars, &[]);
    assert!(take(&log).is_empty());
}

#[test]
fn a_migrated_shard_is_requested_by_its_new_owner_only() {
    let logs = [ReadLog::default(), ReadLog::default()];
    // Nothing is ever delivered, so every tick each zone asks for all the
    // terrain it owns around its avatars.
    let mut cluster = ShardedGameCluster::new(2, |zone| server(&logs[zone], false));
    let horizon = config().view_distance_blocks + config().generation_margin_blocks;

    // One motionless avatar per zone, as close together as ownership
    // allows, so both horizons cover chunks of most shards.
    let map = cluster.shard_map();
    let shard_count = map.shard_count();
    let shard_of = |pos: ChunkPos| servo_world::shard_index(pos, shard_count);
    let candidates: Vec<ChunkPos> = ChunkPos::ORIGIN.square_around(3).collect();
    let home = |zone: usize| {
        *candidates
            .iter()
            .find(|&&pos| map.zone_of_chunk(pos) == zone)
            .expect("both zones own chunks near the origin")
    };
    let homes = [home(0), home(1)];
    let avatars: Vec<BlockPos> = homes
        .iter()
        .map(|chunk| chunk.min_block() + BlockPos::new(8, 5, 8))
        .collect();

    // A shard of zone 0 that holds neither avatar and has terrain inside
    // zone 1's avatar's horizon.
    let around_one = required_chunks(&avatars[1..], horizon);
    let shard = (0..shard_count)
        .find(|&shard| {
            map.zone_of_shard(shard) == 0
                && homes.iter().all(|&home| shard_of(home) != shard)
                && around_one.iter().any(|&pos| shard_of(pos) == shard)
        })
        .expect("zone 0 owns such a shard");
    let in_shard = |pos: &ChunkPos| shard_of(*pos) == shard;

    // What each zone must ask for under the current ownership.
    let expected = |cluster: &ShardedGameCluster, zone: usize| -> Vec<ChunkPos> {
        required_chunks(&avatars[zone..=zone], horizon)
            .into_iter()
            .filter(|&pos| cluster.shard_map().zone_of_chunk(pos) == zone)
            .collect()
    };

    cluster.run_tick(&avatars, &[]);
    cluster.run_tick(&avatars, &[]);
    for log in &logs {
        take(log);
    }
    cluster.run_tick(&avatars, &[]);
    let before = [take(&logs[0]), take(&logs[1])];
    assert_eq!(before[0], expected(&cluster, 0));
    assert_eq!(before[1], expected(&cluster, 1));
    assert!(before[0].iter().any(in_shard));
    assert!(!before[1].iter().any(in_shard));

    assert!(cluster.shard_map().migrate(shard, 1));
    cluster.run_tick(&avatars, &[]);
    let after = [take(&logs[0]), take(&logs[1])];
    assert_eq!(after[0], expected(&cluster, 0));
    assert_eq!(after[1], expected(&cluster, 1));
    assert!(!after[0].iter().any(in_shard), "the old owner kept asking");
    assert!(after[1].iter().any(in_shard), "the new owner never asked");
}
