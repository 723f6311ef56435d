//! Crash recovery of a [`ShardedGameCluster`]: a zone killed mid-run is
//! fenced, its shards are adopted by the survivors through the migration
//! path (remote-store restore plus write-ahead-log replay), and the
//! cluster returns to its tick budget within a bounded window — while a
//! run whose scheduled crash never fires stays byte-identical to a run
//! with no failure plan at all.

use servo_server::cluster::ShardedGameCluster;
use servo_server::{PersistenceBinding, RecoveryStats, ServerConfig};
use servo_simkit::SimRng;
use servo_storage::{BlobStore, BlobTier, FaultProfile, ObjectStore};
use servo_types::{BlockPos, ChunkPos, SimDuration};
use servo_workload::{BehaviorKind, PlayerFleet};

fn flat_config() -> ServerConfig {
    ServerConfig::opencraft().with_view_distance(32)
}

fn random_fleet(players: usize, seed: u64) -> PlayerFleet {
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(seed));
    fleet.connect_all(players);
    fleet
}

/// The standard 4-zone baseline with per-zone persistence attached (the
/// same shape the `cluster_equivalence` suite uses).
fn persistent_cluster(seed: u64) -> ShardedGameCluster {
    let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, seed);
    for zone in 0..4 {
        cluster.bind_persistence(
            zone,
            PersistenceBinding::new(
                BlobStore::new(BlobTier::Standard, SimRng::seed(500 + zone as u64)),
                SimRng::seed(600 + zone as u64),
            )
            .write_back_interval(10),
        );
    }
    cluster
}

/// Every observable byte of a run: coordination stats, critical paths,
/// member counters and timelines, world bytes, and persisted bytes.
fn run_fingerprint(cluster: &ShardedGameCluster) -> String {
    use servo_types::SimTime;
    let mut out = String::new();
    out.push_str(&format!("{:?}\n", cluster.stats()));
    out.push_str(&format!("{:?}\n", cluster.critical_path_durations()));
    for (zone, server) in cluster.servers().iter().enumerate() {
        out.push_str(&format!(
            "zone {zone}: {:?} now={:?}\n",
            server.stats(),
            server.now()
        ));
        let mut positions = server.world().loaded_positions();
        positions.sort_by_key(|p| (p.x, p.z));
        for pos in positions {
            let bytes = server.world().read_chunk(pos, |c| c.to_bytes()).unwrap();
            out.push_str(&format!("  chunk {pos} {bytes:?}\n"));
        }
        let persisted = cluster
            .with_persisted(zone, |remote| {
                let mut dump = Vec::new();
                for key in remote.keys() {
                    if let Ok(result) = remote.read(&key, SimTime::from_secs(10_000)) {
                        dump.push((key, result.data));
                    }
                }
                dump
            })
            .expect("persistence attached");
        out.push_str(&format!("  persisted {persisted:?}\n"));
    }
    out
}

#[test]
fn scheduled_but_unfired_crash_is_byte_identical_to_no_plan() {
    let run = |schedule: bool| {
        let mut cluster = persistent_cluster(77);
        if schedule {
            // Far beyond the run: the failure-injection path is armed on
            // every tick but never fires.
            cluster.crash_zone(2, 1_000_000);
        }
        let mut fleet = random_fleet(16, 78);
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(5));
        cluster.flush_persistence();
        cluster
    };
    let control = run(false);
    let armed = run(true);
    assert_eq!(armed.recovery_stats(), RecoveryStats::default());
    assert_eq!(run_fingerprint(&control), run_fingerprint(&armed));
}

#[test]
fn crash_mid_run_adopts_all_shards_and_freezes_the_dead_store() {
    let players = 16usize;
    let crash_tick = 60u64;
    let total_ticks = 160u64;
    let dead = 3usize;

    let mut cluster = persistent_cluster(91);
    cluster.crash_zone(dead, crash_tick);
    let orphaned = cluster.shard_map().zone_shards(dead);
    assert!(!orphaned.is_empty());

    let mut fleet = random_fleet(players, 92);
    let budget = SimDuration::from_millis(50);
    let mut dead_keys_at_crash: Option<Vec<String>> = None;
    for tick in 0..total_ticks {
        let now = cluster.now();
        let events = fleet.tick(now, budget);
        let positions = fleet.positions();
        cluster.run_tick(&positions, &events);
        if tick == crash_tick {
            assert!(cluster.zone_is_dead(dead));
            dead_keys_at_crash = Some(
                cluster
                    .with_persisted(dead, |remote| remote.keys())
                    .unwrap(),
            );
        }
    }
    cluster.flush_persistence();

    // Every orphaned shard was adopted by a survivor; nothing is pending
    // and the map is still a partition over the three live zones.
    assert!(cluster.shard_map().zone_shards(dead).is_empty());
    assert_eq!(cluster.pending_adoption_count(), 0);
    let recovery = cluster.recovery_stats();
    assert_eq!(recovery.crashes, 1);
    assert_eq!(recovery.shards_adopted, orphaned.len() as u64);
    // The WAL is on by default, so the crash lost nothing.
    assert_eq!(recovery.chunks_lost, 0);
    assert!(recovery.recovery_messages > 0);
    assert!(recovery.recovery_ticks >= 1);
    assert!(recovery.ticks_over_qos <= recovery.recovery_ticks);

    // The dead member froze at the crash: no further ticks, and its store
    // holds exactly the bytes it held when it died.
    assert_eq!(cluster.server(dead).stats().ticks, crash_tick);
    let dead_keys_now = cluster
        .with_persisted(dead, |remote| remote.keys())
        .unwrap();
    assert_eq!(dead_keys_at_crash.unwrap(), dead_keys_now);

    // Every avatar was simulated by exactly one zone on every tick —
    // including the crash tick and the adoption window.
    for detail in cluster.ticks() {
        let assigned: usize = detail.zones.iter().map(|z| z.players).sum();
        assert_eq!(assigned, players);
    }

    // The recovery window is bounded: the cluster was back inside its
    // budget well before the run ended, and the last tick is within QoS.
    assert!(recovery.recovery_ticks < total_ticks - crash_tick);
    let last = cluster.ticks().last().unwrap();
    assert!(last.tick.critical_path <= cluster.server(0).config().tick_budget());

    // Ownership audit: every chunk a *surviving* zone persisted is owned
    // by that zone under the final map — recovery never makes a zone
    // flush foreign terrain.
    let map = cluster.shard_map();
    for zone in 0..4 {
        if zone == dead {
            continue;
        }
        let keys = cluster
            .with_persisted(zone, |remote| remote.keys())
            .unwrap();
        assert!(!keys.is_empty(), "zone {zone} persisted nothing");
        for key in keys {
            let mut parts = key.split('/');
            assert_eq!(parts.next(), Some("terrain"), "unexpected key {key}");
            let x: i32 = parts.next().unwrap().parse().unwrap();
            let z: i32 = parts.next().unwrap().parse().unwrap();
            assert_eq!(
                map.zone_of_chunk(ChunkPos::new(x, z)),
                zone,
                "zone {zone} persisted foreign chunk {key}"
            );
        }
    }
}

#[test]
fn recovery_respects_the_shared_migration_budget() {
    use servo_world::{RebalanceConfig, RebalancePolicy};

    // Budget 2 with 4 orphaned shards: adoption must spread over (at
    // least) two ticks, and no tick may ever apply more migrations than
    // the configured bound — recovery and the policy share one budget, so
    // a crash cannot compound into a migration storm.
    let step_budget = 2usize;
    let crash_tick = 40u64;
    let dead = 1usize;
    let mut cluster = persistent_cluster(131);
    cluster.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 5,
        evaluate_every: 1,
        cooldown_ticks: 10,
        trigger_ratio: 1.1,
        min_gap_ms: 0.1,
        max_migrations_per_step: step_budget,
        ..RebalanceConfig::default()
    }));
    cluster.crash_zone(dead, crash_tick);
    let orphaned = cluster.shard_map().zone_shards(dead).len();
    assert!(
        orphaned > step_budget,
        "test needs more orphans than budget"
    );

    let mut fleet = random_fleet(20, 132);
    let budget = SimDuration::from_millis(50);
    let mut pending_after_crash_tick = None;
    for tick in 0..120u64 {
        let now = cluster.now();
        let events = fleet.tick(now, budget);
        let positions = fleet.positions();
        cluster.run_tick(&positions, &events);
        if tick == crash_tick {
            pending_after_crash_tick = Some(cluster.pending_adoption_count());
        }
    }

    // The first recovery tick adopted exactly the budget, leaving the
    // rest pending for later boundaries.
    assert_eq!(
        pending_after_crash_tick,
        Some(orphaned - step_budget),
        "recovery exceeded (or under-used) the per-tick migration budget"
    );
    assert_eq!(cluster.pending_adoption_count(), 0);
    assert_eq!(cluster.recovery_stats().shards_adopted, orphaned as u64);
    // No tick — crash, recovery, or policy — ever exceeded the bound.
    for detail in cluster.ticks() {
        assert!(
            detail.shard_migrations <= step_budget as u64,
            "migration storm: {} migrations in one tick",
            detail.shard_migrations
        );
    }
    // The map is still a partition and the dead zone owns nothing.
    let map = cluster.shard_map();
    assert!(map.zone_shards(dead).is_empty());
    let mut owned = vec![0usize; map.shard_count()];
    for zone in 0..map.zones() {
        for shard in map.zone_shards(zone) {
            owned[shard] += 1;
        }
    }
    assert!(owned.iter().all(|&n| n == 1), "shard owned twice or never");
}

#[test]
fn wal_replay_recovers_staged_edits_and_disabling_it_loses_them() {
    use servo_server::cluster::zone_hotspot_sites;
    use servo_world::Block;

    // Dirty two owned chunks of zone 0, let one tick drain them into the
    // (never-flushing) staging, then kill zone 0. With the WAL on, the
    // adopters replay the edited bytes; with it off, the edits die with
    // the zone's memory and are counted as lost.
    let run = |wal_enabled: bool| {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 171);
        cluster.bind_persistence(
            0,
            PersistenceBinding::new(
                BlobStore::new(BlobTier::Standard, SimRng::seed(700)),
                SimRng::seed(701),
            )
            // no cadence pass ever: the dirt stays staged
            .write_back_interval(1_000_000),
        );
        cluster.set_wal_enabled(0, wal_enabled);
        let sites = zone_hotspot_sites(cluster.shard_map(), 0, 2);
        let mut edited = Vec::new();
        for site in &sites {
            cluster.server(0).world().ensure_chunk_at(*site);
            let block = site.min_block() + BlockPos::new(3, 9, 3);
            cluster
                .server(0)
                .world()
                .set_block(block, Block::Lamp)
                .unwrap();
            edited.push(block);
        }
        // Tick 0 drains the dirt into zone 0's staging (and WAL, when
        // enabled); the crash fires at tick 1.
        cluster.crash_zone(0, 1);
        for _ in 0..4 {
            cluster.run_tick(&[], &[]);
        }
        (cluster, edited)
    };

    let (with_wal, edited) = run(true);
    let recovery = with_wal.recovery_stats();
    assert_eq!(recovery.chunks_lost, 0);
    assert!(recovery.chunks_replayed >= edited.len() as u64);
    // The edited bytes survived the crash: the adopting zone's world
    // holds the lamp each staged-but-unflushed chunk carried.
    let map = with_wal.shard_map();
    for block in &edited {
        let owner = map.zone_of_block(*block);
        assert_ne!(owner, 0, "shard never left the dead zone");
        assert_eq!(
            with_wal.server(owner).world().block(*block),
            Some(Block::Lamp),
            "replayed edit at {block:?} did not survive adoption"
        );
    }

    let (without_wal, edited) = run(false);
    let recovery = without_wal.recovery_stats();
    assert_eq!(recovery.chunks_replayed, 0);
    assert_eq!(
        recovery.chunks_lost,
        edited.len() as u64,
        "staged-but-unflushed chunks must be counted lost without a WAL"
    );
}

/// A crash in the middle of a write-back interval, with no checkpoint
/// before it: what the last cadence pass flushed, what the log still holds
/// — and therefore what recovery restores, replays and charges, and every
/// byte the run leaves in the worlds and the blob stores — is a function of
/// the seed alone.
#[test]
fn mid_interval_crash_without_a_checkpoint_is_a_function_of_the_seed() {
    use servo_types::PlayerId;
    use servo_workload::PlayerEvent;

    let run = || {
        // Passes run in ticks 9, 19, ..., 49; the crash fires three ticks
        // into the next interval, with edits staged and logged since.
        let mut cluster = persistent_cluster(131);
        cluster.crash_zone(1, 53);
        let mut fleet = random_fleet(16, 132);
        let mut edits = SimRng::seed(133);
        for _ in 0..90 {
            let mut events = fleet.tick(cluster.now(), SimDuration::from_millis(50));
            events.extend((0..6).map(|_| {
                let x = (edits.unit() * 81.0) as i32 - 40;
                let z = (edits.unit() * 81.0) as i32 - 40;
                let event = PlayerEvent::BlockPlaced(BlockPos::new(x, 9, z));
                (PlayerId::new(0), event)
            }));
            cluster.run_tick(&fleet.positions(), &events);
        }
        (cluster.recovery_stats(), run_fingerprint(&cluster))
    };
    let first = run();
    assert_eq!(first.0.crashes, 1);
    assert!(
        first.0.chunks_replayed > 0,
        "the log was empty at the crash"
    );
    assert!(first.0.recovery_messages > 0);
    for again in 1..20 {
        assert!(first == run(), "run {again} of one seed differs");
    }
}

/// The seed, the crash ticks and the cluster ticks a crash may take to be
/// adopted in [`crash_at_any_tick_of_two_cadences_loses_no_chunk`].
const SWEEP_SEED: u64 = 211;
const SWEEP_TICKS: std::ops::Range<u64> = 10..30;
const ADOPTION_TICKS: u64 = 20;

/// The sweep's workload: a random fleet, plus six block placements a tick
/// spread over all four zones.
struct SweepLoad {
    fleet: PlayerFleet,
    edits: SimRng,
}

impl SweepLoad {
    fn new() -> Self {
        SweepLoad {
            fleet: random_fleet(12, SWEEP_SEED + 1),
            edits: SimRng::seed(SWEEP_SEED + 2),
        }
    }

    fn tick(&mut self, cluster: &mut ShardedGameCluster) {
        use servo_types::PlayerId;
        use servo_workload::PlayerEvent;

        let mut events = self.fleet.tick(cluster.now(), SimDuration::from_millis(50));
        events.extend((0..6).map(|_| {
            let x = (self.edits.unit() * 81.0) as i32 - 40;
            let z = (self.edits.unit() * 81.0) as i32 - 40;
            let event = PlayerEvent::BlockPlaced(BlockPos::new(x, 9, z));
            (PlayerId::new(0), event)
        }));
        cluster.run_tick(&self.fleet.positions(), &events);
    }
}

/// The bytes of the chunks one zone owns, by position.
type OwnedChunks = Vec<(ChunkPos, Vec<u8>)>;

/// The bytes of every chunk `zone` owns, by position.
fn owned_chunks(cluster: &ShardedGameCluster, zone: usize) -> OwnedChunks {
    let world = cluster.server(zone).world();
    let mut positions = world.loaded_positions();
    positions.retain(|&pos| cluster.shard_map().zone_of_chunk(pos) == zone);
    positions.sort_by_key(|p| (p.x, p.z));
    positions
        .into_iter()
        .filter_map(|pos| Some((pos, world.read_chunk(pos, |c| c.to_bytes())?)))
        .collect()
}

/// Runs the crash sweep over clusters `build` makes and returns how many
/// chunks reached their adopter from the dead store and the log, from the
/// adopter's own replica, and not at all because nobody changed them. A
/// reference run with no crash records the bytes of every chunk each zone
/// owns before every tick of [`SWEEP_TICKS`]. Then, for every such tick
/// `t` and every zone `z`, the same seed runs with `z` crashing at `t`;
/// events stop there, and event-free ticks drive the adoption home. Every
/// chunk `z` owned at `t` must reach its adopter byte-equal to the
/// reference, a chunk the adopter lacks must be one nobody changed, which
/// the adopter regenerates byte-equal on demand, and the dead zone's log
/// must hold nothing once its shards are adopted.
fn crash_sweep(build: impl Fn() -> ShardedGameCluster) -> (usize, usize, usize) {
    let mut reference = build();
    let mut load = SweepLoad::new();
    let mut owned: Vec<Vec<OwnedChunks>> = Vec::new();
    for t in 0..SWEEP_TICKS.end {
        if SWEEP_TICKS.contains(&t) {
            owned.push((0..4).map(|zone| owned_chunks(&reference, zone)).collect());
        }
        load.tick(&mut reference);
    }
    let generator = servo_pcg::generator_for(reference.server(0).config().world_kind, SWEEP_SEED);

    let (mut restored, mut replicas, mut regenerable) = (0usize, 0usize, 0usize);
    for (t, owned_at_t) in SWEEP_TICKS.zip(&owned) {
        for (zone, chunks) in owned_at_t.iter().enumerate() {
            let mut cluster = build();
            cluster.crash_zone(zone, t);
            let mut load = SweepLoad::new();
            for _ in 0..t {
                load.tick(&mut cluster);
            }
            assert!(!cluster.zone_is_dead(zone));
            // Which zones hold a replica of each chunk when `zone` dies.
            let holders: Vec<Vec<bool>> = chunks
                .iter()
                .map(|&(pos, _)| {
                    (0..4)
                        .map(|other| other != zone && cluster.server(other).world().is_loaded(pos))
                        .collect()
                })
                .collect();
            let positions = load.fleet.positions();
            for _ in 0..ADOPTION_TICKS {
                cluster.run_tick(&positions, &[]);
                if cluster.pending_adoption_count() == 0 {
                    break;
                }
            }
            assert!(cluster.zone_is_dead(zone), "t={t} zone={zone}");
            assert_eq!(cluster.pending_adoption_count(), 0, "t={t} zone={zone}");
            assert_eq!(cluster.recovery_stats().chunks_lost, 0, "t={t} zone={zone}");
            let dead_log = cluster
                .persistence_wal(zone)
                .map(|wal| wal.with(|wal| wal.len()));
            assert_eq!(
                dead_log,
                Some(0),
                "t={t} zone={zone}: the dead log kept records"
            );
            for ((pos, bytes), held) in chunks.iter().zip(&holders) {
                let adopter = cluster.shard_map().zone_of_chunk(*pos);
                assert_ne!(adopter, zone, "t={t}: {pos} stayed with the dead zone");
                match cluster
                    .server(adopter)
                    .world()
                    .read_chunk(*pos, |c| c.to_bytes())
                {
                    Some(adopted) => {
                        assert!(
                            adopted == *bytes,
                            "t={t} zone={zone}: {pos} reached zone {adopter} changed"
                        );
                        if held[adopter] {
                            replicas += 1;
                        } else {
                            restored += 1;
                        }
                    }
                    None => {
                        assert!(
                            generator.generate(*pos).to_bytes() == *bytes,
                            "t={t} zone={zone}: changed chunk {pos} never reached zone {adopter}"
                        );
                        regenerable += 1;
                    }
                }
            }
        }
    }
    (restored, replicas, regenerable)
}

/// Crash anywhere, over two write-back cadences with the pass of tick 19
/// between them: every chunk a dead zone owned reaches its adopter as the
/// zone last held it — restored from the dead store and replayed from the
/// log, whether the chain was rooted on an image or on the last flush, or,
/// for a border chunk, kept from the adopter's replica, whose restore is
/// skipped. The second sweep rejects a third of the remote writes, so some
/// chains outlive a failed flush on their old root.
#[test]
fn crash_at_any_tick_of_two_cadences_loses_no_chunk() {
    let (restored, replicas, regenerable) = crash_sweep(|| persistent_cluster(SWEEP_SEED));
    assert!(
        restored > 0 && replicas > 0 && regenerable > 0,
        "{restored} restored, {replicas} replicas, {regenerable} regenerable"
    );
    let flaky = || {
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, SWEEP_SEED);
        for zone in 0..4 {
            let seed = 500 + zone as u64;
            let faults = FaultProfile {
                read_fail_rate: 0.0,
                write_fail_rate: 0.3,
            };
            cluster.bind_persistence(
                zone,
                PersistenceBinding::new(
                    BlobStore::new(BlobTier::Standard, SimRng::seed(seed))
                        .with_faults(faults, SimRng::seed(seed).substream("faults")),
                    SimRng::seed(600 + zone as u64),
                )
                .write_back_interval(10),
            );
        }
        cluster
    };
    let (restored, _, _) = crash_sweep(flaky);
    assert!(restored > 0, "{restored} restored");
}
