//! Degeneracy guarantees of the replication layer:
//!
//! * border mirroring routed through whole-shard border subscriptions is
//!   tick-for-tick and message-count identical to the legacy bespoke
//!   mirror path — with and without shard migrations underneath;
//! * client fan-out is pure overlay: frames cost coordination time and
//!   bus messages, but every simulation counter, tick duration, and world
//!   byte is identical to a cluster without any subscribers.

use servo_redstone::generators;
use servo_replication::{Interest, ReplicationConfig};
use servo_server::cluster::{border_construct_sites, place_across_east_seam, ShardedGameCluster};
use servo_server::{PersistenceBinding, ServerConfig};
use servo_simkit::SimRng;
use servo_storage::{BlobStore, BlobTier};
use servo_types::{ChunkPos, SimDuration};
use servo_workload::{BehaviorKind, PlayerFleet};

fn flat_config() -> ServerConfig {
    ServerConfig::opencraft().with_view_distance(32)
}

fn random_fleet(players: usize, seed: u64) -> PlayerFleet {
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(seed));
    fleet.connect_all(players);
    fleet
}

/// The standard 4-zone baseline with persistence and seam-crossing
/// constructs, run for `secs` seconds — one arm of each equivalence check.
fn run_arm(
    seed: u64,
    secs: u64,
    configure: impl FnOnce(&mut ShardedGameCluster),
) -> ShardedGameCluster {
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
    configure(&mut cluster);
    let sites = border_construct_sites(cluster.shard_map(), 6);
    for site in &sites {
        cluster.add_construct(place_across_east_seam(&generators::wire_line(14), *site, 6));
    }
    let mut fleet = random_fleet(16, seed ^ 0x0f1ce);
    cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(secs));
    cluster.flush_persistence();
    cluster
}

/// Full-depth cluster comparison: coordination counters, critical path,
/// member counters and timelines, and per-zone world bytes.
fn assert_clusters_identical(a: &ShardedGameCluster, b: &ShardedGameCluster) {
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.critical_path_durations(), b.critical_path_durations());
    for (zone, (sa, sb)) in a.servers().iter().zip(b.servers()).enumerate() {
        assert_eq!(sa.stats(), sb.stats(), "zone {zone} counters diverged");
        assert_eq!(
            sa.tick_durations(),
            sb.tick_durations(),
            "zone {zone} timeline diverged"
        );
        assert_eq!(sa.now(), sb.now());
        let mut pa = sa.world().loaded_positions();
        let mut pb = sb.world().loaded_positions();
        pa.sort_by_key(|p| (p.x, p.z));
        pb.sort_by_key(|p| (p.x, p.z));
        assert_eq!(pa, pb, "zone {zone} terrain diverged");
        for pos in pa {
            assert_eq!(
                sa.world().read_chunk(pos, |c| c.to_bytes()),
                sb.world().read_chunk(pos, |c| c.to_bytes()),
                "zone {zone} chunk {pos} diverged"
            );
        }
    }
}

#[test]
fn border_via_subscription_matches_legacy_mirror_exactly() {
    let seed = 203;
    let legacy = run_arm(seed, 5, |_| {});
    let subscribed = run_arm(seed, 5, |cluster| {
        cluster.enable_replication(ReplicationConfig {
            border_via_subscription: true,
            ..ReplicationConfig::default()
        });
    });

    // The run exercised the mirror protocol at all.
    assert!(legacy.stats().border_chunk_updates > 0);
    // With zero clients the hub emits no frames, so even the frame counter
    // agrees — the stats structs are equal wholesale.
    assert_eq!(subscribed.stats().replication_frames, 0);
    assert_clusters_identical(&legacy, &subscribed);

    // Every mirrored chunk copy went through the subscription index.
    let repl = subscribed.replication_stats().expect("hub attached");
    assert_eq!(
        repl.border_chunk_deliveries,
        subscribed.stats().border_chunk_updates
    );
    assert!(repl.chunks_ingested > 0, "the hub never saw the drain");
    assert_eq!(repl.frames, 0);
}

#[test]
fn border_via_subscription_survives_shard_migrations() {
    use servo_server::cluster::zone_hotspot_sites;
    use servo_types::BlockPos;
    use servo_workload::Hotspot;
    use servo_world::{RebalanceConfig, RebalancePolicy};

    let seed = 207;
    let run = |via_subscription: bool| {
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
        cluster.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
            warmup_ticks: 10,
            evaluate_every: 5,
            cooldown_ticks: 20,
            trigger_ratio: 1.2,
            min_gap_ms: 0.5,
            max_migrations_per_step: 8,
            ..RebalanceConfig::default()
        }));
        if via_subscription {
            cluster.enable_replication(ReplicationConfig {
                border_via_subscription: true,
                ..ReplicationConfig::default()
            });
        }
        let sites = zone_hotspot_sites(cluster.shard_map(), 0, 4);
        for site in &sites {
            let base = site.min_block() + BlockPos::new(2, 6, 2);
            cluster.add_construct(generators::wire_line(6).translated(base));
        }
        let mut fleet = PlayerFleet::new(
            BehaviorKind::Bounded { radius: 16.0 },
            SimRng::seed(seed ^ 1),
        );
        fleet.connect_all(48);
        fleet.set_hotspot(Hotspot {
            targets: Hotspot::chunk_centers(&sites),
            converge_at: servo_types::SimTime::from_secs(2),
            disperse_at: servo_types::SimTime::from_secs(3_600),
            travel_speed: 24.0,
            dwell_radius: 4.0,
        });
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(10));
        cluster
    };

    let legacy = run(false);
    let subscribed = run(true);

    // The partition actually moved under the border subscriptions...
    assert!(
        legacy.rebalance_stats().shard_migrations > 0,
        "the hotspot never triggered a migration"
    );
    assert_eq!(legacy.rebalance_stats(), subscribed.rebalance_stats());
    // ...and the hub re-resolved its ownership-derived shard sets.
    let repl = subscribed.replication_stats().expect("hub attached");
    assert!(repl.partition_resolves > 0, "no border re-resolution ran");
    assert_clusters_identical(&legacy, &subscribed);
}

#[test]
fn client_fanout_never_touches_simulation_results() {
    let seed = 211;
    let baseline = run_arm(seed, 5, |_| {});
    let replicated = run_arm(seed, 5, |cluster| {
        cluster.enable_replication(ReplicationConfig {
            cohorts: 2,
            ..ReplicationConfig::default()
        });
        // Clients watching the seam terrain the constructs keep dirty,
        // plus one that moves mid-run (exercising retarget in situ).
        let sites = border_construct_sites(cluster.shard_map(), 6);
        for site in &sites {
            cluster
                .subscribe_client(Interest::new(*site, 2))
                .expect("hub attached");
        }
        let mover = cluster
            .subscribe_client(Interest::new(ChunkPos::new(0, 0), 1))
            .expect("hub attached");
        cluster.retarget_client(mover, sites[0]);
    });

    // Frames flowed: keyframes for the fresh subscribers, deltas for the
    // construct dirt under their interests.
    let repl = replicated.replication_stats().expect("hub attached");
    assert!(repl.keyframes >= 7, "each client owes one keyframe");
    assert!(repl.delta_frames > 0, "no delta ever reached a client");
    assert!(repl.chunks_delivered > 0);
    let frames = replicated.stats().replication_frames;
    assert_eq!(frames, repl.frames);
    assert!(frames > 0);

    // The frames rode the bus (bulk lane) and were charged to the critical
    // path — and changed nothing else: removing their two counters from
    // the replicated arm's stats yields the baseline's stats exactly.
    let mut masked = replicated.stats();
    assert_eq!(
        masked.cross_server_messages,
        baseline.stats().cross_server_messages + frames
    );
    masked.cross_server_messages -= frames;
    masked.replication_frames = 0;
    assert_eq!(masked, baseline.stats());

    // Member servers are byte-identical: fan-out cost lands on the
    // cluster's coordination segment, never inside a zone tick.
    for (zone, (sa, sb)) in baseline
        .servers()
        .iter()
        .zip(replicated.servers())
        .enumerate()
    {
        assert_eq!(sa.stats(), sb.stats(), "zone {zone} counters diverged");
        assert_eq!(
            sa.tick_durations(),
            sb.tick_durations(),
            "zone {zone} timeline diverged"
        );
    }
    // The coordination charge is visible: the replicated arm's critical
    // path dominates the baseline's tick for tick.
    let base_path = baseline.critical_path_durations();
    let repl_path = replicated.critical_path_durations();
    assert_eq!(base_path.len(), repl_path.len());
    assert!(
        base_path.iter().zip(&repl_path).all(|(a, b)| b >= a),
        "fan-out cost went missing from the critical path"
    );
    assert!(
        base_path.iter().zip(&repl_path).any(|(a, b)| b > a),
        "fan-out was never charged"
    );
    let fanout = replicated.fanout_stats().expect("hub attached");
    assert!(fanout.charged_ms > 0.0);
    assert_eq!(fanout.frames, frames);
}

/// A block written straight into a zone's world between two ticks, on a
/// shard that migrates at the next boundary, is drained by the migration's
/// quiesce rather than by the tick's border step — and must reach the
/// clients subscribed to its chunk all the same.
#[test]
fn between_tick_write_on_a_migrating_shard_reaches_its_subscriber() {
    use servo_server::cluster::zone_hotspot_sites;
    use servo_types::BlockPos;
    use servo_world::{Block, RebalanceConfig, RebalancePolicy};

    let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 223);
    cluster.enable_replication(ReplicationConfig::default());
    // A hotspot: every avatar stands on zone 0, spread over four shards,
    // each watched by one client whose interest is exactly that chunk.
    let sites = zone_hotspot_sites(cluster.shard_map(), 0, 4);
    let positions: Vec<BlockPos> = (0..48)
        .map(|i| sites[i % 4].min_block() + BlockPos::new(8, 5, 8))
        .collect();
    for site in &sites {
        cluster
            .subscribe_client(Interest::new(*site, 0))
            .expect("hub attached");
    }
    // Load the terrain and deliver the keyframes before anything moves.
    for _ in 0..40 {
        cluster.run_tick(&positions, &[]);
    }
    assert_eq!(cluster.replication_stats().expect("hub").keyframes, 4);

    cluster.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 0,
        evaluate_every: 1,
        cooldown_ticks: 0,
        trigger_ratio: 1.1,
        min_gap_ms: 0.1,
        ..RebalanceConfig::default()
    }));
    for tick in 0..40 {
        let block = if tick % 2 == 0 {
            Block::Stone
        } else {
            Block::Dirt
        };
        for site in &sites {
            let owner = cluster.shard_map().zone_of_chunk(*site);
            cluster
                .server(owner)
                .world()
                .set_block(site.min_block() + BlockPos::new(1, 5, 1), block)
                .expect("the site is loaded on its owner");
        }
        let before = cluster.replication_stats().expect("hub").chunks_delivered;
        cluster.run_tick(&positions, &[]);
        let after = cluster.replication_stats().expect("hub").chunks_delivered;
        assert_eq!(
            after - before,
            4,
            "tick {tick}: a written chunk never reached its subscriber"
        );
    }
    assert!(
        sites
            .iter()
            .any(|site| cluster.shard_map().zone_of_chunk(*site) != 0),
        "the hotspot never migrated a watched shard"
    );
}
