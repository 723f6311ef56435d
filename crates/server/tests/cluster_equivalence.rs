//! Determinism guarantees of [`ShardedGameCluster`]:
//!
//! * a 1-zone cluster is exactly a single server — tick counters, tick
//!   durations, world state and construct states all match a plain
//!   [`GameServer`] built from the same seed;
//! * in a multi-zone cluster every avatar is simulated by exactly one zone
//!   per tick, including the tick on which it crosses a zone boundary, and
//!   the cluster's handoff accounting matches an independent replay of the
//!   routing rule.

use proptest::prelude::*;
use servo_pcg::FlatGenerator;
use servo_redstone::generators;
use servo_server::cluster::{border_construct_sites, place_across_east_seam, ShardedGameCluster};
use servo_server::{
    GameServer, LocalGenerationBackend, LocalScBackend, PersistenceBinding, ServerConfig,
};
use servo_simkit::SimRng;
use servo_types::{ConstructId, SimDuration};
use servo_workload::{BehaviorKind, PlayerFleet};

fn flat_config() -> ServerConfig {
    ServerConfig::opencraft().with_view_distance(32)
}

/// Builds the exact server a 1-zone [`ShardedGameCluster::baseline`]
/// creates for zone 0, without the cluster around it.
fn plain_zone_zero(config: ServerConfig, seed: u64) -> GameServer {
    GameServer::new(
        config,
        Box::new(LocalScBackend::every_other_tick()),
        Box::new(LocalGenerationBackend::new(
            Box::new(FlatGenerator::default()),
            8,
        )),
        SimRng::seed(seed).substream_indexed("zone", 0),
    )
}

fn random_fleet(players: usize, seed: u64) -> PlayerFleet {
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(seed));
    fleet.connect_all(players);
    fleet
}

#[test]
fn one_zone_cluster_matches_plain_server_exactly() {
    let seed = 42;
    let constructs = 12usize;
    let duration = SimDuration::from_secs(5);

    let mut plain = plain_zone_zero(flat_config(), seed);
    for i in 0..constructs {
        plain.add_construct(generators::dense_circuit(32 + i));
    }
    let mut plain_fleet = random_fleet(15, 7);
    plain.run_with_fleet(&mut plain_fleet, duration);

    let mut cluster = ShardedGameCluster::baseline(flat_config(), 1, seed);
    for i in 0..constructs {
        cluster.add_construct(generators::dense_circuit(32 + i));
    }
    let mut cluster_fleet = random_fleet(15, 7);
    cluster.run_with_fleet(&mut cluster_fleet, duration);
    let member = cluster.server(0);

    // Tick counters are identical.
    assert_eq!(plain.stats(), member.stats());
    assert_eq!(plain.current_tick(), member.current_tick());
    // Tick durations — and therefore the whole virtual timeline — match;
    // the cluster's critical path is exactly the single member's series.
    assert_eq!(plain.tick_durations(), member.tick_durations());
    assert_eq!(plain.tick_durations(), cluster.critical_path_durations());
    assert_eq!(plain.now(), member.now());
    assert_eq!(plain.now(), cluster.now());
    // World state is identical.
    assert_eq!(
        plain.world().loaded_chunks(),
        member.world().loaded_chunks()
    );
    assert_eq!(
        plain.world().total_modifications(),
        member.world().total_modifications()
    );
    let mut plain_positions = plain.world().loaded_positions();
    let mut member_positions = member.world().loaded_positions();
    plain_positions.sort_by_key(|p| (p.x, p.z));
    member_positions.sort_by_key(|p| (p.x, p.z));
    assert_eq!(plain_positions, member_positions);
    for pos in plain_positions {
        let a = plain.world().read_chunk(pos, |c| c.to_bytes()).unwrap();
        let b = member.world().read_chunk(pos, |c| c.to_bytes()).unwrap();
        assert_eq!(a, b, "chunk {pos} diverged");
    }
    // Construct states are identical.
    for i in 0..constructs {
        let id = ConstructId::new(i as u64);
        assert_eq!(
            plain.construct(id).unwrap().state().hash(),
            member.construct(id).unwrap().state().hash(),
            "construct {i} diverged"
        );
    }
    // And the single zone never paid for coordination.
    let stats = cluster.stats();
    assert_eq!(stats.cross_server_messages, 0);
    assert_eq!(stats.handoffs, 0);
}

#[test]
fn border_constructs_do_not_change_simulation_results() {
    // Coordination is charged to the critical path and the message
    // counters, but the constructs themselves advance exactly as on a
    // single server: compare a border construct's state in a 4-zone
    // cluster against the same blueprint on one server.
    let config = flat_config();
    let cluster_probe = ShardedGameCluster::baseline(config.clone(), 4, 3);
    let site = border_construct_sites(cluster_probe.shard_map(), 1)[0];
    let blueprint = place_across_east_seam(&generators::wire_line(14), site, 6);

    let mut cluster = ShardedGameCluster::baseline(config, 4, 3);
    let (owner, id) = cluster.add_construct(blueprint.clone());
    let mut fleet = random_fleet(4, 9);
    cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(3));
    assert!(cluster.stats().construct_exchanges > 0);

    // The cluster's only construct was stepped `sc_local` times; stepping
    // a fresh copy of the blueprint the same number of times must land on
    // the same state — coordination costs time, never simulation results.
    let sim_ticks = cluster.server(owner).stats().sc_local;
    let mut reference = servo_redstone::Construct::new(blueprint);
    reference.step_many(sim_ticks as usize);
    assert_eq!(
        cluster.server(owner).construct(id).unwrap().state().hash(),
        reference.state().hash(),
        "border construct diverged from unzoned simulation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every avatar is simulated by exactly one zone on every tick — the
    /// routing is a partition — and a boundary crossing moves the avatar to
    /// its new zone on the crossing tick itself, with the cluster's handoff
    /// count matching an independent replay of the routing rule.
    #[test]
    fn avatars_are_simulated_by_exactly_one_zone_per_tick(seed in 0u64..1000) {
        let players = 10usize;
        let ticks = 60usize;
        let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, seed);
        let map = cluster.shard_map().clone();
        // Star walkers move outward fast enough to cross chunk (and with
        // hash zoning, zone) boundaries within the run.
        let mut fleet = PlayerFleet::new(
            BehaviorKind::Star { speed: 12.0 },
            SimRng::seed(seed ^ 0x5eed),
        );
        fleet.connect_all(players);

        let budget = SimDuration::from_millis(50);
        let mut expected_zone: Vec<Option<usize>> = vec![None; players];
        let mut expected_handoffs = 0u64;
        for _ in 0..ticks {
            let now = cluster.now();
            let events = fleet.tick(now, budget);
            let positions = fleet.positions();
            cluster.run_tick(&positions, &events);

            // Independent replay of the routing rule.
            let mut expected_per_zone = [0usize; 4];
            for (index, &pos) in positions.iter().enumerate() {
                let zone = map.zone_of_block(pos);
                expected_per_zone[zone] += 1;
                if let Some(previous) = expected_zone[index] {
                    if previous != zone {
                        expected_handoffs += 1;
                    }
                }
                expected_zone[index] = Some(zone);
            }

            let detail = cluster.ticks().last().unwrap();
            let assigned: usize = detail.zones.iter().map(|z| z.players).sum();
            // A partition: every avatar in exactly one zone...
            prop_assert_eq!(assigned, players);
            // ...and in the zone owning the terrain under it.
            for breakdown in &detail.zones {
                prop_assert_eq!(breakdown.players, expected_per_zone[breakdown.zone]);
            }
        }
        prop_assert_eq!(cluster.stats().handoffs, expected_handoffs);
        prop_assert!(expected_handoffs > 0, "no avatar ever crossed a zone boundary");
        // Every member ticked in lockstep: one tick per cluster tick.
        for server in cluster.servers() {
            prop_assert_eq!(server.stats().ticks, ticks as u64);
        }
    }
}

/// Builds the standard 4-zone baseline with per-zone persistence attached,
/// optionally rebalance-enabled — the two arms of the zero-migration
/// equivalence check.
fn persistent_cluster(
    seed: u64,
    policy: Option<servo_world::RebalancePolicy>,
) -> ShardedGameCluster {
    use servo_storage::{BlobStore, BlobTier};

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
    if let Some(policy) = policy {
        cluster.enable_rebalancing(policy);
    }
    cluster
}

#[test]
fn rebalance_enabled_cluster_with_inert_policy_matches_static_cluster() {
    use servo_storage::ObjectStore;
    use servo_types::SimTime;

    let seed = 77;
    let duration = SimDuration::from_secs(5);
    let run = |policy: Option<servo_world::RebalancePolicy>| {
        let mut cluster = persistent_cluster(seed, policy);
        let sites = border_construct_sites(cluster.shard_map(), 6);
        for site in &sites {
            cluster.add_construct(place_across_east_seam(&generators::wire_line(14), *site, 6));
        }
        let mut fleet = random_fleet(16, 78);
        cluster.run_with_fleet(&mut fleet, duration);
        cluster.flush_persistence();
        cluster
    };
    let static_cluster = run(None);
    let dynamic_cluster = run(Some(servo_world::RebalancePolicy::never()));

    // Tick-for-tick identical: cluster stats, critical paths, and every
    // member's counters and durations.
    assert_eq!(static_cluster.stats(), dynamic_cluster.stats());
    assert_eq!(
        static_cluster.critical_path_durations(),
        dynamic_cluster.critical_path_durations()
    );
    assert_eq!(
        dynamic_cluster.rebalance_stats(),
        servo_server::cluster::RebalanceStats::default(),
        "the inert policy migrated something"
    );
    for detail in dynamic_cluster.ticks() {
        assert_eq!(detail.shard_migrations, 0);
    }
    for (a, b) in static_cluster
        .servers()
        .iter()
        .zip(dynamic_cluster.servers())
    {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.tick_durations(), b.tick_durations());
        assert_eq!(a.now(), b.now());
    }
    // World bytes identical per zone.
    for (zone, (a, b)) in static_cluster
        .servers()
        .iter()
        .zip(dynamic_cluster.servers())
        .enumerate()
    {
        let mut a_positions = a.world().loaded_positions();
        let mut b_positions = b.world().loaded_positions();
        a_positions.sort_by_key(|p| (p.x, p.z));
        b_positions.sort_by_key(|p| (p.x, p.z));
        assert_eq!(a_positions, b_positions, "zone {zone} terrain diverged");
        for pos in a_positions {
            assert_eq!(
                a.world().read_chunk(pos, |c| c.to_bytes()),
                b.world().read_chunk(pos, |c| c.to_bytes()),
                "zone {zone} chunk {pos} diverged"
            );
        }
    }
    // Persisted bytes identical per zone.
    let late = SimTime::from_secs(10_000);
    for zone in 0..4 {
        assert_eq!(
            static_cluster.persistence_stats(zone),
            dynamic_cluster.persistence_stats(zone),
            "zone {zone} persistence counters diverged"
        );
        let positions = static_cluster.server(zone).world().loaded_positions();
        let snapshot = |cluster: &ShardedGameCluster| {
            cluster
                .with_persisted(zone, |remote| {
                    let mut persisted: Vec<(String, Vec<u8>)> = Vec::new();
                    for pos in &positions {
                        let key = format!("terrain/{}/{}", pos.x, pos.z);
                        if let Ok(result) = remote.read(&key, late) {
                            persisted.push((key, result.data));
                        }
                    }
                    persisted.sort();
                    persisted
                })
                .expect("persistence attached")
        };
        assert_eq!(
            snapshot(&static_cluster),
            snapshot(&dynamic_cluster),
            "zone {zone} persisted bytes diverged"
        );
    }
}

#[test]
fn migrations_preserve_partition_and_construct_progress() {
    use servo_server::cluster::zone_hotspot_sites;
    use servo_types::BlockPos;
    use servo_workload::Hotspot;
    use servo_world::{RebalanceConfig, RebalancePolicy};

    let mut cluster = persistent_cluster(91, None);
    cluster.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 10,
        evaluate_every: 5,
        cooldown_ticks: 20,
        trigger_ratio: 1.2,
        min_gap_ms: 0.5,
        max_migrations_per_step: 8,
        ..RebalanceConfig::default()
    }));

    // Constructs pinned inside the future-hot chunks so their shard
    // migration moves real simulation state between servers.
    let sites = zone_hotspot_sites(cluster.shard_map(), 0, 4);
    let mut construct_indices = Vec::new();
    for site in &sites {
        let base = site.min_block() + BlockPos::new(2, 6, 2);
        cluster.add_construct(generators::wire_line(6).translated(base));
        construct_indices.push(cluster.construct_count() - 1);
    }

    // Everyone converges on zone 0's hotspot chunks from second 2 on.
    let players = 48usize;
    let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 16.0 }, SimRng::seed(92));
    fleet.connect_all(players);
    fleet.set_hotspot(Hotspot {
        targets: Hotspot::chunk_centers(&sites),
        converge_at: servo_types::SimTime::from_secs(2),
        disperse_at: servo_types::SimTime::from_secs(3_600),
        travel_speed: 24.0,
        dwell_radius: 4.0,
    });
    cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(12));

    let rebalance = cluster.rebalance_stats();
    assert!(
        rebalance.shard_migrations > 0,
        "the hotspot never triggered a migration: {rebalance:?}"
    );
    assert!(rebalance.chunks_transferred > 0);
    assert!(rebalance.constructs_transferred > 0);
    assert!(rebalance.migration_messages > 0);
    let detail_migrations: u64 = cluster.ticks().iter().map(|d| d.shard_migrations).sum();
    assert_eq!(detail_migrations, rebalance.shard_migrations);

    // Every tick still simulated every avatar exactly once.
    for detail in cluster.ticks() {
        let assigned: usize = detail.zones.iter().map(|z| z.players).sum();
        assert_eq!(assigned, players);
    }

    // The map is still a partition and every server's restriction filter
    // agrees with it.
    let map = cluster.shard_map();
    let mut owned = vec![0usize; map.shard_count()];
    for zone in 0..map.zones() {
        for shard in map.zone_shards(zone) {
            owned[shard] += 1;
            assert!(cluster.server(zone).owns_shard(shard));
        }
    }
    assert!(owned.iter().all(|&n| n == 1), "shard owned twice or never");
    assert!(map.version() >= rebalance.shard_migrations);

    // Migrated constructs kept their full simulation state: the baselines
    // step constructs on every other tick, so each construct advanced
    // exactly once per even tick regardless of which server stepped it.
    let ticks = cluster.stats().ticks;
    let expected_steps = ticks.div_ceil(2);
    for &index in &construct_indices {
        let (zone, id) = cluster
            .construct_location(index)
            .expect("registered construct");
        let construct = cluster
            .server(zone)
            .construct(id)
            .expect("construct must live on its current zone server");
        assert_eq!(
            construct.state().step(),
            expected_steps,
            "construct {index} lost or repeated steps across its migration"
        );
    }

    // The hot zone actually shed load: after the last migration, zone 0 no
    // longer owns all four hotspot shards.
    let still_owned = sites
        .iter()
        .filter(|&&site| map.zone_of_chunk(site) == 0)
        .count();
    assert!(still_owned < sites.len(), "no hotspot shard ever moved");
}

#[test]
fn migrating_to_a_pipelineless_zone_flushes_the_source_staging() {
    use servo_server::cluster::zone_hotspot_sites;
    use servo_storage::{BlobStore, BlobTier};
    use servo_types::BlockPos;
    use servo_world::{RebalanceConfig, RebalancePolicy};

    // Persistence on zone 0 ONLY: a migration out of zone 0 has no
    // destination pipeline to inherit the write-back obligation, so the
    // source must flush the shard's dirty set before the chunks leave its
    // world — nothing staged may ever be silently dropped.
    let mut cluster = ShardedGameCluster::baseline(flat_config(), 4, 131);
    cluster.bind_persistence(
        0,
        PersistenceBinding::new(
            BlobStore::new(BlobTier::Standard, SimRng::seed(700)),
            SimRng::seed(701),
        )
        // never reaches a cadence pass: dirt stays staged
        .write_back_interval(1_000_000),
    );
    cluster.enable_rebalancing(RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 5,
        evaluate_every: 1,
        cooldown_ticks: 100,
        trigger_ratio: 1.1,
        min_gap_ms: 0.1,
        max_migrations_per_step: 8,
        ..RebalanceConfig::default()
    }));
    let sites = zone_hotspot_sites(cluster.shard_map(), 0, 2);
    let mut dirtied = Vec::new();
    for site in &sites {
        cluster.server(0).world().ensure_chunk_at(*site);
        let block = site.min_block() + BlockPos::new(3, 9, 3);
        cluster
            .server(0)
            .world()
            .set_block(block, servo_world::Block::Lamp)
            .unwrap();
        dirtied.push(*site);
    }
    // All avatars stand in the hot chunks; the first tick drains the dirt
    // into zone 0's staging, later ticks build up the load skew until the
    // policy fires.
    let positions: Vec<BlockPos> = (0..20)
        .map(|i| sites[i % sites.len()].min_block() + BlockPos::new(4 + (i as i32 % 8), 10, 8))
        .collect();
    for _ in 0..30 {
        cluster.run_tick(&positions, &[]);
        if cluster.rebalance_stats().shard_migrations > 0 {
            break;
        }
    }
    let rebalance = cluster.rebalance_stats();
    assert!(
        rebalance.shard_migrations > 0,
        "the skew never triggered a migration: {rebalance:?}"
    );
    // No destination pipeline exists, so nothing was handed off...
    assert_eq!(rebalance.staged_dirty_handed_off, 0);
    // ...and every dirtied chunk whose shard left zone 0 reached zone 0's
    // store through the synchronous quiesce flush.
    let map = cluster.shard_map();
    let mut migrated_and_flushed = 0;
    for site in &dirtied {
        if map.zone_of_chunk(*site) == 0 {
            continue;
        }
        migrated_and_flushed += 1;
        assert_eq!(
            cluster.with_persisted(0, |remote| {
                use servo_storage::ObjectStore;
                remote.contains(&format!("terrain/{}/{}", site.x, site.z))
            }),
            Some(true),
            "dirty chunk {site:?} migrated away without being flushed"
        );
    }
    assert!(
        migrated_and_flushed > 0,
        "no dirtied hot shard ever migrated: {rebalance:?}"
    );
}
