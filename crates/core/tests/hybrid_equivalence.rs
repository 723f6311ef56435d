//! Equivalence and ownership properties of the hybrid zoned+offloading
//! deployment:
//!
//! * a 1-zone [`HybridDeployment`] is tick-for-tick — and
//!   persisted-byte-for-byte — identical to the single
//!   [`ServoDeployment`] built from the same configuration;
//! * in a multi-zone hybrid, every zone persists **all** of its owned
//!   dirty shards and **none** of any other zone's chunks.

use std::collections::BTreeMap;

use servo_core::{HybridDeployment, ServoDeployment};
use servo_simkit::SimRng;
use servo_storage::ObjectStore;
use servo_types::{BlockPos, ChunkPos, PlayerId, SimDuration, SimTime};
use servo_workload::{BehaviorKind, PlayerEvent, PlayerFleet};

fn random_fleet(players: usize, seed: u64) -> PlayerFleet {
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(seed));
    fleet.connect_all(players);
    fleet
}

fn key(pos: ChunkPos) -> String {
    format!("terrain/{}/{}", pos.x, pos.z)
}

/// Snapshot of everything a remote store persisted for the given world
/// positions: key -> bytes.
fn persisted_map(
    read: &mut dyn FnMut(&str) -> Option<Vec<u8>>,
    positions: &[ChunkPos],
) -> BTreeMap<String, Vec<u8>> {
    positions
        .iter()
        .filter_map(|&pos| read(&key(pos)).map(|bytes| (key(pos), bytes)))
        .collect()
}

#[test]
fn one_zone_hybrid_matches_servo_deployment_exactly() {
    let seconds = 8u64;
    let mut single = ServoDeployment::builder()
        .seed(31)
        .view_distance(32)
        .build();
    let mut hybrid: HybridDeployment = ServoDeployment::builder()
        .seed(31)
        .view_distance(32)
        .hybrid(1);
    single
        .server
        .add_constructs(6, |i| servo_redstone::generators::dense_circuit(32 + i * 7));
    for i in 0..6 {
        hybrid
            .cluster
            .add_construct(servo_redstone::generators::dense_circuit(32 + i * 7));
    }

    let mut fleet_single = random_fleet(8, 32);
    let mut fleet_hybrid = random_fleet(8, 32);
    single.run_with_fleet(&mut fleet_single, SimDuration::from_secs(seconds));
    hybrid.run_with_fleet(&mut fleet_hybrid, SimDuration::from_secs(seconds));

    // Tick-for-tick identical simulation.
    let zone = hybrid.cluster.server(0);
    assert_eq!(single.server.stats(), zone.stats());
    assert_eq!(single.server.tick_durations(), zone.tick_durations());
    assert_eq!(
        single.server.world().total_modifications(),
        zone.world().total_modifications()
    );
    assert_eq!(
        single.speculation.stats(),
        hybrid.speculation[0].stats(),
        "speculation units diverged"
    );
    assert_eq!(single.speculation.billing(), hybrid.sc_billing());

    // Persisted-byte-for-byte identical storage after the final flush. The
    // cumulative `chunks_flushed` counters are not compared: how often a
    // re-dirtied chunk is flushed depends on how far the write-back worker
    // threads got, not on the deployment.
    single.flush_persistence();
    hybrid.flush_persistence();
    let positions = single.server.world().loaded_positions();
    let late = SimTime::from_secs(10_000);
    let single_map = single
        .with_persisted(|remote| {
            let mut read = |k: &str| remote.read(k, late).ok().map(|r| r.data);
            persisted_map(&mut read, &positions)
        })
        .expect("single deployment persists");
    let hybrid_map = hybrid
        .cluster
        .with_persisted(0, |remote| {
            let mut read = |k: &str| remote.read(k, late).ok().map(|r| r.data);
            persisted_map(&mut read, &positions)
        })
        .expect("hybrid zone 0 persists");
    assert!(!single_map.is_empty(), "nothing reached blob storage");
    assert_eq!(single_map, hybrid_map, "persisted bytes diverged");
    let single_len = single.with_persisted(|remote| remote.len()).unwrap();
    let hybrid_len = hybrid
        .cluster
        .with_persisted(0, |remote| remote.len())
        .unwrap();
    assert_eq!(single_len, hybrid_len);
}

#[test]
fn zones_flush_every_owned_dirty_shard_and_nothing_foreign() {
    let mut hybrid = ServoDeployment::builder()
        .seed(41)
        .view_distance(32)
        .hybrid(4);
    let mut fleet = random_fleet(12, 42);
    hybrid.run_with_fleet(&mut fleet, SimDuration::from_secs(6));

    // A targeted edit into a known zone's loaded terrain, so at least one
    // owned dirty chunk exists deterministically.
    let map = hybrid.cluster.shard_map().clone();
    let mut target = None;
    'search: for (zone, server) in hybrid.cluster.servers().iter().enumerate() {
        for pos in server.world().loaded_positions() {
            if map.zone_of_chunk(pos) == zone {
                target = Some((zone, pos));
                break 'search;
            }
        }
    }
    let (zone, pos) = target.expect("terrain loaded in some zone");
    let block = pos.min_block() + BlockPos::new(5, 9, 5);
    let event = (PlayerId::new(0), PlayerEvent::BlockPlaced(block));
    let positions = fleet.positions();
    hybrid.cluster.run_tick(&positions, &[event]);

    let flushed = hybrid.flush_persistence();
    assert!(flushed > 0 || hybrid.persistence_stats().chunks_flushed > 0);
    // The edited chunk reached its owning zone's storage...
    assert_eq!(
        hybrid
            .cluster
            .with_persisted(zone, |remote| remote.contains(&key(pos))),
        Some(true),
        "zone {zone} never persisted its edited chunk {pos:?}"
    );
    // ...and after the flush no owned dirty state remains anywhere.
    for (zone, server) in hybrid.cluster.servers().iter().enumerate() {
        assert!(
            server.drain_owned_dirty().is_empty(),
            "zone {zone} left owned dirty shards unflushed"
        );
    }
    let again = hybrid.flush_persistence();
    assert_eq!(again, 0, "a second flush found dirt the first one missed");

    // Ownership: no zone's store holds a chunk another zone owns.
    for (zone, server) in hybrid.cluster.servers().iter().enumerate() {
        for pos in server.world().loaded_positions() {
            let persisted = hybrid
                .cluster
                .with_persisted(zone, |remote| remote.contains(&key(pos)))
                .unwrap();
            if persisted {
                assert_eq!(
                    map.zone_of_chunk(pos),
                    zone,
                    "zone {zone} persisted foreign chunk {pos:?}"
                );
            }
        }
    }
    // Every zone with edits actually persisted something.
    assert!(hybrid.persistence_stats().chunks_flushed > 0);
}
