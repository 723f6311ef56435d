//! Exact-delivery properties of the subscription index.
//!
//! The central property: every dirty chunk fed through
//! [`ReplicationHub::ingest`] reaches **exactly** the subscribers whose
//! interest covers it — no drops, no duplicates, no spurious deliveries —
//! and stays exact while subscribers move ([`ReplicationHub::retarget`])
//! and while the shard partition migrates underneath the index. The hub is
//! driven op-by-op against a trivial per-subscriber set model; flushing
//! after every op makes the model's expectation sharp (a subscriber is due
//! a frame iff it is fresh or has accumulated dirt).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use servo_replication::{
    FrameGroup, FrameKind, Frames, HubConfig, Interest, ReplicationHub, SubscriberId,
};
use servo_types::ChunkPos;
use servo_world::sharded::shard_index;
use servo_world::{ShardDelta, ShardMap};

const SHARDS: usize = 16;
const ZONES: usize = 4;

/// One scripted step against the hub.
#[derive(Debug, Clone)]
enum Op {
    /// Chunks modified this tick, drained as per-shard deltas.
    Dirty(Vec<(i32, i32)>),
    /// Subscriber `index % live` moves its interest centre.
    Retarget { index: usize, center: (i32, i32) },
    /// The partition migrates a shard to a new zone.
    Migrate { shard: usize, zone: usize },
}

fn chunk_strategy() -> impl Strategy<Value = (i32, i32)> {
    (-10i32..10, -10i32..10)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => prop::collection::vec(chunk_strategy(), 1..8).prop_map(Op::Dirty),
        2 => (0usize..8, chunk_strategy())
            .prop_map(|(index, center)| Op::Retarget { index, center }),
        1 => (0usize..SHARDS, 0usize..ZONES)
            .prop_map(|(shard, zone)| Op::Migrate { shard, zone }),
    ]
}

/// Groups one tick's dirty chunks into the per-shard drain shape the
/// cluster produces, stamping every touched shard with `epoch`.
fn drain(chunks: &[(i32, i32)], epoch: u64) -> Vec<ShardDelta> {
    let mut deltas: Vec<ShardDelta> = Vec::new();
    for &(x, z) in chunks {
        let pos = ChunkPos::new(x, z);
        let shard = shard_index(pos, SHARDS);
        let delta = match deltas.iter_mut().find(|d| d.shard == shard) {
            Some(delta) => delta,
            None => {
                deltas.push(ShardDelta {
                    shard,
                    epoch,
                    chunks: Vec::new(),
                });
                deltas.last_mut().unwrap()
            }
        };
        if !delta.chunks.contains(&pos) {
            delta.chunks.push(pos);
        }
    }
    for delta in &mut deltas {
        delta.chunks.sort();
    }
    deltas
}

/// The one frame of a flush that owed exactly one.
fn only(frames: &Frames) -> (SubscriberId, &FrameGroup) {
    assert_eq!(frames.len(), 1);
    frames.iter().next().unwrap()
}

proptest! {
    /// Drive the hub with dirty ticks, movement, and shard migration,
    /// flushing every step: each delta frame carries exactly the covered
    /// dirty set, each fresh subscriber gets a keyframe of its whole
    /// region, and a subscriber appears in a flush iff the model owes it
    /// a frame.
    #[test]
    fn every_dirty_chunk_reaches_exactly_the_covering_subscribers(
        subs in prop::collection::vec((chunk_strategy(), 0i32..3), 1..6),
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        let map = Arc::new(ShardMap::contiguous(SHARDS, ZONES));
        let mut hub = ReplicationHub::new(Arc::clone(&map));

        // Model state, index-aligned with subscriber ids.
        let mut interests: Vec<Interest> = Vec::new();
        let mut pending: Vec<BTreeSet<ChunkPos>> = Vec::new();
        let mut fresh: Vec<bool> = Vec::new();
        for &((x, z), radius) in &subs {
            let interest = Interest::new(ChunkPos::new(x, z), radius);
            let id = hub.subscribe(interest);
            prop_assert_eq!(id as usize, interests.len());
            interests.push(interest);
            pending.push(BTreeSet::new());
            fresh.push(true);
        }

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Dirty(chunks) => {
                    hub.ingest(&drain(chunks, step as u64 + 1));
                    for &(x, z) in chunks {
                        let pos = ChunkPos::new(x, z);
                        for (i, interest) in interests.iter().enumerate() {
                            if interest.covers(pos) {
                                pending[i].insert(pos);
                            }
                        }
                    }
                }
                Op::Retarget { index, center } => {
                    let i = index % interests.len();
                    let center = ChunkPos::new(center.0, center.1);
                    hub.retarget(i as u32, center);
                    if interests[i].center != center {
                        interests[i] = Interest::new(center, interests[i].radius);
                        let moved = interests[i];
                        pending[i].retain(|&pos| moved.covers(pos));
                        fresh[i] = true;
                    }
                }
                Op::Migrate { shard, zone } => {
                    // Area interests are hash-static: ownership movement
                    // must not change what any client receives.
                    map.migrate(*shard, *zone);
                    hub.sync_partition();
                }
            }

            // Snapshot what the model owes before the flush consumes it.
            let owed: Vec<bool> = (0..interests.len())
                .map(|i| fresh[i] || !pending[i].is_empty())
                .collect();
            let frames = hub.flush(1, |_| Some(64));

            // A subscriber is flushed exactly once, and exactly when the
            // model owes it something.
            let mut seen: Vec<bool> = vec![false; interests.len()];
            for (id, frame) in frames.iter() {
                let i = id as usize;
                prop_assert!(!seen[i], "subscriber {} flushed twice in one tick", i);
                seen[i] = true;

                match frame.kind {
                    FrameKind::Keyframe => {
                        prop_assert!(fresh[i], "unexpected keyframe for subscriber {}", i);
                        // Every chunk in the region is "loaded" under this
                        // sizer, so the keyframe is the full region.
                        prop_assert_eq!(frame.chunks().to_vec(), interests[i].chunks());
                        fresh[i] = false;
                    }
                    FrameKind::Delta { .. } => {
                        prop_assert!(!fresh[i], "fresh subscriber {} got a delta", i);
                        let expected: Vec<ChunkPos> = pending[i].iter().copied().collect();
                        prop_assert_eq!(
                            frame.chunks().to_vec(), expected,
                            "delta for subscriber {} at step {}", i, step
                        );
                    }
                }
                pending[i].clear();
            }
            for (i, flushed) in seen.iter().enumerate() {
                prop_assert_eq!(
                    *flushed, owed[i],
                    "subscriber {} owed={} flushed={} at step {}", i, owed[i], *flushed, step
                );
            }
        }
    }
}

#[test]
fn keyframe_then_delta_transition() {
    let map = Arc::new(ShardMap::contiguous(SHARDS, 1));
    let mut hub = ReplicationHub::new(Arc::clone(&map));
    let id = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));

    let frames = hub.flush(1, |_| Some(40));
    let (_, frame) = only(&frames);
    assert_eq!(frame.kind, FrameKind::Keyframe);
    assert_eq!(frame.chunks().len(), 9);
    // 24-byte header + nine 40-byte snapshots.
    assert_eq!(frame.bytes, 24 + 9 * 40);

    hub.ingest(&[ShardDelta {
        shard: shard_index(ChunkPos::new(1, 0), SHARDS),
        epoch: 1,
        chunks: vec![ChunkPos::new(1, 0)],
    }]);
    let frames = hub.flush(1, |_| Some(40));
    let (subscriber, frame) = only(&frames);
    assert_eq!(subscriber, id);
    assert_eq!(frame.kind, FrameKind::Delta { epochs_behind: 1 });
    assert_eq!(frame.chunks(), &[ChunkPos::new(1, 0)]);

    // Nothing pending: the next flush is empty, not a zero-chunk frame.
    assert!(hub.flush(1, |_| Some(40)).is_empty());
}

#[test]
fn slow_cohort_receives_one_coalesced_delta() {
    let map = Arc::new(ShardMap::contiguous(SHARDS, 1));
    let mut hub = ReplicationHub::new(Arc::clone(&map));
    let id = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 2));
    hub.flush(1, |_| Some(40)); // burn the keyframe

    // Two epochs of dirt land while the subscriber's cohort is not up.
    let a = ChunkPos::new(1, 1);
    let b = ChunkPos::new(-1, 0);
    for (epoch, pos) in [(1, a), (2, b)] {
        hub.ingest(&[ShardDelta {
            shard: shard_index(pos, SHARDS),
            epoch,
            chunks: vec![pos],
        }]);
    }

    // Cohort 0 of 4 is flushed first; subscriber 0 belongs to it, so force
    // the miss by flushing three off-cohorts first with cohorts=4 after
    // one idle flush (flush counter = 1 → cohort 1).
    assert!(hub.flush(4, |_| Some(40)).is_empty()); // cohort 1: not id 0
    assert!(hub.flush(4, |_| Some(40)).is_empty()); // cohort 2
    assert!(hub.flush(4, |_| Some(40)).is_empty()); // cohort 3
    let frames = hub.flush(4, |_| Some(40)); // cohort 0: due
    let (subscriber, frame) = only(&frames);
    assert_eq!(subscriber, id);
    match frame.kind {
        FrameKind::Delta { epochs_behind } => assert!(
            epochs_behind > 1,
            "coalesced frame should report the epoch gap, got {}",
            epochs_behind
        ),
        other => panic!("expected a coalesced delta, got {:?}", other),
    }
    let mut chunks = frame.chunks().to_vec();
    chunks.sort();
    let mut expected = vec![a, b];
    expected.sort();
    assert_eq!(chunks, expected);
    assert_eq!(hub.stats().coalesced_chunks, 2);
}

#[test]
fn retarget_drops_departed_pending_and_owes_a_keyframe() {
    let map = Arc::new(ShardMap::contiguous(SHARDS, 1));
    let mut hub = ReplicationHub::new(Arc::clone(&map));
    let id = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
    hub.flush(1, |_| Some(40));

    let near = ChunkPos::new(1, 0);
    hub.ingest(&[ShardDelta {
        shard: shard_index(near, SHARDS),
        epoch: 1,
        chunks: vec![near],
    }]);

    // Teleport far away: the pending chunk is now outside the interest.
    hub.retarget(id, ChunkPos::new(50, 50));
    assert_eq!(hub.stats().dropped_on_move, 1);
    assert_eq!(hub.stats().retargets, 1);

    let frames = hub.flush(1, |_| Some(40));
    let (_, frame) = only(&frames);
    assert_eq!(frame.kind, FrameKind::Keyframe);
    assert_eq!(
        frame.chunks().to_vec(),
        Interest::new(ChunkPos::new(50, 50), 1).chunks()
    );

    // Dirt in the new region flows as deltas again.
    let moved = ChunkPos::new(50, 51);
    hub.ingest(&[ShardDelta {
        shard: shard_index(moved, SHARDS),
        epoch: 2,
        chunks: vec![moved],
    }]);
    let frames = hub.flush(1, |_| Some(40));
    assert_eq!(only(&frames).1.chunks(), &[moved]);
}

#[test]
fn keyframe_only_mode_resends_the_full_region_every_flush() {
    let map = Arc::new(ShardMap::contiguous(SHARDS, 1));
    let config = HubConfig {
        keyframe_only: true,
        ..HubConfig::default()
    };
    let mut hub = ReplicationHub::with_config(Arc::clone(&map), config);
    hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
    hub.flush(1, |_| Some(40));

    let pos = ChunkPos::new(1, 0);
    hub.ingest(&[ShardDelta {
        shard: shard_index(pos, SHARDS),
        epoch: 1,
        chunks: vec![pos],
    }]);
    let frames = hub.flush(1, |_| Some(40));
    let (_, frame) = only(&frames);
    assert_eq!(frame.kind, FrameKind::Keyframe);
    assert_eq!(frame.chunks().len(), 9);
    assert_eq!(hub.stats().delta_frames, 0);
}

/// With every zone border-subscribed, the hub's covering-zone resolution is
/// definitionally the mirror protocol's recipient set — including after the
/// partition migrates and the border shard sets are re-resolved.
#[test]
fn border_subscribers_cover_exactly_the_neighbor_zones() {
    let map = Arc::new(ShardMap::contiguous(SHARDS, ZONES));
    let mut hub = ReplicationHub::new(Arc::clone(&map));
    for zone in 0..ZONES {
        hub.subscribe_border(zone);
    }

    let sweep = |hub: &ReplicationHub| {
        for x in -12..12 {
            for z in -12..12 {
                let pos = ChunkPos::new(x, z);
                assert_eq!(
                    hub.border_zones_covering(pos),
                    map.neighbor_zones(pos),
                    "covering set diverged from neighbor_zones at {}",
                    pos
                );
            }
        }
    };
    sweep(&hub);

    // Migrate a shard and re-resolve: the equivalence must survive
    // ownership movement.
    assert!(map.migrate(0, 2));
    hub.sync_partition();
    assert_eq!(hub.stats().partition_resolves, 1);
    sweep(&hub);

    // Border subscribers never receive encoder frames.
    assert!(hub.flush(1, |_| Some(40)).is_empty());
}

#[test]
fn unsubscribe_stops_delivery_and_frees_the_cell_index() {
    let map = Arc::new(ShardMap::contiguous(SHARDS, 1));
    let mut hub = ReplicationHub::new(Arc::clone(&map));
    let a = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
    let b = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
    hub.flush(1, |_| Some(40));

    hub.unsubscribe(a);
    assert_eq!(hub.subscriber_count(), 1);

    let pos = ChunkPos::new(0, 1);
    hub.ingest(&[ShardDelta {
        shard: shard_index(pos, SHARDS),
        epoch: 1,
        chunks: vec![pos],
    }]);
    let frames = hub.flush(1, |_| Some(40));
    assert_eq!(only(&frames).0, b);
}

/// An id unsubscribed while still queued and then reused is flushed once:
/// the keyframe of the new subscriber, no empty delta for the stale entry.
#[test]
fn reused_id_of_a_queued_subscriber_gets_one_frame() {
    let mut hub = ReplicationHub::new(Arc::new(ShardMap::contiguous(SHARDS, 1)));
    let a = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
    hub.unsubscribe(a);
    let b = hub.subscribe(Interest::new(ChunkPos::new(3, 3), 1));
    assert_eq!(a, b);
    let frames = hub.flush(1, |_| Some(40));
    assert_eq!(only(&frames).1.kind, FrameKind::Keyframe);
    assert_eq!(hub.stats().delta_frames, 0);
}

/// One class with delta members at three `synced` clocks in one flush: an
/// early subscriber, a late joiner, and a member that retargeted in. Each
/// clock is its own group, with its own epoch gap; once all three are
/// synced together they share one group again.
#[test]
fn members_synced_at_different_clocks_get_separate_groups() {
    let mut hub = ReplicationHub::new(Arc::new(ShardMap::contiguous(SHARDS, 1)));
    let home = ChunkPos::new(0, 0);
    let dirt = ChunkPos::new(1, 0);
    let shard = shard_index(dirt, SHARDS);
    // Advances `shard` to `epoch`; with no chunks no cell is stamped, so
    // only the ingest clock and the shard epoch move.
    let advance = |hub: &mut ReplicationHub, epoch: u64, chunks: Vec<ChunkPos>| {
        hub.ingest(&[ShardDelta {
            shard,
            epoch,
            chunks,
        }]);
    };

    let early = hub.subscribe(Interest::new(home, 1));
    let mover = hub.subscribe(Interest::new(ChunkPos::new(40, 40), 1));
    assert_eq!(hub.flush(1, |_| Some(40)).len(), 2); // two keyframes
    advance(&mut hub, 1, vec![dirt]);
    assert_eq!(only(&hub.flush(1, |_| Some(40))).0, early); // synced at epoch 1

    let late = hub.subscribe(Interest::new(home, 1));
    advance(&mut hub, 2, vec![]);
    assert_eq!(only(&hub.flush(1, |_| Some(40))).0, late); // keyframe at epoch 2

    hub.retarget(mover, home);
    advance(&mut hub, 3, vec![]);
    assert_eq!(only(&hub.flush(1, |_| Some(40))).0, mover); // keyframe at epoch 3

    advance(&mut hub, 4, vec![dirt]);
    let frames = hub.flush(1, |_| Some(40));
    assert_eq!(frames.len(), 3);
    let mut groups: Vec<(Vec<SubscriberId>, FrameKind, Vec<ChunkPos>)> = frames
        .groups()
        .map(|(group, members)| (members.to_vec(), group.kind, group.chunks().to_vec()))
        .collect();
    groups.sort_by_key(|group| group.0.clone());
    let delta = |epochs_behind| FrameKind::Delta { epochs_behind };
    assert_eq!(
        groups,
        vec![
            (vec![early], delta(3), vec![dirt]),
            (vec![mover], delta(1), vec![dirt]),
            (vec![late], delta(2), vec![dirt]),
        ]
    );
    assert_eq!(hub.stats().coalesced_chunks, 2);

    // Synced at one clock now: one shared group.
    advance(&mut hub, 5, vec![dirt]);
    let frames = hub.flush(1, |_| Some(40));
    let (group, members) = frames.groups().next().unwrap();
    assert_eq!(frames.groups().len(), 1);
    assert_eq!(members, &[early, mover, late]);
    assert_eq!(group.kind, delta(1));
}
