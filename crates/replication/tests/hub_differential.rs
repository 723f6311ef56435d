//! Differential test of the pull-at-flush [`ReplicationHub`] against the
//! push-per-subscriber hub it replaced (`support::push_hub`).
//!
//! Both hubs are driven with the same seeded op sequences: subscribe
//! (ids are reused after unsubscribe), border subscribe, unsubscribe,
//! retarget (in place, and several times between flushes), chunk ingest,
//! event ingest (repeated positions, count 0), partition migration, and
//! flushes over 1..=8 cohorts, with `keyframe_only` on and off. After
//! every op the counters are equal; after every flush the frames, sorted
//! by subscriber, are equal field for field.

mod support;

use std::sync::Arc;

use proptest::prelude::*;
use servo_replication::{
    FrameKind, HubConfig, Interest, ReplicationFrame, ReplicationHub, SubscriberId,
};
use servo_types::ChunkPos;
use servo_world::sharded::shard_index;
use servo_world::{ShardDelta, ShardMap};
use support::push_hub::ReplicationHub as PushHub;

const SHARDS: usize = 16;
const ZONES: usize = 4;

/// One scripted step against both hubs.
#[derive(Debug, Clone)]
enum Op {
    /// A new area subscriber.
    Subscribe { center: (i32, i32), radius: i32 },
    /// A new border subscriber for `zone`.
    SubscribeBorder { zone: usize },
    /// Unsubscribes id `index % given` (it may already be gone).
    Unsubscribe { index: usize },
    /// Id `index % given` moves its interest centre.
    Retarget { index: usize, center: (i32, i32) },
    /// Id `index % given` "moves" to the centre it already has.
    RetargetInPlace { index: usize },
    /// Chunks modified this tick, drained as per-shard deltas.
    Dirty(Vec<(i32, i32)>),
    /// Construct/avatar events, possibly at repeated positions.
    Events(Vec<((i32, i32), u32)>),
    /// The partition migrates a shard, and both hubs re-sync.
    Migrate { shard: usize, zone: usize },
    /// A flush over `cohorts` round-robin cohorts.
    Flush { cohorts: u64 },
}

fn chunk_strategy() -> impl Strategy<Value = (i32, i32)> {
    (-6i32..6, -6i32..6)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (chunk_strategy(), 0i32..3)
            .prop_map(|(center, radius)| Op::Subscribe { center, radius }),
        1 => (0usize..ZONES).prop_map(|zone| Op::SubscribeBorder { zone }),
        2 => (0usize..16).prop_map(|index| Op::Unsubscribe { index }),
        3 => (0usize..16, chunk_strategy())
            .prop_map(|(index, center)| Op::Retarget { index, center }),
        1 => (0usize..16).prop_map(|index| Op::RetargetInPlace { index }),
        5 => prop::collection::vec(chunk_strategy(), 0..6).prop_map(Op::Dirty),
        4 => prop::collection::vec((chunk_strategy(), 0u32..3), 0..6).prop_map(Op::Events),
        1 => (0usize..SHARDS, 0usize..ZONES)
            .prop_map(|(shard, zone)| Op::Migrate { shard, zone }),
        5 => (1u64..9).prop_map(|cohorts| Op::Flush { cohorts }),
    ]
}

/// Groups one tick's dirty chunks into the per-shard drain shape the
/// cluster produces, stamping every touched shard with `epoch`.
fn drain(chunks: &[(i32, i32)], epoch: u64) -> Vec<ShardDelta> {
    let mut deltas: Vec<ShardDelta> = Vec::new();
    for &(x, z) in chunks {
        let pos = ChunkPos::new(x, z);
        let shard = shard_index(pos, SHARDS);
        match deltas.iter_mut().find(|d| d.shard == shard) {
            Some(delta) => delta.chunks.push(pos),
            None => deltas.push(ShardDelta {
                shard,
                epoch,
                chunks: vec![pos],
            }),
        }
    }
    deltas
}

/// Snapshot sizes, with some chunks not loaded.
fn sizer(pos: ChunkPos) -> Option<u64> {
    if (pos.x + 2 * pos.z).rem_euclid(5) == 0 {
        None
    } else {
        Some(40 + pos.x.rem_euclid(7) as u64)
    }
}

type FrameFields = (SubscriberId, ChunkPos, FrameKind, Vec<ChunkPos>, u32, u64);

fn fields(mut frames: Vec<ReplicationFrame>) -> Vec<FrameFields> {
    frames.sort_by_key(|frame| frame.subscriber);
    frames
        .into_iter()
        .map(|f| (f.subscriber, f.home, f.kind, f.chunks, f.events, f.bytes))
        .collect()
}

/// Runs `ops` against both hubs and asserts they agree throughout.
/// Returns the number of frames flushed, so callers can tell a script
/// exercised the encoder.
fn run_both(ops: &[Op], keyframe_only: bool) -> u64 {
    let map = Arc::new(ShardMap::contiguous(SHARDS, ZONES));
    let (mut pull, mut push) = if keyframe_only {
        let config = HubConfig {
            keyframe_only,
            ..HubConfig::default()
        };
        (
            ReplicationHub::with_config(Arc::clone(&map), config),
            PushHub::with_config(Arc::clone(&map), config),
        )
    } else {
        (
            ReplicationHub::new(Arc::clone(&map)),
            PushHub::new(Arc::clone(&map)),
        )
    };
    // Every id ever handed out, with the centre it was last given (border
    // subscribers have none).
    let mut given: Vec<(SubscriberId, Option<ChunkPos>)> = Vec::new();
    let mut epoch = 0u64;
    let mut frames = 0u64;

    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Subscribe { center, radius } => {
                let interest = Interest::new(ChunkPos::new(center.0, center.1), *radius);
                let id = pull.subscribe(interest);
                assert_eq!(id, push.subscribe(interest), "ids diverged at step {step}");
                given.push((id, Some(interest.center)));
            }
            Op::SubscribeBorder { zone } => {
                let id = pull.subscribe_border(*zone);
                assert_eq!(
                    id,
                    push.subscribe_border(*zone),
                    "ids diverged at step {step}"
                );
                given.push((id, None));
            }
            Op::Unsubscribe { index } => {
                if let Some(&(id, _)) = given.get(index % given.len().max(1)) {
                    pull.unsubscribe(id);
                    push.unsubscribe(id);
                }
            }
            Op::Retarget { index, center } => {
                let slot = index % given.len().max(1);
                if let Some(entry) = given.get_mut(slot) {
                    let center = ChunkPos::new(center.0, center.1);
                    pull.retarget(entry.0, center);
                    push.retarget(entry.0, center);
                    if entry.1.is_some() {
                        entry.1 = Some(center);
                    }
                }
            }
            Op::RetargetInPlace { index } => {
                if let Some(&(id, Some(center))) = given.get(index % given.len().max(1)) {
                    pull.retarget(id, center);
                    push.retarget(id, center);
                }
            }
            Op::Dirty(chunks) => {
                epoch += 1;
                let deltas = drain(chunks, epoch);
                pull.ingest(&deltas);
                push.ingest(&deltas);
            }
            Op::Events(events) => {
                let events: Vec<(ChunkPos, u32)> = events
                    .iter()
                    .map(|&((x, z), count)| (ChunkPos::new(x, z), count))
                    .collect();
                pull.ingest_events(&events);
                push.ingest_events(&events);
            }
            Op::Migrate { shard, zone } => {
                map.migrate(*shard, *zone);
                pull.sync_partition();
                push.sync_partition();
                for x in -3..3 {
                    for z in -3..3 {
                        // As the cluster's mirror does: one delivery
                        // per covering zone.
                        let pos = ChunkPos::new(x, z);
                        let zones = pull.border_zones_covering(pos);
                        assert_eq!(zones, push.border_zones_covering(pos));
                        for _ in &zones {
                            pull.note_border_delivery();
                            push.note_border_delivery();
                        }
                    }
                }
            }
            Op::Flush { cohorts } => {
                let pulled = fields(pull.flush(*cohorts, sizer));
                let pushed = fields(push.flush(*cohorts, sizer));
                assert_eq!(pulled, pushed, "frames diverged at step {step}: {op:?}");
                frames += pulled.len() as u64;
            }
        }
        assert_eq!(
            pull.stats(),
            push.stats(),
            "stats diverged at step {step}: {op:?}"
        );
        assert_eq!(pull.subscriber_count(), push.subscriber_count());
    }
    frames
}

proptest! {
    #[test]
    fn pull_hub_matches_the_push_hub(
        ops in prop::collection::vec(op_strategy(), 1..120),
        keyframe_only in any::<bool>(),
    ) {
        run_both(&ops, keyframe_only);
    }
}

/// The cases a per-call stamp clock has to get right, scripted: an event
/// landing before a subscriber arrives, an event of count 0, and a
/// subscriber that moves twice between flushes with dirt and events
/// pending.
#[test]
fn stamp_edge_cases_match_the_push_hub() {
    use Op::*;
    let ops = vec![
        Subscribe {
            center: (0, 0),
            radius: 1,
        },
        Flush { cohorts: 1 },
        // Before subscriber 1 arrives: counts for 0 only.
        Events(vec![((1, 1), 2), ((1, 1), 1)]),
        Dirty(vec![(1, 0)]),
        Subscribe {
            center: (0, 0),
            radius: 1,
        },
        Flush { cohorts: 1 },
        // A count-0 event still owes both a frame.
        Events(vec![((0, 0), 0)]),
        Flush { cohorts: 1 },
        // Two moves between flushes, with dirt and events pending.
        Dirty(vec![(1, 1), (-1, -1), (0, 1)]),
        Events(vec![((0, 1), 3)]),
        Retarget {
            index: 0,
            center: (1, 1),
        },
        Dirty(vec![(2, 2)]),
        Events(vec![((2, 2), 1)]),
        Retarget {
            index: 0,
            center: (5, 5),
        },
        Flush { cohorts: 1 },
        Flush { cohorts: 1 },
    ];
    for keyframe_only in [false, true] {
        assert!(run_both(&ops, keyframe_only) >= 6);
    }
}
