//! Property tests for the write-ahead delta log: replaying a
//! [`DeltaWal`] is idempotent and order-insensitive (last-writer-wins by
//! sequence number within each shard), the truncation a write-back
//! performs never drops a delta that was staged after the flush snapshot
//! was taken, and a service logging images and edits — and re-rooting a
//! chain on the bytes each landed write-back stored — replays exactly what
//! logging an image per staging would have.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use servo_simkit::SimRng;
use servo_storage::{
    BlobStore, BlobTier, ChunkRequest, ChunkService, DeltaWal, PipelinedChunkService, RecordKind,
    SharedWal, SyncChunkService, WalRecord,
};
use servo_types::{BlockPos, ChunkPos, SimDuration, SimTime};
use servo_world::{shard_index, Block, Chunk, ShardDelta, ShardedWorld};

const SHARDS: usize = 4;
const GRID: u64 = 5;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded append stream over a small chunk grid; payload bytes encode
/// the append index so later writes are distinguishable from earlier ones.
fn append_stream(seed: u64, len: usize) -> Vec<(ChunkPos, Vec<u8>)> {
    let mut state = seed ^ 0x57ab1e;
    (0..len)
        .map(|i| {
            let r = splitmix(&mut state);
            let pos = ChunkPos::new((r % GRID) as i32, ((r >> 8) % GRID) as i32);
            (
                pos,
                vec![(i & 0xff) as u8, (i >> 8) as u8, (r & 0xff) as u8],
            )
        })
        .collect()
}

/// Applies records with the log's replay rule: a record lands only if its
/// sequence is not older than what the state already holds for that chunk.
fn apply_lww(state: &mut BTreeMap<ChunkPos, (u64, Vec<u8>)>, records: &[WalRecord]) {
    for record in records {
        match state.get(&record.pos) {
            Some((seq, _)) if *seq > record.seq => {}
            _ => {
                state.insert(record.pos, (record.seq, record.bytes.to_vec()));
            }
        }
    }
}

/// A deterministic permutation of `records` driven by `seed`.
fn shuffled(records: &[WalRecord], seed: u64) -> Vec<WalRecord> {
    let mut out = records.to_vec();
    let mut state = seed ^ 0x0bad_5eed;
    for i in (1..out.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replaying a shard yields, for every chunk, exactly the bytes of the
    /// *last* append to that chunk — last-writer-wins within the shard.
    #[test]
    fn replay_is_last_writer_wins(seed in 0u64..1_000_000) {
        let mut wal = DeltaWal::new(SHARDS);
        let mut last: BTreeMap<ChunkPos, Vec<u8>> = BTreeMap::new();
        for (pos, bytes) in append_stream(seed, 80) {
            wal.append(pos, bytes.clone());
            last.insert(pos, bytes);
        }
        let mut replayed: BTreeMap<ChunkPos, Vec<u8>> = BTreeMap::new();
        for shard in 0..SHARDS {
            for record in wal.replay_shard(shard) {
                prop_assert_eq!(shard_index(record.pos, SHARDS), shard);
                prop_assert!(replayed.insert(record.pos, record.bytes.to_vec()).is_none(),
                    "replay emitted a chunk twice");
            }
        }
        prop_assert_eq!(replayed, last);
    }

    /// Applying the replay of a shard to a state that already absorbed it
    /// changes nothing: recovery may be retried after a second crash
    /// without corrupting the adopted world.
    #[test]
    fn replay_is_idempotent(seed in 0u64..1_000_000) {
        let mut wal = DeltaWal::new(SHARDS);
        for (pos, bytes) in append_stream(seed, 80) {
            wal.append(pos, bytes);
        }
        for shard in 0..SHARDS {
            let records = wal.replay_shard(shard);
            let mut once = BTreeMap::new();
            apply_lww(&mut once, &records);
            let mut twice = once.clone();
            apply_lww(&mut twice, &records);
            prop_assert_eq!(&once, &twice, "second replay changed the state");
        }
    }

    /// Records applied in *any* order under the sequence rule converge to
    /// the same state the ordered replay produces — adopters may consume
    /// restore and replay traffic in whatever order it arrives.
    #[test]
    fn replay_is_order_insensitive(seed in 0u64..1_000_000, shuffle_seed in 0u64..1_000) {
        let mut wal = DeltaWal::new(SHARDS);
        for (pos, bytes) in append_stream(seed, 80) {
            wal.append(pos, bytes);
        }
        for shard in 0..SHARDS {
            // The full per-shard log, not just the condensed replay: even
            // superseded records must be harmless out of order.
            let log = wal.records(shard).to_vec();
            let mut ordered = BTreeMap::new();
            apply_lww(&mut ordered, &log);
            let mut scrambled = BTreeMap::new();
            apply_lww(&mut scrambled, &shuffled(&log, shuffle_seed));
            prop_assert_eq!(&ordered, &scrambled, "shard {} diverged under reordering", shard);
        }
    }

    /// Re-ingesting a wal's own replay into a fresh log and replaying
    /// again is a fixed point: condensation is stable.
    #[test]
    fn replay_of_replay_is_a_fixed_point(seed in 0u64..1_000_000) {
        let mut wal = DeltaWal::new(SHARDS);
        for (pos, bytes) in append_stream(seed, 80) {
            wal.append(pos, bytes);
        }
        let mut condensed = DeltaWal::new(SHARDS);
        for shard in 0..SHARDS {
            for record in wal.replay_shard(shard) {
                condensed.ingest(record);
            }
        }
        for shard in 0..SHARDS {
            prop_assert_eq!(wal.replay_shard(shard), condensed.replay_shard(shard));
        }
    }
}

/// The write-back path snapshots each chunk's latest sequence *before*
/// flushing and truncates only through that mark — so a delta staged after
/// the flush (here: after a first write-back completes) is never dropped
/// by the truncation and is still recoverable.
#[test]
fn truncation_after_write_back_never_drops_an_unflushed_delta() {
    let world = Arc::new(ShardedWorld::flat(4));
    world.ensure_chunk_at(ChunkPos::new(1, 1));
    let remote = BlobStore::new(BlobTier::Standard, SimRng::seed(11));
    let wal = servo_storage::SharedWal::new(world.shard_count());
    let mut service = SyncChunkService::new(remote, SimRng::seed(12))
        .with_world(Arc::clone(&world))
        .with_wal(wal.clone());

    let target = ChunkPos::new(1, 1);
    let shard = world.shard_of(target);
    let base = target.min_block();

    // First edit: stage it (logging to the WAL) and flush it.
    world
        .set_block(base + BlockPos::new(1, 30, 1), Block::Stone)
        .unwrap();
    let deltas = service.drain_dirty();
    service.stage_dirty(deltas);
    let first_seq = wal.latest_seq(target).expect("staging logged the delta");
    service.submit(servo_storage::ChunkRequest::write_back());
    service.poll(SimTime::from_secs(100));

    // Second edit, staged after the flush: the earlier truncation must not
    // have consumed its record, and recovery must surface exactly it.
    world
        .set_block(base + BlockPos::new(2, 30, 2), Block::Lamp)
        .unwrap();
    let deltas = service.drain_dirty();
    service.stage_dirty(deltas);
    let second_seq = wal
        .latest_seq(target)
        .expect("unflushed delta still logged");
    assert!(
        second_seq > first_seq,
        "staging must stamp a newer sequence"
    );

    let recovered = service.recover(shard);
    assert_eq!(recovered.len(), 1, "exactly the unflushed shard delta");
    assert_eq!(recovered[0].chunks, vec![target]);
    let replayed = wal.replay_shard(shard);
    assert_eq!(replayed.len(), 1);
    assert_eq!(replayed[0].seq, second_seq);
    let expected = world.read_chunk(target, |c| c.to_bytes()).unwrap();
    assert_eq!(
        *replayed[0].bytes, *expected,
        "replay carries the second edit's bytes"
    );

    // A second write-back flushes it: the chain is re-rooted on the
    // flushed bytes, which replay nothing.
    service.submit(servo_storage::ChunkRequest::write_back());
    service.poll(SimTime::from_secs(200));
    let chain: Vec<(u64, RecordKind)> =
        wal.with(|wal| wal.records(shard).iter().map(|r| (r.seq, r.kind)).collect());
    assert_eq!(chain, vec![(second_seq, RecordKind::Root)]);
    assert!(
        !wal.with(|wal| wal.covers(target)),
        "flushed delta is discharged"
    );
    assert!(service.recover(shard).is_empty());
}

/// The race the marks protect against, reproduced at the log level: an
/// append that lands between the flush snapshot and the truncation
/// survives, because truncation only covers sequences through the mark.
#[test]
fn truncation_through_a_stale_mark_keeps_the_racing_append() {
    let mut wal = DeltaWal::new(SHARDS);
    let pos = ChunkPos::new(2, 3);
    wal.append(pos, vec![1]);
    let mark = wal.latest_seq(pos).unwrap();
    // Racing append after the snapshot, before the truncation.
    let racing = wal.append(pos, vec![2]);
    wal.truncate(pos, mark);
    assert_eq!(wal.latest_seq(pos), Some(racing));
    let shard = shard_index(pos, SHARDS);
    let replayed = wal.replay_shard(shard);
    assert_eq!(replayed.len(), 1);
    assert_eq!(*replayed[0].bytes, [2]);
}

/// The chunks the chain property edits, so stagings of one chunk
/// interleave with the others'.
const CHAIN_CHUNKS: [ChunkPos; 3] = [
    ChunkPos::new(0, 0),
    ChunkPos::new(1, 0),
    ChunkPos::new(5, -3),
];

/// One step of the chain property.
#[derive(Debug, Clone)]
enum ChainOp {
    /// Writes a block of a chunk. Three kinds, air the likeliest, over two
    /// blocks of air: a write often changes nothing, or restores what an
    /// earlier write replaced and what the chunk's image holds.
    Edit(usize, (i32, i32, i32), Block),
    /// Stages a chunk, which logs it.
    Stage(usize),
    /// Runs a write-back pass, which re-roots every chunk it writes.
    Flush,
    /// Runs a write-back pass whose first remote write fails.
    FailedFlush,
    /// Hands off the staged chunks of a chunk's shard.
    Handoff(usize),
}

fn arb_chain_op() -> impl Strategy<Value = ChainOp> {
    let chunk = || 0..CHAIN_CHUNKS.len();
    let block = prop::sample::select(vec![Block::Air, Block::Air, Block::Stone, Block::Lamp]);
    prop_oneof![
        8 => (chunk(), (0i32..2, 5i32..6, 0i32..1), block)
            .prop_map(|(c, at, b)| ChainOp::Edit(c, at, b)),
        6 => chunk().prop_map(ChainOp::Stage),
        1 => Just(ChainOp::Flush),
        1 => Just(ChainOp::FailedFlush),
        1 => chunk().prop_map(ChainOp::Handoff),
    ]
}

/// The image of every chunk in `wal`'s replay, by position.
fn replayed(wal: &SharedWal, shards: usize) -> BTreeMap<ChunkPos, Vec<u8>> {
    (0..shards)
        .flat_map(|shard| wal.replay_shard(shard))
        .map(|record| (record.pos, record.bytes.to_vec()))
        .collect()
}

/// The `(seq, kind)` of every record of `pos`, in log order.
fn chain_of(wal: &SharedWal, pos: ChunkPos) -> Vec<(u64, RecordKind)> {
    wal.with(|wal| {
        wal.records(shard_index(pos, wal.shard_count()))
            .iter()
            .filter(|r| r.pos == pos)
            .map(|r| (r.seq, r.kind))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A pipelined service bound to a world logs an image the first time
    /// a chunk is staged and edits after that; a landed write-back
    /// re-roots the chain on the flushed bytes, so the next staging
    /// appends edits again, while a failed one leaves the chain on its old
    /// root; a pass drops the roots and shadows of chunks not staged since
    /// the pass before. After every step, the replay holds, for each chunk
    /// staged and neither flushed nor handed off since, exactly the bytes
    /// the chunk encoded to at its last staging — what a log of one image
    /// per staging replays — and nothing else. Every staging appends one
    /// record, an empty one included, and a root counts as none.
    #[test]
    fn image_and_edit_chains_replay_every_staging(
        ops in prop::collection::vec(arb_chain_op(), 1..100),
    ) {
        let world = Arc::new(ShardedWorld::flat(4));
        for &pos in &CHAIN_CHUNKS {
            world.ensure_chunk_at(pos);
        }
        let shards = world.shard_count();
        let wal = SharedWal::new(shards);
        let mut service =
            PipelinedChunkService::new(BlobStore::new(BlobTier::Standard, SimRng::seed(3)), SimRng::seed(4), 1)
                .with_world_shards(Arc::clone(&world), &[])
                .with_wal(wal.clone());
        let mut oracle: BTreeMap<ChunkPos, Vec<u8>> = BTreeMap::new();
        let mut stagings = 0u64;
        let mut now = SimTime::ZERO;
        // The service's staged set; the chunks whose write failed, which
        // the next pass stages again from the cache's dirty set; the
        // chunks with a shadow; those staged since the last pass; and
        // whether an injected failure still waits for a remote write.
        let mut staged: BTreeSet<ChunkPos> = BTreeSet::new();
        let mut failed: BTreeSet<ChunkPos> = BTreeSet::new();
        let mut shadowed: BTreeSet<ChunkPos> = BTreeSet::new();
        let mut hot: BTreeSet<ChunkPos> = BTreeSet::new();
        let mut armed = false;
        for op in ops {
            match op {
                ChainOp::Edit(c, (x, y, z), block) => {
                    let at = CHAIN_CHUNKS[c].min_block() + BlockPos::new(x, y, z);
                    world.set_block(at, block).unwrap();
                }
                ChainOp::Stage(c) => {
                    let pos = CHAIN_CHUNKS[c];
                    service.stage_dirty(vec![ShardDelta {
                        shard: world.shard_of(pos),
                        epoch: 0,
                        chunks: vec![pos],
                    }]);
                    stagings += 1;
                    oracle.insert(pos, world.read_chunk(pos, Chunk::to_bytes).unwrap());
                    let kind = chain_of(&wal, pos).last().map(|&(_, kind)| kind);
                    let expected = if shadowed.contains(&pos) {
                        RecordKind::Edits
                    } else {
                        RecordKind::Image
                    };
                    prop_assert_eq!(kind, Some(expected), "staging {:?}", pos);
                    staged.insert(pos);
                    shadowed.insert(pos);
                    hot.insert(pos);
                }
                ChainOp::Flush | ChainOp::FailedFlush => {
                    if matches!(op, ChainOp::FailedFlush) {
                        service.with_remote(|remote| remote.inject_failure("write rejected"));
                        armed = true;
                    }
                    // The pass stages the failed chunks again, then writes
                    // every staged chunk, segment by segment, in order.
                    for &pos in &failed {
                        stagings += 1;
                        oracle.insert(pos, world.read_chunk(pos, Chunk::to_bytes).unwrap());
                        shadowed.insert(pos);
                        hot.insert(pos);
                    }
                    staged.append(&mut failed);
                    let mut order: Vec<ChunkPos> = std::mem::take(&mut staged).into_iter().collect();
                    order.sort_by_key(|&pos| (shard_index(pos, shards), pos));
                    let fails = if armed && !order.is_empty() {
                        armed = false;
                        Some(order[0])
                    } else {
                        None
                    };
                    let before = fails.map(|pos| chain_of(&wal, pos));
                    now += SimDuration::from_secs(1);
                    service.submit(ChunkRequest::write_back());
                    service.poll(now);
                    for pos in order {
                        if Some(pos) == fails {
                            let (before, after) = (before.clone().unwrap(), chain_of(&wal, pos));
                            // At most the pass's own re-staging is appended.
                            prop_assert!(after.starts_with(&before) && after.len() <= before.len() + 1,
                                "a failed write moved {:?} off its root: {:?} -> {:?}", pos, before, after);
                            failed.insert(pos);
                            continue;
                        }
                        oracle.remove(&pos);
                        let root = world.read_chunk(pos, Chunk::to_bytes).unwrap();
                        let chain = wal.with(|wal| {
                            wal.records(shard_index(pos, shards))
                                .iter()
                                .filter(|r| r.pos == pos)
                                .map(|r| (r.kind, r.bytes.to_vec()))
                                .collect::<Vec<_>>()
                        });
                        prop_assert_eq!(chain, vec![(RecordKind::Root, root)], "flushed {:?}", pos);
                    }
                    shadowed.retain(|pos| hot.contains(pos));
                    hot.clear();
                }
                ChainOp::Handoff(c) => {
                    for pos in service.take_staged_shard(world.shard_of(CHAIN_CHUNKS[c])) {
                        prop_assert!(staged.remove(&pos), "{:?} was not staged", pos);
                        prop_assert!(oracle.remove(&pos).is_some(), "{:?} was not logged", pos);
                        shadowed.remove(&pos);
                    }
                }
            }
            prop_assert_eq!(&replayed(&wal, shards), &oracle, "after {:?}", op);
            prop_assert_eq!(wal.with(|wal| wal.appended()), stagings);
        }
    }
}

/// A flat chunk's three stages: staged once, edited, edited again.
fn three_versions(pos: ChunkPos) -> [Chunk; 3] {
    let world = ShardedWorld::flat(4);
    world.ensure_chunk_at(pos);
    let base = pos.min_block();
    let mut versions = Vec::new();
    for (dy, block) in [(0, Block::Air), (10, Block::Lamp), (11, Block::Stone)] {
        if dy > 0 {
            world
                .set_block(base + BlockPos::new(2, dy, 3), block)
                .unwrap();
        }
        versions.push(world.read_chunk(pos, Chunk::clone).unwrap());
    }
    versions.try_into().unwrap()
}

/// Truncating through an edits record whose image goes with it would
/// strand the later edits. The dropped records fold into one image at the
/// last dropped sequence instead, and the replay still ends at the newest
/// state.
#[test]
fn partial_truncation_folds_the_dropped_prefix_into_an_image() {
    let pos = ChunkPos::new(2, 1);
    let [v0, v1, v2] = three_versions(pos);
    let mut wal = DeltaWal::new(SHARDS);
    let image = wal.append(pos, v0.to_bytes());
    let first = wal.append_edits(pos, image, &v1.diff(&v0)).unwrap();
    let second = wal.append_edits(pos, first, &v2.diff(&v1)).unwrap();
    let shard = shard_index(pos, SHARDS);

    assert_eq!(wal.truncate(pos, first), 1, "two dropped, one image added");
    let kept: Vec<(u64, RecordKind)> = wal.records(shard).iter().map(|r| (r.seq, r.kind)).collect();
    assert_eq!(
        kept,
        vec![(first, RecordKind::Image), (second, RecordKind::Edits)]
    );
    assert_eq!(*wal.records(shard)[0].bytes, *v1.to_bytes());
    let replay = wal.replay_shard(shard);
    assert_eq!(replay.len(), 1);
    assert_eq!((replay[0].seq, replay[0].kind), (second, RecordKind::Image));
    assert_eq!(*replay[0].bytes, *v2.to_bytes());
    let restored = Chunk::from_bytes(&replay[0].bytes).unwrap();
    assert_eq!(restored.modifications(), 0);

    // Truncating through the newest record drops the whole chain.
    assert_eq!(wal.truncate(pos, second), 2);
    assert!(wal.is_empty());
    assert_eq!(wal.truncated(), 3);
}

/// Edits are accepted only on top of the newest surviving record of the
/// position: with no record, or against an older one, nothing is appended.
#[test]
fn edits_need_the_record_they_were_taken_against() {
    let pos = ChunkPos::new(-1, 4);
    let [v0, v1, v2] = three_versions(pos);
    let mut wal = DeltaWal::new(SHARDS);
    assert_eq!(wal.append_edits(pos, 0, &v1.diff(&v0)), None);
    let image = wal.append(pos, v0.to_bytes());
    let edits = wal.append_edits(pos, image, &v1.diff(&v0)).unwrap();
    assert_eq!(wal.append_edits(pos, image, &v2.diff(&v0)), None);
    wal.truncate(pos, edits);
    assert_eq!(wal.append_edits(pos, edits, &v2.diff(&v1)), None);
    assert_eq!(wal.appended(), 2);
}

/// Staging a chunk that did not change since its last staging still
/// appends a record, an empty edits one: `appended` counts stagings, and
/// the chunk's newest sequence moves on.
#[test]
fn every_staging_appends_a_record_even_when_nothing_changed() {
    let world = Arc::new(ShardedWorld::flat(4));
    let pos = ChunkPos::new(3, 3);
    world.ensure_chunk_at(pos);
    let wal = SharedWal::new(world.shard_count());
    let mut service = SyncChunkService::new(
        BlobStore::new(BlobTier::Standard, SimRng::seed(5)),
        SimRng::seed(6),
    )
    .with_world(Arc::clone(&world))
    .with_wal(wal.clone());
    let stage = |service: &mut SyncChunkService<BlobStore>| {
        service.stage_dirty(vec![ShardDelta {
            shard: world.shard_of(pos),
            epoch: 0,
            chunks: vec![pos],
        }]);
    };
    let mut seqs = Vec::new();
    for step in 0..4 {
        if step == 2 {
            world
                .set_block(pos.min_block() + BlockPos::new(1, 8, 1), Block::Wire)
                .unwrap();
        }
        stage(&mut service);
        seqs.push(wal.latest_seq(pos).unwrap());
    }
    assert_eq!(wal.with(|wal| wal.appended()), 4);
    assert!(seqs.windows(2).all(|pair| pair[0] < pair[1]));
    let shard = world.shard_of(pos);
    let kinds: Vec<(RecordKind, usize)> = wal.with(|wal| {
        wal.records(shard)
            .iter()
            .map(|r| (r.kind, r.bytes.len()))
            .collect()
    });
    let image = world.read_chunk(pos, Chunk::serialized_size).unwrap() - 2 * 6;
    assert_eq!(
        kinds,
        vec![
            (RecordKind::Image, image),
            (RecordKind::Edits, 0),
            (RecordKind::Edits, 4),
            (RecordKind::Edits, 0),
        ]
    );
    let replay = wal.replay_shard(shard);
    assert_eq!(replay[0].seq, seqs[3]);
    assert_eq!(
        *replay[0].bytes,
        *world.read_chunk(pos, Chunk::to_bytes).unwrap()
    );
}
