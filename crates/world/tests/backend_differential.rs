//! Differential suite for the sharded world.
//!
//! Every property here runs the *same* arbitrary operation sequence against
//! the single-threaded [`World`] and a [`ShardedWorld`] and demands they
//! agree on everything observable: per-op outcomes, final chunk bytes,
//! loaded-chunk sets, modification counters and stateful-block counts. The
//! plain world has no dirty tracking, so the drained dirty sets and shard
//! epochs are checked against a small model kept beside it, derived from
//! the documented contract (every applied block modification dirties its
//! chunk and bumps the owning shard's epoch; loads do neither; a removed
//! chunk leaves the dirty set). Any divergence a storage pipeline or a
//! persistence drain could observe shows up here as a shrunk
//! counterexample.

use std::collections::BTreeSet;

use proptest::prelude::*;
use servo_types::consts::CHUNK_HEIGHT;
use servo_types::{BlockPos, ChunkPos};
use servo_world::{shard_index, Block, ShardDelta, ShardedWorld, World};

/// One operation in a generated differential schedule. Coordinates are kept
/// small so sequences revisit chunks (revisits are where dirty-set and
/// counter bookkeeping can drift).
#[derive(Debug, Clone)]
enum Op {
    /// A single-block write (possibly to an unloaded chunk — the error must
    /// agree too).
    Set {
        x: i32,
        y: i32,
        z: i32,
        block: Block,
    },
    /// A batch write through `set_blocks`.
    Batch {
        writes: Vec<((i32, i32, i32), Block)>,
    },
    /// A box fill through `fill_region`.
    Fill {
        x0: i32,
        z0: i32,
        dx: i32,
        dz: i32,
        y0: i32,
        dy: i32,
        block: Block,
    },
    /// Load a chunk (idempotent).
    Ensure { cx: i32, cz: i32 },
    /// Unload a chunk (possibly absent).
    Remove { cx: i32, cz: i32 },
    /// Drain the dirty sets mid-sequence; the deltas must match the model,
    /// and draining must not disturb any other observable state.
    Drain,
}

fn arb_block() -> impl Strategy<Value = Block> {
    prop::sample::select(Block::ALL.to_vec())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => ((-40i32..40, 0i32..CHUNK_HEIGHT, -40i32..40), arb_block())
            .prop_map(|((x, y, z), block)| Op::Set { x, y, z, block }),
        3 => prop::collection::vec(
            ((-40i32..40, 0i32..CHUNK_HEIGHT, -40i32..40), arb_block()),
            1..24,
        )
        .prop_map(|writes| Op::Batch { writes }),
        2 => (-36i32..36, -36i32..36, 0i32..20, 0i32..20, 1i32..60, 0i32..6, arb_block())
            .prop_map(|(x0, z0, dx, dz, y0, dy, block)| Op::Fill { x0, z0, dx, dz, y0, dy, block }),
        2 => (-4i32..4, -4i32..4).prop_map(|(cx, cz)| Op::Ensure { cx, cz }),
        1 => (-4i32..4, -4i32..4).prop_map(|(cx, cz)| Op::Remove { cx, cz }),
        1 => Just(Op::Drain),
    ]
}

fn to_batch(writes: &[((i32, i32, i32), Block)]) -> Vec<(BlockPos, Block)> {
    writes
        .iter()
        .map(|((x, y, z), b)| (BlockPos::new(*x, *y, *z), *b))
        .collect()
}

/// The two worlds under differential test, stepped in lockstep, plus the
/// dirty-tracking model of the sharded one.
struct Pair {
    plain: World,
    sharded: ShardedWorld,
    /// Expected undrained dirty chunks, `(x, z)`-ordered per shard.
    dirty: Vec<BTreeSet<(i32, i32)>>,
    /// Expected per-shard modification epochs.
    epochs: Vec<u64>,
}

impl Pair {
    /// Both worlds flat, with the chunk square `-half..half` loaded.
    fn new(half: i32) -> Self {
        let mut plain = World::flat(4);
        let sharded = ShardedWorld::flat(4);
        for cx in -half..half {
            for cz in -half..half {
                let pos = ChunkPos::new(cx, cz);
                plain.ensure_chunk_at(pos);
                sharded.ensure_chunk_at(pos);
            }
        }
        let shards = sharded.shard_count();
        Pair {
            plain,
            sharded,
            dirty: vec![BTreeSet::new(); shards],
            epochs: vec![0; shards],
        }
    }

    /// Records `mods` applied block modifications against `chunk`.
    fn note(&mut self, chunk: ChunkPos, mods: u64) {
        if mods > 0 {
            let shard = shard_index(chunk, self.epochs.len());
            self.epochs[shard] += mods;
            self.dirty[shard].insert((chunk.x, chunk.z));
        }
    }

    /// The deltas a full drain must return now, clearing the model.
    fn expected_drain(&mut self) -> Vec<ShardDelta> {
        let mut deltas = Vec::new();
        for (shard, dirty) in self.dirty.iter_mut().enumerate() {
            if dirty.is_empty() {
                continue;
            }
            deltas.push(ShardDelta {
                shard,
                epoch: self.epochs[shard],
                chunks: std::mem::take(dirty)
                    .into_iter()
                    .map(|(x, z)| ChunkPos::new(x, z))
                    .collect(),
            });
        }
        deltas
    }

    /// Applies one op to both worlds, checking that outcome-level results
    /// (ok-ness, written counts, removed-chunk bytes) agree.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Set { x, y, z, block } => {
                let pos = BlockPos::new(*x, *y, *z);
                let a = self.plain.set_block(pos, *block).is_ok();
                let b = self.sharded.set_block(pos, *block).is_ok();
                prop_assert_eq!(a, b, "set_block ok-ness at {}", pos);
                if a {
                    self.note(ChunkPos::from(pos), 1);
                }
            }
            Op::Batch { writes } => {
                // A *failed* batch leaves a documented, intentionally
                // different partial state: the plain world stops at the
                // failing write in input order, the sharded world completes
                // whole shards before the failing one. This property
                // therefore only covers batches that succeed, so writes to
                // unloaded chunks are filtered out here (the loaded sets
                // are identical by the other assertions). Failing batches
                // have a dedicated property below.
                let batch: Vec<(BlockPos, Block)> = to_batch(writes)
                    .into_iter()
                    .filter(|(pos, _)| self.plain.is_loaded(ChunkPos::from(*pos)))
                    .collect();
                let a = self.plain.set_blocks(batch.clone()).unwrap();
                let b = self.sharded.set_blocks(batch.clone()).unwrap();
                prop_assert_eq!(a, b, "batch written count");
                for (pos, _) in batch {
                    self.note(ChunkPos::from(pos), 1);
                }
            }
            Op::Fill {
                x0,
                z0,
                dx,
                dz,
                y0,
                dy,
                block,
            } => {
                let min = BlockPos::new(*x0, *y0, *z0);
                let max = BlockPos::new(x0 + dx, y0 + dy, z0 + dz);
                let (lo, hi) = (ChunkPos::from(min), ChunkPos::from(max));
                let overlapped: Vec<ChunkPos> = (lo.x..=hi.x)
                    .flat_map(|cx| (lo.z..=hi.z).map(move |cz| ChunkPos::new(cx, cz)))
                    .collect();
                let mods_of = |world: &World| -> Vec<u64> {
                    overlapped
                        .iter()
                        .map(|&pos| world.chunk(pos).map_or(0, |c| c.modifications()))
                        .collect()
                };
                let before = mods_of(&self.plain);
                let a = self.plain.fill_region(min, max, *block);
                let b = self.sharded.fill_region(min, max, *block);
                prop_assert_eq!(a.is_ok(), b.is_ok());
                if let (Ok(a), Ok(b)) = (a, b) {
                    prop_assert_eq!(a, b, "fill changed count");
                }
                // A chunk is dirtied by exactly the blocks the fill changed
                // in it (a failed fill changes nothing).
                let after = mods_of(&self.plain);
                for (i, &pos) in overlapped.iter().enumerate() {
                    self.note(pos, after[i] - before[i]);
                }
            }
            Op::Ensure { cx, cz } => {
                let pos = ChunkPos::new(*cx, *cz);
                self.plain.ensure_chunk_at(pos);
                self.sharded.ensure_chunk_at(pos);
            }
            Op::Remove { cx, cz } => {
                let pos = ChunkPos::new(*cx, *cz);
                let a = self.plain.remove_chunk(pos);
                let b = self.sharded.remove_chunk(pos);
                prop_assert_eq!(a.is_some(), b.is_some(), "remove at {}", pos);
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a.to_bytes(), b.to_bytes(), "removed bytes at {}", pos);
                    let shard = shard_index(pos, self.epochs.len());
                    self.dirty[shard].remove(&(pos.x, pos.z));
                }
            }
            Op::Drain => {
                let expected = self.expected_drain();
                prop_assert_eq!(
                    self.sharded.drain_dirty(),
                    expected,
                    "mid-sequence dirty deltas"
                );
            }
        }
    }

    /// The full end-state comparison: bytes, loaded sets, counters, dirty
    /// deltas, epochs.
    fn assert_converged(&mut self) {
        prop_assert_eq!(self.plain.loaded_chunks(), self.sharded.loaded_chunks());
        prop_assert_eq!(
            self.plain.total_modifications(),
            self.sharded.total_modifications()
        );
        prop_assert_eq!(self.plain.stateful_blocks(), self.sharded.stateful_blocks());

        // Loaded position sets are identical...
        let mut plain_positions: Vec<ChunkPos> = self.plain.loaded_positions().collect();
        let mut sharded_positions = self.sharded.loaded_positions();
        let key = |p: &ChunkPos| (p.x, p.z);
        plain_positions.sort_unstable_by_key(key);
        sharded_positions.sort_unstable_by_key(key);
        prop_assert_eq!(&plain_positions, &sharded_positions);

        // ...and every loaded chunk is byte-identical.
        for pos in plain_positions {
            let reference = self.plain.chunk(pos).expect("listed as loaded").to_bytes();
            let sharded = self.sharded.read_chunk(pos, |c| c.to_bytes());
            prop_assert_eq!(Some(&reference), sharded.as_ref(), "bytes at {}", pos);
        }

        // Dirty sets and epochs match the model.
        for shard in 0..self.sharded.shard_count() {
            prop_assert_eq!(
                self.sharded.shard_epoch(shard),
                self.epochs[shard],
                "epoch of shard {}",
                shard
            );
        }
        let expected = self.expected_drain();
        prop_assert_eq!(self.sharded.drain_dirty(), expected, "final dirty deltas");
        // Draining is complete: a second drain is empty.
        prop_assert!(self.sharded.drain_dirty().is_empty());
    }
}

proptest! {
    /// The headline differential property: arbitrary operation sequences
    /// leave both worlds observationally identical.
    #[test]
    fn sharded_world_matches_plain_on_arbitrary_sequences(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut pair = Pair::new(3);
        for op in &ops {
            pair.apply(op);
        }
        pair.assert_converged();
    }

    /// A failing batch follows the shard-ordered partial-application
    /// contract: writes land shard by shard in ascending shard order, in
    /// input order within a shard, and stop at the first failing write with
    /// everything applied so far kept. Replaying that order write by write
    /// on the plain world must reproduce the sharded world's bytes,
    /// counters and dirty deltas exactly.
    #[test]
    fn failing_batches_apply_whole_shards_in_shard_order(
        writes in prop::collection::vec(
            ((-80i32..80, 1i32..80, -80i32..80), arb_block()),
            1..60,
        ),
    ) {
        // Load only a partial grid so batches regularly hit unloaded
        // chunks and fail partway through.
        let mut pair = Pair::new(2);
        let batch = to_batch(&writes);
        let mut ordered = batch.clone();
        let shards = pair.sharded.shard_count();
        // Stable: input order survives within a shard.
        ordered.sort_by_key(|(pos, _)| shard_index(ChunkPos::from(*pos), shards));
        let mut expected = Ok(0usize);
        for (pos, block) in ordered {
            match pair.plain.set_block(pos, block) {
                Ok(()) => {
                    pair.note(ChunkPos::from(pos), 1);
                    expected = expected.map(|n| n + 1);
                }
                Err(e) => {
                    expected = Err(e);
                    break;
                }
            }
        }
        prop_assert_eq!(pair.sharded.set_blocks(batch), expected);
        pair.assert_converged();
    }

    /// Round-trip equivalence: converting the sharded world back to a plain
    /// `World` reproduces the plain world byte for byte.
    #[test]
    fn to_world_round_trips_identically(
        writes in prop::collection::vec(
            ((-30i32..30, 1i32..60, -30i32..30), arb_block()),
            1..50,
        ),
    ) {
        let mut pair = Pair::new(3);
        for ((x, y, z), block) in &writes {
            pair.apply(&Op::Set { x: *x, y: *y, z: *z, block: *block });
        }
        let round_trip = pair.sharded.to_world();
        prop_assert_eq!(round_trip.loaded_chunks(), pair.plain.loaded_chunks());
        for pos in pair.plain.loaded_positions() {
            let reference = pair.plain.chunk(pos).unwrap().to_bytes();
            prop_assert_eq!(&round_trip.chunk(pos).unwrap().to_bytes(), &reference);
        }
    }
}

/// A fixed schedule pinned as a plain `#[test]`, so a failure names the
/// divergence directly rather than a proptest seed.
#[test]
fn sharded_world_matches_plain_world_on_a_fixed_schedule() {
    let mut pair = Pair::new(2);
    for i in 0..500i32 {
        pair.apply(&Op::Set {
            x: (i * 7) % 32 - 16,
            y: (i % 60) + 1,
            z: (i * 13) % 32 - 16,
            block: Block::ALL[(i as usize) % Block::ALL.len()],
        });
    }
    pair.assert_converged();
}
