//! Property-based tests for the chunk and world data structures.

use proptest::prelude::*;
use servo_types::consts::{CHUNK_HEIGHT, CHUNK_SIZE};
use servo_types::{BlockPos, ChunkPos};
use servo_world::{Block, Chunk, World};

fn arb_block() -> impl Strategy<Value = Block> {
    prop::sample::select(Block::ALL.to_vec())
}

fn arb_local_coord() -> impl Strategy<Value = (i32, i32, i32)> {
    (0..CHUNK_SIZE, 0..CHUNK_HEIGHT, 0..CHUNK_SIZE)
}

/// `Chunk::to_bytes` as it was before the chunk kept its run count: collect
/// the runs, then write them. Kept verbatim (reading blocks through the
/// public accessor) as the reference the maintained count is checked against.
fn reference_to_bytes(chunk: &Chunk) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&chunk.pos().x.to_le_bytes());
    out.extend_from_slice(&chunk.pos().z.to_le_bytes());
    let mut runs: Vec<(u32, u16)> = Vec::new();
    for x in 0..CHUNK_SIZE {
        for z in 0..CHUNK_SIZE {
            for y in 0..CHUNK_HEIGHT {
                let b = chunk.local(x, y, z).unwrap().id();
                match runs.last_mut() {
                    Some((count, id)) if *id == b => *count += 1,
                    _ => runs.push((1, b)),
                }
            }
        }
    }
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (count, id) in runs {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

/// One way of writing a chunk's blocks.
#[derive(Debug, Clone)]
enum ChunkOp {
    Set((i32, i32, i32), Block),
    FillBox((i32, i32, i32), (i32, i32, i32), Block),
    FillLayer(i32, Block),
    RoundTrip,
}

/// `0..max`, half of the time one of its two ends.
fn arb_edge_biased(max: i32) -> impl Strategy<Value = i32> {
    prop_oneof![1 => Just(0), 1 => Just(max - 1), 2 => 0..max]
}

/// Local coordinates biased towards where runs meet their neighbours in
/// the encoding: `y` 0 and 255 (the next column starts where this one
/// ends) and the chunk's first and last block.
fn arb_edge_coord() -> impl Strategy<Value = (i32, i32, i32)> {
    prop_oneof![
        1 => Just((0, 0, 0)),
        1 => Just((CHUNK_SIZE - 1, CHUNK_HEIGHT - 1, CHUNK_SIZE - 1)),
        6 => (
            arb_edge_biased(CHUNK_SIZE),
            arb_edge_biased(CHUNK_HEIGHT),
            arb_edge_biased(CHUNK_SIZE),
        ),
    ]
}

fn arb_chunk_op() -> impl Strategy<Value = ChunkOp> {
    // Three ids only, so that writes often change nothing or join runs.
    let block = || prop::sample::select(vec![Block::Air, Block::Stone, Block::Dirt]);
    prop_oneof![
        4 => (arb_edge_coord(), block()).prop_map(|(at, b)| ChunkOp::Set(at, b)),
        2 => (arb_edge_coord(), arb_edge_coord(), block()).prop_map(|(a, b, block)| {
            let lo = (a.0.min(b.0), a.1.min(b.1), a.2.min(b.2));
            let hi = (a.0.max(b.0), a.1.max(b.1), a.2.max(b.2));
            ChunkOp::FillBox(lo, hi, block)
        }),
        1 => (arb_edge_biased(CHUNK_HEIGHT), block()).prop_map(|(y, b)| ChunkOp::FillLayer(y, b)),
        1 => Just(ChunkOp::RoundTrip),
    ]
}

proptest! {
    /// The run count every write maintains is the run count of the blocks:
    /// after each step of an arbitrary write sequence the O(1) size is the
    /// encoded length and the encoding is the reference encoder's.
    #[test]
    fn run_count_survives_every_kind_of_write(
        ops in prop::collection::vec(arb_chunk_op(), 1..40),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let mut chunk = Chunk::empty(ChunkPos::new(cx, cz));
        for op in ops {
            match op.clone() {
                ChunkOp::Set((x, y, z), block) => chunk.set_local(x, y, z, block).unwrap(),
                ChunkOp::FillBox(lo, hi, block) => {
                    chunk.fill_box(lo, hi, block).unwrap();
                }
                ChunkOp::FillLayer(y, block) => chunk.fill_layer(y, block).unwrap(),
                ChunkOp::RoundTrip => chunk = Chunk::from_bytes(&chunk.to_bytes()).unwrap(),
            }
            let bytes = chunk.to_bytes();
            prop_assert_eq!(chunk.serialized_size(), bytes.len(), "after {:?}", op);
            prop_assert_eq!(bytes, reference_to_bytes(&chunk), "after {:?}", op);
        }
    }

    /// Any sequence of in-range writes is readable back, and serialization
    /// round-trips the exact chunk contents.
    #[test]
    fn chunk_serialization_round_trips(
        writes in prop::collection::vec((arb_local_coord(), arb_block()), 0..80),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let mut chunk = Chunk::empty(ChunkPos::new(cx, cz));
        for ((x, y, z), block) in &writes {
            chunk.set_local(*x, *y, *z, *block).unwrap();
        }
        let restored = Chunk::from_bytes(&chunk.to_bytes()).unwrap();
        prop_assert_eq!(restored.pos(), chunk.pos());
        for ((x, y, z), _) in &writes {
            prop_assert_eq!(restored.local(*x, *y, *z), chunk.local(*x, *y, *z));
        }
        prop_assert_eq!(restored.non_air_blocks(), chunk.non_air_blocks());
        prop_assert_eq!(restored.to_bytes(), chunk.to_bytes());
    }

    /// The last write to a position wins, and counts are consistent.
    #[test]
    fn last_write_wins(
        coord in arb_local_coord(),
        blocks in prop::collection::vec(arb_block(), 1..12),
    ) {
        let mut chunk = Chunk::empty(ChunkPos::ORIGIN);
        for b in &blocks {
            chunk.set_local(coord.0, coord.1, coord.2, *b).unwrap();
        }
        prop_assert_eq!(chunk.local(coord.0, coord.1, coord.2), Some(*blocks.last().unwrap()));
        let expected = if blocks.last().unwrap().is_air() { 0 } else { 1 };
        prop_assert_eq!(chunk.non_air_blocks(), expected);
    }

    /// World-space block addressing round-trips across arbitrary coordinates
    /// (including negatives) once the containing chunk is loaded.
    #[test]
    fn world_block_round_trip(
        x in -10_000i32..10_000,
        y in 0i32..CHUNK_HEIGHT,
        z in -10_000i32..10_000,
        block in arb_block(),
    ) {
        let mut world = World::new();
        let pos = BlockPos::new(x, y, z);
        world.ensure_chunk_at(ChunkPos::from(pos));
        world.set_block(pos, block).unwrap();
        prop_assert_eq!(world.block(pos), Some(block));
        // The write landed in exactly one chunk.
        prop_assert_eq!(world.loaded_chunks(), 1);
    }

    /// Truncating serialized data never panics: it either fails cleanly or
    /// (for the empty tail) still describes a valid chunk.
    #[test]
    fn truncated_chunk_data_is_rejected_cleanly(cut in 0usize..1000) {
        let mut chunk = Chunk::empty(ChunkPos::new(1, 2));
        chunk.fill_layer(3, Block::Stone).unwrap();
        let bytes = chunk.to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let _ = Chunk::from_bytes(&bytes[..cut]);
    }

    /// Chunk-space conversion is consistent with the chunk's block range.
    #[test]
    fn chunk_pos_contains_its_blocks(x in -100_000i32..100_000, z in -100_000i32..100_000) {
        let pos = BlockPos::new(x, 10, z);
        let chunk = ChunkPos::from(pos);
        let min = chunk.min_block();
        prop_assert!(x >= min.x && x < min.x + CHUNK_SIZE);
        prop_assert!(z >= min.z && z < min.z + CHUNK_SIZE);
    }
}
