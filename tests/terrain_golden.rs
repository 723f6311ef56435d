//! Golden bytes of generated terrain: a fixed set of default-world chunks,
//! serialized and hashed, against a digest recorded when generation still
//! wrote each chunk column by column with `fill_box`. Any change to a byte
//! of a generated chunk, to its modification count or to the number of
//! sections it allocates moves the digest.

use servo::pcg::{DefaultGenerator, FlatGenerator, TerrainGenerator};
use servo::types::ChunkPos;

/// 64-bit FNV-1a, folded over `bytes` starting from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Chunk positions around the origin, on both sides of both axes, and far
/// out: 65 536 chunks is 1 048 576 blocks, 4 096 times round the noise's
/// 256-cell permutation table at the broad octave's frequency.
const POSITIONS: [(i32, i32); 12] = [
    (0, 0),
    (-1, -1),
    (1, -1),
    (-1, 1),
    (3, 5),
    (-17, 40),
    (255, -256),
    (65_536, 0),
    (0, -65_536),
    (-65_536, 65_536),
    (65_535, -65_537),
    (-65_537, -65_535),
];

fn digest(generator: &dyn TerrainGenerator) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (x, z) in POSITIONS {
        let chunk = generator.generate(ChunkPos::new(x, z));
        hash = fnv1a(hash, &chunk.to_bytes());
        hash = fnv1a(hash, &chunk.modifications().to_le_bytes());
        hash = fnv1a(hash, &(chunk.heap_bytes() as u64).to_le_bytes());
    }
    hash
}

#[test]
fn default_world_chunks_match_their_golden_digest() {
    for (seed, golden) in [(7, "6143b989af5d6a2f"), (1234, "d129c1b02a367584")] {
        let hash = format!("{:016x}", digest(&DefaultGenerator::new(seed)));
        assert_eq!(hash, golden, "seed {seed}");
    }
}

#[test]
fn flat_world_chunks_match_their_golden_digest() {
    assert_eq!(
        format!("{:016x}", digest(&FlatGenerator::default())),
        "4df18729fb0b7cfe"
    );
}
