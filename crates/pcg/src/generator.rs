//! Terrain generators.

use servo_types::consts::{CHUNK_HEIGHT, CHUNK_SIZE};
use servo_types::ChunkPos;
use servo_world::{Block, Chunk, WorldKind};

use crate::cost::GenerationCost;
use crate::noise::Perlin;

/// A terrain generator: produces the chunk at a given position,
/// deterministically from its configuration (seed).
///
/// Both the monolithic baseline servers and Servo's serverless generation
/// functions use implementations of this trait; Servo simply runs it inside
/// a function invocation instead of on the game server.
pub trait TerrainGenerator: Send + Sync {
    /// Generates the chunk at `pos`.
    fn generate(&self, pos: ChunkPos) -> Chunk;

    /// The compute cost of generating one chunk, used by the platform
    /// simulators to model generation latency.
    fn cost(&self) -> GenerationCost;

    /// A short human-readable name for experiment output.
    fn name(&self) -> &'static str;
}

/// The flat world: bedrock floor, dirt body, grass surface — the world type
/// players use to prototype simulated constructs (Section IV-A).
#[derive(Debug, Clone)]
pub struct FlatGenerator {
    ground_height: i32,
}

impl FlatGenerator {
    /// Creates a flat generator whose grass surface sits at `ground_height`.
    pub fn new(ground_height: i32) -> Self {
        FlatGenerator {
            ground_height: ground_height.clamp(1, CHUNK_HEIGHT - 1),
        }
    }

    /// The height of the grass surface.
    pub fn ground_height(&self) -> i32 {
        self.ground_height
    }
}

impl Default for FlatGenerator {
    fn default() -> Self {
        FlatGenerator::new(4)
    }
}

impl TerrainGenerator for FlatGenerator {
    fn generate(&self, pos: ChunkPos) -> Chunk {
        Chunk::flat(pos, self.ground_height)
    }

    fn cost(&self) -> GenerationCost {
        GenerationCost::FLAT
    }

    fn name(&self) -> &'static str {
        "flat"
    }
}

/// The default world: procedurally generated terrain with mountains,
/// water, beaches, and snow-capped peaks, built from fractal Perlin noise.
#[derive(Debug, Clone)]
pub struct DefaultGenerator {
    seed: u64,
    height_noise: Perlin,
    detail_noise: Perlin,
    sea_level: i32,
}

impl DefaultGenerator {
    /// Default sea level of the generated world.
    pub const DEFAULT_SEA_LEVEL: i32 = 62;

    /// Creates a default-world generator from a seed.
    pub fn new(seed: u64) -> Self {
        DefaultGenerator {
            seed,
            height_noise: Perlin::new(seed),
            detail_noise: Perlin::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)),
            sea_level: Self::DEFAULT_SEA_LEVEL,
        }
    }

    /// The seed for the pseudo-random number generator — the parameter Servo
    /// passes to the remote generation function (Section III-D).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The terrain height of the column at world coordinates `(x, z)`.
    ///
    /// This is the per-column reference: [`TerrainGenerator::generate`]
    /// works out a whole chunk's heights at once, on the grid of its
    /// columns, and gets the same heights bit for bit.
    pub fn surface_height(&self, x: i32, z: i32) -> i32 {
        let wx = x as f64;
        let wz = z as f64;
        self.height(
            self.height_noise
                .fbm(wx, wz, BROAD_OCTAVES, BROAD_FREQUENCY),
            self.detail_noise
                .fbm(wx, wz, DETAIL_OCTAVES, DETAIL_FREQUENCY),
        )
    }

    /// The layers of the chunk at `pos`, column by column in the chunk's
    /// linear order (`x * 16 + z`), each bottom to top: what
    /// [`TerrainGenerator::generate`] builds the chunk from with
    /// [`Chunk::from_columns`]. Both noises are evaluated over the chunk's
    /// 16 x 16 columns at once.
    pub fn columns(&self, pos: ChunkPos) -> [[(u32, Block); 6]; SIDE * SIDE] {
        let base = pos.min_block();
        let xs: [f64; SIDE] = std::array::from_fn(|i| (base.x + i as i32) as f64);
        let zs: [f64; SIDE] = std::array::from_fn(|i| (base.z + i as i32) as f64);
        let broad = self
            .height_noise
            .fbm_grid(&xs, &zs, BROAD_OCTAVES, BROAD_FREQUENCY);
        let detail = self
            .detail_noise
            .fbm_grid(&xs, &zs, DETAIL_OCTAVES, DETAIL_FREQUENCY);
        std::array::from_fn(|c| {
            let (i, j) = (c / SIDE, c % SIDE);
            self.column_layers(self.height(broad[i][j], detail[i][j]))
        })
    }

    /// The surface height of a column from its two noise values: broad
    /// mountains plus fine detail around sea level.
    fn height(&self, broad: f64, detail: f64) -> i32 {
        let height = self.sea_level as f64 + broad * 48.0 + detail * 8.0;
        (height.round() as i32).clamp(1, CHUNK_HEIGHT - 2)
    }

    /// The layers of a column whose surface is at `surface`, from the
    /// bottom: bedrock, stone, three blocks of dirt, the surface block,
    /// water up to sea level, air. Shallow columns have empty layers.
    fn column_layers(&self, surface: i32) -> [(u32, Block); 6] {
        let top = if surface <= self.sea_level + 1 {
            Block::Sand
        } else if surface > self.sea_level + 38 {
            Block::Snow
        } else {
            Block::Grass
        };
        let stone = (surface - 4).max(0);
        let dirt = (surface - 1).min(3);
        let water = (self.sea_level - surface).max(0);
        let air = CHUNK_HEIGHT - 1 - surface - water;
        [
            (1, Block::Bedrock),
            (stone as u32, Block::Stone),
            (dirt as u32, Block::Dirt),
            (1, top),
            (water as u32, Block::Water),
            (air as u32, Block::Air),
        ]
    }
}

/// Octaves and base frequency of the broad (mountain) noise.
const BROAD_OCTAVES: u32 = 5;
const BROAD_FREQUENCY: f64 = 0.004;
/// Octaves and base frequency of the fine detail noise.
const DETAIL_OCTAVES: u32 = 3;
const DETAIL_FREQUENCY: f64 = 0.02;

/// Columns along one side of a chunk.
const SIDE: usize = CHUNK_SIZE as usize;

impl TerrainGenerator for DefaultGenerator {
    fn generate(&self, pos: ChunkPos) -> Chunk {
        Chunk::from_columns(pos, &self.columns(pos)).expect("every column's layers fill it")
    }

    fn cost(&self) -> GenerationCost {
        GenerationCost::DEFAULT_WORLD
    }

    fn name(&self) -> &'static str {
        "default"
    }
}

/// The generator that produces terrain for a world of `kind`: every server
/// architecture hosting the same world kind and `seed` generates the same
/// chunks, whether it runs the generator locally or inside a function.
pub fn generator_for(kind: WorldKind, seed: u64) -> Box<dyn TerrainGenerator> {
    match kind {
        WorldKind::Flat => Box::new(FlatGenerator::default()),
        WorldKind::Default => Box::new(DefaultGenerator::new(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_generator_builds_expected_layers() {
        let g = FlatGenerator::new(4);
        let chunk = g.generate(ChunkPos::new(0, 0));
        assert_eq!(chunk.local(0, 0, 0), Some(Block::Bedrock));
        assert_eq!(chunk.local(7, 2, 7), Some(Block::Dirt));
        assert_eq!(chunk.local(7, 4, 7), Some(Block::Grass));
        assert_eq!(chunk.local(7, 5, 7), Some(Block::Air));
        assert_eq!(chunk.height_at(3, 3), Some(4));
    }

    #[test]
    fn flat_generator_clamps_extreme_heights() {
        assert_eq!(FlatGenerator::new(0).ground_height(), 1);
        assert_eq!(FlatGenerator::new(9999).ground_height(), CHUNK_HEIGHT - 1);
    }

    #[test]
    fn default_generator_is_deterministic() {
        let a = DefaultGenerator::new(12345);
        let b = DefaultGenerator::new(12345);
        let pos = ChunkPos::new(5, -7);
        assert_eq!(a.generate(pos).to_bytes(), b.generate(pos).to_bytes());
    }

    #[test]
    fn different_seeds_give_different_terrain() {
        let a = DefaultGenerator::new(1);
        let b = DefaultGenerator::new(2);
        let pos = ChunkPos::new(0, 0);
        assert_ne!(a.generate(pos).to_bytes(), b.generate(pos).to_bytes());
    }

    /// The default world written block by block: one `surface_height` per
    /// column, one `set_local` per block. Kept as the reference.
    fn generate_per_block(g: &DefaultGenerator, pos: ChunkPos) -> Chunk {
        let mut chunk = Chunk::empty(pos);
        let base = pos.min_block();
        chunk
            .fill_layer(0, Block::Bedrock)
            .expect("layer 0 in range");
        for lx in 0..CHUNK_SIZE {
            for lz in 0..CHUNK_SIZE {
                let wx = base.x + lx;
                let wz = base.z + lz;
                let surface = g.surface_height(wx, wz);
                for y in 1..=surface {
                    let block = if y == surface {
                        if surface <= g.sea_level + 1 {
                            Block::Sand
                        } else if surface > g.sea_level + 38 {
                            Block::Snow
                        } else {
                            Block::Grass
                        }
                    } else if y > surface - 4 {
                        Block::Dirt
                    } else {
                        Block::Stone
                    };
                    chunk.set_local(lx, y, lz, block).expect("in range");
                }
                // Fill water up to sea level.
                for y in (surface + 1)..=g.sea_level {
                    chunk.set_local(lx, y, lz, Block::Water).expect("in range");
                }
            }
        }
        chunk
    }

    #[test]
    fn column_segments_match_the_per_block_generator() {
        // The noise moves the surface some 17 blocks around sea level, so
        // other sea levels than the default are what reaches the remaining
        // column shapes: no room for stone or dirt, the clamps at both ends
        // of the chunk, and (far below the chunk) a surface above the snow
        // line.
        let (mut shallow, mut snow, mut underwater, mut clamped) = (false, false, false, false);
        for (seed, sea_level) in [(7, 62), (3, 62), (11, 2), (5, 30), (9, 250), (13, -40)] {
            let g = DefaultGenerator {
                sea_level,
                ..DefaultGenerator::new(seed)
            };
            // A grid around the origin, then chunks some 1 048 576 blocks
            // out on either side of both axes, where the coordinates have
            // wrapped the noise's permutation table thousands of times.
            let near = (-2..2).flat_map(|cx| (-2..2).map(move |cz| (cx * 9, cz * 9)));
            let far = [
                (65_536, -65_536),
                (-65_537, 65_535),
                (-1, 65_536),
                (65_535, 0),
            ];
            for (cx, cz) in near.chain(far) {
                let pos = ChunkPos::new(cx, cz);
                let chunk = g.generate(pos);
                let reference = generate_per_block(&g, pos);
                assert_eq!(chunk.to_bytes(), reference.to_bytes(), "{pos:?}");
                assert_eq!(chunk.modifications(), reference.modifications());
                assert_eq!(chunk, reference);
                let base = pos.min_block();
                for lx in 0..CHUNK_SIZE {
                    for lz in 0..CHUNK_SIZE {
                        let surface = g.surface_height(base.x + lx, base.z + lz);
                        shallow |= surface < 4;
                        snow |= surface > sea_level + 38;
                        underwater |= surface < sea_level;
                        clamped |= surface == CHUNK_HEIGHT - 2;
                    }
                }
            }
        }
        assert!(shallow && snow && underwater && clamped);
    }

    /// Number of sections (16-high slabs) whose blocks are not all equal,
    /// read through the block accessor.
    fn mixed_sections(chunk: &Chunk) -> usize {
        (0..CHUNK_HEIGHT / 16)
            .filter(|s| {
                let first = chunk.local(0, 16 * s, 0);
                (0..CHUNK_SIZE).any(|x| {
                    (0..CHUNK_SIZE)
                        .any(|z| (16 * s..16 * s + 16).any(|y| chunk.local(x, y, z) != first))
                })
            })
            .count()
    }

    #[test]
    fn generation_allocates_only_the_mixed_sections() {
        // The sea levels of `column_segments_match_the_per_block_generator`
        // put whole sections under water, inside stone and in the air.
        for (seed, sea_level) in [(7, 62), (11, 2), (5, 30), (9, 250), (13, -40)] {
            let g = DefaultGenerator {
                sea_level,
                ..DefaultGenerator::new(seed)
            };
            for pos in [ChunkPos::new(0, 0), ChunkPos::new(-9, 18)] {
                let chunk = g.generate(pos);
                assert_eq!(chunk.heap_bytes(), 8192 * mixed_sections(&chunk), "{pos:?}");
            }
        }
        let flat = FlatGenerator::default().generate(ChunkPos::new(2, 2));
        assert_eq!(flat.heap_bytes(), 8192);
        assert_eq!(mixed_sections(&flat), 1);
    }

    #[test]
    fn default_world_chunks_stay_within_the_memory_budget() {
        // A fixed 50 x 40 grid of chunks at seed 7. Every chunk has 2 or 3
        // mixed sections (section 0 always, for the bedrock): the measured
        // mean is 2.40 sections, 19 628 bytes, against 131 072 for a dense
        // chunk. The budget is 3 sections, 24 KiB.
        let g = DefaultGenerator::new(7);
        let mut total = 0;
        for cx in -25..25 {
            for cz in -20..20 {
                let chunk = g.generate(ChunkPos::new(cx, cz));
                let heap = chunk.heap_bytes();
                assert!((2 * 8192..=3 * 8192).contains(&heap), "{cx}, {cz}: {heap}");
                if (cx + cz) % 16 == 0 {
                    let restored = Chunk::from_bytes(&chunk.to_bytes()).unwrap();
                    assert_eq!(restored.heap_bytes(), heap);
                    assert_eq!(restored.to_bytes(), chunk.to_bytes());
                }
                total += heap;
            }
        }
        let mean = total / 2000;
        assert!(mean <= 24 * 1024, "mean {mean} bytes per chunk");
    }

    #[test]
    fn default_terrain_has_varied_height_and_features() {
        let g = DefaultGenerator::new(7);
        let mut heights = Vec::new();
        for cx in -3..3 {
            for cz in -3..3 {
                let chunk = g.generate(ChunkPos::new(cx, cz));
                assert!(chunk.non_air_blocks() > 0);
                for lx in [0, 8, 15] {
                    for lz in [0, 8, 15] {
                        heights.push(chunk.height_at(lx, lz).unwrap());
                    }
                }
            }
        }
        let min = *heights.iter().min().unwrap();
        let max = *heights.iter().max().unwrap();
        assert!(max > min, "terrain is unexpectedly flat");
        assert!(min >= 1 && max < CHUNK_HEIGHT);
    }

    #[test]
    fn surface_blocks_match_biome_rules() {
        let g = DefaultGenerator::new(3);
        let mut seen_water_or_sand = false;
        let mut seen_grass = false;
        for cx in -6..6 {
            for cz in -6..6 {
                let chunk = g.generate(ChunkPos::new(cx, cz));
                for lx in 0..CHUNK_SIZE {
                    for lz in 0..CHUNK_SIZE {
                        let h = chunk.height_at(lx, lz).unwrap();
                        match chunk.local(lx, h, lz).unwrap() {
                            Block::Water | Block::Sand => seen_water_or_sand = true,
                            Block::Grass => seen_grass = true,
                            _ => {}
                        }
                    }
                }
            }
        }
        assert!(seen_grass, "no grass found in 144 chunks");
        assert!(seen_water_or_sand, "no water/beach found in 144 chunks");
    }

    #[test]
    fn generation_cost_distinguishes_world_types() {
        assert!(
            DefaultGenerator::new(1).cost().work_units > FlatGenerator::default().cost().work_units
        );
        assert_eq!(DefaultGenerator::new(1).name(), "default");
        assert_eq!(FlatGenerator::default().name(), "flat");
    }
}
