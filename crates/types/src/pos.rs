//! World-space and chunk-space positions.

use std::fmt;
use std::ops::{Add, Sub};

use crate::consts::{CHUNK_BITS, CHUNK_SIZE};

/// A block position in world space (one unit per block).
///
/// `y` is the vertical axis, matching the Minecraft-style world layout the
/// paper's prototype uses.
///
/// # Example
///
/// ```
/// use servo_types::{BlockPos, ChunkPos};
/// let p = BlockPos::new(-1, 64, 17);
/// assert_eq!(ChunkPos::from(p), ChunkPos::new(-1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockPos {
    /// East-west coordinate.
    pub x: i32,
    /// Vertical coordinate.
    pub y: i32,
    /// North-south coordinate.
    pub z: i32,
}

impl BlockPos {
    /// Creates a block position from its three coordinates.
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        BlockPos { x, y, z }
    }

    /// The world origin.
    pub const ORIGIN: BlockPos = BlockPos::new(0, 0, 0);

    /// Euclidean distance to `other`, ignoring the vertical axis.
    ///
    /// View-distance and terrain-loading decisions in the paper are made in
    /// the horizontal plane.
    pub fn horizontal_distance(self, other: BlockPos) -> f64 {
        let dx = (self.x - other.x) as f64;
        let dz = (self.z - other.z) as f64;
        (dx * dx + dz * dz).sqrt()
    }

    /// Manhattan distance to `other` over all three axes.
    pub fn manhattan_distance(self, other: BlockPos) -> u64 {
        (self.x - other.x).unsigned_abs() as u64
            + (self.y - other.y).unsigned_abs() as u64
            + (self.z - other.z).unsigned_abs() as u64
    }

    /// The neighbouring position one block in the given direction.
    pub fn offset(self, dir: Direction) -> BlockPos {
        let (dx, dy, dz) = dir.delta();
        BlockPos::new(self.x + dx, self.y + dy, self.z + dz)
    }
}

impl fmt::Display for BlockPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl Add for BlockPos {
    type Output = BlockPos;
    fn add(self, rhs: BlockPos) -> BlockPos {
        BlockPos::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for BlockPos {
    type Output = BlockPos;
    fn sub(self, rhs: BlockPos) -> BlockPos {
        BlockPos::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

/// A chunk position in chunk space (one unit per 16x16-block column).
///
/// # Example
///
/// ```
/// use servo_types::ChunkPos;
/// let c = ChunkPos::new(0, 0);
/// assert_eq!(c.chebyshev_distance(ChunkPos::new(3, -2)), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChunkPos {
    /// East-west chunk coordinate.
    pub x: i32,
    /// North-south chunk coordinate.
    pub z: i32,
}

impl ChunkPos {
    /// Creates a chunk position from its two coordinates.
    pub const fn new(x: i32, z: i32) -> Self {
        ChunkPos { x, z }
    }

    /// The chunk containing the world origin.
    pub const ORIGIN: ChunkPos = ChunkPos::new(0, 0);

    /// The block position of this chunk's minimum corner (at `y = 0`).
    pub const fn min_block(self) -> BlockPos {
        BlockPos::new(self.x * CHUNK_SIZE, 0, self.z * CHUNK_SIZE)
    }

    /// Chebyshev (chessboard) distance in chunks, the metric used for square
    /// view-distance regions around an avatar.
    pub fn chebyshev_distance(self, other: ChunkPos) -> u32 {
        let dx = (self.x - other.x).unsigned_abs();
        let dz = (self.z - other.z).unsigned_abs();
        dx.max(dz)
    }

    /// Euclidean distance in chunks.
    pub fn euclidean_distance(self, other: ChunkPos) -> f64 {
        let dx = (self.x - other.x) as f64;
        let dz = (self.z - other.z) as f64;
        (dx * dx + dz * dz).sqrt()
    }

    /// Iterator over all chunk positions within `radius` (Chebyshev) of this
    /// chunk, including the chunk itself — a `(2r+1)²`-chunk square.
    pub fn square_around(self, radius: u32) -> impl Iterator<Item = ChunkPos> {
        let r = radius as i32;
        let center = self;
        (-r..=r)
            .flat_map(move |dx| (-r..=r).map(move |dz| ChunkPos::new(center.x + dx, center.z + dz)))
    }
}

impl fmt::Display for ChunkPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.x, self.z)
    }
}

impl From<BlockPos> for ChunkPos {
    fn from(p: BlockPos) -> ChunkPos {
        // Arithmetic shift right is floor division for a power-of-two
        // divisor, including negative coordinates.
        ChunkPos::new(p.x >> CHUNK_BITS, p.z >> CHUNK_BITS)
    }
}

/// One of the six axis-aligned directions in the voxel grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards positive Y.
    Up,
    /// Towards negative Y.
    Down,
    /// Towards negative Z.
    North,
    /// Towards positive Z.
    South,
    /// Towards positive X.
    East,
    /// Towards negative X.
    West,
}

impl Direction {
    /// All six directions, in a fixed order.
    pub const ALL: [Direction; 6] = [
        Direction::Up,
        Direction::Down,
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The four horizontal directions.
    pub const HORIZONTAL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The unit offset of this direction as `(dx, dy, dz)`.
    pub const fn delta(self) -> (i32, i32, i32) {
        match self {
            Direction::Up => (0, 1, 0),
            Direction::Down => (0, -1, 0),
            Direction::North => (0, 0, -1),
            Direction::South => (0, 0, 1),
            Direction::East => (1, 0, 0),
            Direction::West => (-1, 0, 0),
        }
    }

    /// The direction pointing the opposite way.
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_from_block_handles_negative_coordinates() {
        assert_eq!(ChunkPos::from(BlockPos::new(0, 0, 0)), ChunkPos::new(0, 0));
        assert_eq!(
            ChunkPos::from(BlockPos::new(15, 0, 15)),
            ChunkPos::new(0, 0)
        );
        assert_eq!(ChunkPos::from(BlockPos::new(16, 0, 0)), ChunkPos::new(1, 0));
        assert_eq!(
            ChunkPos::from(BlockPos::new(-1, 0, -16)),
            ChunkPos::new(-1, -1)
        );
        assert_eq!(
            ChunkPos::from(BlockPos::new(-17, 0, -1)),
            ChunkPos::new(-2, -1)
        );
    }

    #[test]
    fn square_around_has_expected_size() {
        let chunks: Vec<_> = ChunkPos::new(3, -2).square_around(2).collect();
        assert_eq!(chunks.len(), 25);
        assert!(chunks.contains(&ChunkPos::new(3, -2)));
        assert!(chunks.contains(&ChunkPos::new(5, 0)));
        assert!(!chunks.contains(&ChunkPos::new(6, 0)));
    }

    #[test]
    fn distances() {
        let a = BlockPos::new(0, 0, 0);
        let b = BlockPos::new(3, 5, 4);
        assert!((a.horizontal_distance(b) - 5.0).abs() < 1e-9);
        assert_eq!(a.manhattan_distance(b), 12);
        assert_eq!(
            ChunkPos::new(0, 0).chebyshev_distance(ChunkPos::new(-3, 2)),
            3
        );
    }

    #[test]
    fn direction_opposites_are_involutions() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            let (dx, dy, dz) = d.delta();
            let (ox, oy, oz) = d.opposite().delta();
            assert_eq!((dx + ox, dy + oy, dz + oz), (0, 0, 0));
        }
    }

    #[test]
    fn block_pos_offset_and_arithmetic() {
        let p = BlockPos::new(1, 2, 3);
        assert_eq!(p.offset(Direction::Up), BlockPos::new(1, 3, 3));
        assert_eq!(p + BlockPos::new(1, 1, 1), BlockPos::new(2, 3, 4));
        assert_eq!(p - p, BlockPos::ORIGIN);
    }

    #[test]
    fn chunk_min_block() {
        assert_eq!(ChunkPos::new(2, -1).min_block(), BlockPos::new(32, 0, -16));
    }
}
