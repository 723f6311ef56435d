//! The chunk container: a 16 x 16 x 256 column of blocks, stored as sixteen
//! 16-high sections.

use std::sync::Arc;

use servo_types::consts::{CHUNK_HEIGHT, CHUNK_SIZE};
use servo_types::{ChunkPos, ServoError};

use crate::block::Block;

/// Number of blocks in a chunk.
pub const BLOCKS_PER_CHUNK: usize =
    (CHUNK_SIZE as usize) * (CHUNK_SIZE as usize) * (CHUNK_HEIGHT as usize);

/// `log2(CHUNK_HEIGHT)`: the `y` coordinate occupies the low bits of a
/// block's linear index.
const HEIGHT_BITS: u32 = CHUNK_HEIGHT.trailing_zeros();

/// `log2(CHUNK_SIZE)`: the `z` coordinate occupies the next bits.
const SIZE_BITS: u32 = CHUNK_SIZE.trailing_zeros();

/// Height of one section in blocks.
const SECTION_HEIGHT: usize = 16;

/// `log2(SECTION_HEIGHT)`: the low bits of `y` (and of a block's linear
/// index) are its offset inside a column of its section.
const SECTION_BITS: u32 = SECTION_HEIGHT.trailing_zeros();

/// Number of sections in a chunk.
const SECTIONS: usize = CHUNK_HEIGHT as usize / SECTION_HEIGHT;

/// Number of blocks in a section.
const SECTION_BLOCKS: usize = BLOCKS_PER_CHUNK / SECTIONS;

/// Number of columns in a chunk.
const COLUMNS: usize = BLOCKS_PER_CHUNK / CHUNK_HEIGHT as usize;

/// Number of blocks in one row of a section: the 16 columns of one `x`,
/// which are consecutive in its array.
const ROW_BLOCKS: usize = CHUNK_SIZE as usize * SECTION_HEIGHT;

/// The blocks of one 16-high horizontal slab of a chunk.
#[derive(Debug)]
enum Section {
    /// Every block of the section has this id. Owns no heap memory.
    Uniform(u16),
    /// Block ids in x-major, then z, then y order, like a chunk's linear
    /// index: `(x * CHUNK_SIZE + z) * SECTION_HEIGHT + y % SECTION_HEIGHT`.
    Dense(Box<[u16; SECTION_BLOCKS]>),
}

impl Clone for Section {
    fn clone(&self) -> Self {
        match self {
            Section::Uniform(id) => Section::Uniform(*id),
            Section::Dense(blocks) => Section::Dense(blocks.clone()),
        }
    }

    /// Copies a dense array into the array `self` already owns, instead of
    /// freeing it and allocating another.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Section::Dense(into), Section::Dense(from)) => **into = **from,
            (this, _) => *this = source.clone(),
        }
    }
}

impl Section {
    #[inline]
    fn get(&self, offset: usize) -> u16 {
        match self {
            Section::Uniform(id) => *id,
            Section::Dense(blocks) => blocks[offset],
        }
    }

    /// The section's array, allocated first (holding the uniform id
    /// everywhere) if the section is uniform: the caller is about to make
    /// it mixed.
    fn dense_mut(&mut self) -> &mut [u16; SECTION_BLOCKS] {
        if let Section::Uniform(id) = *self {
            *self = Section::Dense(Box::new([id; SECTION_BLOCKS]));
        }
        match self {
            Section::Dense(blocks) => blocks,
            Section::Uniform(_) => unreachable!("promoted above"),
        }
    }

    /// Number of blocks whose id satisfies `pred`.
    fn count(&self, pred: impl Fn(u16) -> bool) -> usize {
        match self {
            Section::Uniform(id) => {
                if pred(*id) {
                    SECTION_BLOCKS
                } else {
                    0
                }
            }
            Section::Dense(blocks) => blocks.iter().filter(|&&id| pred(id)).count(),
        }
    }

    /// The ids of the row starting at `offset`. `fill` is a row of the
    /// section's first id: what a uniform section holds anywhere.
    #[inline]
    fn row<'a>(&'a self, fill: &'a [u16; ROW_BLOCKS], offset: usize) -> &'a [u16; ROW_BLOCKS] {
        match self {
            Section::Uniform(_) => fill,
            Section::Dense(blocks) => blocks[offset..offset + ROW_BLOCKS]
                .try_into()
                .expect("a row of the section"),
        }
    }

    /// Whether the two sections hold the same blocks, whatever their
    /// representation.
    fn same_blocks(&self, other: &Section) -> bool {
        match (self, other) {
            (Section::Uniform(a), Section::Uniform(b)) => a == b,
            (Section::Dense(a), Section::Dense(b)) => a == b,
            (Section::Uniform(id), Section::Dense(blocks))
            | (Section::Dense(blocks), Section::Uniform(id)) => {
                blocks.iter().all(|block| block == id)
            }
        }
    }
}

/// What every column of a chunk holds over a stretch of its height, as
/// [`Chunk::to_bytes`] walks it.
#[derive(Clone, Copy)]
enum Piece<'a> {
    /// One id over a whole number of sections: a stack of uniform sections.
    Span(u16, u32),
    /// A dense section: each column's 16 ids are a slice of its array.
    Slices(&'a [u16; SECTION_BLOCKS]),
}

/// A 16 x 16 x 256 column of blocks, the unit of terrain generation, loading
/// and storage in the paper (Section IV-D: "an area of 16x16x256 blocks").
///
/// Blocks are addressed with chunk-local coordinates: `x` and `z` in
/// `0..16`, `y` in `0..256`.
///
/// # Memory
///
/// The chunk is sixteen sections of 16 x 16 x 16 blocks (`y` in
/// `16s..16s + 16`). A section whose blocks are all equal stores one id and
/// owns no heap memory; a mixed section owns one 8 KiB array of 2-byte ids.
/// A section is promoted by the first write that makes it mixed and is
/// never demoted by a write. Uniform sections come from [`Chunk::empty`],
/// from [`Chunk::from_columns`] (which the generators and [`Chunk::flat`]
/// build through) and the run decoder behind [`Chunk::from_bytes`] (both
/// allocate only the sections they leave mixed), and from a
/// [`Chunk::fill_box`] covering a whole section.
/// [`Chunk::heap_bytes`] reports the heap part:
///
/// | chunk | heap bytes |
/// |---|---|
/// | empty, or one block everywhere | 0 |
/// | flat world (all of it in section 0) | 8 192 |
/// | generated default world (2 or 3 mixed sections; mean 2.40 at seed 7) | 19 628 (mean) |
/// | every section mixed | 131 072 |
///
/// The chunk itself is 280 bytes: the sixteen section slots, position,
/// modification count and run count.
///
/// Equality compares position, modification count and blocks, never the
/// representation: a section filled whole equals the same section written
/// block by block. [`Clone::clone_from`] copies into the dense arrays the
/// target already owns, so refreshing a replica allocates nothing when
/// both sides are mixed in the same sections.
///
/// # Example
///
/// ```
/// use servo_world::{Block, Chunk};
/// use servo_types::ChunkPos;
///
/// let mut chunk = Chunk::empty(ChunkPos::new(0, 0));
/// assert_eq!(chunk.heap_bytes(), 0);
/// chunk.set_local(3, 64, 5, Block::Stone).unwrap();
/// assert_eq!(chunk.local(3, 64, 5), Some(Block::Stone));
/// assert_eq!(chunk.non_air_blocks(), 1);
/// assert_eq!(chunk.heap_bytes(), 8192);
/// ```
#[derive(Debug)]
pub struct Chunk {
    pos: ChunkPos,
    /// The chunk's blocks, section `s` holding `y` in `16s..16s + 16`.
    sections: [Section; SECTIONS],
    /// Number of modifications since the chunk was created or loaded.
    modifications: u64,
    /// Number of maximal equal-id runs of the blocks taken in linear (x, z,
    /// y) order, so a run may continue from `y = 255` of one column into
    /// `y = 0` of the next and across section edges. Every writer keeps it
    /// exact; it is what makes [`Chunk::serialized_size`] O(1).
    runs: u32,
}

impl Clone for Chunk {
    fn clone(&self) -> Self {
        Chunk {
            pos: self.pos,
            sections: self.sections.clone(),
            modifications: self.modifications,
            runs: self.runs,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.pos = source.pos;
        for (into, from) in self.sections.iter_mut().zip(&source.sections) {
            into.clone_from(from);
        }
        self.modifications = source.modifications;
        self.runs = source.runs;
    }
}

/// One block [`Chunk::diff`] found changed: its linear index in the chunk,
/// `(x * 16 + z) * 256 + y` (a chunk has exactly 65 536 blocks, so the
/// index fits 16 bits), and the block it holds now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEdit {
    /// The block's linear index.
    pub index: u16,
    /// The block's new kind.
    pub block: Block,
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Chunk) -> bool {
        self.pos == other.pos
            && self.modifications == other.modifications
            && self
                .sections
                .iter()
                .zip(&other.sections)
                .all(|(a, b)| a.same_blocks(b))
    }
}

impl Eq for Chunk {}

impl Chunk {
    /// Creates an all-air chunk at the given position. Allocates nothing.
    pub fn empty(pos: ChunkPos) -> Self {
        Chunk {
            pos,
            sections: std::array::from_fn(|_| Section::Uniform(Block::Air.id())),
            modifications: 0,
            runs: 1,
        }
    }

    /// The chunk's position in chunk space.
    pub fn pos(&self) -> ChunkPos {
        self.pos
    }

    /// Number of modifications applied since creation or deserialization.
    pub fn modifications(&self) -> u64 {
        self.modifications
    }

    /// Bytes the chunk owns on the heap: 8 192 per dense section, that is
    /// per mixed section plus any a write promoted and later made uniform
    /// again (see the budget under [`Chunk`]'s "Memory").
    pub fn heap_bytes(&self) -> usize {
        self.sections
            .iter()
            .filter(|section| matches!(section, Section::Dense(_)))
            .count()
            * std::mem::size_of::<[u16; SECTION_BLOCKS]>()
    }

    #[inline]
    fn index(x: i32, y: i32, z: i32) -> Option<usize> {
        // One unsigned comparison per axis replaces both range checks
        // (negative values wrap above the upper bound), and the power-of-two
        // dimensions make the linear index a shift/or instead of two
        // multiplications: (x * CHUNK_SIZE + z) * CHUNK_HEIGHT + y.
        if (x as u32) < CHUNK_SIZE as u32
            && (y as u32) < CHUNK_HEIGHT as u32
            && (z as u32) < CHUNK_SIZE as u32
        {
            Some(
                ((x as usize) << (SIZE_BITS + HEIGHT_BITS))
                    | ((z as usize) << HEIGHT_BITS)
                    | y as usize,
            )
        } else {
            None
        }
    }

    /// The section of a linear index and the offset inside it: the column
    /// `x * CHUNK_SIZE + z` and `y` modulo the section height.
    #[inline]
    fn locate(index: usize) -> (usize, usize) {
        let y = index & (CHUNK_HEIGHT as usize - 1);
        let column = index >> HEIGHT_BITS;
        (
            y >> SECTION_BITS,
            (column << SECTION_BITS) | (y & (SECTION_HEIGHT - 1)),
        )
    }

    /// The block id at a linear index.
    #[inline]
    fn id_at(&self, index: usize) -> u16 {
        let (section, offset) = Self::locate(index);
        self.sections[section].get(offset)
    }

    /// Number of run boundaries (adjacent blocks that differ) inside
    /// `lo..=hi` and on its two outer edges. A write to `lo..=hi` can change
    /// no other boundary: [`Chunk::fill_box`] takes this count off `runs`
    /// before it writes and adds back the two edges of the single run the
    /// range is afterwards.
    ///
    /// Walks the range in pieces of one column inside one section: a
    /// uniform piece adds at most the boundary at its start.
    fn boundaries(&self, lo: usize, hi: usize) -> u32 {
        let (lo, hi) = (lo.saturating_sub(1), (hi + 1).min(BLOCKS_PER_CHUNK - 1));
        let mut prev = self.id_at(lo);
        let mut count = 0;
        let mut at = lo + 1;
        while at <= hi {
            let end = (at | (SECTION_HEIGHT - 1)).min(hi);
            let (section, offset) = Self::locate(at);
            match &self.sections[section] {
                Section::Uniform(id) => {
                    count += u32::from(prev != *id);
                    prev = *id;
                }
                Section::Dense(blocks) => {
                    for &id in &blocks[offset..=offset + (end - at)] {
                        count += u32::from(prev != id);
                        prev = id;
                    }
                }
            }
            at = end + 1;
        }
        count
    }

    /// Calls `f(lo, hi)` for each maximal range `lo..=hi` of consecutive
    /// linear indices inside the box (whole columns next to each other
    /// join), so that no run boundary lies in or next to two of them.
    fn for_each_range(
        (x0, y0, z0): (i32, i32, i32),
        (x1, y1, z1): (i32, i32, i32),
        mut f: impl FnMut(usize, usize),
    ) {
        let column = |x: i32, z: i32| {
            ((x as usize) << (SIZE_BITS + HEIGHT_BITS)) | ((z as usize) << HEIGHT_BITS)
        };
        let top = CHUNK_HEIGHT as usize - 1;
        if y0 == 0 && y1 == CHUNK_HEIGHT - 1 {
            if z0 == 0 && z1 == CHUNK_SIZE - 1 {
                return f(column(x0, 0), column(x1, z1) + top);
            }
            for x in x0..=x1 {
                f(column(x, z0), column(x, z1) + top);
            }
            return;
        }
        for x in x0..=x1 {
            for z in z0..=z1 {
                let base = column(x, z);
                f(base + y0 as usize, base + y1 as usize);
            }
        }
    }

    /// Whether the block at linear index `at` exists and differs from `id`:
    /// the boundary a range filled with `id` has on that edge.
    #[inline]
    fn differs(&self, at: usize, id: u16) -> u32 {
        u32::from(at < BLOCKS_PER_CHUNK && self.id_at(at) != id)
    }

    /// Reads the block at chunk-local coordinates, or `None` if out of range.
    pub fn local(&self, x: i32, y: i32, z: i32) -> Option<Block> {
        let idx = Self::index(x, y, z)?;
        Block::from_id(self.id_at(idx))
    }

    /// Writes the block at chunk-local coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::OutOfBounds`] if a coordinate is outside the
    /// chunk.
    pub fn set_local(&mut self, x: i32, y: i32, z: i32, block: Block) -> Result<(), ServoError> {
        let idx = Self::index(x, y, z).ok_or_else(|| ServoError::OutOfBounds {
            what: format!("chunk-local ({x}, {y}, {z})"),
        })?;
        self.set_id(idx, block.id());
        Ok(())
    }

    /// Writes `id` at a linear index, counting a change as one
    /// modification.
    fn set_id(&mut self, idx: usize, id: u16) {
        let (section, offset) = Self::locate(idx);
        let old = self.sections[section].get(offset);
        if old != id {
            // Only the boundaries with the two neighbours can change.
            for neighbour in [idx.wrapping_sub(1), idx + 1] {
                if neighbour < BLOCKS_PER_CHUNK {
                    let b = self.id_at(neighbour);
                    self.runs = self.runs + u32::from(b != id) - u32::from(b != old);
                }
            }
            self.sections[section].dense_mut()[offset] = id;
            self.modifications += 1;
        }
    }

    /// The blocks where `self` differs from `base`, each with the block
    /// `self` holds there: [`Chunk::apply_edits`] on `base` gives `self`'s
    /// blocks. Listed section by section, then column by column, each
    /// column bottom to top.
    ///
    /// Equal uniform sections and equal dense arrays are passed over with
    /// one comparison each. Elsewhere the 256 ids of each `x` are compared
    /// as one slice, then, where those differ, each column's 16 ids as one
    /// slice, as [`Chunk::to_bytes`] walks them; only a column that
    /// differs is walked id by id.
    pub fn diff(&self, base: &Chunk) -> Vec<BlockEdit> {
        let mut edits = Vec::new();
        for (s, (now, was)) in self.sections.iter().zip(&base.sections).enumerate() {
            match (now, was) {
                (Section::Uniform(a), Section::Uniform(b)) if a == b => continue,
                (Section::Dense(a), Section::Dense(b)) if a == b => continue,
                _ => {}
            }
            let fills = ([now.get(0); ROW_BLOCKS], [was.get(0); ROW_BLOCKS]);
            for row in (0..SECTION_BLOCKS).step_by(ROW_BLOCKS) {
                let (ids, old) = (now.row(&fills.0, row), was.row(&fills.1, row));
                if ids == old {
                    continue;
                }
                let columns = ids
                    .chunks_exact(SECTION_HEIGHT)
                    .zip(old.chunks_exact(SECTION_HEIGHT));
                for (offset, (ids, old)) in (row..).step_by(SECTION_HEIGHT).zip(columns) {
                    if ids == old {
                        continue;
                    }
                    let first = ((offset >> SECTION_BITS) << HEIGHT_BITS) | (s << SECTION_BITS);
                    for (y, (&id, &old)) in ids.iter().zip(old).enumerate() {
                        if id != old {
                            edits.push(BlockEdit {
                                index: (first | y) as u16,
                                block: Block::from_id(id).expect("a chunk holds known blocks"),
                            });
                        }
                    }
                }
            }
        }
        edits
    }

    /// Writes each edit's block at its linear index, as
    /// [`Chunk::set_local`] would: a changed block counts as one
    /// modification.
    pub fn apply_edits(&mut self, edits: &[BlockEdit]) {
        for edit in edits {
            self.set_id(usize::from(edit.index), edit.block.id());
        }
    }

    /// Fills every block of the horizontal layer at height `y`.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::OutOfBounds`] if `y` is outside the chunk.
    pub fn fill_layer(&mut self, y: i32, block: Block) -> Result<(), ServoError> {
        if !(0..CHUNK_HEIGHT).contains(&y) {
            return Err(ServoError::OutOfBounds {
                what: format!("layer y={y}"),
            });
        }
        self.fill_box((0, y, 0), (CHUNK_SIZE - 1, y, CHUNK_SIZE - 1), block)?;
        Ok(())
    }

    /// Fills the axis-aligned box spanning `x0..=x1`, `y0..=y1`, `z0..=z1`
    /// (chunk-local, inclusive) with `block`, counting each actually changed
    /// block as one modification. Returns the number of changed blocks.
    ///
    /// This is the per-chunk primitive behind the world-level batch
    /// operations: bounds are validated once and the inner loop writes
    /// contiguous `y` runs directly, instead of paying an index computation
    /// and range check per block. A section the box covers whole becomes
    /// uniform without allocating; a uniform section the box covers in part
    /// is promoted only if `block` differs from its id.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::OutOfBounds`] if any corner lies outside the
    /// chunk or a range is inverted.
    pub fn fill_box(
        &mut self,
        (x0, y0, z0): (i32, i32, i32),
        (x1, y1, z1): (i32, i32, i32),
        block: Block,
    ) -> Result<usize, ServoError> {
        if Self::index(x0, y0, z0).is_none() || Self::index(x1, y1, z1).is_none() {
            return Err(ServoError::OutOfBounds {
                what: format!("chunk-local box ({x0}, {y0}, {z0})..=({x1}, {y1}, {z1})"),
            });
        }
        // Each axis must be validated individually: a single comparison of
        // the two linear indices lets a dominant higher axis mask an
        // inverted lower one.
        if x0 > x1 || y0 > y1 || z0 > z1 {
            return Err(ServoError::OutOfBounds {
                what: format!("inverted box ({x0}, {y0}, {z0})..=({x1}, {y1}, {z1})"),
            });
        }
        let (lo, hi) = ((x0, y0, z0), (x1, y1, z1));
        let id = block.id();
        let all_columns = x0 == 0 && z0 == 0 && x1 == CHUNK_SIZE - 1 && z1 == CHUNK_SIZE - 1;
        // A write changes only the boundaries inside and on the edges of
        // its ranges; afterwards each range is one run, so only its edges
        // remain.
        let mut runs = self.runs;
        Self::for_each_range(lo, hi, |a, b| runs -= self.boundaries(a, b));
        let (y0, y1) = (y0 as usize, y1 as usize);
        let mut changed = 0usize;
        for s in y0 >> SECTION_BITS..=y1 >> SECTION_BITS {
            let bottom = s * SECTION_HEIGHT;
            let (from, to) = (
                y0.max(bottom) - bottom,
                y1.min(bottom + SECTION_HEIGHT - 1) - bottom,
            );
            let section = &mut self.sections[s];
            if all_columns && from == 0 && to == SECTION_HEIGHT - 1 {
                changed += section.count(|b| b != id);
                *section = Section::Uniform(id);
            } else if !matches!(section, Section::Uniform(u) if *u == id) {
                let blocks = section.dense_mut();
                for x in x0..=x1 {
                    for z in z0..=z1 {
                        let base = ((x as usize) << (SIZE_BITS + SECTION_BITS))
                            | ((z as usize) << SECTION_BITS);
                        for slot in &mut blocks[base + from..=base + to] {
                            if *slot != id {
                                *slot = id;
                                changed += 1;
                            }
                        }
                    }
                }
            }
        }
        Self::for_each_range(lo, hi, |a, b| {
            runs += self.differs(a.wrapping_sub(1), id) + self.differs(b + 1, id);
        });
        self.runs = runs;
        self.modifications += changed as u64;
        Ok(changed)
    }

    /// The height of the highest non-air block in the column at `(x, z)`,
    /// or `None` for an empty column or out-of-range coordinates.
    pub fn height_at(&self, x: i32, z: i32) -> Option<i32> {
        let column = (Self::index(x, 0, z)? >> HEIGHT_BITS) << SECTION_BITS;
        let air = Block::Air.id();
        self.sections
            .iter()
            .enumerate()
            .rev()
            .find_map(|(s, section)| {
                let top = match section {
                    Section::Uniform(id) => (*id != air).then_some(SECTION_HEIGHT - 1),
                    Section::Dense(blocks) => blocks[column..column + SECTION_HEIGHT]
                        .iter()
                        .rposition(|&id| id != air),
                }?;
                Some((s * SECTION_HEIGHT + top) as i32)
            })
    }

    /// Number of non-air blocks in the chunk.
    pub fn non_air_blocks(&self) -> usize {
        let air = Block::Air.id();
        self.sections.iter().map(|s| s.count(|b| b != air)).sum()
    }

    /// Number of stateful blocks (simulated-construct material) in the chunk.
    pub fn stateful_blocks(&self) -> usize {
        let stateful = |b| Block::from_id(b).map(|b| b.is_stateful()).unwrap_or(false);
        self.sections.iter().map(|s| s.count(stateful)).sum()
    }

    /// Serializes the chunk into a compact run-length encoded byte buffer.
    ///
    /// Layout: chunk x (i32 LE), chunk z (i32 LE), number of runs (u32 LE),
    /// then `(count: u32 LE, block id: u16 LE)` per run, the blocks taken
    /// in linear (x, z, y) order.
    ///
    /// The sections are first collapsed into at most sixteen pieces that
    /// every column crosses alike: a stack of uniform sections of one id is
    /// one span, a dense section gives each column a slice of 16 ids. A
    /// span extends or closes the current run in O(1); a slice equal to 16
    /// copies of the current run's id extends it in one array comparison,
    /// and only a slice that is not is walked id by id. The buffer is sized
    /// once from the maintained run count and each run is one 6-byte copy.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.serialized_size()];
        self.encode_into(&mut out);
        out
    }

    /// Writes [`Chunk::to_bytes`]'s layout into `out`, which holds exactly
    /// [`Chunk::serialized_size`] bytes.
    fn encode_into(&self, out: &mut [u8]) {
        out[0..4].copy_from_slice(&self.pos.x.to_le_bytes());
        out[4..8].copy_from_slice(&self.pos.z.to_le_bytes());
        out[8..12].copy_from_slice(&self.runs.to_le_bytes());
        let mut at = 12;
        let mut run = |count: u32, id: u16| {
            let [c0, c1, c2, c3] = count.to_le_bytes();
            let [i0, i1] = id.to_le_bytes();
            out[at..at + 6].copy_from_slice(&[c0, c1, c2, c3, i0, i1]);
            at += 6;
        };
        let mut pieces = [Piece::Span(0, 0); SECTIONS];
        let mut len = 0;
        for section in &self.sections {
            pieces[len] = match (section, len.checked_sub(1).map(|last| pieces[last])) {
                (Section::Uniform(id), Some(Piece::Span(span, height))) if span == *id => {
                    len -= 1;
                    Piece::Span(span, height + SECTION_HEIGHT as u32)
                }
                (Section::Uniform(id), _) => Piece::Span(*id, SECTION_HEIGHT as u32),
                (Section::Dense(blocks), _) => Piece::Slices(blocks),
            };
            len += 1;
        }
        let pieces = &pieces[..len];
        let mut id = self.id_at(0);
        let mut count = 0u32;
        for offset in (0..SECTION_BLOCKS).step_by(SECTION_HEIGHT) {
            for piece in pieces {
                match *piece {
                    Piece::Span(b, height) => {
                        if b != id {
                            run(count, id);
                            id = b;
                            count = 0;
                        }
                        count += height;
                    }
                    Piece::Slices(blocks) => {
                        let slice: &[u16; SECTION_HEIGHT] = blocks[offset..offset + SECTION_HEIGHT]
                            .try_into()
                            .expect("a column of a section");
                        if *slice == [id; SECTION_HEIGHT] {
                            count += SECTION_HEIGHT as u32;
                            continue;
                        }
                        for &b in slice {
                            if b != id {
                                run(count, id);
                                id = b;
                                count = 0;
                            }
                            count += 1;
                        }
                    }
                }
            }
        }
        run(count, id);
        debug_assert_eq!(at, out.len(), "run count out of date");
    }

    /// Deserializes a chunk produced by [`Chunk::to_bytes`]. A section whose
    /// blocks are all equal comes back uniform.
    ///
    /// The buffer is checked whole first; its runs are then laid down in
    /// pieces of one column within one section: a section's first piece,
    /// in column 0, makes it uniform, and a later piece in another id gives
    /// it an array. The chunk comes back with no modifications.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::CorruptData`] if the buffer is truncated or
    /// longer than its runs, the run lengths do not add up to a full chunk,
    /// or a block id is unknown.
    pub fn from_bytes(bytes: &[u8]) -> Result<Chunk, ServoError> {
        if bytes.len() < 12 {
            return Err(corrupt("buffer shorter than header"));
        }
        let x = i32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let z = i32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let run_count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let body = &bytes[12..];
        let listed = &body[..6 * run_count.min(body.len() / 6)];
        let runs = listed.chunks_exact(6).map(|run| {
            let count = u32::from_le_bytes([run[0], run[1], run[2], run[3]]);
            (count, u16::from_le_bytes([run[4], run[5]]))
        });
        // The checks in buffer order: every complete run before the first
        // missing one, then the buffer's end, then the total.
        let mut decoded = 0usize;
        for (count, id) in runs.clone() {
            if Block::from_id(id).is_none() {
                return Err(corrupt("unknown block id"));
            }
            decoded += count as usize;
            if decoded > BLOCKS_PER_CHUNK {
                return Err(corrupt("run overflows chunk"));
            }
        }
        if run_count > body.len() / 6 {
            return Err(corrupt("truncated run"));
        }
        if body.len() != 6 * run_count {
            return Err(corrupt("trailing bytes after last run"));
        }
        Self::decode(ChunkPos::new(x, z), runs)
    }

    /// Builds the chunk at `pos` from its columns, in linear order (column
    /// `x * 16 + z`), each listing `K` layers `(count, block)` from the
    /// bottom up. Layers may be empty, and neighbouring layers may hold one
    /// block; the chunk merges them.
    ///
    /// The result is the chunk that writing the layers into an empty chunk
    /// makes: only the sections whose blocks end up mixed allocate, and
    /// every block that is not air counts as one modification.
    ///
    /// One pass over the layers counts the runs and the non-air blocks and
    /// finds, for each layer index, the highest start, the lowest end and
    /// whether every column holds the same block there. A section that lies
    /// inside such a common layer in every column is uniform without a
    /// look at its blocks. Each column's ids are then laid out only across
    /// the sections left, 16 ids per store, and copied into their arrays as
    /// 16-id slices; an array that still holds one id throughout becomes
    /// uniform.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::CorruptData`] if a column's layers do not add
    /// up to exactly 256 blocks.
    ///
    /// # Example
    ///
    /// ```
    /// use servo_world::{Block, Chunk};
    /// use servo_types::ChunkPos;
    ///
    /// // Every column: bedrock, 63 blocks of stone, then air.
    /// let column = [(1, Block::Bedrock), (63, Block::Stone), (192, Block::Air)];
    /// let chunk = Chunk::from_columns(ChunkPos::new(0, 0), &[column; 256]).unwrap();
    /// assert_eq!(chunk.local(4, 0, 9), Some(Block::Bedrock));
    /// assert_eq!(chunk.height_at(4, 9), Some(63));
    /// assert_eq!(chunk.modifications(), 256 * 64);
    /// // Stone fills sections 1 to 3 and air 4 to 15: only section 0 is mixed.
    /// assert_eq!(chunk.heap_bytes(), 8192);
    /// ```
    pub fn from_columns<const K: usize>(
        pos: ChunkPos,
        columns: &[[(u32, Block); K]; COLUMNS],
    ) -> Result<Chunk, ServoError> {
        let air = Block::Air.id();
        let height = CHUNK_HEIGHT as u32;
        let mut highest_start = [0u32; K];
        let mut lowest_end = [height; K];
        let mut shared = [true; K];
        let mut runs = 0u32;
        let mut modifications = 0u64;
        // No block has this id, so the chunk's first layer starts a run.
        let mut last = u32::MAX;
        for column in columns {
            let mut at = 0u32;
            for (k, &(count, block)) in column.iter().enumerate() {
                highest_start[k] = highest_start[k].max(at);
                at = at.saturating_add(count);
                lowest_end[k] = lowest_end[k].min(at);
                shared[k] &= block == columns[0][k].1;
                if count > 0 {
                    let id = block.id();
                    runs += u32::from(last != u32::from(id));
                    last = u32::from(id);
                    if id != air {
                        modifications += u64::from(count);
                    }
                }
            }
            if at != height {
                return Err(corrupt("column layers do not add up to its height"));
            }
        }
        let mut sections: [Section; SECTIONS] = std::array::from_fn(|s| {
            let (bottom, top) = (
                (s * SECTION_HEIGHT) as u32,
                ((s + 1) * SECTION_HEIGHT) as u32,
            );
            match (0..K).find(|&k| shared[k] && highest_start[k] <= bottom && lowest_end[k] >= top)
            {
                Some(k) => Section::Uniform(columns[0][k].1.id()),
                None => Section::Dense(Box::new([0; SECTION_BLOCKS])),
            }
        });
        let dense = |section: &Section| matches!(section, Section::Dense(_));
        if let (Some(first), Some(last)) = (
            sections.iter().position(dense),
            sections.iter().rposition(dense),
        ) {
            let (lo, hi) = (first * SECTION_HEIGHT, (last + 1) * SECTION_HEIGHT);
            // A column's ids over the window `lo..hi`, with room for the
            // last store to run 16 ids past its end.
            let mut ids = [0u16; CHUNK_HEIGHT as usize + SECTION_HEIGHT];
            for (c, column) in columns.iter().enumerate() {
                let mut at = 0usize;
                for &(count, block) in column {
                    let (start, end) = (at.max(lo), (at + count as usize).min(hi));
                    at += count as usize;
                    // Fixed 16-id stores, running on past the layer's end
                    // into blocks the next layer then rewrites from its own
                    // start: the layers come in order.
                    let fill = [block.id(); SECTION_HEIGHT];
                    let mut y = start;
                    while y < end {
                        ids[y..y + SECTION_HEIGHT].copy_from_slice(&fill);
                        y += SECTION_HEIGHT;
                    }
                }
                let offset = c << SECTION_BITS;
                for (s, section) in (first..).zip(&mut sections[first..=last]) {
                    if let Section::Dense(blocks) = section {
                        blocks[offset..offset + SECTION_HEIGHT]
                            .copy_from_slice(&ids[s * SECTION_HEIGHT..(s + 1) * SECTION_HEIGHT]);
                    }
                }
            }
            for section in &mut sections[first..=last] {
                if let Section::Dense(blocks) = section {
                    let id = blocks[0];
                    // An OR over the whole array, which vectorises, where a
                    // short-circuiting search would not.
                    if blocks.iter().fold(0, |differ, &b| differ | (b ^ id)) == 0 {
                        *section = Section::Uniform(id);
                    }
                }
            }
        }
        Ok(Chunk {
            pos,
            sections,
            modifications,
            runs,
        })
    }

    /// The flat world's chunk at `pos`: bedrock at `y = 0`, dirt above it
    /// and a grass surface at `ground_height` (clamped to `1..=255`), air
    /// above that. Only section 0 is mixed for a surface below `y = 15`.
    pub fn flat(pos: ChunkPos, ground_height: i32) -> Chunk {
        let ground = ground_height.clamp(1, CHUNK_HEIGHT - 1) as u32;
        let column = [
            (1, Block::Bedrock),
            (ground - 1, Block::Dirt),
            (1, Block::Grass),
            (CHUNK_HEIGHT as u32 - 1 - ground, Block::Air),
        ];
        Self::from_columns(pos, &[column; COLUMNS]).expect("a flat column is 256 blocks high")
    }

    /// The run decoder of [`Chunk::from_bytes`], over ids it has checked:
    /// runs may be empty, and two runs of one block may follow each other.
    /// Counts the runs from the ids it lays.
    fn decode(
        pos: ChunkPos,
        runs: impl IntoIterator<Item = (u32, u16)>,
    ) -> Result<Chunk, ServoError> {
        let mut chunk = Chunk::empty(pos);
        // Counted from the laid blocks: a run list may carry empty runs or
        // split one run in two.
        chunk.runs = 0;
        let mut last = None;
        let mut at = 0usize;
        for (count, id) in runs {
            let count = count as usize;
            if count > BLOCKS_PER_CHUNK - at {
                return Err(corrupt("run overflows chunk"));
            }
            if count == 0 {
                continue;
            }
            if last != Some(id) {
                chunk.runs += 1;
                last = Some(id);
            }
            // Lay the run down in pieces of one column inside one section.
            // A section's first piece (in column 0) makes it uniform in its
            // id; a later piece that differs promotes it. A piece of a
            // section with an array is written 16 ids wide, on past its end
            // where that is inside the array: those ids belong to blocks
            // later in linear order, and once a section has an array every
            // later piece of it is written, so each such block is given its
            // own id before the chunk is returned. A fixed width is two
            // vector stores where a piece-long fill is a loop.
            let end = at + count;
            while at < end {
                let piece_end = ((at | (SECTION_HEIGHT - 1)) + 1).min(end);
                let (s, offset) = Self::locate(at);
                let section = &mut chunk.sections[s];
                if at < CHUNK_HEIGHT as usize && at.is_multiple_of(SECTION_HEIGHT) {
                    *section = Section::Uniform(id);
                } else if !matches!(section, Section::Uniform(u) if *u == id) {
                    let blocks = section.dense_mut();
                    if offset + SECTION_HEIGHT <= SECTION_BLOCKS {
                        blocks[offset..offset + SECTION_HEIGHT].fill(id);
                    } else {
                        blocks[offset..].fill(id);
                    }
                }
                at = piece_end;
            }
        }
        if at != BLOCKS_PER_CHUNK {
            return Err(corrupt("runs do not cover full chunk"));
        }
        Ok(chunk)
    }

    /// The length of [`Chunk::to_bytes`] in bytes, in O(1) from the
    /// maintained run count. The storage model accounts transfer volume
    /// with it and the replication hub prices keyframes with it.
    pub fn serialized_size(&self) -> usize {
        12 + 6 * self.runs as usize
    }

    /// Takes an immutable snapshot of the chunk suitable for handing to a
    /// remote component (a generation function or the storage layer).
    /// The bytes are encoded straight into their shared allocation.
    pub fn snapshot(&self) -> ChunkSnapshot {
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, self.serialized_size()).collect();
        self.encode_into(Arc::get_mut(&mut bytes).expect("a new allocation has one owner"));
        ChunkSnapshot {
            pos: self.pos,
            bytes,
        }
    }
}

fn corrupt(reason: &str) -> ServoError {
    ServoError::CorruptData {
        reason: reason.to_string(),
    }
}

/// An immutable serialized copy of a chunk. Its bytes are shared: a clone
/// costs a reference count, so the storage tiers a flushed chunk passes
/// through all hold one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSnapshot {
    /// Position of the chunk.
    pub pos: ChunkPos,
    /// Serialized chunk contents ([`Chunk::to_bytes`] layout).
    pub bytes: Arc<[u8]>,
}

impl ChunkSnapshot {
    /// Reconstructs the chunk from the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::CorruptData`] if the snapshot bytes are invalid.
    pub fn restore(&self) -> Result<Chunk, ServoError> {
        Chunk::from_bytes(&self.bytes)
    }

    /// Size of the serialized data in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chunk_is_all_air() {
        let c = Chunk::empty(ChunkPos::new(1, -1));
        assert_eq!(c.non_air_blocks(), 0);
        assert_eq!(c.local(0, 0, 0), Some(Block::Air));
        assert_eq!(c.height_at(5, 5), None);
        assert_eq!(c.heap_bytes(), 0);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        c.set_local(15, 255, 15, Block::Stone).unwrap();
        c.set_local(0, 0, 0, Block::Bedrock).unwrap();
        assert_eq!(c.local(15, 255, 15), Some(Block::Stone));
        assert_eq!(c.local(0, 0, 0), Some(Block::Bedrock));
        assert_eq!(c.non_air_blocks(), 2);
        assert_eq!(c.modifications(), 2);
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        assert_eq!(c.local(16, 0, 0), None);
        assert_eq!(c.local(0, 256, 0), None);
        assert_eq!(c.local(-1, 0, 0), None);
        assert!(c.set_local(0, -1, 0, Block::Stone).is_err());
        assert!(c.fill_layer(256, Block::Stone).is_err());
    }

    #[test]
    fn redundant_writes_do_not_count_as_modifications() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        c.set_local(1, 1, 1, Block::Air).unwrap();
        assert_eq!(c.modifications(), 0);
        c.set_local(1, 1, 1, Block::Dirt).unwrap();
        c.set_local(1, 1, 1, Block::Dirt).unwrap();
        assert_eq!(c.modifications(), 1);
    }

    #[test]
    fn height_at_finds_highest_block() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        c.fill_layer(0, Block::Bedrock).unwrap();
        c.fill_layer(10, Block::Grass).unwrap();
        c.set_local(3, 42, 3, Block::Wood).unwrap();
        assert_eq!(c.height_at(0, 0), Some(10));
        assert_eq!(c.height_at(3, 3), Some(42));
        assert_eq!(c.height_at(16, 0), None);
    }

    #[test]
    fn fill_box_writes_exactly_the_box() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        let changed = c.fill_box((2, 10, 3), (4, 12, 5), Block::Stone).unwrap();
        assert_eq!(changed, 27);
        assert_eq!(c.non_air_blocks(), 27);
        assert_eq!(c.modifications(), 27);
        assert_eq!(c.local(2, 10, 3), Some(Block::Stone));
        assert_eq!(c.local(4, 12, 5), Some(Block::Stone));
        assert_eq!(c.local(1, 10, 3), Some(Block::Air));
        assert_eq!(c.local(2, 13, 3), Some(Block::Air));
        // Refilling the same box changes nothing.
        assert_eq!(c.fill_box((2, 10, 3), (4, 12, 5), Block::Stone).unwrap(), 0);
        assert_eq!(c.modifications(), 27);
    }

    #[test]
    fn fill_box_rejects_bad_ranges() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        assert!(c.fill_box((0, 0, 0), (16, 0, 0), Block::Stone).is_err());
        assert!(c.fill_box((0, -1, 0), (0, 0, 0), Block::Stone).is_err());
        assert!(c.fill_box((5, 0, 0), (4, 0, 0), Block::Stone).is_err());
        // Inversions on a lower-order axis must be rejected even when a
        // higher-order axis makes the linear end index larger.
        assert!(c.fill_box((0, 5, 0), (1, 3, 0), Block::Stone).is_err());
        assert!(c.fill_box((0, 0, 5), (1, 0, 3), Block::Stone).is_err());
        assert_eq!(c.modifications(), 0);
    }

    #[test]
    fn fill_box_agrees_with_set_local() {
        let mut a = Chunk::empty(ChunkPos::ORIGIN);
        let mut b = Chunk::empty(ChunkPos::ORIGIN);
        a.fill_box((1, 2, 3), (6, 9, 4), Block::Sand).unwrap();
        for x in 1..=6 {
            for y in 2..=9 {
                for z in 3..=4 {
                    b.set_local(x, y, z, Block::Sand).unwrap();
                }
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn serialization_round_trips() {
        let mut c = Chunk::empty(ChunkPos::new(-3, 7));
        c.fill_layer(0, Block::Bedrock).unwrap();
        c.fill_layer(1, Block::Dirt).unwrap();
        c.set_local(8, 2, 8, Block::Lamp).unwrap();
        c.set_local(9, 2, 8, Block::Wire).unwrap();
        let bytes = c.to_bytes();
        let restored = Chunk::from_bytes(&bytes).unwrap();
        assert_eq!(restored.pos(), c.pos());
        assert_eq!(restored.local(8, 2, 8), Some(Block::Lamp));
        assert_eq!(restored.non_air_blocks(), c.non_air_blocks());
    }

    #[test]
    fn rle_compresses_uniform_chunks() {
        let c = Chunk::empty(ChunkPos::ORIGIN);
        // A uniform chunk serializes to the 12-byte header plus one run.
        assert_eq!(c.to_bytes().len(), 18);
        assert_eq!(c.serialized_size(), 18);
    }

    #[test]
    fn runs_continue_across_column_ends() {
        // The top of column (0, 0) and the bottom of column (0, 1) are
        // neighbours in the encoding: air, two stone, air.
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        c.set_local(0, 255, 0, Block::Stone).unwrap();
        c.set_local(0, 0, 1, Block::Stone).unwrap();
        assert_eq!(c.serialized_size(), 12 + 3 * 6);
        assert_eq!(c.to_bytes().len(), c.serialized_size());
        // The chunk's first and last block have one neighbour each.
        c.set_local(0, 0, 0, Block::Dirt).unwrap();
        c.set_local(15, 255, 15, Block::Dirt).unwrap();
        assert_eq!(c.serialized_size(), 12 + 5 * 6);
        assert_eq!(c.to_bytes().len(), c.serialized_size());
    }

    #[test]
    fn corrupt_data_is_rejected() {
        assert!(Chunk::from_bytes(&[]).is_err());
        assert!(Chunk::from_bytes(&[0u8; 11]).is_err());
        // Valid header claiming one run that does not cover the chunk.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&10u32.to_le_bytes());
        bytes.extend_from_slice(&Block::Stone.id().to_le_bytes());
        assert!(Chunk::from_bytes(&bytes).is_err());
        // Unknown block id.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&0i32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(BLOCKS_PER_CHUNK as u32).to_le_bytes());
        bytes.extend_from_slice(&999u16.to_le_bytes());
        assert!(Chunk::from_bytes(&bytes).is_err());
    }

    /// Each kind of corrupt buffer, alone and behind or ahead of another,
    /// with the error `from_bytes` reports for it: the first fault in
    /// buffer order, the run total last.
    #[test]
    fn corrupt_inputs_report_their_first_fault() {
        let full = BLOCKS_PER_CHUNK as u32;
        let stone = Block::Stone.id();
        let buffer = |listed: u32, runs: &[(u32, u16)], tail: &[u8]| {
            let mut bytes = [0i32.to_le_bytes(), 0i32.to_le_bytes(), listed.to_le_bytes()].concat();
            for (count, id) in runs {
                bytes.extend_from_slice(&count.to_le_bytes());
                bytes.extend_from_slice(&id.to_le_bytes());
            }
            bytes.extend_from_slice(tail);
            bytes
        };
        let cases = [
            (vec![], "buffer shorter than header"),
            (vec![0u8; 11], "buffer shorter than header"),
            (buffer(0, &[], &[]), "runs do not cover full chunk"),
            (
                buffer(1, &[(10, stone)], &[]),
                "runs do not cover full chunk",
            ),
            (buffer(1, &[(full, 999)], &[]), "unknown block id"),
            (buffer(1, &[(full + 1, stone)], &[]), "run overflows chunk"),
            (buffer(2, &[(full, stone)], &[1, 2, 3]), "truncated run"),
            (buffer(u32::MAX, &[(full, stone)], &[]), "truncated run"),
            (
                buffer(1, &[(full, stone)], &[0]),
                "trailing bytes after last run",
            ),
            (
                buffer(0, &[(full, stone)], &[]),
                "trailing bytes after last run",
            ),
            (
                buffer(2, &[(full, stone), (1, 999)], &[]),
                "unknown block id",
            ),
            (
                buffer(2, &[(5, 999), (full, stone)], &[]),
                "unknown block id",
            ),
            (
                buffer(2, &[(full, stone), (1, stone)], &[]),
                "run overflows chunk",
            ),
            (
                buffer(3, &[(full + 1, stone), (0, 999)], &[]),
                "run overflows chunk",
            ),
            (buffer(2, &[(9, 999)], &[]), "unknown block id"),
            (buffer(1, &[(full + 1, stone)], &[7]), "run overflows chunk"),
            (buffer(2, &[(10, stone)], &[]), "truncated run"),
            (
                buffer(1, &[(10, stone)], &[7]),
                "trailing bytes after last run",
            ),
        ];
        for (bytes, expected) in cases {
            match Chunk::from_bytes(&bytes) {
                Err(ServoError::CorruptData { reason }) => assert_eq!(reason, expected),
                other => panic!("{bytes:?}: expected {expected:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A valid chunk followed by a byte no run accounts for.
        let mut bytes = Chunk::empty(ChunkPos::ORIGIN).to_bytes();
        bytes.push(0);
        match Chunk::from_bytes(&bytes) {
            Err(ServoError::CorruptData { reason }) => assert!(reason.contains("trailing bytes")),
            other => panic!("trailing byte accepted: {other:?}"),
        }
    }

    #[test]
    fn non_canonical_runs_decode_and_re_encode_canonically() {
        // Air split into two adjacent runs, a zero-length stone run, then
        // the rest: five runs in the header, two in the blocks.
        let air = Block::Air.id();
        let stone = Block::Stone.id();
        let rest = BLOCKS_PER_CHUNK as u32 - 10;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&4i32.to_le_bytes());
        bytes.extend_from_slice(&(-2i32).to_le_bytes());
        bytes.extend_from_slice(&5u32.to_le_bytes());
        for (count, id) in [
            (3u32, air),
            (7, air),
            (0, stone),
            (rest - 1, stone),
            (1, stone),
        ] {
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        let decoded = Chunk::from_bytes(&bytes).unwrap();
        let mut expected = Chunk::empty(ChunkPos::new(4, -2));
        expected
            .fill_box((0, 0, 0), (15, 255, 15), Block::Stone)
            .unwrap();
        expected.fill_box((0, 0, 0), (0, 9, 0), Block::Air).unwrap();
        assert_eq!(decoded.to_bytes(), expected.to_bytes());
        assert_eq!(decoded.serialized_size(), 12 + 2 * 6);
        assert_eq!(decoded.serialized_size(), decoded.to_bytes().len());
    }

    #[test]
    fn snapshot_restores_identical_chunk() {
        let mut c = Chunk::empty(ChunkPos::new(2, 2));
        c.fill_layer(5, Block::Sand).unwrap();
        let snap = c.snapshot();
        assert_eq!(snap.size_bytes(), snap.bytes.len());
        let restored = snap.restore().unwrap();
        assert_eq!(restored.local(0, 5, 0), Some(Block::Sand));
        assert_eq!(restored.pos(), ChunkPos::new(2, 2));
    }

    #[test]
    fn stateful_block_count() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        c.set_local(0, 0, 0, Block::Wire).unwrap();
        c.set_local(0, 0, 1, Block::Lamp).unwrap();
        c.set_local(0, 0, 2, Block::Stone).unwrap();
        assert_eq!(c.stateful_blocks(), 2);
    }

    #[test]
    fn the_chunk_itself_stays_small() {
        // Sixteen 16-byte section slots, the position, the modification
        // count and the run count (the budget in `Chunk`'s docs).
        assert_eq!(std::mem::size_of::<Chunk>(), 280);
    }

    #[test]
    fn the_first_mixed_write_promotes_one_section() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        // Rewriting air into uniform air changes nothing and allocates nothing.
        c.set_local(4, 20, 4, Block::Air).unwrap();
        assert_eq!(c.heap_bytes(), 0);
        c.set_local(4, 20, 4, Block::Stone).unwrap();
        assert_eq!(c.heap_bytes(), 8192);
        c.set_local(5, 31, 9, Block::Dirt).unwrap();
        assert_eq!(c.heap_bytes(), 8192);
        // Writing the last odd block back leaves the section dense: writes
        // never scan to demote.
        c.set_local(4, 20, 4, Block::Air).unwrap();
        c.set_local(5, 31, 9, Block::Air).unwrap();
        assert_eq!(c.heap_bytes(), 8192);
        assert_eq!(c.non_air_blocks(), 0);
        assert_eq!(c.to_bytes(), Chunk::empty(ChunkPos::ORIGIN).to_bytes());
    }

    #[test]
    fn a_box_covering_whole_sections_leaves_them_uniform() {
        let mut c = Chunk::empty(ChunkPos::ORIGIN);
        c.set_local(3, 40, 3, Block::Wire).unwrap();
        assert_eq!(c.heap_bytes(), 8192);
        // y 16..=63 covers sections 1 to 3 whole, the dense one included.
        let changed = c.fill_box((0, 16, 0), (15, 63, 15), Block::Stone).unwrap();
        assert_eq!(changed, 3 * 4096);
        assert_eq!(c.heap_bytes(), 0);
        assert_eq!(c.non_air_blocks(), 3 * 4096);
        assert_eq!(c.height_at(7, 7), Some(63));
        assert_eq!(c.serialized_size(), 12 + 6 * (2 * 256 + 1));
        assert_eq!(c.to_bytes().len(), c.serialized_size());
        // A box matching a uniform section's id changes nothing.
        assert_eq!(c.fill_box((2, 20, 2), (5, 30, 5), Block::Stone).unwrap(), 0);
        assert_eq!(c.heap_bytes(), 0);
        // A partial box in another id promotes exactly one section.
        c.fill_box((0, 64, 0), (15, 64, 15), Block::Grass).unwrap();
        assert_eq!(c.heap_bytes(), 8192);
    }

    #[test]
    fn from_bytes_makes_uniform_sections() {
        let mut c = Chunk::empty(ChunkPos::new(3, -3));
        for x in 0..CHUNK_SIZE {
            for z in 0..CHUNK_SIZE {
                for y in 32..48 {
                    c.set_local(x, y, z, Block::Sand).unwrap();
                }
            }
        }
        c.set_local(0, 0, 0, Block::Bedrock).unwrap();
        c.set_local(15, 255, 15, Block::Bedrock).unwrap();
        assert_eq!(c.heap_bytes(), 3 * 8192);
        let restored = Chunk::from_bytes(&c.to_bytes()).unwrap();
        // Section 2 is all sand: only the two sections with bedrock are mixed.
        assert_eq!(restored.heap_bytes(), 2 * 8192);
        assert_eq!(restored.to_bytes(), c.to_bytes());
        assert_eq!(restored.non_air_blocks(), 4096 + 2);
        assert_eq!(restored.height_at(15, 15), Some(255));
        assert_eq!(restored.height_at(1, 1), Some(47));
    }
}
