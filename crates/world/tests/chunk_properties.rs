//! Property-based tests for the chunk and world data structures.

use proptest::prelude::*;
use servo_types::consts::{CHUNK_HEIGHT, CHUNK_SIZE};
use servo_types::{BlockPos, ChunkPos};
use servo_world::{Block, BlockEdit, Chunk, World};

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

/// `0..CHUNK_HEIGHT`, half of the time on a section edge: the top or the
/// bottom of one of the sixteen 16-high sections (the chunk's own ends
/// included).
fn arb_edge_y() -> impl Strategy<Value = i32> {
    prop_oneof![
        1 => (0..CHUNK_HEIGHT / 16).prop_map(|k| 16 * k),
        1 => (1..CHUNK_HEIGHT / 16 + 1).prop_map(|k| 16 * k - 1),
        2 => 0..CHUNK_HEIGHT,
    ]
}

/// Local coordinates biased towards where runs meet their neighbours in
/// the encoding: `y` 0 and 255 (the next column starts where this one
/// ends), the section edges `y = 16k - 1` and `16k`, and the chunk's first
/// and last block.
fn arb_edge_coord() -> impl Strategy<Value = (i32, i32, i32)> {
    prop_oneof![
        1 => Just((0, 0, 0)),
        1 => Just((CHUNK_SIZE - 1, CHUNK_HEIGHT - 1, CHUNK_SIZE - 1)),
        6 => (
            arb_edge_biased(CHUNK_SIZE),
            arb_edge_y(),
            arb_edge_biased(CHUNK_SIZE),
        ),
    ]
}

/// Applies one write to `chunk`.
fn write(chunk: &mut Chunk, op: &ChunkOp) {
    match *op {
        ChunkOp::Set((x, y, z), block) => chunk.set_local(x, y, z, block).unwrap(),
        ChunkOp::FillBox(lo, hi, block) => {
            chunk.fill_box(lo, hi, block).unwrap();
        }
        ChunkOp::FillLayer(y, block) => chunk.fill_layer(y, block).unwrap(),
        ChunkOp::RoundTrip => *chunk = Chunk::from_bytes(&chunk.to_bytes()).unwrap(),
    }
}

fn arb_chunk_op() -> impl Strategy<Value = ChunkOp> {
    // Four ids only, so that writes often change nothing or join runs; one
    // of them stateful.
    let block = || prop::sample::select(vec![Block::Air, Block::Stone, Block::Dirt, Block::Wire]);
    prop_oneof![
        4 => (arb_edge_coord(), block()).prop_map(|(at, b)| ChunkOp::Set(at, b)),
        2 => (arb_edge_coord(), arb_edge_coord(), block()).prop_map(|(a, b, block)| {
            let lo = (a.0.min(b.0), a.1.min(b.1), a.2.min(b.2));
            let hi = (a.0.max(b.0), a.1.max(b.1), a.2.max(b.2));
            ChunkOp::FillBox(lo, hi, block)
        }),
        // Whole sections, which a fill leaves uniform.
        1 => (0..CHUNK_HEIGHT / 16, 0..CHUNK_HEIGHT / 16, block()).prop_map(|(a, b, block)| {
            let (lo, hi) = (a.min(b), a.max(b));
            ChunkOp::FillBox(
                (0, 16 * lo, 0),
                (CHUNK_SIZE - 1, 16 * hi + 15, CHUNK_SIZE - 1),
                block,
            )
        }),
        1 => (arb_edge_y(), block()).prop_map(|(y, b)| ChunkOp::FillLayer(y, b)),
        1 => Just(ChunkOp::RoundTrip),
    ]
}

/// The chunk as a plain array of ids in linear (x, z, y) order, with the
/// modification count a chunk keeps: the reference every representation
/// of the chunk is checked against.
struct DenseModel {
    blocks: Vec<u16>,
    modifications: u64,
}

impl DenseModel {
    fn index(x: i32, y: i32, z: i32) -> usize {
        ((x * CHUNK_SIZE + z) * CHUNK_HEIGHT + y) as usize
    }

    fn new() -> Self {
        DenseModel {
            blocks: vec![Block::Air.id(); (CHUNK_SIZE * CHUNK_SIZE * CHUNK_HEIGHT) as usize],
            modifications: 0,
        }
    }

    fn fill(&mut self, (x0, y0, z0): (i32, i32, i32), (x1, y1, z1): (i32, i32, i32), b: Block) {
        for x in x0..=x1 {
            for z in z0..=z1 {
                for y in y0..=y1 {
                    let slot = &mut self.blocks[Self::index(x, y, z)];
                    if *slot != b.id() {
                        *slot = b.id();
                        self.modifications += 1;
                    }
                }
            }
        }
    }

    fn apply(&mut self, op: &ChunkOp) {
        match *op {
            ChunkOp::Set(at, b) => self.fill(at, at, b),
            ChunkOp::FillBox(lo, hi, b) => self.fill(lo, hi, b),
            ChunkOp::FillLayer(y, b) => {
                self.fill((0, y, 0), (CHUNK_SIZE - 1, y, CHUNK_SIZE - 1), b)
            }
            ChunkOp::RoundTrip => self.modifications = 0,
        }
    }

    fn column(&self, x: i32, z: i32) -> &[u16] {
        let base = Self::index(x, 0, z);
        &self.blocks[base..base + CHUNK_HEIGHT as usize]
    }

    fn count(&self, pred: impl Fn(Block) -> bool) -> usize {
        self.blocks
            .iter()
            .filter(|&&id| pred(Block::from_id(id).unwrap()))
            .count()
    }
}

/// Every observable of `chunk` against the dense model.
fn assert_matches_model(chunk: &Chunk, model: &DenseModel) {
    for x in 0..CHUNK_SIZE {
        for z in 0..CHUNK_SIZE {
            let column = model.column(x, z);
            for y in 0..CHUNK_HEIGHT {
                prop_assert_eq!(
                    chunk.local(x, y, z).map(Block::id),
                    Some(column[y as usize])
                );
            }
            let height = column.iter().rposition(|&id| id != Block::Air.id());
            prop_assert_eq!(chunk.height_at(x, z), height.map(|y| y as i32));
        }
    }
    prop_assert_eq!(chunk.non_air_blocks(), model.count(|b| !b.is_air()));
    prop_assert_eq!(chunk.stateful_blocks(), model.count(Block::is_stateful));
    prop_assert_eq!(chunk.modifications(), model.modifications);
    let bytes = chunk.to_bytes();
    prop_assert_eq!(chunk.serialized_size(), bytes.len());
    prop_assert_eq!(bytes, reference_to_bytes(chunk));
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
            write(&mut chunk, &op);
            let bytes = chunk.to_bytes();
            prop_assert_eq!(chunk.serialized_size(), bytes.len(), "after {:?}", op);
            prop_assert_eq!(bytes, reference_to_bytes(&chunk), "after {:?}", op);
        }
    }

    /// Whatever mix of uniform and dense sections a write sequence leaves,
    /// the chunk reads exactly like a plain dense array given the same
    /// writes: every block, the per-column heights, the counts, the
    /// modification count, the O(1) size and the encoding.
    #[test]
    fn chunk_matches_a_dense_model_under_every_kind_of_write(
        ops in prop::collection::vec(arb_chunk_op(), 1..40),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let mut chunk = Chunk::empty(ChunkPos::new(cx, cz));
        let mut model = DenseModel::new();
        for op in ops {
            write(&mut chunk, &op);
            model.apply(&op);
            assert_matches_model(&chunk, &model);
        }
    }

    /// For any two chunks, the diff of one against the other patches the
    /// other into its blocks: the patched chunk encodes like the target,
    /// with a maintained run count. The diff lists each differing block
    /// once, and a chunk's diff against itself is empty. Copying a chunk
    /// over another with `clone_from` gives an equal chunk of the same
    /// shape. The target is drawn as the base plus more writes, or alone.
    #[test]
    fn a_diff_patches_its_base_into_the_target(
        base_ops in prop::collection::vec(arb_chunk_op(), 0..30),
        target_ops in prop::collection::vec(arb_chunk_op(), 0..30),
        from_base in any::<bool>(),
    ) {
        let pos = ChunkPos::new(2, -9);
        let mut base = Chunk::empty(pos);
        for op in &base_ops {
            write(&mut base, op);
        }
        let mut target = if from_base { base.clone() } else { Chunk::empty(pos) };
        for op in &target_ops {
            write(&mut target, op);
        }
        prop_assert!(target.diff(&target).is_empty());
        prop_assert!(base.diff(&base.clone()).is_empty());

        let edits = target.diff(&base);
        let differing = (0..CHUNK_SIZE)
            .flat_map(|x| (0..CHUNK_SIZE).flat_map(move |z| (0..CHUNK_HEIGHT).map(move |y| (x, y, z))))
            .filter(|&(x, y, z)| target.local(x, y, z) != base.local(x, y, z))
            .count();
        prop_assert_eq!(edits.len(), differing);
        let mut patched = base.clone();
        patched.apply_edits(&edits);
        let bytes = patched.to_bytes();
        prop_assert_eq!(patched.serialized_size(), bytes.len());
        prop_assert_eq!(&bytes, &reference_to_bytes(&target));
        prop_assert_eq!(bytes, target.to_bytes());
        prop_assert!(target.diff(&patched).is_empty());

        let mut replica = base.clone();
        replica.clone_from(&target);
        prop_assert_eq!(&replica, &target);
        prop_assert_eq!(replica.heap_bytes(), target.heap_bytes());
        prop_assert_eq!(replica.to_bytes(), target.to_bytes());
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

/// Equality is over blocks, not representation: a section a box fills
/// whole stays uniform and owns no heap, the same section written block by
/// block is dense, and the two chunks are equal.
#[test]
fn equality_ignores_section_representation() {
    let mut whole = Chunk::empty(ChunkPos::ORIGIN);
    let mut by_block = Chunk::empty(ChunkPos::ORIGIN);
    whole
        .fill_box(
            (0, 48, 0),
            (CHUNK_SIZE - 1, 63, CHUNK_SIZE - 1),
            Block::Dirt,
        )
        .unwrap();
    for x in 0..CHUNK_SIZE {
        for z in 0..CHUNK_SIZE {
            for y in 48..64 {
                by_block.set_local(x, y, z, Block::Dirt).unwrap();
            }
        }
    }
    assert_eq!((whole.heap_bytes(), by_block.heap_bytes()), (0, 8192));
    assert_eq!(whole, by_block);
    assert_eq!(whole.to_bytes(), by_block.to_bytes());
    // One differing block, in either representation, breaks equality.
    whole.set_local(0, 63, 0, Block::Stone).unwrap();
    by_block.set_local(0, 63, 0, Block::Sand).unwrap();
    assert_ne!(whole, by_block);
}

/// A run length that often ends a run on or next to an edge of the
/// encoding: empty, short, about a whole number of section heights or of
/// columns, or long.
fn arb_run_len() -> impl Strategy<Value = u32> {
    prop_oneof![
        1 => Just(0u32),
        2 => 1u32..20,
        2 => (1u32..17, 0u32..3).prop_map(|(k, d)| 16 * k + d - 1),
        2 => (1u32..40, 0u32..3).prop_map(|(k, d)| 256 * k + d - 1),
        1 => 1_000u32..20_000,
    ]
}

/// A list of runs that covers the chunk exactly: arbitrary runs (four ids,
/// so that neighbours often repeat one) cut off at the chunk's end, then
/// one run for whatever is left. With no runs drawn, that last run is the
/// whole chunk.
fn arb_runs() -> impl Strategy<Value = Vec<(u32, Block)>> {
    let block = || prop::sample::select(vec![Block::Air, Block::Stone, Block::Dirt, Block::Wire]);
    let drawn = prop_oneof![
        1 => Just(Vec::new()),
        6 => prop::collection::vec((arb_run_len(), block()), 1..60),
    ];
    (drawn, block()).prop_map(|(drawn, last)| {
        let total = (CHUNK_SIZE * CHUNK_SIZE * CHUNK_HEIGHT) as u32;
        let mut runs = Vec::new();
        let mut covered = 0;
        for (count, block) in drawn {
            let count = count.min(total - covered);
            runs.push((count, block));
            covered += count;
        }
        if covered < total {
            runs.push((total - covered, last));
        }
        runs
    })
}

/// The blocks laid out as a dense model, every non-air block counted as
/// a modification, as `from_columns` counts them.
fn model_of_blocks(blocks: impl Iterator<Item = (u32, Block)>) -> DenseModel {
    let mut model = DenseModel::new();
    model.blocks = blocks
        .flat_map(|(count, block)| std::iter::repeat_n(block.id(), count as usize))
        .collect();
    model.modifications = model.count(|b| !b.is_air()) as u64;
    model
}

/// Number of sections (16-high slabs) of the model whose blocks differ.
fn mixed_sections(model: &DenseModel) -> usize {
    (0..CHUNK_HEIGHT / 16)
        .filter(|s| {
            let first = model.column(0, 0)[16 * *s as usize];
            (0..CHUNK_SIZE).any(|x| {
                (0..CHUNK_SIZE).any(|z| {
                    model.column(x, z)[16 * *s as usize..16 * (*s as usize + 1)]
                        .iter()
                        .any(|&id| id != first)
                })
            })
        })
        .count()
}

/// The runs as a `to_bytes` buffer, empty and split runs included.
fn runs_to_bytes(pos: ChunkPos, runs: &[(u32, Block)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&pos.x.to_le_bytes());
    bytes.extend_from_slice(&pos.z.to_le_bytes());
    bytes.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for &(count, block) in runs {
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&block.id().to_le_bytes());
    }
    bytes
}

/// Layers of each drawn column.
const LAYERS: usize = 5;

/// One column as `from_columns` takes it: layers from the bottom up.
type Column = [(u32, Block); LAYERS];

/// Where one layer ends and the next starts: often on or next to a section
/// edge or at either end of the column.
fn arb_cut() -> impl Strategy<Value = u32> {
    prop_oneof![
        1 => Just(0u32),
        1 => Just(CHUNK_HEIGHT as u32),
        2 => (0u32..17).prop_map(|k| 16 * k),
        2 => (1u32..16, any::<bool>()).prop_map(|(k, up)| if up { 16 * k + 1 } else { 16 * k - 1 }),
        2 => 0u32..CHUNK_HEIGHT as u32 + 1,
    ]
}

/// The column whose layers end at the sorted `cuts` (equal cuts make
/// empty layers) and hold `ids`.
fn column(mut cuts: [u32; LAYERS - 1], ids: [Block; LAYERS]) -> Column {
    cuts.sort_unstable();
    let mut below = 0;
    std::array::from_fn(|k| {
        let top = cuts.get(k).copied().unwrap_or(CHUNK_HEIGHT as u32);
        let layer = (top - below, ids[k]);
        below = top;
        layer
    })
}

/// How the chunk's columns relate to one drawn template column.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every column is the template.
    Same,
    /// Every layer of every column holds one id.
    OneId,
    /// Columns move one of the template's cuts or change one of its ids.
    Varied,
    /// Every cut inside section `s`, and columns vary only there: at most
    /// that one section is mixed.
    OneSection(u32),
    /// Every column drawn on its own.
    Independent,
}

/// The 256 columns of a chunk: a template column, with empty layers and
/// (four ids) often equal neighbours, varied per column by the shape.
fn arb_columns() -> impl Strategy<Value = Vec<Column>> {
    let block = || prop::sample::select(vec![Block::Air, Block::Stone, Block::Dirt, Block::Wire]);
    let cuts =
        || (arb_cut(), arb_cut(), arb_cut(), arb_cut()).prop_map(|(a, b, c, d)| [a, b, c, d]);
    let ids = || {
        (block(), block(), block(), block(), block()).prop_map(|(a, b, c, d, e)| [a, b, c, d, e])
    };
    let shape = prop_oneof![
        2 => Just(Shape::Same),
        1 => Just(Shape::OneId),
        3 => Just(Shape::Varied),
        2 => (0u32..16).prop_map(Shape::OneSection),
        1 => Just(Shape::Independent),
    ];
    // Per column: keep the template (0), move a cut (1) or change an id
    // (2); which one, by how much or to what; and its own layers.
    let change = (0u8..3, 0usize..LAYERS, -3i32..4, block(), cuts(), ids());
    let changes = prop::collection::vec(change, COLUMNS..COLUMNS + 1);
    (cuts(), ids(), shape, changes).prop_map(|(cuts, ids, shape, changes)| {
        let (cuts, ids, (lo, hi), inner) = match shape {
            Shape::OneId => (cuts, [ids[0]; LAYERS], (0, CHUNK_HEIGHT as u32), 0..LAYERS),
            // The first and last layer reach into the other sections.
            Shape::OneSection(s) => (
                cuts.map(|c| 16 * s + c % 17),
                ids,
                (16 * s, 16 * s + 16),
                1..LAYERS - 1,
            ),
            _ => (cuts, ids, (0, CHUNK_HEIGHT as u32), 0..LAYERS),
        };
        changes
            .into_iter()
            .map(
                |(kind, k, delta, block, own_cuts, own_ids)| match (shape, kind) {
                    (Shape::Independent, _) => column(own_cuts, own_ids),
                    (Shape::Same | Shape::OneId, _) | (_, 0) => column(cuts, ids),
                    (_, 1) => {
                        let mut cuts = cuts;
                        let cut = &mut cuts[k % (LAYERS - 1)];
                        *cut = cut.saturating_add_signed(delta).clamp(lo, hi);
                        column(cuts, ids)
                    }
                    _ => {
                        let mut ids = ids;
                        ids[inner.start + k % inner.len()] = block;
                        column(cuts, ids)
                    }
                },
            )
            .collect()
    })
}

/// Columns in a chunk.
const COLUMNS: usize = (CHUNK_SIZE * CHUNK_SIZE) as usize;

proptest! {
    /// The chunk built from any columns reads like the dense model of their
    /// layers (every block, the heights, the counts, the O(1) size and the
    /// canonical encoding), and exactly its mixed sections own an array.
    /// Decoding its bytes gives the same chunk with no modifications, and so
    /// does decoding the layers themselves as a run list, empty and split
    /// runs included.
    #[test]
    fn from_columns_matches_a_dense_model(
        columns in arb_columns(),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let pos = ChunkPos::new(cx, cz);
        let columns: [Column; COLUMNS] = columns.try_into().unwrap();
        let chunk = Chunk::from_columns(pos, &columns).unwrap();
        let mut model = model_of_blocks(columns.iter().flatten().copied());
        assert_matches_model(&chunk, &model);
        prop_assert_eq!(chunk.heap_bytes(), 8192 * mixed_sections(&model));

        model.modifications = 0;
        let restored = Chunk::from_bytes(&chunk.to_bytes()).unwrap();
        assert_matches_model(&restored, &model);
        prop_assert_eq!(restored.heap_bytes(), chunk.heap_bytes());
        let layers: Vec<(u32, Block)> = columns.iter().flatten().copied().collect();
        let decoded = Chunk::from_bytes(&runs_to_bytes(pos, &layers)).unwrap();
        assert_matches_model(&decoded, &model);
        prop_assert_eq!(decoded.heap_bytes(), chunk.heap_bytes());
    }

    /// The run decoder behind `from_bytes` lays any run list exactly, runs
    /// across column ends included: the chunk reads like the dense model
    /// of the runs, with no modifications, and only its mixed sections own
    /// an array.
    #[test]
    fn from_bytes_matches_a_dense_model(
        runs in arb_runs(),
        cx in -1000i32..1000,
        cz in -1000i32..1000,
    ) {
        let pos = ChunkPos::new(cx, cz);
        let decoded = Chunk::from_bytes(&runs_to_bytes(pos, &runs)).unwrap();
        let mut model = model_of_blocks(runs.iter().copied());
        model.modifications = 0;
        assert_matches_model(&decoded, &model);
        prop_assert_eq!(decoded.heap_bytes(), 8192 * mixed_sections(&model));
    }

    /// A column whose layers stop short of its top or run past it, and a
    /// run list that stops short of the chunk's end or runs past it, is an
    /// error, never a panic.
    #[test]
    fn short_and_overflowing_run_lists_are_errors(
        runs in arb_runs(),
        columns in arb_columns(),
        pick in any::<usize>(),
        extra in prop_oneof![1 => 1u32..300, 1 => Just(u32::MAX)],
    ) {
        let pos = ChunkPos::new(3, -4);
        let mut short = runs.clone();
        let (count, _) = short.pop().unwrap();
        if count > 0 {
            prop_assert!(Chunk::from_bytes(&runs_to_bytes(pos, &short)).is_err());
        }
        let mut long = runs;
        let at = pick % long.len();
        long[at].0 = long[at].0.saturating_add(extra);
        prop_assert!(Chunk::from_bytes(&runs_to_bytes(pos, &long)).is_err());

        let columns: [Column; COLUMNS] = columns.try_into().unwrap();
        let (c, k) = (pick % COLUMNS, pick / COLUMNS % LAYERS);
        let mut long = columns;
        long[c][k].0 = long[c][k].0.saturating_add(extra);
        prop_assert!(Chunk::from_columns(pos, &long).is_err());
        // The first non-empty layer of the column, one block or all of it
        // shorter.
        let mut short = columns;
        let layer = short[c].iter_mut().find(|(count, _)| *count > 0).unwrap();
        layer.0 -= if extra % 2 == 0 { 1 } else { layer.0 };
        prop_assert!(Chunk::from_columns(pos, &short).is_err());
    }
}

/// Fills section `s` (`y` in `16s..16s + 16`) whole, which leaves it
/// uniform.
fn fill_section(chunk: &mut Chunk, s: i32, block: Block) {
    let edge = CHUNK_SIZE - 1;
    chunk
        .fill_box((0, 16 * s, 0), (edge, 16 * s + 15, edge), block)
        .unwrap();
}

/// Fills section `s` with `block` in two boxes, neither covering it whole,
/// so a section that has an array keeps it.
fn fill_section_in_place(chunk: &mut Chunk, s: i32, block: Block) {
    let edge = CHUNK_SIZE - 1;
    let (lo, hi) = (16 * s, 16 * s + 15);
    chunk
        .fill_box((0, lo, 0), (edge, hi, edge - 1), block)
        .unwrap();
    chunk
        .fill_box((0, lo, edge), (edge, hi, edge), block)
        .unwrap();
}

/// The shapes the encoder walks differently: spans of merged uniform
/// sections, dense slices that match the run they continue, and runs that
/// cross a column's end. Each chunk is encoded, checked against the
/// reference encoder and the O(1) size, decoded, and checked again.
#[test]
fn encoder_edge_cases_match_the_reference() {
    let pos = ChunkPos::new(-7, 12);
    let ids = [Block::Stone, Block::Air, Block::Dirt, Block::Wire];
    let mut cases: Vec<(&str, Chunk, usize)> = vec![("all air", Chunk::empty(pos), 0)];

    // Uniform sections alternating between two ids (no two neighbours
    // merge), and in pairs (each pair is one span).
    let mut alternating = Chunk::empty(pos);
    let mut pairs = Chunk::empty(pos);
    for s in 0..16 {
        fill_section(&mut alternating, s, ids[s as usize % 2]);
        fill_section(&mut pairs, s, ids[s as usize / 2 % 3]);
    }
    cases.push(("alternating uniform sections", alternating, 0));
    cases.push(("uniform sections in pairs", pairs, 0));

    // Sections 0 to 2 stone, section 1 dense with one dirt block: every
    // other column's slice of section 1 equals the stone run it continues.
    let mut matching = Chunk::empty(pos);
    for s in 0..3 {
        fill_section(&mut matching, s, Block::Stone);
    }
    matching.set_local(5, 20, 9, Block::Dirt).unwrap();
    cases.push((
        "dense slices equal to the running id",
        matching.clone(),
        8192,
    ));
    // The same with the dirt block on the slice's first and last block, so
    // the run changes on the slice's edges.
    matching.set_local(5, 20, 9, Block::Stone).unwrap();
    matching.set_local(0, 16, 0, Block::Dirt).unwrap();
    matching.set_local(15, 31, 15, Block::Dirt).unwrap();
    cases.push(("dense slices changing on their edges", matching, 8192));

    // Section 15 dense, its top block stone in every column but one, and
    // sections 0 to 14 stone: the top of each column's dense slice runs on
    // into the next column's span.
    let mut crossing = Chunk::empty(pos);
    for s in 0..15 {
        fill_section(&mut crossing, s, Block::Stone);
    }
    crossing
        .fill_box(
            (0, 255, 0),
            (CHUNK_SIZE - 1, 255, CHUNK_SIZE - 1),
            Block::Stone,
        )
        .unwrap();
    crossing.set_local(3, 255, 4, Block::Wire).unwrap();
    cases.push(("run crossing a column end into a span", crossing, 8192));

    // A section promoted by a write and then given one id everywhere
    // again: dense, but every slice is one id. Once in the id of the
    // sections around it, once in another.
    let mut same = Chunk::empty(pos);
    same.set_local(4, 70, 4, Block::Stone).unwrap();
    same.set_local(4, 70, 4, Block::Air).unwrap();
    cases.push(("dense section of the surrounding id", same, 8192));
    let mut other = Chunk::empty(pos);
    other.set_local(4, 70, 4, Block::Stone).unwrap();
    fill_section_in_place(&mut other, 4, Block::Dirt);
    cases.push(("dense section of one other id", other, 8192));

    // Every section dense: one block of each section differs, alternately
    // at a column's bottom, its top and its middle.
    let mut all_dense = Chunk::empty(pos);
    for s in 0..16 {
        let (x, z) = (s % CHUNK_SIZE, (s * 7) % CHUNK_SIZE);
        all_dense
            .set_local(
                x,
                16 * s + [0, 15, 7][s as usize % 3],
                z,
                ids[s as usize % 4],
            )
            .unwrap();
        if ids[s as usize % 4] == Block::Air {
            all_dense.set_local(x, 16 * s + 3, z, Block::Dirt).unwrap();
        }
    }
    cases.push(("every section dense", all_dense, 16 * 8192));

    for (name, chunk, heap) in cases {
        assert_eq!(chunk.heap_bytes(), heap, "{name}: fixture shape");
        let bytes = chunk.to_bytes();
        assert_eq!(bytes, reference_to_bytes(&chunk), "{name}");
        assert_eq!(bytes.len(), chunk.serialized_size(), "{name}");
        let decoded = Chunk::from_bytes(&bytes).unwrap();
        assert_eq!(
            reference_to_bytes(&decoded),
            bytes,
            "{name}: decoded blocks"
        );
        assert_eq!(decoded.to_bytes(), bytes, "{name}: re-encoded");
    }
}

/// The linear index of a chunk-local position, as [`BlockEdit`] holds it.
fn linear(x: i32, y: i32, z: i32) -> u16 {
    ((x * CHUNK_SIZE + z) * CHUNK_HEIGHT + y) as u16
}

/// The representation cases of `Chunk::diff`: a uniform section against a
/// dense one and back, which compare column by column, and edits on the
/// first and last block of a column, which sit on a section's edges.
#[test]
fn diff_fixed_cases() {
    let pos = ChunkPos::new(1, 1);
    let edge = CHUNK_SIZE - 1;

    // Uniform stone against a dense section holding one wire.
    let mut uniform = Chunk::empty(pos);
    fill_section(&mut uniform, 2, Block::Stone);
    let mut dense = uniform.clone();
    dense.set_local(4, 37, 11, Block::Wire).unwrap();
    assert_eq!((uniform.heap_bytes(), dense.heap_bytes()), (0, 8192));
    let wire = BlockEdit {
        index: linear(4, 37, 11),
        block: Block::Wire,
    };
    assert_eq!(dense.diff(&uniform), vec![wire]);
    let stone = BlockEdit {
        block: Block::Stone,
        ..wire
    };
    assert_eq!(uniform.diff(&dense), vec![stone]);
    // Dense but all stone again: no block differs from the uniform section.
    dense.set_local(4, 37, 11, Block::Stone).unwrap();
    assert_eq!(dense.heap_bytes(), 8192);
    assert!(dense.diff(&uniform).is_empty());
    assert!(uniform.diff(&dense).is_empty());

    // Two uniform sections of different ids differ in every block.
    let mut dirt = uniform.clone();
    fill_section(&mut dirt, 2, Block::Dirt);
    let edits = dirt.diff(&uniform);
    assert_eq!(edits.len(), 16 * 16 * 16);
    assert!(edits.iter().all(|edit| edit.block == Block::Dirt));

    // The first and last block of a column: y 0 and y 255, the chunk's
    // first and last block included.
    let base = Chunk::empty(pos);
    let mut ends = base.clone();
    for (x, y, z) in [
        (0, 0, 0),
        (0, 255, 0),
        (7, 0, 3),
        (7, 255, 3),
        (edge, 255, edge),
    ] {
        ends.set_local(x, y, z, Block::Lamp).unwrap();
    }
    let mut indices: Vec<u16> = ends.diff(&base).iter().map(|edit| edit.index).collect();
    indices.sort_unstable();
    assert_eq!(
        indices,
        vec![
            linear(0, 0, 0),
            linear(0, 255, 0),
            linear(7, 0, 3),
            linear(7, 255, 3),
            u16::MAX
        ]
    );
    let mut patched = base.clone();
    patched.apply_edits(&ends.diff(&base));
    assert_eq!(patched.to_bytes(), ends.to_bytes());
    assert_eq!(patched.serialized_size(), ends.serialized_size());
}
