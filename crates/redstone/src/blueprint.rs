//! Construct blueprints: block kinds and their positions, and the flat
//! circuit each shape compiles to.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use servo_types::{BlockPos, Direction};
use servo_world::Block;

use crate::state::MAX_POWER;

/// The kind of a stateful block inside a construct.
///
/// These mirror the stateful [`servo_world::Block`] kinds of the
/// world crate, but carry the circuit semantics used by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircuitBlock {
    /// Always emits a full-strength (15) signal.
    PowerSource,
    /// Propagates signal with a decay of one level per block.
    Wire,
    /// Consumes signal; "lit" when receiving any power.
    Lamp,
    /// Re-emits a full-strength signal one tick after being powered.
    Repeater,
    /// Inverter: emits full strength one tick after being *unpowered*.
    Torch,
}

impl CircuitBlock {
    /// The world-block representation of this circuit block.
    pub const fn as_world_block(self) -> Block {
        match self {
            CircuitBlock::PowerSource => Block::PowerSource,
            CircuitBlock::Wire => Block::Wire,
            CircuitBlock::Lamp => Block::Lamp,
            CircuitBlock::Repeater => Block::Repeater,
            CircuitBlock::Torch => Block::Torch,
        }
    }

    /// Builds a circuit block from a stateful world block, or `None` for
    /// passive terrain blocks.
    pub const fn from_world_block(block: Block) -> Option<CircuitBlock> {
        Some(match block {
            Block::PowerSource => CircuitBlock::PowerSource,
            Block::Wire => CircuitBlock::Wire,
            Block::Lamp => CircuitBlock::Lamp,
            Block::Repeater => CircuitBlock::Repeater,
            Block::Torch => CircuitBlock::Torch,
            _ => return None,
        })
    }
}

/// The shape of a simulated construct: which stateful blocks it contains
/// and where they sit relative to each other.
///
/// The shape lives behind an [`Arc`], so cloning a blueprint is a
/// reference-count bump. [`Blueprint::add`] is copy-on-write: it copies the
/// shape only while a clone still shares it, and drops the compiled
/// [`Circuit`]. The circuit (adjacency and the tables
/// [`Construct::step`](crate::Construct::step) reads) is built on first use,
/// once per shape, and shared by every clone.
///
/// # Example
///
/// ```
/// use servo_redstone::{Blueprint, CircuitBlock};
/// use servo_types::BlockPos;
///
/// let mut b = Blueprint::new();
/// b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
/// b.add(BlockPos::new(1, 0, 0), CircuitBlock::Wire);
/// b.add(BlockPos::new(2, 0, 0), CircuitBlock::Lamp);
/// assert_eq!(b.len(), 3);
/// assert_eq!(b.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Blueprint {
    shape: Arc<Shape>,
    circuit: Arc<OnceLock<Circuit>>,
}

#[derive(Debug, Clone, Default)]
struct Shape {
    kinds: Vec<CircuitBlock>,
    positions: Vec<BlockPos>,
    index_by_pos: HashMap<BlockPos, usize>,
}

impl PartialEq for Blueprint {
    fn eq(&self, other: &Self) -> bool {
        self.kinds() == other.kinds() && self.positions() == other.positions()
    }
}

impl Eq for Blueprint {}

impl Blueprint {
    /// Creates an empty blueprint.
    pub fn new() -> Self {
        Blueprint::default()
    }

    /// Adds a block at `pos`. If a block already exists at that position its
    /// kind is replaced. Returns the block's index within the construct.
    pub fn add(&mut self, pos: BlockPos, kind: CircuitBlock) -> usize {
        self.circuit = Arc::default();
        let shape = Arc::make_mut(&mut self.shape);
        if let Some(&idx) = shape.index_by_pos.get(&pos) {
            shape.kinds[idx] = kind;
            return idx;
        }
        let idx = shape.kinds.len();
        shape.kinds.push(kind);
        shape.positions.push(pos);
        shape.index_by_pos.insert(pos, idx);
        idx
    }

    /// Number of blocks in the construct.
    pub fn len(&self) -> usize {
        self.shape.kinds.len()
    }

    /// Whether the blueprint contains no blocks.
    pub fn is_empty(&self) -> bool {
        self.shape.kinds.is_empty()
    }

    /// The kind of the block at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kind(&self, index: usize) -> CircuitBlock {
        self.shape.kinds[index]
    }

    /// The kinds of all blocks, in index order.
    pub fn kinds(&self) -> &[CircuitBlock] {
        &self.shape.kinds
    }

    /// The position of the block at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn position(&self, index: usize) -> BlockPos {
        self.shape.positions[index]
    }

    /// The positions of all blocks, in index order.
    pub fn positions(&self) -> &[BlockPos] {
        &self.shape.positions
    }

    /// The indices of blocks adjacent to the block at `index`
    /// (6-connectivity), ascending.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn neighbors(&self, index: usize) -> &[usize] {
        self.circuit().neighbors(index)
    }

    /// The index of the block at `pos`, if any.
    pub fn index_of(&self, pos: BlockPos) -> Option<usize> {
        self.shape.index_by_pos.get(&pos).copied()
    }

    /// The compiled circuit of this shape, built on the first call and
    /// shared by every clone of the blueprint.
    pub fn circuit(&self) -> &Circuit {
        self.circuit.get_or_init(|| Circuit::build(&self.shape))
    }

    /// Translates every block position by `offset`, e.g. to place the
    /// construct somewhere in the world.
    pub fn translated(&self, offset: BlockPos) -> Blueprint {
        let mut out = Blueprint::new();
        for (i, &kind) in self.kinds().iter().enumerate() {
            out.add(self.position(i) + offset, kind);
        }
        out
    }
}

/// A blueprint compiled for stepping: flat tables that let
/// [`Construct::step`](crate::Construct::step) run without a search or an
/// allocation.
///
/// Within one step a wire carries the strongest of
/// `emitted(e) - hops(e, w)` over the blocks `e` that emit into the wire
/// network, where `hops(e, w)` is `1 +` the length of the shortest path from
/// a wire next to `e` to `w` through wires only. Power sources always emit
/// 15, so their share of that maximum is a constant of the shape
/// (`base`); repeaters and torches emit last step's power, so each keeps
/// its `hops` as one row of the `rows` table and the step max-merges the
/// rows of those that are powered.
#[derive(Debug)]
pub struct Circuit {
    /// Neighbours of block `i` are `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    adjacency: Vec<usize>,
    /// Powers before any repeater or torch contributes: 15 at power
    /// sources, the field the sources alone give each wire, 0 elsewhere.
    pub(crate) base: Vec<u8>,
    /// Repeaters and torches, ascending.
    pub(crate) emitters: Vec<usize>,
    /// One row of one `u8` per block for each emitter, in `emitters` order:
    /// `hops` to every wire, 255 at every other block and where no wire
    /// path exists (no `u8` power survives 255 hops, so this is exact).
    pub(crate) rows: Vec<u8>,
    /// Lamps, repeaters and torches, ascending, with where their inputs sit
    /// in `inputs`.
    pub(crate) consumers: Vec<Consumer>,
    pub(crate) inputs: Vec<usize>,
}

/// A block whose next power depends on whether any neighbour powers it.
#[derive(Debug)]
pub(crate) struct Consumer {
    pub(crate) block: usize,
    /// A torch: lit when *un*powered.
    pub(crate) inverts: bool,
    /// `inputs[start..split]` are the adjacent wires and power sources,
    /// read from this step's powers; `inputs[split..end]` are the adjacent
    /// repeaters and torches, read from last step's.
    pub(crate) start: usize,
    pub(crate) split: usize,
    pub(crate) end: usize,
}

impl Circuit {
    fn build(shape: &Shape) -> Circuit {
        use CircuitBlock::{Lamp, PowerSource, Repeater, Torch, Wire};
        let kinds = &shape.kinds;
        let (mut offsets, mut adjacency) = (vec![0], Vec::new());
        for &pos in &shape.positions {
            let start = adjacency.len();
            adjacency.extend(
                Direction::ALL
                    .iter()
                    .filter_map(|&dir| shape.index_by_pos.get(&pos.offset(dir)).copied()),
            );
            adjacency[start..].sort_unstable();
            offsets.push(adjacency.len());
        }
        let neighbours = |i: usize| &adjacency[offsets[i]..offsets[i + 1]];
        // `hops` from the nearest of `starts` to every block, by
        // breadth-first search through wires; 255 at non-wires, where
        // unreachable and from 255 hops on.
        let wire_hops = |starts: &[usize]| {
            let mut hops = vec![u8::MAX; kinds.len()];
            let mut queue: VecDeque<(usize, u8)> = starts.iter().map(|&i| (i, 0)).collect();
            while let Some((i, depth)) = queue.pop_front() {
                if depth == u8::MAX - 1 {
                    break;
                }
                for &j in neighbours(i) {
                    if kinds[j] == Wire && hops[j] == u8::MAX {
                        hops[j] = depth + 1;
                        queue.push_back((j, depth + 1));
                    }
                }
            }
            hops
        };
        let of_kind = |wanted: &[CircuitBlock]| -> Vec<usize> {
            (0..kinds.len())
                .filter(|&i| wanted.contains(&kinds[i]))
                .collect()
        };

        let base = wire_hops(&of_kind(&[PowerSource]))
            .iter()
            .zip(kinds)
            .map(|(&hops, &kind)| match kind {
                PowerSource => MAX_POWER,
                _ => MAX_POWER.saturating_sub(hops),
            })
            .collect();
        let emitters = of_kind(&[Repeater, Torch]);
        let rows = emitters.iter().flat_map(|&e| wire_hops(&[e])).collect();
        let (mut consumers, mut inputs) = (Vec::new(), Vec::new());
        for block in of_kind(&[Lamp, Repeater, Torch]) {
            let adjacent = |wanted: [CircuitBlock; 2]| {
                neighbours(block)
                    .iter()
                    .copied()
                    .filter(move |&j| wanted.contains(&kinds[j]))
            };
            let start = inputs.len();
            inputs.extend(adjacent([Wire, PowerSource]));
            let split = inputs.len();
            inputs.extend(adjacent([Repeater, Torch]));
            consumers.push(Consumer {
                block,
                inverts: kinds[block] == Torch,
                start,
                split,
                end: inputs.len(),
            });
        }
        Circuit {
            offsets,
            adjacency,
            base,
            emitters,
            rows,
            consumers,
            inputs,
        }
    }

    /// Neighbours of block `index`, ascending.
    fn neighbors(&self, index: usize) -> &[usize] {
        &self.adjacency[self.offsets[index]..self.offsets[index + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn adjacency_is_symmetric() {
        let mut b = Blueprint::new();
        let a = b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
        let w = b.add(BlockPos::new(0, 1, 0), CircuitBlock::Wire);
        let far = b.add(BlockPos::new(5, 5, 5), CircuitBlock::Lamp);
        assert_eq!(b.neighbors(a), &[w]);
        assert_eq!(b.neighbors(w), &[a]);
        assert!(b.neighbors(far).is_empty());
    }

    #[test]
    fn duplicate_position_replaces_kind() {
        let mut b = Blueprint::new();
        let idx1 = b.add(BlockPos::ORIGIN, CircuitBlock::Wire);
        let idx2 = b.add(BlockPos::ORIGIN, CircuitBlock::Lamp);
        assert_eq!(idx1, idx2);
        assert_eq!(b.len(), 1);
        assert_eq!(b.kind(idx1), CircuitBlock::Lamp);
    }

    #[test]
    fn index_of_finds_blocks() {
        let mut b = Blueprint::new();
        b.add(BlockPos::new(1, 2, 3), CircuitBlock::Torch);
        assert_eq!(b.index_of(BlockPos::new(1, 2, 3)), Some(0));
        assert_eq!(b.index_of(BlockPos::new(0, 0, 0)), None);
    }

    #[test]
    fn translated_preserves_structure() {
        let mut b = Blueprint::new();
        b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
        b.add(BlockPos::new(1, 0, 0), CircuitBlock::Wire);
        let t = b.translated(BlockPos::new(10, 20, 30));
        assert_eq!(t.len(), 2);
        assert_eq!(t.position(0), BlockPos::new(10, 20, 30));
        assert_eq!(t.neighbors(0), &[1]);
    }

    #[test]
    fn circuit_block_world_round_trip() {
        for kind in [
            CircuitBlock::PowerSource,
            CircuitBlock::Wire,
            CircuitBlock::Lamp,
            CircuitBlock::Repeater,
            CircuitBlock::Torch,
        ] {
            assert_eq!(
                CircuitBlock::from_world_block(kind.as_world_block()),
                Some(kind)
            );
        }
        assert_eq!(CircuitBlock::from_world_block(Block::Stone), None);
    }

    #[test]
    fn clones_share_one_circuit_until_one_changes() {
        let a = generators::dense_circuit(64);
        let mut b = a.clone();
        assert!(std::ptr::eq(a.circuit(), b.circuit()));
        b.add(BlockPos::new(0, 5, 0), CircuitBlock::Torch);
        assert!(!std::ptr::eq(a.circuit(), b.circuit()));
        assert_eq!(a.len(), 64);
        assert_eq!(b.len(), 65);
        assert_eq!(b.circuit().emitters.len(), a.circuit().emitters.len() + 1);
    }

    #[test]
    fn table_size_budget() {
        // One byte per block for each repeater and torch.
        for (blocks, bytes) in [(64, 384), (252, 6_048), (484, 22_748), (1000, 95_000)] {
            let blueprint = generators::dense_circuit(blocks);
            assert_eq!(blueprint.circuit().rows.len(), bytes, "{blocks} blocks");
        }
    }
}
