//! The construct step as it was before blueprints compiled to circuits —
//! a breadth-first search over the wires, every step — kept verbatim as the
//! reference [`Construct::step`] is compared against, and a driver that
//! steps both through the same starting powers and player modifications,
//! comparing powers after every step.
//!
//! Shared, via `#[path]`, by the redstone crate's property test
//! (`tests/engine_reference.rs`) and the facade's tier-1 case
//! (`tests/cross_properties.rs` at the workspace root).

use std::collections::VecDeque;

use proptest::prelude::*;
use servo_redstone::{Blueprint, CircuitBlock, Construct, ConstructState};
use servo_types::{BlockPos, Direction};

const MAX_POWER: u8 = 15;

/// Something that happens to the construct under test.
#[derive(Debug, Clone)]
pub enum Op {
    /// One step of both engines, then a comparison.
    Step,
    /// The block at index `block % len` becomes `kind`.
    Replace { block: usize, kind: CircuitBlock },
    /// The block at index `block % len` is neutralised (a dead wire).
    Neutralise { block: usize },
    /// A block of `kind` is placed at `(x, y, z)`, new or replacing.
    Add {
        at: (i32, i32, i32),
        kind: CircuitBlock,
    },
}

/// Any circuit block kind.
pub fn kind() -> impl Strategy<Value = CircuitBlock> {
    prop::sample::select(vec![
        CircuitBlock::PowerSource,
        CircuitBlock::Wire,
        CircuitBlock::Lamp,
        CircuitBlock::Repeater,
        CircuitBlock::Torch,
    ])
}

/// Starting powers over the whole `u8` range; the driver uses a prefix.
pub fn powers() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 600..601)
}

/// A mix of steps and the three kinds of modification.
pub fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        6 => Just(Op::Step),
        1 => (any::<usize>(), kind()).prop_map(|(block, kind)| Op::Replace { block, kind }),
        1 => any::<usize>().prop_map(|block| Op::Neutralise { block }),
        1 => ((-5i32..5, -3i32..3, -5i32..5), kind()).prop_map(|(at, kind)| Op::Add { at, kind }),
    ];
    prop::collection::vec(op, 1..40)
}

/// Runs `ops` on a construct of `blueprint` starting from the first
/// `blueprint.len()` of `powers`, and asserts after every step that its
/// powers are the reference step's.
pub fn run(blueprint: Blueprint, powers: &[u8], ops: &[Op]) {
    let mut expected = powers[..blueprint.len()].to_vec();
    let state = ConstructState::from_powers(expected.clone(), 0, 0);
    let mut construct = Construct::with_state(blueprint, state);
    for (i, op) in ops.iter().enumerate() {
        let len = construct.len();
        let (pos, kind) = match *op {
            Op::Step => {
                expected = reference_step(construct.blueprint(), &expected);
                construct.step();
                assert_eq!(construct.state().powers(), &expected[..], "op {i}");
                continue;
            }
            Op::Replace { block, kind } => {
                (construct.blueprint().position(block % len), Some(kind))
            }
            Op::Neutralise { block } => (construct.blueprint().position(block % len), None),
            Op::Add {
                at: (x, y, z),
                kind,
            } => (BlockPos::new(x, y, z), Some(kind)),
        };
        match construct.blueprint().index_of(pos) {
            Some(index) => expected[index] = 0,
            None => expected.push(0),
        }
        construct.apply_modification(pos, kind);
    }
}

/// The neighbours of every block, worked out from the positions alone so
/// the reference shares nothing with the circuit under test.
fn neighbours(blueprint: &Blueprint) -> Vec<Vec<usize>> {
    blueprint
        .positions()
        .iter()
        .map(|&pos| {
            let mut adjacent: Vec<usize> = Direction::ALL
                .iter()
                .filter_map(|&dir| blueprint.index_of(pos.offset(dir)))
                .collect();
            adjacent.sort_unstable();
            adjacent
        })
        .collect()
}

/// One step of the breadth-first-search engine.
pub fn reference_step(blueprint: &Blueprint, prev: &[u8]) -> Vec<u8> {
    let n = blueprint.len();
    let neighbours = neighbours(blueprint);

    // 1. Output of the emitting (non-wire) blocks, based on the previous
    //    step's state.
    let mut emitted = vec![0u8; n];
    for i in 0..n {
        emitted[i] = match blueprint.kind(i) {
            CircuitBlock::PowerSource => MAX_POWER,
            CircuitBlock::Repeater | CircuitBlock::Torch => prev[i],
            CircuitBlock::Wire | CircuitBlock::Lamp => 0,
        };
    }

    // 2. Instantaneous wire propagation: multi-source BFS over wires,
    //    decaying one level per block, keeping the strongest signal.
    let mut wire_power = vec![0u8; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, slot) in wire_power.iter_mut().enumerate() {
        if blueprint.kind(i) != CircuitBlock::Wire {
            continue;
        }
        let strongest_emitter = neighbours[i].iter().map(|&j| emitted[j]).max().unwrap_or(0);
        let p = strongest_emitter.saturating_sub(1);
        if p > 0 {
            *slot = p;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        let next_power = wire_power[i].saturating_sub(1);
        if next_power == 0 {
            continue;
        }
        for &j in &neighbours[i] {
            if blueprint.kind(j) == CircuitBlock::Wire && wire_power[j] < next_power {
                wire_power[j] = next_power;
                queue.push_back(j);
            }
        }
    }

    // 3. Input seen by each block this step: the strongest of adjacent
    //    emitter outputs and adjacent wire power.
    let input = |i: usize| -> u8 {
        neighbours[i]
            .iter()
            .map(|&j| emitted[j].max(wire_power[j]))
            .max()
            .unwrap_or(0)
    };

    // 4. Next state.
    let mut next = vec![0u8; n];
    for i in 0..n {
        next[i] = match blueprint.kind(i) {
            CircuitBlock::PowerSource => MAX_POWER,
            CircuitBlock::Wire => wire_power[i],
            CircuitBlock::Lamp => {
                if input(i) > 0 {
                    MAX_POWER
                } else {
                    0
                }
            }
            CircuitBlock::Repeater => {
                if input(i) > 0 {
                    MAX_POWER
                } else {
                    0
                }
            }
            CircuitBlock::Torch => {
                if input(i) > 0 {
                    0
                } else {
                    MAX_POWER
                }
            }
        };
    }
    next
}
