//! Parameterised construct generators.
//!
//! The paper evaluates constructs of varying sizes — notably 252- and
//! 484-block constructs in Section IV-G — and workloads with 0 to 200
//! constructs (Figure 7). These generators build deterministic constructs of
//! any requested size so experiments can sweep construct counts and sizes.

use servo_types::BlockPos;

use crate::blueprint::{Blueprint, CircuitBlock};

/// A straight line: one power source, `wires` wire blocks, one lamp.
///
/// Total size: `wires + 2` blocks.
pub fn wire_line(wires: usize) -> Blueprint {
    let mut b = Blueprint::new();
    b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
    for x in 1..=wires as i32 {
        b.add(BlockPos::new(x, 0, 0), CircuitBlock::Wire);
    }
    b.add(BlockPos::new(wires as i32 + 1, 0, 0), CircuitBlock::Lamp);
    b
}

/// An oscillating clock: a torch feeding a loop of `loop_wires` wire blocks
/// back into itself. The construct alternates between two states forever,
/// making it the canonical target for Servo's loop-detection optimization.
///
/// Total size: `loop_wires + 1` blocks (minimum 4).
pub fn clock(loop_wires: usize) -> Blueprint {
    let loop_wires = loop_wires.max(3);
    let mut b = Blueprint::new();
    b.add(BlockPos::new(0, 0, 0), CircuitBlock::Torch);
    // A rectangular wire loop around the torch: go east, then south, then
    // back west and north to close next to the torch.
    let half = (loop_wires / 2 + 1) as i32;
    let mut placed = 0usize;
    let mut x = 1;
    let mut z = 0;
    // East leg.
    while placed < loop_wires && x < half {
        b.add(BlockPos::new(x, 0, z), CircuitBlock::Wire);
        placed += 1;
        x += 1;
    }
    // South leg.
    z = 1;
    x -= 1;
    if placed < loop_wires {
        b.add(BlockPos::new(x, 0, z), CircuitBlock::Wire);
        placed += 1;
    }
    // West leg back towards the torch.
    while placed < loop_wires && x > 0 {
        x -= 1;
        b.add(BlockPos::new(x, 0, z), CircuitBlock::Wire);
        placed += 1;
    }
    b
}

/// A bank of lamps driven by one power source through a wire bus: a simple
/// "lighting rig" construct with mostly static behaviour.
///
/// Total size: `2 * lamps + 1` blocks.
pub fn lamp_bank(lamps: usize) -> Blueprint {
    let mut b = Blueprint::new();
    b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
    for i in 0..lamps as i32 {
        b.add(BlockPos::new(i + 1, 0, 0), CircuitBlock::Wire);
        b.add(BlockPos::new(i + 1, 0, 1), CircuitBlock::Lamp);
    }
    b
}

/// A deterministic dense circuit with exactly `block_count` blocks.
///
/// The circuit is laid out on a 16-block-wide grid and mixes power sources,
/// wires, torches, repeaters and lamps in a fixed pattern. It carries
/// signal but, at every size from 24 to 1 000 blocks, does not oscillate:
/// from its initial state it changes for a few steps and then holds a fixed
/// point, reached by step 3. (At 14–23 blocks the first row ends in a torch
/// that does oscillate.) Two calls with the same `block_count` produce
/// identical blueprints.
///
/// This is the generator used for the construct-count sweeps of Figure 7 and
/// the construct-size sweep of Section IV-G.
pub fn dense_circuit(block_count: usize) -> Blueprint {
    let mut b = Blueprint::new();
    let width: i32 = 16;
    let mut placed = 0usize;
    let mut i: i32 = 0;
    while placed < block_count {
        let x = i % width;
        let z = i / width;
        let kind = match (x, z % 4) {
            (0, _) => CircuitBlock::PowerSource,
            (x, 0) if x % 7 == 6 => CircuitBlock::Torch,
            (x, 1) if x % 5 == 4 => CircuitBlock::Repeater,
            (x, 2) if x % 6 == 5 => CircuitBlock::Lamp,
            (x, 3) if x % 9 == 8 => CircuitBlock::Torch,
            _ => CircuitBlock::Wire,
        };
        b.add(BlockPos::new(x, 0, z), kind);
        placed += 1;
        i += 1;
    }
    b
}

/// The small construct evaluated in Section IV-G of the paper: 252 blocks.
pub fn paper_small() -> Blueprint {
    dense_circuit(252)
}

/// The medium construct evaluated in Section IV-G of the paper: 484 blocks.
pub fn paper_medium() -> Blueprint {
    dense_circuit(484)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Construct;

    #[test]
    fn wire_line_has_expected_size_and_carries_signal() {
        let b = wire_line(10);
        assert_eq!(b.len(), 12);
        let mut c = Construct::new(b);
        c.step();
        // The lamp at the end is lit (10 wires keep the signal alive).
        assert!(c.state().powers().last().unwrap() > &0);
    }

    #[test]
    fn clock_sizes() {
        assert_eq!(clock(3).len(), 4);
        assert_eq!(clock(8).len(), 9);
        // Tiny requests are clamped to a working loop.
        assert!(clock(0).len() >= 4);
    }

    #[test]
    fn clock_oscillates() {
        let mut c = Construct::new(clock(6));
        let states = c.step_many(10);
        let h: Vec<u64> = states.iter().map(|s| s.hash()).collect();
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn lamp_bank_lights_up() {
        let mut c = Construct::new(lamp_bank(5));
        assert_eq!(c.len(), 11);
        c.step_many(3);
        let lit = c
            .blueprint()
            .kinds()
            .iter()
            .zip(c.state().powers())
            .filter(|(k, p)| **k == CircuitBlock::Lamp && **p > 0)
            .count();
        assert!(lit >= 1);
    }

    #[test]
    fn dense_circuit_has_exact_size() {
        for n in [1, 16, 100, 252, 484, 1000] {
            assert_eq!(dense_circuit(n).len(), n, "size {n}");
        }
    }

    #[test]
    fn dense_circuit_is_deterministic() {
        assert_eq!(dense_circuit(300), dense_circuit(300));
    }

    #[test]
    fn dense_circuit_is_active() {
        // The circuit must actually change state over time (it creates
        // simulation work), not settle immediately.
        let mut c = Construct::new(dense_circuit(252));
        let states = c.step_many(20);
        let distinct: std::collections::HashSet<u64> = states.iter().map(|s| s.hash()).collect();
        assert!(distinct.len() >= 2);
        // And it carries power.
        assert!(states.last().unwrap().powered_blocks() > 0);
    }

    #[test]
    fn dense_circuit_settles_within_four_steps() {
        for n in [64, 252, 484, 1000] {
            let mut c = Construct::new(dense_circuit(n));
            c.step_many(3);
            let settled = c.state().powers().to_vec();
            assert!(c.state().powered_blocks() > 0, "size {n}");
            c.step();
            assert_eq!(c.state().powers(), settled, "size {n}");
        }
    }

    #[test]
    fn paper_constructs_match_reported_sizes() {
        assert_eq!(paper_small().len(), 252);
        assert_eq!(paper_medium().len(), 484);
    }
}
