//! Differential test of the compiled construct step against the
//! breadth-first-search step it replaced.

use proptest::prelude::*;
use servo_redstone::{Blueprint, CircuitBlock};
use servo_types::{BlockPos, Direction};

mod bfs_engine;

/// An arbitrary 3-D blueprint: a turtle walk that lays runs of wire, each
/// ending in a block of any kind (so wire paths grow long enough for powers
/// above 15 to matter), plus blocks scattered around the origin.
fn blueprint() -> impl Strategy<Value = Blueprint> {
    let wire_heavy = prop_oneof![3 => Just(CircuitBlock::Wire), 2 => bfs_engine::kind()];
    (
        prop::collection::vec((0usize..6, 1i32..10, wire_heavy), 1..30),
        prop::collection::vec(((-4i32..4, -2i32..2, -4i32..4), bfs_engine::kind()), 0..20),
    )
        .prop_map(|(walk, scattered)| {
            let mut blueprint = Blueprint::new();
            let mut at = BlockPos::ORIGIN;
            for (dir, run, end) in walk {
                for i in 1..=run {
                    at = at.offset(Direction::ALL[dir]);
                    let kind = if i == run { end } else { CircuitBlock::Wire };
                    blueprint.add(at, kind);
                }
            }
            for ((x, y, z), kind) in scattered {
                blueprint.add(BlockPos::new(x, y, z), kind);
            }
            blueprint
        })
}

proptest! {
    /// Powers equal the reference's after every step, for arbitrary 3-D
    /// shapes, starting powers anywhere in `0..=255`, and replacements,
    /// neutralisations and additions between steps.
    #[test]
    fn compiled_step_matches_the_bfs_reference(
        blueprint in blueprint(),
        powers in bfs_engine::powers(),
        ops in bfs_engine::ops(),
    ) {
        bfs_engine::run(blueprint, &powers, &ops);
    }
}
