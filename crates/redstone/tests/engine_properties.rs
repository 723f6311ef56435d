//! Property-based tests for the simulated-construct engine.

use proptest::prelude::*;
use servo_redstone::{
    generators, simulate_sequence, simulate_steps, Blueprint, CircuitBlock, Construct,
};
use servo_types::BlockPos;

fn arb_circuit_block() -> impl Strategy<Value = CircuitBlock> {
    prop::sample::select(vec![
        CircuitBlock::PowerSource,
        CircuitBlock::Wire,
        CircuitBlock::Lamp,
        CircuitBlock::Repeater,
        CircuitBlock::Torch,
    ])
}

/// An arbitrary connected-ish construct laid out on a small grid.
fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    prop::collection::vec(((0i32..8, 0i32..2, 0i32..8), arb_circuit_block()), 1..60).prop_map(
        |blocks| {
            let mut blueprint = Blueprint::new();
            for ((x, y, z), kind) in blocks {
                blueprint.add(BlockPos::new(x, y, z), kind);
            }
            blueprint
        },
    )
}

/// A power source feeding `repeaters` repeaters in a line: its signal moves
/// one repeater a step, so it settles only once the last one is lit.
fn repeater_chain(repeaters: i32) -> Blueprint {
    let mut chain = Blueprint::new();
    chain.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
    for x in 1..=repeaters {
        chain.add(BlockPos::new(x, 0, 0), CircuitBlock::Repeater);
    }
    chain
}

/// Wires and lamps only: nothing ever powers them, so the start state is
/// already a fixed point.
fn passive_blueprint(blocks: i32) -> Blueprint {
    let mut blueprint = Blueprint::new();
    for x in 0..blocks {
        let kind = if x % 3 == 2 {
            CircuitBlock::Lamp
        } else {
            CircuitBlock::Wire
        };
        blueprint.add(BlockPos::new(x, 0, 0), kind);
    }
    blueprint
}

/// Blueprints for a sequence without loop detection: arbitrary ones mixed
/// with clocks that never settle, chains longer than a signal's 15 hops
/// that settle late or not within the sequence, dense circuits that settle
/// after a few steps, and passive ones settled from the start.
fn arb_sequence_blueprint() -> impl Strategy<Value = Blueprint> {
    prop_oneof![
        3 => arb_blueprint(),
        1 => (3usize..20).prop_map(generators::clock),
        1 => (16i32..140).prop_map(repeater_chain),
        1 => (16usize..40).prop_map(generators::wire_line),
        1 => (24usize..120).prop_map(generators::dense_circuit),
        1 => (1i32..30).prop_map(passive_blueprint),
    ]
}

/// An optional player modification inside the blueprints' grid: a block
/// placed, replaced or broken.
fn arb_modification() -> impl Strategy<Value = Option<(BlockPos, Option<CircuitBlock>)>> {
    prop_oneof![
        Just(None),
        (
            (0i32..8, 0i32..2, 0i32..8),
            arb_circuit_block(),
            any::<bool>()
        )
            .prop_map(|((x, y, z), kind, broken)| Some((
                BlockPos::new(x, y, z),
                (!broken).then_some(kind)
            ))),
    ]
}

proptest! {
    /// Stepping is deterministic: two constructs built from the same
    /// blueprint always evolve identically.
    #[test]
    fn stepping_is_deterministic(blueprint in arb_blueprint(), steps in 1usize..60) {
        let mut a = Construct::new(blueprint.clone());
        let mut b = Construct::new(blueprint);
        prop_assert_eq!(a.step_many(steps), b.step_many(steps));
    }

    /// Power levels always stay within the valid 0..=15 range.
    #[test]
    fn power_levels_are_bounded(blueprint in arb_blueprint(), steps in 1usize..40) {
        let mut construct = Construct::new(blueprint);
        for _ in 0..steps {
            construct.step();
            prop_assert!(construct.state().powers().iter().all(|&p| p <= 15));
        }
    }

    /// A construct with no power sources, torches or repeaters can never
    /// become powered: wires cannot sustain themselves.
    #[test]
    fn passive_constructs_stay_dead(
        positions in prop::collection::vec((0i32..10, 0i32..10), 1..40),
        steps in 1usize..30,
    ) {
        let mut blueprint = Blueprint::new();
        for (i, (x, z)) in positions.iter().enumerate() {
            let kind = if i % 2 == 0 { CircuitBlock::Wire } else { CircuitBlock::Lamp };
            blueprint.add(BlockPos::new(*x, 0, *z), kind);
        }
        let mut construct = Construct::new(blueprint);
        construct.step_many(steps);
        prop_assert_eq!(construct.state().powered_blocks(), 0);
    }

    /// The loop detector never lies: replaying via `state_at` gives the
    /// powers live simulation gives, byte for byte, at every step of the
    /// sequence and past its end.
    #[test]
    fn detected_loops_replay_correctly(blueprint in arb_blueprint(), extra in 1usize..50) {
        let mut offloaded = Construct::new(blueprint.clone());
        let outcome = simulate_sequence(&mut offloaded, 64);
        let mut live = Construct::new(blueprint);
        let horizon = outcome.simulated_steps() + if outcome.loop_info.is_some() { extra } else { 0 };
        for step in 1..=horizon {
            live.step();
            if let Some(state) = outcome.state_at(step) {
                prop_assert_eq!(state, live.state().powers(), "step {}", step);
            } else {
                prop_assert!(outcome.loop_info.is_none());
                prop_assert!(step > outcome.simulated_steps());
            }
        }
    }

    /// A sequence without loop detection stops stepping at a fixed point,
    /// yet serves the powers live stepping gives at every step it covers,
    /// runs out after them, and leaves the construct where live stepping
    /// does: same powers, same step counter.
    #[test]
    fn simulated_steps_match_live_stepping(
        blueprint in arb_sequence_blueprint(),
        phase in 0usize..40,
        modification in arb_modification(),
        steps in 1usize..120,
    ) {
        let mut live = Construct::new(blueprint);
        live.step_many(phase);
        if let Some((pos, kind)) = modification {
            live.apply_modification(pos, kind);
        }
        let mut offloaded = live.clone();
        let outcome = simulate_steps(&mut offloaded, steps);
        prop_assert_eq!(outcome.simulated_steps(), steps);
        prop_assert!(outcome.loop_info.is_none());
        for step in 1..=steps {
            live.step();
            prop_assert_eq!(outcome.state_at(step), Some(live.state().powers()), "step {}", step);
        }
        prop_assert_eq!(outcome.state_at(steps + 1), None);
        prop_assert_eq!(offloaded, live);
    }

    /// Resuming from a snapshot is equivalent to continuous simulation.
    #[test]
    fn snapshot_resume_is_equivalent(blueprint in arb_blueprint(), split in 1usize..30, rest in 1usize..30) {
        let mut continuous = Construct::new(blueprint.clone());
        continuous.step_many(split + rest);

        let mut first = Construct::new(blueprint.clone());
        first.step_many(split);
        let mut resumed = Construct::with_state(blueprint, first.state().clone());
        resumed.step_many(rest);

        prop_assert_eq!(continuous.state().powers(), resumed.state().powers());
    }

    /// Modifications always bump the logical timestamp monotonically.
    #[test]
    fn modification_stamps_are_monotonic(count in 1usize..20) {
        let mut construct = Construct::new(generators::wire_line(6));
        let mut previous = construct.modification_stamp();
        for i in 0..count {
            let stamp = construct.apply_modification(
                BlockPos::new(i as i32 % 8, 0, 0),
                if i % 2 == 0 { None } else { Some(CircuitBlock::Torch) },
            );
            prop_assert!(stamp > previous);
            previous = stamp;
        }
    }

    /// The dense-circuit generator always produces the exact requested size.
    #[test]
    fn dense_circuit_size_is_exact(n in 1usize..600) {
        prop_assert_eq!(generators::dense_circuit(n).len(), n);
    }
}
