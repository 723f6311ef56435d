//! Property-based tests for the simulated-construct engine.

use proptest::prelude::*;
use servo_redstone::{generators, simulate_sequence, Blueprint, CircuitBlock, Construct};
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
