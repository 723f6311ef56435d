//! The construct simulation engine.

use servo_types::BlockPos;

use crate::blueprint::{Blueprint, CircuitBlock};
use crate::state::{ConstructState, MAX_POWER};

/// A simulated construct: a blueprint plus its current state.
///
/// The stepping semantics follow the Minecraft-style circuit model the
/// paper's prototype uses:
///
/// * **wires** propagate signal *instantaneously* within a step, losing one
///   level of strength per block, and are recomputed from the emitting
///   blocks every step (so they cannot sustain themselves);
/// * **power sources** always emit full strength;
/// * **repeaters** and **torches** are the sequential elements: their output
///   in step `t+1` depends on their input in step `t` (a repeater re-emits,
///   a torch inverts), which is what makes clocks and other looping
///   constructs possible;
/// * **lamps** light up when they receive any signal.
///
/// Stepping is fully deterministic — the property Servo's replicated
/// speculative execution relies on: the server and the serverless function
/// must compute identical state sequences from the same starting state.
///
/// # Example
///
/// ```
/// use servo_redstone::{Blueprint, CircuitBlock, Construct};
/// use servo_types::BlockPos;
///
/// let mut b = Blueprint::new();
/// b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
/// b.add(BlockPos::new(1, 0, 0), CircuitBlock::Wire);
/// b.add(BlockPos::new(2, 0, 0), CircuitBlock::Lamp);
/// let mut c = Construct::new(b);
/// c.step();
/// // Wire propagation is instantaneous: the lamp is lit after one step.
/// assert!(c.state().powers()[2] > 0);
/// ```
#[derive(Debug)]
pub struct Construct {
    blueprint: Blueprint,
    state: ConstructState,
    /// Monotonic counter of player modifications, used as the logical
    /// timestamp included in offload requests (Section III-C).
    modification_counter: u64,
    /// Where a step writes the next powers before swapping them into the
    /// state, so stepping allocates nothing.
    next: Vec<u8>,
}

impl Clone for Construct {
    /// Clones the blueprint (a reference-count bump) and the state. The
    /// step scratch buffer is not copied: it holds no state.
    fn clone(&self) -> Self {
        Construct {
            blueprint: self.blueprint.clone(),
            state: self.state.clone(),
            modification_counter: self.modification_counter,
            next: Vec::new(),
        }
    }
}

impl PartialEq for Construct {
    fn eq(&self, other: &Self) -> bool {
        self.blueprint == other.blueprint
            && self.state == other.state
            && self.modification_counter == other.modification_counter
    }
}

impl Construct {
    /// Creates a construct in its initial (unpowered) state.
    pub fn new(blueprint: Blueprint) -> Self {
        let state = ConstructState::initial(blueprint.len());
        Construct::with_state(blueprint, state)
    }

    /// Creates a construct from a blueprint and an explicit state.
    ///
    /// This is how the serverless simulation function reconstructs the
    /// construct from the state shipped in the request.
    pub fn with_state(blueprint: Blueprint, state: ConstructState) -> Self {
        let modification_counter = state.modification_stamp();
        Construct {
            blueprint,
            state,
            modification_counter,
            next: Vec::new(),
        }
    }

    /// The construct's blueprint.
    pub fn blueprint(&self) -> &Blueprint {
        &self.blueprint
    }

    /// The construct's current state.
    pub fn state(&self) -> &ConstructState {
        &self.state
    }

    /// Number of blocks in the construct.
    pub fn len(&self) -> usize {
        self.blueprint.len()
    }

    /// Whether the construct has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blueprint.is_empty()
    }

    /// The logical timestamp of the most recent player modification.
    pub fn modification_stamp(&self) -> u64 {
        self.modification_counter
    }

    /// Advances the construct by one simulation step.
    ///
    /// Reads only the blueprint's compiled [`Circuit`](crate::Circuit): the
    /// wire field is the sources' constant field max-merged with the row of
    /// every repeater or torch powered above 1 (one at 1 reaches no wire),
    /// then each lamp, repeater and torch looks at its inputs.
    pub fn step(&mut self) {
        let circuit = self.blueprint.circuit();
        let n = circuit.base.len();
        let prev = self.state.powers();
        let next = &mut self.next;
        next.clear();
        next.extend_from_slice(&circuit.base);
        for (k, &emitter) in circuit.emitters.iter().enumerate() {
            let power = prev[emitter];
            if power > 1 {
                let row = &circuit.rows[k * n..(k + 1) * n];
                for (field, &hops) in next.iter_mut().zip(row) {
                    *field = (*field).max(power.saturating_sub(hops));
                }
            }
        }
        // Inputs read from `next` are wires and sources, never consumers,
        // so writing consumers in place cannot change a later read.
        let inputs = &circuit.inputs;
        for c in &circuit.consumers {
            let powered = inputs[c.start..c.split].iter().any(|&j| next[j] > 0)
                || inputs[c.split..c.end].iter().any(|&j| prev[j] > 0);
            next[c.block] = if powered != c.inverts { MAX_POWER } else { 0 };
        }

        let step = self.state.step() + 1;
        std::mem::swap(self.state.powers_mut(), &mut self.next);
        self.state.set_step(step);
    }

    /// Advances one step, as [`step`](Self::step) does, and returns whether
    /// the powers came out unchanged. A step reads only the circuit and the
    /// previous powers, so a construct that settles stays settled.
    pub(crate) fn step_settles(&mut self) -> bool {
        self.step();
        // `step` swapped the previous powers into the scratch buffer.
        self.state.powers() == self.next.as_slice()
    }

    /// Moves the step counter to `step` without stepping: what a settled
    /// construct's remaining steps would leave behind.
    pub(crate) fn skip_to_step(&mut self, step: u64) {
        self.state.set_step(step);
    }

    /// Advances the construct by `n` steps and returns the state after each
    /// step, each one a separately allocated [`ConstructState`]. Speculative
    /// sequences use [`simulate_steps`](crate::simulate_steps) instead, which
    /// stores the rows in one buffer and stops at a fixed point.
    pub fn step_many(&mut self, n: usize) -> Vec<ConstructState> {
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            self.step();
            states.push(self.state.clone());
        }
        states
    }

    /// Applies a player modification: the block at `pos` (construct-local
    /// position) is replaced with `kind`, or neutralised if `kind` is `None`
    /// (the block becomes a dead wire).
    ///
    /// Every modification bumps the construct's logical modification stamp,
    /// which is what invalidates in-flight speculative executions.
    /// Returns the new modification stamp.
    pub fn apply_modification(&mut self, pos: BlockPos, kind: Option<CircuitBlock>) -> u64 {
        match (self.blueprint.index_of(pos), kind) {
            (Some(idx), Some(new_kind)) => {
                self.blueprint.add(pos, new_kind);
                self.state.powers_mut()[idx] = 0;
            }
            (Some(idx), None) => {
                self.blueprint.add(pos, CircuitBlock::Wire);
                self.state.powers_mut()[idx] = 0;
            }
            (None, Some(new_kind)) => {
                self.blueprint.add(pos, new_kind);
                self.state.powers_mut().push(0);
            }
            (None, None) => {}
        }
        self.modification_counter += 1;
        self.state.set_modification_stamp(self.modification_counter);
        self.modification_counter
    }

    /// Copies externally computed powers (e.g. a row of a speculative
    /// sequence received from a serverless function) into the construct and
    /// makes `step` its current step. The construct keeps its own
    /// modification stamp: replayed loop states repeat circuit values, not
    /// timestamps.
    ///
    /// The caller is responsible for having validated the sequence's
    /// modification stamp; the engine only checks the block count.
    ///
    /// # Panics
    ///
    /// Panics if the block count of `powers` does not match the blueprint.
    pub fn apply_state(&mut self, powers: &[u8], step: u64) {
        assert_eq!(
            powers.len(),
            self.blueprint.len(),
            "state block count must match blueprint"
        );
        self.state.powers_mut().copy_from_slice(powers);
        self.state.set_step(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn line_construct() -> Construct {
        let mut b = Blueprint::new();
        b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
        for x in 1..=5 {
            b.add(BlockPos::new(x, 0, 0), CircuitBlock::Wire);
        }
        b.add(BlockPos::new(6, 0, 0), CircuitBlock::Lamp);
        Construct::new(b)
    }

    #[test]
    fn wire_signal_decays_with_distance() {
        let mut c = line_construct();
        c.step();
        let p = c.state().powers();
        assert_eq!(p[1], MAX_POWER - 1);
        assert_eq!(p[2], MAX_POWER - 2);
        assert_eq!(p[5], MAX_POWER - 5);
        // The lamp is lit because the adjacent wire carries signal.
        assert_eq!(p[6], MAX_POWER);
    }

    #[test]
    fn long_wire_runs_out_of_signal() {
        let mut b = Blueprint::new();
        b.add(BlockPos::new(0, 0, 0), CircuitBlock::PowerSource);
        for x in 1..=20 {
            b.add(BlockPos::new(x, 0, 0), CircuitBlock::Wire);
        }
        b.add(BlockPos::new(21, 0, 0), CircuitBlock::Lamp);
        let mut c = Construct::new(b);
        c.step_many(30);
        // Signal strength 15 cannot reach past ~15 wire blocks.
        assert_eq!(c.state().powers()[20], 0);
        assert_eq!(*c.state().powers().last().unwrap(), 0);
    }

    #[test]
    fn stepping_is_deterministic() {
        let mut a = Construct::new(generators::dense_circuit(100));
        let mut b = Construct::new(generators::dense_circuit(100));
        let sa = a.step_many(50);
        let sb = b.step_many(50);
        assert_eq!(sa, sb);
    }

    #[test]
    fn torch_clock_oscillates_and_loops() {
        let mut c = Construct::new(generators::clock(3));
        let hashes: Vec<u64> = c.step_many(32).iter().map(|s| s.hash()).collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        // The clock must visit at least two distinct states and revisit them.
        assert!(distinct.len() >= 2, "distinct states: {}", distinct.len());
        assert!(distinct.len() < hashes.len());
    }

    #[test]
    fn step_many_returns_sequence_with_increasing_steps() {
        let mut c = line_construct();
        let states = c.step_many(10);
        assert_eq!(states.len(), 10);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.step(), i as u64 + 1);
        }
    }

    #[test]
    fn modification_bumps_stamp_and_invalidates() {
        let mut c = line_construct();
        assert_eq!(c.modification_stamp(), 0);
        let stamp = c.apply_modification(BlockPos::new(3, 0, 0), None);
        assert_eq!(stamp, 1);
        assert_eq!(c.state().modification_stamp(), 1);
        let stamp = c.apply_modification(BlockPos::new(10, 0, 0), Some(CircuitBlock::Torch));
        assert_eq!(stamp, 2);
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn with_state_resumes_from_snapshot() {
        let mut original = line_construct();
        original.step_many(4);
        let snapshot = original.state().clone();
        let mut resumed = Construct::with_state(original.blueprint().clone(), snapshot);
        original.step();
        resumed.step();
        assert_eq!(original.state(), resumed.state());
    }

    #[test]
    #[should_panic(expected = "state block count")]
    fn apply_state_rejects_mismatched_size() {
        let mut c = line_construct();
        c.apply_state(&[0], 1);
    }

    #[test]
    fn modification_leaves_an_in_flight_copy_untouched() {
        let mut live = Construct::new(generators::dense_circuit(64));
        live.step_many(3);
        // What a speculative invocation holds: a copy of the construct.
        let mut remote = Construct::with_state(live.blueprint().clone(), live.state().clone());
        let mut reference = Construct::new(generators::dense_circuit(64));
        reference.step_many(3);

        live.apply_modification(BlockPos::new(0, 0, 0), Some(CircuitBlock::Torch));
        live.apply_modification(BlockPos::new(0, 9, 0), Some(CircuitBlock::Lamp));
        assert_eq!(live.len(), 65);
        assert_eq!(remote.blueprint(), reference.blueprint());
        assert_eq!(remote.blueprint().kind(0), CircuitBlock::PowerSource);
        for _ in 0..20 {
            remote.step();
            reference.step();
            live.step();
            assert_eq!(remote.state().powers(), reference.state().powers());
        }
    }

    #[test]
    fn apply_state_keeps_the_target_step_and_the_stamp() {
        let mut c = line_construct();
        c.apply_modification(BlockPos::new(3, 0, 0), None);
        let mut source = line_construct();
        let states = source.step_many(4);
        c.apply_state(states[1].powers(), 17);
        assert_eq!(c.state().powers(), states[1].powers());
        assert_eq!(c.state().step(), 17);
        assert_eq!(c.state().modification_stamp(), 1);
        assert_eq!(c.modification_stamp(), 1);
    }

    #[test]
    fn lamp_turns_off_when_source_removed() {
        let mut c = line_construct();
        c.step_many(3);
        assert_eq!(c.state().powers()[6], MAX_POWER);
        c.apply_modification(BlockPos::new(0, 0, 0), None);
        c.step_many(3);
        assert_eq!(c.state().powers()[6], 0);
        assert_eq!(c.state().powered_blocks(), 0);
    }

    #[test]
    fn wires_cannot_sustain_themselves() {
        // A ring of wires with no emitter must stay dead even if it starts
        // powered (e.g. via a stale external state).
        let mut b = Blueprint::new();
        b.add(BlockPos::new(0, 0, 0), CircuitBlock::Wire);
        b.add(BlockPos::new(1, 0, 0), CircuitBlock::Wire);
        b.add(BlockPos::new(1, 0, 1), CircuitBlock::Wire);
        b.add(BlockPos::new(0, 0, 1), CircuitBlock::Wire);
        let state = ConstructState::from_powers(vec![15, 14, 13, 14], 0, 0);
        let mut c = Construct::with_state(b, state);
        c.step();
        assert_eq!(c.state().powered_blocks(), 0);
    }
}
