//! Construct state: per-block power levels at one simulation step.

use servo_types::Tick;

/// Maximum signal strength, matching the classic redstone semantics the
/// paper's prototype (Opencraft / Minecraft) implements.
pub const MAX_POWER: u8 = 15;

/// The state of a construct at a single simulation step: one power level per
/// block, plus the step index and the logical timestamp of the last player
/// modification (used to discard stale speculative results, Section III-C).
///
/// The engine only ever produces powers in `0..=15`
/// ([`MAX_POWER`]), but it steps a state holding any `u8` powers (e.g. one
/// built with [`ConstructState::from_powers`]) exactly: a repeater or torch
/// holding power `p` drives the wire `d` blocks away at `p - 1 - d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructState {
    /// Power level of each block, in blueprint index order.
    powers: Vec<u8>,
    /// The simulation step this state corresponds to.
    step: u64,
    /// Logical timestamp of the last player modification incorporated in
    /// this state.
    modification_stamp: u64,
}

impl ConstructState {
    /// Creates the initial (all-unpowered) state for a construct of
    /// `block_count` blocks.
    pub fn initial(block_count: usize) -> Self {
        ConstructState {
            powers: vec![0; block_count],
            step: 0,
            modification_stamp: 0,
        }
    }

    /// Creates a state from explicit power levels.
    pub fn from_powers(powers: Vec<u8>, step: u64, modification_stamp: u64) -> Self {
        ConstructState {
            powers,
            step,
            modification_stamp,
        }
    }

    /// The power levels, in blueprint index order.
    pub fn powers(&self) -> &[u8] {
        &self.powers
    }

    /// Mutable access to the power levels (used by the engine).
    pub(crate) fn powers_mut(&mut self) -> &mut Vec<u8> {
        &mut self.powers
    }

    /// The simulation step this state corresponds to.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Sets the simulation step.
    ///
    /// Used by the engine and by Servo's speculative execution unit when it
    /// replays a loop-detected state sequence: the circuit values repeat but
    /// the global step counter must keep advancing.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// The logical timestamp of the last player modification.
    pub fn modification_stamp(&self) -> u64 {
        self.modification_stamp
    }

    /// Records a player modification at logical timestamp `stamp`.
    pub fn set_modification_stamp(&mut self, stamp: u64) {
        self.modification_stamp = stamp;
    }

    /// Number of blocks in the construct.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Whether the construct has no blocks.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Number of blocks currently powered (power level above zero).
    pub fn powered_blocks(&self) -> usize {
        self.powers.iter().filter(|&&p| p > 0).count()
    }

    /// A stable 64-bit hash of the power levels (FNV-1a).
    ///
    /// The hash deliberately ignores the step index and modification stamp:
    /// loop detection compares *circuit states*, not their timestamps
    /// (Section III-C1 of the paper).
    pub fn hash(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &p in &self.powers {
            hash ^= p as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// The game tick at which this state becomes current, given the tick the
    /// simulation started from.
    pub fn due_tick(&self, start_tick: Tick) -> Tick {
        start_tick.advance(self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_unpowered() {
        let s = ConstructState::initial(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.powered_blocks(), 0);
        assert_eq!(s.step(), 0);
        assert_eq!(s.modification_stamp(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn hash_depends_only_on_powers() {
        let a = ConstructState::from_powers(vec![1, 2, 3], 0, 0);
        let b = ConstructState::from_powers(vec![1, 2, 3], 99, 7);
        let c = ConstructState::from_powers(vec![1, 2, 4], 0, 0);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn hash_is_order_sensitive() {
        let a = ConstructState::from_powers(vec![1, 0], 0, 0);
        let b = ConstructState::from_powers(vec![0, 1], 0, 0);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn due_tick_offsets_from_start() {
        let s = ConstructState::from_powers(vec![0], 5, 0);
        assert_eq!(s.due_tick(Tick(100)), Tick(105));
    }

    #[test]
    fn powered_block_count() {
        let s = ConstructState::from_powers(vec![0, 15, 3, 0], 0, 0);
        assert_eq!(s.powered_blocks(), 2);
    }
}
