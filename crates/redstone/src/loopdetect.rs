//! State-hash loop detection.
//!
//! Servo's cost optimization (Section III-C1): the remote simulation
//! function hashes the construct state after every step; when a previously
//! seen state recurs, the construct has entered a cycle and the function can
//! truncate its reply to a single iteration of the loop plus an index. The
//! server then replays the loop indefinitely without invoking any further
//! functions.

use std::collections::HashMap;
use std::hash::Hasher;

use servo_world::{FxBuildHasher, FxHasher};

use crate::engine::Construct;

/// Information about a detected state cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInfo {
    /// The step index (within the returned sequence) at which the cycle
    /// starts.
    pub start: usize,
    /// The cycle length in steps.
    pub length: usize,
}

/// Detects cycles in a stream of state hashes.
///
/// A hash match alone is only as good as the hash: [`simulate_sequence`]
/// uses the detector to find a candidate and confirms it against the
/// stored powers.
///
/// # Example
///
/// ```
/// use servo_redstone::LoopDetector;
///
/// let mut det = LoopDetector::new();
/// assert_eq!(det.observe(10, 0), None);
/// assert_eq!(det.observe(20, 1), None);
/// let looped = det.observe(10, 2).unwrap();
/// assert_eq!(looped.start, 0);
/// assert_eq!(looped.length, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LoopDetector {
    seen: HashMap<u64, usize, FxBuildHasher>,
}

impl LoopDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        LoopDetector::default()
    }

    /// Records the hash observed at `step`. Returns cycle information the
    /// first time a previously seen hash recurs.
    pub fn observe(&mut self, hash: u64, step: usize) -> Option<LoopInfo> {
        match self.seen.get(&hash) {
            Some(&first) => Some(LoopInfo {
                start: first,
                length: step - first,
            }),
            None => {
                self.seen.insert(hash, step);
                None
            }
        }
    }

    /// Number of distinct states observed so far.
    pub fn distinct_states(&self) -> usize {
        self.seen.len()
    }
}

/// The result of running the remote simulation function's work loop: a
/// speculative state sequence.
///
/// The sequence is one flat buffer of `rows × blocks` powers. Row `i`
/// holds the `blocks` power levels of the state after step `i + 1` (step 0,
/// the start state, is the request's, not the reply's). The buffer is sized
/// exactly. A loop-truncated sequence keeps only the rows it computed, so
/// `rows` equals `simulated_steps`. A [`simulate_steps`] sequence that
/// reached a fixed point keeps its rows up to the first copy of the fixed
/// row, and that row stands for every later step up to `simulated_steps`.
/// It always stops at the first repeat, so equal sequences compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// The rows, one after the other.
    powers: Vec<u8>,
    /// Blocks per row.
    blocks: usize,
    /// Number of steps the sequence covers.
    steps: usize,
    /// Number of rows stored: `steps`, or fewer when the last one is a
    /// fixed point.
    rows: usize,
    /// Cycle information, if the construct entered a state cycle. The
    /// sequence then ends at the last state of the first complete cycle.
    pub loop_info: Option<LoopInfo>,
}

impl SimulationOutcome {
    /// Number of steps the sequence covers (may be fewer than requested
    /// when a loop is found). A settled sequence covers, and the function
    /// is billed for, every step requested, though fewer rows are stored.
    pub fn simulated_steps(&self) -> usize {
        self.steps
    }

    /// Whether the outcome allows the server to replay states indefinitely
    /// without further function invocations.
    pub fn is_replayable(&self) -> bool {
        self.loop_info.is_some()
    }

    /// The powers to apply `offset` steps after the start of this sequence,
    /// replaying the detected loop if needed. Returns `None` when no loop
    /// was detected and `offset` runs past the covered steps.
    pub fn state_at(&self, offset: usize) -> Option<&[u8]> {
        if offset == 0 {
            return None;
        }
        if offset <= self.rows {
            return self.row(offset - 1);
        }
        if offset <= self.steps {
            // Past the stored rows of a settled sequence: the fixed row.
            return self.row(self.rows - 1);
        }
        let info = self.loop_info?;
        if info.length == 0 {
            return None;
        }
        // Steps past the end wrap around inside the cycle. `info.start` and
        // the offsets here are in step space (step 0 is the initial state,
        // step `s` is row `s - 1`).
        let mut equivalent_step = info.start + (offset - info.start) % info.length;
        if equivalent_step == 0 {
            // The cycle includes the initial state, which is not stored as
            // a row; step `length` has the same circuit state.
            equivalent_step = info.length;
        }
        self.row(equivalent_step - 1)
    }

    fn row(&self, i: usize) -> Option<&[u8]> {
        self.powers.get(i * self.blocks..(i + 1) * self.blocks)
    }
}

/// Simulates `construct` for up to `max_steps`, hashing every state and
/// truncating as soon as a state cycle is detected.
///
/// This is exactly the work a Servo SC-offload function performs on the FaaS
/// platform; it is exposed here so both the serverless function model and
/// the benchmarks share one implementation. Each step appends its powers
/// as one row of the returned [`SimulationOutcome`]'s buffer, trimmed to the
/// rows simulated. A recurring hash declares a loop only once the recurring
/// state's powers equal an earlier state's byte for byte, so a hash
/// collision cannot replay a wrong state.
pub fn simulate_sequence(construct: &mut Construct, max_steps: usize) -> SimulationOutcome {
    simulate_with(construct, max_steps, row_hash)
}

/// The hash [`simulate_sequence`] looks rows up by. Rows are compared byte
/// for byte once their hashes match, so it only needs to be fast and
/// spread well: Fx over whole words.
fn row_hash(row: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(row);
    hasher.finish()
}

/// [`simulate_sequence`] over a given state hash.
fn simulate_with(
    construct: &mut Construct,
    max_steps: usize,
    hash: fn(&[u8]) -> u64,
) -> SimulationOutcome {
    let blocks = construct.len();
    // While simulating, row `s` of `powers` is the state at step `s`: the
    // start state is kept as row 0 so a cycle back to it is confirmed too,
    // and dropped before returning. Most constructs settle within a few
    // steps, so the buffer grows as rows arrive instead of reserving
    // `max_steps` rows, and is trimmed to its rows at the end.
    let mut powers = Vec::with_capacity(2 * blocks);
    powers.extend_from_slice(construct.state().powers());
    let mut detector = LoopDetector::default();
    detector.observe(hash(&powers), 0);
    let mut steps = 0;
    let mut loop_info = None;
    while steps < max_steps {
        construct.step();
        steps += 1;
        let state = construct.state().powers();
        powers.extend_from_slice(state);
        let Some(candidate) = detector.observe(hash(state), steps) else {
            continue;
        };
        // The first state seen with this hash is the likely match; only a
        // collision makes the other earlier states worth comparing.
        let row = |s: usize| &powers[s * blocks..(s + 1) * blocks];
        let start = std::iter::once(candidate.start)
            .chain(0..steps)
            .find(|&s| row(s) == state);
        if let Some(start) = start {
            loop_info = Some(LoopInfo {
                start,
                length: steps - start,
            });
            break;
        }
    }
    powers.drain(..blocks);
    powers.shrink_to_fit();
    SimulationOutcome {
        powers,
        blocks,
        steps,
        rows: steps,
        loop_info,
    }
}

/// Simulates `construct` for `steps` steps, without loop detection: the
/// work of an SC-offload function that does not look for cycles.
///
/// A step reads only the circuit and the previous powers, so once a step
/// leaves the powers unchanged every later step does too. The simulation
/// stops there and stores the rows up to one copy of the fixed row (the
/// start state, if it is already fixed). The returned
/// [`SimulationOutcome`] still covers `steps` steps, and `construct` is
/// left as `steps` steps would leave it: the same powers, and its step
/// counter `steps` further on.
pub fn simulate_steps(construct: &mut Construct, steps: usize) -> SimulationOutcome {
    let blocks = construct.len();
    let end = construct.state().step() + steps as u64;
    let mut powers = Vec::with_capacity(steps * blocks);
    let mut rows = 0;
    while rows < steps {
        let settled = construct.step_settles();
        if settled && rows > 0 {
            // The last stored row is the fixed row.
            break;
        }
        powers.extend_from_slice(construct.state().powers());
        rows += 1;
        if settled {
            break;
        }
    }
    construct.skip_to_step(end);
    powers.shrink_to_fit();
    SimulationOutcome {
        powers,
        blocks,
        steps,
        rows,
        loop_info: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn detector_finds_first_recurrence() {
        let mut det = LoopDetector::new();
        for (i, h) in [1u64, 2, 3, 4].iter().enumerate() {
            assert_eq!(det.observe(*h, i), None);
        }
        let info = det.observe(3, 4).unwrap();
        assert_eq!(info.start, 2);
        assert_eq!(info.length, 2);
        assert_eq!(det.distinct_states(), 4);
    }

    #[test]
    fn clock_simulation_truncates_to_loop() {
        let mut c = Construct::new(generators::clock(4));
        let outcome = simulate_sequence(&mut c, 200);
        assert!(outcome.is_replayable());
        assert!(outcome.simulated_steps() < 200);
        let info = outcome.loop_info.unwrap();
        assert!(info.length >= 1);
    }

    #[test]
    fn non_looping_simulation_runs_all_steps() {
        // A wire line reaches a fixed point, which *is* a loop of length 1,
        // so use very few steps to observe a non-looping prefix.
        let mut c = Construct::new(generators::wire_line(10));
        let outcome = simulate_sequence(&mut c, 1);
        assert_eq!(outcome.simulated_steps(), 1);
        assert_eq!(outcome.state_at(1), Some(c.state().powers()));
        assert_eq!(outcome.state_at(2), None);
    }

    #[test]
    fn fixed_point_detected_as_length_one_loop() {
        let mut c = Construct::new(generators::wire_line(5));
        let outcome = simulate_sequence(&mut c, 100);
        let info = outcome.loop_info.expect("steady state must be detected");
        assert_eq!(info.length, 1);
        assert!(outcome.simulated_steps() < 100);
    }

    #[test]
    fn state_at_replays_loop_indefinitely() {
        let mut c = Construct::new(generators::clock(4));
        let outcome = simulate_sequence(&mut c, 200);
        let info = outcome.loop_info.unwrap();
        // Replay far past the computed sequence and check periodicity.
        let a = outcome.state_at(info.start + 1 + 10 * info.length).unwrap();
        let b = outcome.state_at(info.start + 1).unwrap();
        assert_eq!(a, b);
        // Offset zero is "no state yet".
        assert!(outcome.state_at(0).is_none());
    }

    #[test]
    fn state_at_without_loop_is_bounded() {
        let mut cc = Construct::new(generators::wire_line(10));
        let outcome = simulate_steps(&mut cc, 5);
        assert_eq!(outcome.state_at(5), Some(cc.state().powers()));
        assert!(outcome.state_at(6).is_none());
    }

    #[test]
    fn replay_matches_live_simulation() {
        // Replaying through state_at must agree with actually stepping the
        // construct, for any offset.
        let mut offloaded = Construct::new(generators::clock(5));
        let outcome = simulate_sequence(&mut offloaded, 300);
        let mut live = Construct::new(generators::clock(5));
        for offset in 1..100usize {
            live.step();
            let replayed = outcome.state_at(offset).expect("replayable");
            assert_eq!(replayed, live.state().powers(), "offset {offset}");
        }
    }

    #[test]
    fn rows_stop_at_the_fixed_point() {
        // The dense circuit settles three steps in and the clock never
        // does. Without loop detection both sequences cover all 100 steps;
        // with it, a sequence stores exactly the rows it computed.
        for (blueprint, rows) in [
            (generators::dense_circuit(64), 3),
            (generators::clock(5), 100),
        ] {
            let blocks = blueprint.len();
            let states = Construct::new(blueprint.clone()).step_many(100);
            let without = simulate_steps(&mut Construct::new(blueprint.clone()), 100);
            let with = simulate_sequence(&mut Construct::new(blueprint), 100);
            assert_eq!(without.rows, rows, "{blocks} blocks");
            assert_eq!(without.simulated_steps(), 100);
            assert_eq!(with.rows, with.simulated_steps());
            for outcome in [&without, &with] {
                assert_eq!(outcome.powers.len(), outcome.rows * blocks);
                assert_eq!(outcome.powers.capacity(), outcome.rows * blocks);
                for (i, state) in states.iter().take(outcome.simulated_steps()).enumerate() {
                    assert_eq!(outcome.state_at(i + 1), Some(state.powers()));
                }
            }
            assert_eq!(without.state_at(101), None);
        }
    }

    #[test]
    fn colliding_hashes_find_no_bogus_loop() {
        // Every state hashes to 0, so from step 1 on every state collides
        // with the start state. Only byte-equal rows may declare a loop, so
        // the outcome must be the one the real hash gives.
        for blueprint in [
            generators::dense_circuit(64),
            generators::dense_circuit(100),
            generators::clock(5),
            generators::wire_line(8),
        ] {
            for steps in [1, 7, 100] {
                let honest = simulate_sequence(&mut Construct::new(blueprint.clone()), steps);
                let colliding = simulate_with(&mut Construct::new(blueprint.clone()), steps, |_| 0);
                assert_eq!(
                    colliding,
                    honest,
                    "{} blocks, {steps} steps",
                    blueprint.len()
                );
            }
        }
        // The dense circuit settles a few steps in: hashes alone would have
        // declared step 1 a loop back to the start state.
        let settled = simulate_with(
            &mut Construct::new(generators::dense_circuit(64)),
            100,
            |_| 0,
        );
        let info = settled
            .loop_info
            .expect("the circuit reaches a fixed point");
        assert!(info.start > 0, "{info:?}");
    }
}
