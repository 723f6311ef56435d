//! Simulated-construct engine.
//!
//! Simulated constructs (SCs) are the paper's central workload: collections
//! of stateful blocks — power sources, wires, lamps, repeaters, torches —
//! that players wire together to program the virtual world (Section II-A).
//! Every construct must be re-simulated at the game's 20 Hz tick rate, which
//! is what makes MVEs so much more expensive than static virtual worlds.
//!
//! This crate implements the construct engine from scratch:
//!
//! * [`Blueprint`] — the shape of a construct (block kinds and positions);
//! * [`ConstructState`] — the per-block power levels at one tick, with a
//!   stable hash used for loop detection;
//! * [`Construct`] — a blueprint plus its current state, with deterministic
//!   synchronous stepping;
//! * [`generators`] — parameterised construct builders, including the
//!   252- and 484-block constructs evaluated in Section IV-G;
//! * [`LoopDetector`] / [`simulate_sequence`] — the state-hashing loop
//!   detection used by Servo's cost optimization (Section III-C1);
//!   [`simulate_steps`] is the same work without it. Both return a
//!   [`SimulationOutcome`]: one flat buffer holding a row of powers per
//!   simulated step, up to the end of the first cycle (with loop detection)
//!   or up to the first fixed point (without).
//!
//! # Example
//!
//! ```
//! use servo_redstone::{generators, Construct};
//!
//! let blueprint = generators::clock(4);
//! let mut construct = Construct::new(blueprint);
//! let before = construct.state().clone();
//! construct.step();
//! // A clock oscillates: the state changes from tick to tick.
//! assert_ne!(before.hash(), construct.state().hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blueprint;
pub mod engine;
pub mod generators;
pub mod loopdetect;
pub mod state;

pub use blueprint::{Blueprint, Circuit, CircuitBlock};
pub use engine::Construct;
pub use loopdetect::{simulate_sequence, simulate_steps, LoopDetector, SimulationOutcome};
pub use state::ConstructState;
