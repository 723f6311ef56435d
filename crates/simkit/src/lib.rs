//! Discrete-event simulation kit.
//!
//! All Servo experiments run on virtual time so that a ten-minute, 200-player
//! experiment finishes in seconds and is exactly reproducible. This crate
//! provides the building blocks:
//!
//! * [`SimClock`] — a monotonically advancing virtual clock;
//! * [`SimRng`] — a deterministic, seedable random-number generator with
//!   named sub-streams so components do not perturb each other's randomness;
//! * [`dist`] — latency distributions (normal, lognormal, exponential,
//!   Pareto-tailed mixtures) used to model cloud-service behaviour.
//!
//! # Example
//!
//! ```
//! use servo_simkit::SimClock;
//! use servo_types::{SimDuration, SimTime};
//!
//! let mut clock = SimClock::new();
//! clock.advance_to(SimTime::from_millis(50));
//! clock.advance_by(SimDuration::from_millis(25));
//! // Virtual time never runs backwards: an earlier target is a no-op.
//! clock.advance_to(SimTime::from_millis(10));
//! assert_eq!(clock.now(), SimTime::from_millis(75));
//! assert_eq!(clock.current_tick(20).0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod dist;
pub mod rng;

pub use clock::SimClock;
pub use dist::{Distribution, LatencyModel};
pub use rng::SimRng;
