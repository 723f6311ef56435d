//! Player workload models.
//!
//! The paper drives its experiments with synthetic player behaviours
//! (Section IV-A and Table II): a bounded-area movement behaviour `A` used
//! for the simulated-construct experiments, straight-line "star" exploration
//! at fixed speed `Sx`, exploration with increasing speed `S_inc` for the
//! terrain-generation QoS experiment, and a randomized behaviour `R` mixing
//! movement, block modification, chat and inventory changes.
//!
//! This crate implements those behaviours, the avatars they steer, and a
//! [`PlayerFleet`] that manages staggered player joins the way the paper's
//! experiments do (a new player every few seconds).
//!
//! # Example
//!
//! ```
//! use servo_workload::{BehaviorKind, PlayerFleet};
//! use servo_simkit::SimRng;
//! use servo_types::{SimDuration, SimTime};
//!
//! let mut fleet = PlayerFleet::new(BehaviorKind::Star { speed: 3.0 }, SimRng::seed(1));
//! fleet.set_join_schedule(5, SimDuration::from_secs(10));
//! fleet.tick(SimTime::from_secs(60), SimDuration::from_millis(50));
//! assert!(fleet.connected_players() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avatar;
pub mod behavior;
pub mod border;
pub mod fleet;
pub mod skew;
pub mod zoning;

pub use avatar::{Avatar, PlayerEvent};
pub use behavior::{Behavior, BehaviorKind};
pub use border::seam_offset;
pub use fleet::{Hotspot, PlayerFleet};
pub use skew::{KeySkew, SkewKind};
pub use zoning::{Handoff, ZoneAssignment, ZoneRouter};
