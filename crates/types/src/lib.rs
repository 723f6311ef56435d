//! Shared foundational types for the Servo MVE stack.
//!
//! This crate defines the vocabulary used throughout the reproduction of the
//! Servo paper (ICDCS 2023): world-space and chunk-space positions, virtual
//! time ([`SimTime`], [`SimDuration`], [`Tick`]), identifiers for players,
//! simulated constructs and function invocations, resource units such as
//! [`MemoryMb`], and the crate-wide [`ServoError`] type.
//!
//! The constants in [`consts`] encode the quality-of-service envelope the
//! paper works with: a fixed simulation rate of 20 Hz and a per-tick budget of
//! 50 ms (paper requirement R2).
//!
//! # Example
//!
//! ```
//! use servo_types::{BlockPos, ChunkPos, Tick, consts};
//!
//! let p = BlockPos::new(100, 64, -30);
//! assert_eq!(ChunkPos::from(p), ChunkPos::new(6, -2));
//! assert_eq!(consts::TICK_BUDGET.as_millis(), 50);
//! let t = Tick(0).advance(20);
//! assert_eq!(t, Tick(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consts;
pub mod error;
pub mod id;
pub mod pos;
pub mod time;
pub mod units;

pub use error::{Result, ServoError};
pub use id::{ConstructId, InvocationId, PlayerId, RequestId};
pub use pos::{BlockPos, ChunkPos, Direction};
pub use time::{SimDuration, SimTime, Tick};
pub use units::{BlocksPerSecond, MemoryMb, UsdPerHour};
