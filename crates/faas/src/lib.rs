//! Function-as-a-Service platform simulator.
//!
//! The paper runs Servo's offloaded components on AWS Lambda and Azure
//! Functions. Those platforms are not available in this reproduction, so
//! this crate models the behaviour the experiments depend on:
//!
//! * **invocation latency** — a per-invocation platform/network overhead plus
//!   compute time that scales with the memory (vCPU share) allocated to the
//!   function (Figure 11);
//! * **cold starts** — the first invocation on a new container pays a large
//!   extra latency, and idle containers are deallocated after a few minutes
//!   (the paper observes AWS reclaiming resources "within minutes",
//!   Section IV-C);
//! * **elastic concurrency** — every concurrent request gets its own
//!   container, the property that lets Servo fan out one function per
//!   simulated construct or per chunk;
//! * **billing** — per-millisecond, per-GB billing plus a per-request fee,
//!   used to reproduce the paper's cost estimate of $0.216–$0.244 per hour.
//!
//! # Example
//!
//! ```
//! use servo_faas::{FaasPlatform, FunctionConfig};
//! use servo_simkit::SimRng;
//! use servo_types::{MemoryMb, SimTime};
//!
//! let config = FunctionConfig::aws_like(MemoryMb::new(2048));
//! let mut platform = FaasPlatform::new(config, SimRng::seed(7));
//! let inv = platform.invoke(SimTime::ZERO, 100.0).unwrap();
//! assert!(inv.completed_at > SimTime::ZERO);
//! assert!(inv.cold_start); // first invocation is always cold
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscaler;
pub mod billing;
pub mod config;
pub mod model;
pub mod platform;
pub mod pool;
pub mod queue;

pub use autoscaler::{Autoscaler, AutoscalerConfig, AutoscalerStats};
pub use billing::BillingMeter;
pub use config::FunctionConfig;
pub use model::PlatformConfig;
pub use platform::{FaasPlatform, Invocation, PlatformStats};
pub use pool::{Container, WarmPool};
pub use queue::RequestQueue;
