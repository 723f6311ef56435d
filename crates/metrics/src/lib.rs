//! Measurement utilities shared by the experiments.
//!
//! The paper reports its results as percentiles, boxplots, inverse CDFs,
//! rolling percentile bands over time, and a derived "maximum number of
//! supported players" metric. This crate implements all of those so every
//! experiment binary computes them in exactly the same way.
//!
//! # Example
//!
//! ```
//! use servo_metrics::{Summary, capacity::qos_satisfied};
//! use servo_types::SimDuration;
//!
//! let ticks: Vec<SimDuration> = (0..100).map(|i| SimDuration::from_millis(20 + i % 5)).collect();
//! let summary = Summary::from_durations(&ticks);
//! assert!(summary.p95 < 50.0);
//! assert!(qos_satisfied(&ticks, SimDuration::from_millis(50), 0.05));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod icdf;
pub mod report;
pub mod response;
pub mod rolling;
pub mod summary;
pub mod table;

pub use capacity::{max_supported, qos_satisfied, qos_satisfied_default, CapacityResult};
pub use icdf::ccdf_points;
pub use report::{report_table, StatsReport};
pub use response::{response_summary, response_times, GenreThreshold, ResponseSummary};
pub use rolling::{RollingBands, TimePoint};
pub use summary::{percentile, Boxplot, Summary};
pub use table::Table;
