//! The MVE game-server substrate.
//!
//! This crate implements the server side of the paper's operational model
//! (Section II-A): a fixed-rate game loop that ingests player actions,
//! manages terrain around avatars, simulates the embedded simulated
//! constructs, and must complete each iteration within the 50 ms tick
//! budget.
//!
//! The same [`GameServer`] drives all three systems the paper compares; they
//! differ only in
//!
//! * the [`CostModel`] of their implementation (Opencraft, Minecraft, or the
//!   Servo-modified Opencraft),
//! * which [`ScBackend`] simulates constructs (locally every other tick for
//!   the baselines; Servo plugs in its speculative offloading unit from the
//!   `servo-core` crate), and
//! * which `servo_storage::ChunkService` provides terrain (a bounded local
//!   background generator for the baselines; Servo plugs in its FaaS
//!   generation backend). The game loop submits chunk-read tickets and
//!   integrates completions — it never blocks on generation or storage.
//!
//! Experiments run on virtual time: per-tick work is counted from the real
//! data structures (real constructs stepped, real chunks generated and
//! inserted), and the tick *duration* is derived from the counted work
//! through the calibrated cost model, plus measurement noise.
//!
//! # Example
//!
//! ```
//! use servo_server::{GameServer, ServerConfig, LocalScBackend, LocalGenerationBackend};
//! use servo_pcg::FlatGenerator;
//! use servo_simkit::SimRng;
//! use servo_types::SimDuration;
//! use servo_workload::{BehaviorKind, PlayerFleet};
//!
//! let config = ServerConfig::opencraft().with_view_distance(32);
//! let mut server = GameServer::new(
//!     config,
//!     Box::new(LocalScBackend::every_other_tick()),
//!     Box::new(LocalGenerationBackend::new(Box::new(FlatGenerator::default()), 8)),
//!     SimRng::seed(1),
//! );
//! let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 30.0 }, SimRng::seed(2));
//! fleet.connect_all(10);
//! let reports = server.run_with_fleet(&mut fleet, SimDuration::from_secs(10));
//! // 10 s at 20 Hz, minus a few ticks that overrun while the spawn terrain loads.
//! assert!(reports.len() >= 190 && reports.len() <= 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod cluster;
pub mod costs;
pub mod server;

pub use backends::{
    GenerationClock, LocalGenerationBackend, LocalScBackend, PublishedSequence, ScBackend,
    ScResolution,
};
pub use cluster::{
    BorderExchange, ClusterStats, ClusterTick, ClusterTickDetail, PersistenceBinding,
    RecoveryStats, ShardedGameCluster, ZoneTickBreakdown,
};
pub use costs::{CostModel, TickWork};
pub use server::{GameServer, ServerConfig, ServerStats, TickReport};
