//! Servo: a serverless backend architecture for modifiable virtual
//! environments.
//!
//! This crate is the paper's primary contribution. It plugs three serverless
//! mechanisms into the MVE server substrate of `servo-server`:
//!
//! * **Replicated speculative execution for simulated constructs**
//!   ([`SpeculativeScBackend`], Section III-C): every construct is offloaded
//!   to a serverless function that simulates many steps ahead and returns a
//!   speculative state sequence. The server keeps simulating locally until
//!   the reply arrives, then switches to applying the precomputed states.
//!   A *tick lead* re-invokes the function before the current sequence runs
//!   out, and a loop-detection optimization lets the server replay cyclic
//!   constructs without any further invocations.
//! * **Serverless terrain generation** ([`FaasTerrainBackend`],
//!   Section III-D): chunk generation tasks are fanned out to FaaS, one
//!   invocation per chunk, with effectively unlimited concurrency.
//! * **Remote state storage with caching and pre-fetching**
//!   ([`RemoteTerrainStore`], Section III-E): terrain lives in serverless
//!   blob storage; a server-local cache plus a distance-based pre-fetch
//!   policy hides the storage latency variability from the game loop.
//!
//! [`ServoDeployment`] wires all of this together into a ready-to-run game
//! server, and exposes handles for inspecting speculation efficiency,
//! function latency, and billing after an experiment.
//!
//! # Example
//!
//! ```
//! use servo_core::ServoDeployment;
//! use servo_redstone::generators;
//! use servo_types::SimDuration;
//! use servo_workload::{BehaviorKind, PlayerFleet};
//! use servo_simkit::SimRng;
//!
//! let mut deployment = ServoDeployment::builder().seed(1).build();
//! deployment.server.add_constructs(10, |_| generators::dense_circuit(64));
//! let mut fleet = PlayerFleet::new(BehaviorKind::Bounded { radius: 24.0 }, SimRng::seed(2));
//! fleet.connect_all(20);
//! deployment.server.run_with_fleet(&mut fleet, SimDuration::from_secs(5));
//! // Constructs were advanced mostly from offloaded speculative states.
//! assert!(deployment.server.stats().sc_merged + deployment.server.stats().sc_replayed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod speculative;
pub mod terrain;
pub mod terrain_store;

pub use deployment::{HybridDeployment, PersistenceConfig, ServoConfig, ServoDeployment};
pub use servo_storage::PersistenceStats;
pub use speculative::{
    ScWorkModel, SharedScPlatform, SpeculationConfig, SpeculationHandle, SpeculationStats,
    SpeculativeScBackend,
};
pub use terrain::{FaasTerrainBackend, TerrainOffloadHandle};
pub use terrain_store::{PrefetchPolicy, RemoteTerrainStore};
