//! Procedural content generation (PCG).
//!
//! MVEs generate their virtually infinite terrain on demand as players
//! explore (Section II-A of the paper). This crate implements that substrate
//! from scratch: a seeded Perlin-noise field, a "default" world generator
//! with mountains, water, beaches and snow, and the "flat" world generator
//! players use to prototype simulated constructs (Section IV-A).
//!
//! Generation is deterministic in `(seed, chunk position)` — exactly the
//! property Servo relies on when it moves generation into serverless
//! functions and passes only the seed and the coordinates (Section III-D).
//!
//! # Example
//!
//! ```
//! use servo_pcg::{DefaultGenerator, TerrainGenerator};
//! use servo_types::ChunkPos;
//!
//! let generator = DefaultGenerator::new(42);
//! let chunk = generator.generate(ChunkPos::new(3, -2));
//! assert!(chunk.non_air_blocks() > 0);
//! // Deterministic: the same seed and coordinates give the same terrain.
//! assert_eq!(chunk.to_bytes(), generator.generate(ChunkPos::new(3, -2)).to_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod generator;
pub mod noise;

pub use cost::GenerationCost;
pub use generator::{generator_for, DefaultGenerator, FlatGenerator, TerrainGenerator};
pub use noise::Perlin;
