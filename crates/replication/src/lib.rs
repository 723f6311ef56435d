//! Interest-managed delta broadcast — the replication layer that gets
//! world state *to* clients.
//!
//! The paper scales *simulation* of modifiable virtual environments; this
//! crate models the downstream half of "millions of users": a
//! subscription index over the sharded world, a per-tick delta encoder,
//! and a fan-out stage whose cost is charged like any other tick work.
//!
//! * [`Interest`] / [`Subscription`] — what a subscriber observes. An
//!   avatar or simulated client subscribes to a chunk neighbourhood
//!   (`Interest { center, radius }`), which resolves to a shard superset
//!   via the partition's static chunk→shard hash; a neighbour zone
//!   subscribes to the cluster's border region with whole-shard interest,
//!   re-resolved whenever the partition migrates.
//! * [`ReplicationHub`] — the index plus the encoder. Ingesting drained
//!   per-shard dirty deltas and construct/avatar events only stamps the
//!   touched chunks, whatever the number of subscribers. Each flush pulls
//!   a due subscriber's dirt off those stamps, through the interest class
//!   it shares with every subscriber of the same [`Interest`], into one
//!   epoch-keyed [`ReplicationFrame`]: a subscriber behind N shard epochs
//!   gets one coalesced diff, a fresh subscriber gets a keyframe of its
//!   loaded interest.
//! * [`FanoutStage`] — pushes encoded frames through an autoscaled worker
//!   pool ([`servo_faas::Autoscaler`]) and reports the tick-visible cost
//!   per owning zone, so replication load shows up in QoS like
//!   simulation work does.
//!
//! The zoned cluster (`servo-server`) builds its border mirroring on the
//! same API: each zone is registered via
//! [`ReplicationHub::subscribe_border`] and the mirror protocol asks
//! [`ReplicationHub::border_zones_covering`] who receives a drained
//! border chunk — message-for-message identical to the bespoke mirror
//! path it replaces.

#![warn(missing_docs)]

pub mod fanout;
pub mod hub;
pub mod interest;

pub use fanout::{FanoutConfig, FanoutStage, FanoutStats};
pub use hub::{
    FrameKind, HubConfig, ReplicationFrame, ReplicationHub, ReplicationStats, SubscriberId,
};
pub use interest::{Interest, Subscription};

/// Everything a deployment needs to switch replication on: the encoder's
/// byte model, the fan-out cost model, the flush cohort count, and
/// whether border mirroring routes through the subscription index.
#[derive(Debug, Clone, Default)]
pub struct ReplicationConfig {
    /// Encoder byte model and keyframe-only switch.
    pub hub: HubConfig,
    /// Fan-out worker pool and cost model.
    pub fanout: FanoutConfig,
    /// Round-robin flush cohorts (0 and 1 mean "flush every subscriber
    /// every tick"). With `c` cohorts each subscriber is flushed every
    /// `c`-th tick and its frames coalesce `c` epochs of dirt.
    pub cohorts: u64,
    /// Let border subscriptions, rather than the shard map, decide which
    /// zones the cluster's border mirror delivers each chunk to.
    /// Equivalent message-for-message; off by default so existing runs
    /// stay byte-identical.
    pub border_via_subscription: bool,
}
