//! Areas of interest and the two subscription shapes built from them.

use servo_types::ChunkPos;
use servo_world::sharded::shard_index;
use servo_world::ShardMap;

/// A square chunk neighbourhood a client wants to observe: the chunks
/// within Chebyshev distance `radius` of `center`. Radius 0 is the single
/// chunk the avatar stands in; a typical client view is radius 1–3.
///
/// # Example
///
/// ```
/// use servo_replication::Interest;
/// use servo_types::ChunkPos;
///
/// let interest = Interest::new(ChunkPos::new(0, 0), 1);
/// assert!(interest.covers(ChunkPos::new(1, -1)));
/// assert!(!interest.covers(ChunkPos::new(2, 0)));
/// assert_eq!(interest.chunks().len(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interest {
    /// The chunk the subscriber is centred on.
    pub center: ChunkPos,
    /// Chebyshev radius, in chunks.
    pub radius: i32,
}

impl Interest {
    /// An interest centred on `center` covering `radius` chunks in every
    /// lateral direction (negative radii are clamped to zero).
    pub fn new(center: ChunkPos, radius: i32) -> Interest {
        Interest {
            center,
            radius: radius.max(0),
        }
    }

    /// Whether `pos` lies inside the interest region.
    pub fn covers(&self, pos: ChunkPos) -> bool {
        (pos.x - self.center.x).abs() <= self.radius && (pos.z - self.center.z).abs() <= self.radius
    }

    /// Every chunk in the region, in row-major `(x, z)` order.
    pub fn chunks(&self) -> Vec<ChunkPos> {
        let mut out = Vec::with_capacity(((2 * self.radius + 1) * (2 * self.radius + 1)) as usize);
        for x in self.center.x - self.radius..=self.center.x + self.radius {
            for z in self.center.z - self.radius..=self.center.z + self.radius {
                out.push(ChunkPos::new(x, z));
            }
        }
        out
    }

    /// The world shards the region maps to, ascending and deduplicated —
    /// a superset filter over the per-shard dirty deltas the world drains.
    /// Chunk→shard assignment is hash-static, so this set never changes
    /// while the subscriber stays put; only the shard→zone *ownership*
    /// layer above it moves on migration.
    pub fn shard_set(&self, shard_count: usize) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .chunks()
            .into_iter()
            .map(|pos| shard_index(pos, shard_count))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// What a subscriber observes: a client's area of interest, or — for a
/// neighbour zone mirroring the border region — every chunk another zone
/// owns whose lateral neighbourhood touches the subscribing zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscription {
    /// An avatar or simulated client watching a chunk neighbourhood.
    Area(Interest),
    /// A zone server subscribed to the cluster's border region: it covers
    /// exactly the foreign-owned chunks adjacent to terrain it owns. This
    /// is whole-shard interest — the shard set is every shard the zone
    /// does not own — re-resolved whenever the partition migrates.
    Border {
        /// The subscribing zone.
        zone: usize,
    },
}

impl Subscription {
    /// Whether the subscription covers `pos` under the current partition.
    pub fn covers(&self, pos: ChunkPos, map: &ShardMap) -> bool {
        match self {
            Subscription::Area(interest) => interest.covers(pos),
            Subscription::Border { zone } => map.neighbor_zones(pos).contains(zone),
        }
    }

    /// The shard superset the subscription resolves to under `map`.
    pub fn shard_set(&self, map: &ShardMap) -> Vec<usize> {
        match self {
            Subscription::Area(interest) => interest.shard_set(map.shard_count()),
            Subscription::Border { zone } => (0..map.shard_count())
                .filter(|&shard| map.zone_of_shard(shard) != *zone)
                .collect(),
        }
    }
}
