//! The subscription index and the epoch-keyed delta encoder.

use std::collections::HashMap;
use std::sync::Arc;

use servo_metrics::StatsReport;
use servo_types::ChunkPos;
use servo_world::sharded::shard_index;
use servo_world::{ShardDelta, ShardMap};

use crate::interest::{Interest, Subscription};

/// Stable handle to a subscriber registered with a [`ReplicationHub`].
pub type SubscriberId = u32;

/// Epoch value meaning "this subscriber has never acknowledged the shard".
const NEVER: u64 = u64::MAX;

/// Tunables of the encoder's byte model. Keyframe bytes are *measured*
/// (the owning zone's actual run-length-encoded chunk snapshot); delta
/// bytes are modelled per chunk — a delta carries only the run patch for
/// the chunk's changed columns, which the simulation does not materialise,
/// so a calibrated constant stands in for it.
#[derive(Debug, Clone, Copy)]
pub struct HubConfig {
    /// Modelled wire size of one chunk's delta patch, in bytes.
    pub delta_bytes_per_chunk: u64,
    /// Fixed framing overhead per [`ReplicationFrame`], in bytes.
    pub frame_header_bytes: u64,
    /// Modelled wire size of one construct/avatar event, in bytes.
    pub event_bytes: u64,
    /// When set, the encoder never sends deltas: every flush re-sends the
    /// subscriber's full interest region as a keyframe. This is the naive
    /// no-delta-compression control the replication ablation compares
    /// against; leave it off everywhere else.
    pub keyframe_only: bool,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            delta_bytes_per_chunk: 48,
            frame_header_bytes: 24,
            event_bytes: 16,
            keyframe_only: false,
        }
    }
}

/// What a flushed frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Full snapshots of every loaded chunk in the subscriber's interest —
    /// sent once on subscribe (and after a retarget into fresh terrain).
    Keyframe,
    /// The coalesced diff since the subscriber's last acknowledged epochs.
    Delta {
        /// How many shard epochs the subscriber was behind at encode time,
        /// maximised over its shard set. A subscriber flushed every tick
        /// sits at 1; a subscriber on a slower cohort coalesces N epochs
        /// into this one frame.
        epochs_behind: u64,
    },
}

/// One encoded update addressed to one subscriber.
#[derive(Debug, Clone)]
pub struct ReplicationFrame {
    /// The addressed subscriber.
    pub subscriber: SubscriberId,
    /// The subscriber's home chunk (its interest centre) — the owning zone
    /// of this chunk is charged for the frame's fan-out cost.
    pub home: ChunkPos,
    /// Keyframe or coalesced delta.
    pub kind: FrameKind,
    /// The chunks the frame carries, sorted by `(x, z)`.
    pub chunks: Vec<ChunkPos>,
    /// Construct/avatar events piggybacked on the frame.
    pub events: u32,
    /// Modelled wire size of the frame.
    pub bytes: u64,
}

/// Counters of the subscription index and encoder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplicationStats {
    /// Currently registered subscribers (area + border).
    pub subscribers: u64,
    /// Frames encoded in total.
    pub frames: u64,
    /// Keyframes among them.
    pub keyframes: u64,
    /// Delta frames among them.
    pub delta_frames: u64,
    /// Chunk payloads delivered inside frames.
    pub chunks_delivered: u64,
    /// Chunk payloads delivered inside frames that coalesced more than one
    /// epoch (the saving a slower cohort banks).
    pub coalesced_chunks: u64,
    /// Events delivered inside frames.
    pub events_delivered: u64,
    /// Total modelled frame bytes.
    pub bytes_sent: u64,
    /// Bytes of keyframes.
    pub keyframe_bytes: u64,
    /// Bytes of delta frames.
    pub delta_bytes: u64,
    /// Dirty chunks ingested from drained shard deltas.
    pub chunks_ingested: u64,
    /// Border-region chunk copies delivered through the border
    /// subscription path (the mirror protocol's unit of work).
    pub border_chunk_deliveries: u64,
    /// Times the index re-resolved border shard sets after a partition
    /// migration.
    pub partition_resolves: u64,
    /// Subscriber movements applied (each re-resolves one interest).
    pub retargets: u64,
    /// Pending chunks discarded because their subscriber moved away before
    /// the next flush.
    pub dropped_on_move: u64,
}

impl StatsReport for ReplicationStats {
    fn section(&self) -> &'static str {
        "replication"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("subscribers", self.subscribers.to_string()),
            ("frames", self.frames.to_string()),
            ("keyframes", self.keyframes.to_string()),
            ("delta_frames", self.delta_frames.to_string()),
            ("chunks_delivered", self.chunks_delivered.to_string()),
            ("coalesced_chunks", self.coalesced_chunks.to_string()),
            ("events_delivered", self.events_delivered.to_string()),
            ("bytes_sent", self.bytes_sent.to_string()),
            ("keyframe_bytes", self.keyframe_bytes.to_string()),
            ("delta_bytes", self.delta_bytes.to_string()),
            ("chunks_ingested", self.chunks_ingested.to_string()),
            (
                "border_chunk_deliveries",
                self.border_chunk_deliveries.to_string(),
            ),
            ("partition_resolves", self.partition_resolves.to_string()),
            ("retargets", self.retargets.to_string()),
            ("dropped_on_move", self.dropped_on_move.to_string()),
        ]
    }
}

/// Per-subscriber encoder state.
struct SubscriberState {
    sub: Subscription,
    /// The shard superset the subscription resolves to, ascending.
    shards: Vec<usize>,
    /// Last delivered epoch per entry of `shards` ([`NEVER`] = unsynced).
    acked: Vec<u64>,
    /// Dirty chunks accumulated since the last flush, sorted, deduplicated.
    pending: Vec<ChunkPos>,
    /// Events accumulated since the last flush.
    pending_events: u32,
    /// A keyframe is owed (new subscriber, or retargeted into new terrain).
    fresh: bool,
    /// Whether the subscriber is already queued for the next flush.
    queued: bool,
}

impl SubscriberState {
    fn home(&self) -> ChunkPos {
        match self.sub {
            Subscription::Area(interest) => interest.center,
            // Border subscribers are flushed by the mirror path, not the
            // encoder; the home chunk is only used for cost attribution.
            Subscription::Border { .. } => ChunkPos::new(0, 0),
        }
    }
}

/// The area-of-interest subscription index over a sharded world, plus the
/// per-tick delta encoder that turns drained dirty chunks and events into
/// epoch-keyed [`ReplicationFrame`]s.
///
/// Two kinds of subscriber share the index: *area* subscribers (avatars /
/// simulated clients, dispatched through a chunk-level interest index so
/// ingest touches exactly the covering subscribers) and *border*
/// subscribers (neighbour zones with whole-shard interest, queried by the
/// cluster's mirror protocol via [`ReplicationHub::border_zones_covering`]
/// and delivered synchronously on the bus rather than through frames).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use servo_replication::{Interest, ReplicationHub};
/// use servo_types::ChunkPos;
/// use servo_world::{ShardDelta, ShardMap};
///
/// let map = Arc::new(ShardMap::contiguous(16, 1));
/// let mut hub = ReplicationHub::new(Arc::clone(&map));
/// let id = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
///
/// // The fresh subscriber owes a keyframe; no loaded chunks yet, so it is
/// // an empty one.
/// let frames = hub.flush(1, |_| Some(64));
/// assert_eq!(frames.len(), 1);
///
/// // A dirty chunk inside the interest produces a delta frame.
/// hub.ingest(&[ShardDelta { shard: 0, epoch: 1, chunks: vec![ChunkPos::new(1, 1)] }]);
/// let frames = hub.flush(1, |_| Some(64));
/// assert_eq!(frames.len(), 1);
/// assert_eq!(frames[0].chunks, vec![ChunkPos::new(1, 1)]);
/// let _ = id;
/// ```
pub struct ReplicationHub {
    map: Arc<ShardMap>,
    config: HubConfig,
    subs: Vec<Option<SubscriberState>>,
    free: Vec<SubscriberId>,
    /// Chunk-level interest index: chunk → area subscribers covering it.
    /// Membership *is* coverage, so ingest does no distance checks.
    cells: HashMap<ChunkPos, Vec<SubscriberId>>,
    /// Border subscribers, ascending by zone.
    border: Vec<(usize, SubscriberId)>,
    /// Current epoch per shard, updated from ingested deltas.
    shard_epochs: Vec<u64>,
    /// Subscribers with pending work, in first-touched order.
    dirty_queue: Vec<SubscriberId>,
    /// The partition version border shard sets were resolved against.
    map_version: u64,
    /// Flush counter, drives cohort selection.
    flushes: u64,
    stats: ReplicationStats,
}

impl std::fmt::Debug for ReplicationHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationHub")
            .field("subscribers", &self.stats.subscribers)
            .field("border", &self.border.len())
            .field("frames", &self.stats.frames)
            .finish()
    }
}

impl ReplicationHub {
    /// A hub over the given partition with the default byte model.
    pub fn new(map: Arc<ShardMap>) -> ReplicationHub {
        ReplicationHub::with_config(map, HubConfig::default())
    }

    /// A hub with an explicit byte model.
    pub fn with_config(map: Arc<ShardMap>, config: HubConfig) -> ReplicationHub {
        let shard_count = map.shard_count();
        let map_version = map.version();
        ReplicationHub {
            map,
            config,
            subs: Vec::new(),
            free: Vec::new(),
            cells: HashMap::new(),
            border: Vec::new(),
            shard_epochs: vec![0; shard_count],
            dirty_queue: Vec::new(),
            map_version,
            flushes: 0,
            stats: ReplicationStats::default(),
        }
    }

    /// Registers an area subscriber. It owes a keyframe, so it is already
    /// queued for the next flush.
    pub fn subscribe(&mut self, interest: Interest) -> SubscriberId {
        let shards = interest.shard_set(self.map.shard_count());
        let acked = vec![NEVER; shards.len()];
        let id = self.insert(SubscriberState {
            sub: Subscription::Area(interest),
            shards,
            acked,
            pending: Vec::new(),
            pending_events: 0,
            fresh: true,
            queued: true,
        });
        self.dirty_queue.push(id);
        for pos in interest.chunks() {
            self.cells.entry(pos).or_default().push(id);
        }
        id
    }

    /// Registers a neighbour zone as a border subscriber. Border
    /// subscribers start synced (their replica world was built alongside
    /// the cluster) and are serviced by the cluster's mirror protocol, so
    /// they never appear in encoder frames.
    pub fn subscribe_border(&mut self, zone: usize) -> SubscriberId {
        let sub = Subscription::Border { zone };
        let shards = sub.shard_set(&self.map);
        let acked = vec![0; shards.len()];
        let id = self.insert(SubscriberState {
            sub,
            shards,
            acked,
            pending: Vec::new(),
            pending_events: 0,
            fresh: false,
            queued: false,
        });
        self.border.push((zone, id));
        self.border.sort_unstable();
        id
    }

    /// Removes a subscriber. Unknown ids are ignored.
    pub fn unsubscribe(&mut self, id: SubscriberId) {
        let Some(state) = self.subs.get_mut(id as usize).and_then(Option::take) else {
            return;
        };
        match state.sub {
            Subscription::Area(interest) => {
                for pos in interest.chunks() {
                    if let Some(cell) = self.cells.get_mut(&pos) {
                        cell.retain(|&other| other != id);
                        if cell.is_empty() {
                            self.cells.remove(&pos);
                        }
                    }
                }
            }
            Subscription::Border { .. } => {
                self.border.retain(|&(_, other)| other != id);
            }
        }
        self.free.push(id);
        self.stats.subscribers -= 1;
    }

    /// Moves an area subscriber's interest to a new centre: the chunk
    /// index is re-resolved, pending chunks the subscriber moved away from
    /// are dropped, and the freshly entered terrain is owed a keyframe.
    /// No-op for border subscribers and unknown ids.
    pub fn retarget(&mut self, id: SubscriberId, center: ChunkPos) {
        let Some(state) = self.subs.get_mut(id as usize).and_then(Option::as_mut) else {
            return;
        };
        let Subscription::Area(old) = state.sub else {
            return;
        };
        if old.center == center {
            return;
        }
        let interest = Interest::new(center, old.radius);
        state.sub = Subscription::Area(interest);
        state.shards = interest.shard_set(self.map.shard_count());
        state.acked = vec![NEVER; state.shards.len()];
        let before = state.pending.len();
        state.pending.retain(|&pos| interest.covers(pos));
        self.stats.dropped_on_move += (before - state.pending.len()) as u64;
        state.fresh = true;
        if !state.queued {
            state.queued = true;
            self.dirty_queue.push(id);
        }
        self.stats.retargets += 1;

        for pos in old.chunks() {
            if interest.covers(pos) {
                continue;
            }
            if let Some(cell) = self.cells.get_mut(&pos) {
                cell.retain(|&other| other != id);
                if cell.is_empty() {
                    self.cells.remove(&pos);
                }
            }
        }
        for pos in interest.chunks() {
            if old.covers(pos) {
                continue;
            }
            self.cells.entry(pos).or_default().push(id);
        }
    }

    /// Feeds drained per-shard dirty deltas into the index: every covering
    /// area subscriber accumulates the chunk for its next frame. Border
    /// subscribers are not touched — the mirror protocol delivers to them
    /// synchronously via [`ReplicationHub::border_zones_covering`].
    pub fn ingest(&mut self, deltas: &[ShardDelta]) {
        for delta in deltas {
            if let Some(slot) = self.shard_epochs.get_mut(delta.shard) {
                *slot = (*slot).max(delta.epoch);
            }
            for &pos in &delta.chunks {
                self.stats.chunks_ingested += 1;
                let Some(cell) = self.cells.get(&pos) else {
                    continue;
                };
                for &id in cell {
                    let state = self.subs[id as usize]
                        .as_mut()
                        .expect("cells index a live subscriber");
                    if let Err(slot) = state.pending.binary_search(&pos) {
                        state.pending.insert(slot, pos);
                    }
                    if !state.queued {
                        state.queued = true;
                        self.dirty_queue.push(id);
                    }
                }
            }
        }
    }

    /// Feeds construct/avatar events (each at a chunk position, possibly
    /// batched) to the covering area subscribers; they are piggybacked on
    /// the subscriber's next frame.
    pub fn ingest_events(&mut self, events: &[(ChunkPos, u32)]) {
        for &(pos, count) in events {
            let Some(cell) = self.cells.get(&pos) else {
                continue;
            };
            for &id in cell {
                let state = self.subs[id as usize]
                    .as_mut()
                    .expect("cells index a live subscriber");
                state.pending_events += count;
                if !state.queued {
                    state.queued = true;
                    self.dirty_queue.push(id);
                }
            }
        }
    }

    /// Re-resolves border shard sets if the partition migrated since the
    /// last call. Area shard sets are hash-static and never move; only the
    /// ownership-derived border subscriptions depend on the partition.
    pub fn sync_partition(&mut self) {
        let version = self.map.version();
        if version == self.map_version {
            return;
        }
        self.map_version = version;
        self.stats.partition_resolves += 1;
        for &(zone, id) in &self.border {
            let state = self.subs[id as usize]
                .as_mut()
                .expect("border indexes a live subscriber");
            state.shards = Subscription::Border { zone }.shard_set(&self.map);
            state.acked = vec![0; state.shards.len()];
        }
    }

    /// The zones whose border subscription covers `pos` under the current
    /// partition, ascending. For a chunk drained by its owner this is
    /// exactly the set of live-subscribed zones owning laterally adjacent
    /// foreign terrain — the recipients of the mirror protocol.
    pub fn border_zones_covering(&self, pos: ChunkPos) -> Vec<usize> {
        self.border
            .iter()
            .filter(|&&(zone, _)| Subscription::Border { zone }.covers(pos, &self.map))
            .map(|&(zone, _)| zone)
            .collect()
    }

    /// Records one border-region chunk copy delivered through the mirror
    /// protocol (the transport is the cluster bus, not an encoder frame).
    pub fn note_border_delivery(&mut self) {
        self.stats.border_chunk_deliveries += 1;
    }

    /// Encodes and returns the frames due this tick.
    ///
    /// Subscribers are flushed in `cohorts` round-robin groups (cohort =
    /// `id % cohorts`); a subscriber in a slower cohort accumulates
    /// several epochs of dirt and receives them as one coalesced delta. A
    /// fresh subscriber receives a keyframe of every *loaded* chunk in its
    /// interest instead: `sizer` maps a chunk position to its current
    /// snapshot size in bytes, or `None` when the chunk is not loaded (or
    /// its owner is dead) — such chunks are skipped and re-offered once
    /// they exist.
    pub fn flush(
        &mut self,
        cohorts: u64,
        mut sizer: impl FnMut(ChunkPos) -> Option<u64>,
    ) -> Vec<ReplicationFrame> {
        let cohorts = cohorts.max(1);
        let cohort = self.flushes % cohorts;
        self.flushes += 1;

        let mut frames = Vec::new();
        let mut retained = Vec::new();
        let queue = std::mem::take(&mut self.dirty_queue);
        for id in queue {
            if u64::from(id) % cohorts != cohort {
                retained.push(id);
                continue;
            }
            // An entry whose subscriber is not queued is stale: its
            // subscriber left, and the id may since have been reused and
            // queued (or flushed) under its own entry.
            let Some(state) = self.subs[id as usize].as_mut().filter(|s| s.queued) else {
                continue;
            };
            state.queued = false;

            let keyframe = state.fresh || self.config.keyframe_only;
            let (kind, chunks, bytes) = if keyframe {
                let Subscription::Area(interest) = state.sub else {
                    continue;
                };
                let mut bytes = self.config.frame_header_bytes;
                let mut chunks = Vec::new();
                for pos in interest.chunks() {
                    if let Some(size) = sizer(pos) {
                        bytes += size;
                        chunks.push(pos);
                    }
                }
                state.pending.clear();
                state.fresh = false;
                (FrameKind::Keyframe, chunks, bytes)
            } else {
                let chunks = std::mem::take(&mut state.pending);
                let epochs_behind = state
                    .shards
                    .iter()
                    .zip(&state.acked)
                    .map(|(&shard, &acked)| self.shard_epochs[shard].saturating_sub(acked))
                    .max()
                    .unwrap_or(0)
                    .max(1);
                let bytes = self.config.frame_header_bytes
                    + chunks.len() as u64 * self.config.delta_bytes_per_chunk
                    + u64::from(state.pending_events) * self.config.event_bytes;
                (FrameKind::Delta { epochs_behind }, chunks, bytes)
            };

            // Acknowledge: the subscriber is now current on every shard it
            // resolves to.
            for (slot, &shard) in state.shards.iter().enumerate() {
                state.acked[slot] = self.shard_epochs[shard];
            }
            let events = std::mem::take(&mut state.pending_events);

            self.stats.frames += 1;
            self.stats.chunks_delivered += chunks.len() as u64;
            self.stats.events_delivered += u64::from(events);
            self.stats.bytes_sent += bytes;
            match kind {
                FrameKind::Keyframe => {
                    self.stats.keyframes += 1;
                    self.stats.keyframe_bytes += bytes;
                }
                FrameKind::Delta { epochs_behind } => {
                    self.stats.delta_frames += 1;
                    self.stats.delta_bytes += bytes;
                    if epochs_behind > 1 {
                        self.stats.coalesced_chunks += chunks.len() as u64;
                    }
                }
            }

            frames.push(ReplicationFrame {
                subscriber: id,
                home: state.home(),
                kind,
                chunks,
                events,
                bytes,
            });
        }
        self.dirty_queue = retained;
        frames
    }

    /// Current counters.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }

    /// Registered subscribers (area + border).
    pub fn subscriber_count(&self) -> u64 {
        self.stats.subscribers
    }

    /// The shard superset subscriber `id` currently resolves to.
    pub fn shard_set_of(&self, id: SubscriberId) -> Option<&[usize]> {
        self.subs
            .get(id as usize)
            .and_then(Option::as_ref)
            .map(|state| state.shards.as_slice())
    }

    /// The home shard of subscriber `id` (the shard of its interest
    /// centre), used to attribute fan-out cost to the owning zone.
    pub fn home_shard_of(&self, id: SubscriberId) -> Option<usize> {
        self.subs
            .get(id as usize)
            .and_then(Option::as_ref)
            .map(|state| shard_index(state.home(), self.map.shard_count()))
    }

    fn insert(&mut self, state: SubscriberState) -> SubscriberId {
        self.stats.subscribers += 1;
        match self.free.pop() {
            Some(id) => {
                self.subs[id as usize] = Some(state);
                id
            }
            None => {
                let id = self.subs.len() as SubscriberId;
                self.subs.push(Some(state));
                id
            }
        }
    }
}
