//! The push-per-subscriber replication hub the pull-at-flush
//! [`servo_replication::ReplicationHub`] replaced, kept as the reference of
//! the differential test (`tests/hub_differential.rs`). Ingest walks every
//! covering subscriber of a chunk and pushes the chunk into its sorted
//! pending set; flush drains the queue of touched subscribers in
//! first-touched order. Only the imports, the doc example and two unused
//! accessors differ from the hub as it was.

use std::collections::HashMap;
use std::sync::Arc;

use servo_replication::{
    FrameKind, HubConfig, Interest, ReplicationFrame, ReplicationStats, SubscriberId, Subscription,
};
use servo_types::ChunkPos;
use servo_world::{ShardDelta, ShardMap};

/// Epoch value meaning "this subscriber has never acknowledged the shard".
const NEVER: u64 = u64::MAX;

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

/// The push hub: a chunk-level index of covering subscribers, each with
/// its own pending set.
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
