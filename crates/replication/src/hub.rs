//! The subscription index and the epoch-keyed delta encoder.

use std::collections::HashMap;
use std::sync::Arc;

use servo_metrics::StatsReport;
use servo_types::ChunkPos;
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

/// A vector whose freed slots are reused, the last freed first.
struct Arena<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T> Arena<T> {
    fn new() -> Arena<T> {
        Arena {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(index) => {
                self.items[index as usize] = item;
                index
            }
            None => {
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
        }
    }
}

/// One chunk that at least one interest class covers, and the stamps
/// ingest leaves on it. A stamp is a value of the hub's ingest clock,
/// which every `ingest` and `ingest_events` call advances by one.
struct Cell {
    /// The last call that drained the chunk dirty (0: none since the cell
    /// was made).
    dirty: u64,
    /// The last call that drained the chunk dirty or carried an event to
    /// it, an event of count 0 included.
    touched: u64,
    /// Events carried to the chunk since the cell was made.
    events: u64,
    pos: ChunkPos,
    /// Interest classes covering the chunk; the cell is freed at zero.
    classes: u32,
}

/// What a class derives from its cells once per flush, for all of its due
/// members.
struct ClassMemo {
    /// The flush the memo was derived in ([`NEVER`]: none yet).
    round: u64,
    /// Latest `touched` stamp over the class's cells.
    touched: u64,
    /// Sum of the class's cell `events`.
    events: u64,
    /// The `synced` clock `chunks` was derived for ([`NEVER`]: none).
    since: u64,
    /// The class's chunks dirtied after `since`, in row-major order.
    chunks: Vec<ChunkPos>,
}

/// The state every area subscriber with the same [`Interest`] shares.
struct Class {
    interest: Interest,
    /// The covered cells, in row-major `(x, z)` order.
    cells: Box<[u32]>,
    /// The shards the interest maps to, ascending. Chunk→shard assignment
    /// is hash-static, so the set never changes.
    shards: Box<[usize]>,
    /// Subscribers in the class; the class is freed at zero.
    members: u32,
    memo: ClassMemo,
}

impl Class {
    /// The class's latest `touched` stamp and event total, derived from
    /// the cells on the first call of flush `round`.
    fn totals(&mut self, round: u64, cells: &[Cell]) -> (u64, u64) {
        if self.memo.round != round {
            let (mut touched, mut events) = (0, 0);
            for &cell in self.cells.iter() {
                let cell = &cells[cell as usize];
                touched = touched.max(cell.touched);
                events += cell.events;
            }
            self.memo.round = round;
            self.memo.touched = touched;
            self.memo.events = events;
            self.memo.since = NEVER;
        }
        (self.memo.touched, self.memo.events)
    }

    /// The events ever carried to the class's cells.
    fn event_total(&self, cells: &[Cell]) -> u64 {
        self.cells
            .iter()
            .map(|&cell| cells[cell as usize].events)
            .sum()
    }

    /// The class's chunks dirtied after clock `since`, ascending. Valid
    /// after [`Class::totals`] of the current flush.
    fn dirty_since(&mut self, since: u64, cells: &[Cell]) -> Vec<ChunkPos> {
        if self.memo.since != since {
            self.memo.since = since;
            self.memo.chunks.clear();
            self.memo.chunks.extend(
                self.cells
                    .iter()
                    .map(|&cell| &cells[cell as usize])
                    .filter(|cell| cell.dirty > since)
                    .map(|cell| cell.pos),
            );
        }
        self.memo.chunks.clone()
    }
}

/// Per-subscriber encoder state of an area subscriber.
struct Subscriber {
    /// Last delivered epoch per entry of its class's `shards` ([`NEVER`]
    /// = unsynced).
    acked: Box<[u64]>,
    /// Chunks it was owed when it last retargeted, that its new interest
    /// still covers, ascending. Only a fresh subscriber carries any.
    carried: Box<[ChunkPos]>,
    /// The ingest clock at its last flush, subscribe or retarget. Its
    /// class's chunks dirtied after it are pending, and a cell touched
    /// after it owes the subscriber a frame.
    synced: u64,
    /// Its class's event total at `synced`.
    event_base: u64,
    class: u32,
    /// Events it was owed when it last retargeted.
    carried_events: u32,
    /// A keyframe is owed (new subscriber, or retargeted into new terrain).
    fresh: bool,
}

/// One subscriber id's entry.
enum Slot {
    /// The id is free for reuse.
    Vacant,
    /// A border subscriber: served by the mirror protocol, never flushed.
    Border,
    /// An area subscriber.
    Area(Subscriber),
}

/// The area-of-interest subscription index over a sharded world, plus the
/// per-tick delta encoder that turns drained dirty chunks and events into
/// epoch-keyed [`ReplicationFrame`]s.
///
/// Two kinds of subscriber share the index. *Area* subscribers (avatars /
/// simulated clients) are grouped into interest classes: every subscriber
/// with the same [`Interest`] shares one class, which lists the covered
/// chunks' cells. *Border* subscribers (neighbour zones with whole-shard
/// interest) are queried by the cluster's mirror protocol via
/// [`ReplicationHub::border_zones_covering`] and delivered synchronously on
/// the bus rather than through frames.
///
/// Ingest only stamps the touched chunk's cell, so it costs one lookup per
/// dirty chunk or event whatever the number of subscribers. Flush *pulls*:
/// it reads each due subscriber's pending chunks and events off its
/// class's cells, through a per-flush class memo, so work shared by a
/// class is done once per flush, not once per member.
///
/// # Memory
///
/// On a 64-bit target:
/// * per area subscriber: 64 B of slot, plus 8 B per shard of its class
///   (`acked`) and 8 B per chunk it carries across a retarget;
/// * per interest class: 104 B, plus 4 B per covered chunk, 8 B per shard
///   and 8 B per memoised delta chunk, plus its class-index entry (16 B);
/// * per covered chunk (cell): 40 B, plus its cell-index entry (12 B).
///
/// A radius-2 class over 16 shards is thus ~350 B, shared by all of its
/// members. Border subscribers hold only their slot and a 16 B entry.
/// Hash-index entries are counted without the tables' spare capacity.
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
    subs: Arena<Slot>,
    classes: Arena<Class>,
    class_index: HashMap<Interest, u32>,
    cells: Arena<Cell>,
    cell_index: HashMap<ChunkPos, u32>,
    /// Border subscribers, ascending by zone.
    border: Vec<(usize, SubscriberId)>,
    /// Current epoch per shard, updated from ingested deltas.
    shard_epochs: Vec<u64>,
    /// Ingest calls so far: the clock cell stamps are taken on.
    clock: u64,
    /// The partition version last seen by [`ReplicationHub::sync_partition`].
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
            subs: Arena::new(),
            classes: Arena::new(),
            class_index: HashMap::new(),
            cells: Arena::new(),
            cell_index: HashMap::new(),
            border: Vec::new(),
            shard_epochs: vec![0; shard_count],
            clock: 0,
            map_version,
            flushes: 0,
            stats: ReplicationStats::default(),
        }
    }

    /// Registers an area subscriber. It owes a keyframe, so the next flush
    /// of its cohort sends it one.
    pub fn subscribe(&mut self, interest: Interest) -> SubscriberId {
        let class = self.join(interest);
        let sub = self.synced_member(class, Box::default(), 0);
        self.insert(Slot::Area(sub))
    }

    /// Registers a neighbour zone as a border subscriber. Border
    /// subscribers are serviced by the cluster's mirror protocol, so they
    /// never appear in encoder frames.
    pub fn subscribe_border(&mut self, zone: usize) -> SubscriberId {
        let id = self.insert(Slot::Border);
        self.border.push((zone, id));
        self.border.sort_unstable();
        id
    }

    /// Removes a subscriber. Unknown ids are ignored.
    pub fn unsubscribe(&mut self, id: SubscriberId) {
        let Some(slot) = self.subs.items.get_mut(id as usize) else {
            return;
        };
        match std::mem::replace(slot, Slot::Vacant) {
            Slot::Vacant => return,
            Slot::Border => self.border.retain(|&(_, other)| other != id),
            Slot::Area(sub) => self.leave(sub.class),
        }
        self.subs.free.push(id);
        self.stats.subscribers -= 1;
    }

    /// Moves an area subscriber's interest to a new centre: it joins the
    /// new interest's class, the pending chunks it moved away from are
    /// dropped, and the freshly entered terrain is owed a keyframe. No-op
    /// for border subscribers and unknown ids.
    pub fn retarget(&mut self, id: SubscriberId, center: ChunkPos) {
        let Some(Slot::Area(sub)) = self.subs.items.get(id as usize) else {
            return;
        };
        let old = self.classes.items[sub.class as usize].interest;
        if old.center == center {
            return;
        }
        let interest = Interest::new(center, old.radius);
        let (mut carried, events) = self.owed(sub);
        let before = carried.len();
        carried.retain(|&pos| interest.covers(pos));
        self.stats.dropped_on_move += (before - carried.len()) as u64;
        self.stats.retargets += 1;

        let old_class = sub.class;
        let class = self.join(interest);
        self.leave(old_class);
        let sub = self.synced_member(class, carried.into(), events);
        self.subs.items[id as usize] = Slot::Area(sub);
    }

    /// Stamps drained per-shard dirty deltas on the cells of the chunks
    /// some interest covers; each covering subscriber's next frame pulls
    /// them. Border subscribers are not involved — the mirror protocol
    /// delivers to them synchronously via
    /// [`ReplicationHub::border_zones_covering`].
    pub fn ingest(&mut self, deltas: &[ShardDelta]) {
        self.clock += 1;
        for delta in deltas {
            if let Some(slot) = self.shard_epochs.get_mut(delta.shard) {
                *slot = (*slot).max(delta.epoch);
            }
            self.stats.chunks_ingested += delta.chunks.len() as u64;
            for pos in &delta.chunks {
                if let Some(&cell) = self.cell_index.get(pos) {
                    let cell = &mut self.cells.items[cell as usize];
                    cell.dirty = self.clock;
                    cell.touched = self.clock;
                }
            }
        }
    }

    /// Stamps construct/avatar events (each at a chunk position, possibly
    /// batched) on the covered cells; each covering area subscriber's next
    /// frame piggybacks them. An event of count 0 still owes its
    /// subscribers a frame.
    pub fn ingest_events(&mut self, events: &[(ChunkPos, u32)]) {
        self.clock += 1;
        for (pos, count) in events {
            if let Some(&cell) = self.cell_index.get(pos) {
                let cell = &mut self.cells.items[cell as usize];
                cell.touched = self.clock;
                cell.events += u64::from(*count);
            }
        }
    }

    /// Counts a partition migration since the last call. Area shard sets
    /// are hash-static and never move; border coverage is read from the
    /// live partition by [`ReplicationHub::border_zones_covering`].
    pub fn sync_partition(&mut self) {
        let version = self.map.version();
        if version == self.map_version {
            return;
        }
        self.map_version = version;
        self.stats.partition_resolves += 1;
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

    /// Encodes and returns the frames due this tick, in ascending
    /// subscriber order.
    ///
    /// Subscribers are flushed in `cohorts` round-robin groups (cohort =
    /// `id % cohorts`); a subscriber in a slower cohort accumulates
    /// several epochs of dirt and receives them as one coalesced delta. A
    /// due subscriber is owed a frame when it is fresh or a cell of its
    /// class was stamped since it was last synced. A fresh subscriber
    /// receives a keyframe of every *loaded* chunk in its interest
    /// instead: `sizer` maps a chunk position to its current snapshot size
    /// in bytes, or `None` when the chunk is not loaded (or its owner is
    /// dead) — such chunks are skipped and re-offered once they exist.
    pub fn flush(
        &mut self,
        cohorts: u64,
        mut sizer: impl FnMut(ChunkPos) -> Option<u64>,
    ) -> Vec<ReplicationFrame> {
        let cohorts = cohorts.max(1);
        let round = self.flushes;
        self.flushes += 1;
        let ReplicationHub {
            config,
            subs,
            classes,
            cells,
            shard_epochs,
            clock,
            stats,
            ..
        } = self;
        let cells = &cells.items;

        let mut frames = Vec::new();
        let first = usize::try_from(round % cohorts).unwrap_or(usize::MAX);
        let step = usize::try_from(cohorts).unwrap_or(usize::MAX);
        for (id, slot) in subs.items.iter_mut().enumerate().skip(first).step_by(step) {
            let Slot::Area(sub) = slot else {
                continue;
            };
            let class = &mut classes.items[sub.class as usize];
            let (touched, class_events) = class.totals(round, cells);
            if !sub.fresh && touched <= sub.synced {
                continue;
            }
            let events = sub.carried_events + (class_events - sub.event_base) as u32;

            let (kind, chunks, bytes) = if sub.fresh || config.keyframe_only {
                let mut bytes = config.frame_header_bytes;
                let mut chunks = Vec::new();
                for &cell in class.cells.iter() {
                    let pos = cells[cell as usize].pos;
                    if let Some(size) = sizer(pos) {
                        bytes += size;
                        chunks.push(pos);
                    }
                }
                (FrameKind::Keyframe, chunks, bytes)
            } else {
                // Only a fresh subscriber carries chunks, so a delta is
                // exactly the class's dirt since the subscriber synced.
                let chunks = class.dirty_since(sub.synced, cells);
                let epochs_behind = class
                    .shards
                    .iter()
                    .zip(sub.acked.iter())
                    .map(|(&shard, &acked)| shard_epochs[shard].saturating_sub(acked))
                    .max()
                    .unwrap_or(0)
                    .max(1);
                let bytes = config.frame_header_bytes
                    + chunks.len() as u64 * config.delta_bytes_per_chunk
                    + u64::from(events) * config.event_bytes;
                (FrameKind::Delta { epochs_behind }, chunks, bytes)
            };

            // Acknowledge: the subscriber is now current on every shard it
            // resolves to, and on every stamp so far.
            for (acked, &shard) in sub.acked.iter_mut().zip(class.shards.iter()) {
                *acked = shard_epochs[shard];
            }
            sub.fresh = false;
            sub.carried = Box::default();
            sub.carried_events = 0;
            sub.synced = *clock;
            sub.event_base = class_events;

            stats.frames += 1;
            stats.chunks_delivered += chunks.len() as u64;
            stats.events_delivered += u64::from(events);
            stats.bytes_sent += bytes;
            match kind {
                FrameKind::Keyframe => {
                    stats.keyframes += 1;
                    stats.keyframe_bytes += bytes;
                }
                FrameKind::Delta { epochs_behind } => {
                    stats.delta_frames += 1;
                    stats.delta_bytes += bytes;
                    if epochs_behind > 1 {
                        stats.coalesced_chunks += chunks.len() as u64;
                    }
                }
            }

            frames.push(ReplicationFrame {
                subscriber: id as SubscriberId,
                home: class.interest.center,
                kind,
                chunks,
                events,
                bytes,
            });
        }
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

    fn insert(&mut self, slot: Slot) -> SubscriberId {
        self.stats.subscribers += 1;
        self.subs.insert(slot)
    }

    /// A new member of `class`, synced to the current clock, owing a
    /// keyframe and carrying `carried` chunks and `carried_events`.
    fn synced_member(
        &self,
        class: u32,
        carried: Box<[ChunkPos]>,
        carried_events: u32,
    ) -> Subscriber {
        let entry = &self.classes.items[class as usize];
        Subscriber {
            acked: vec![NEVER; entry.shards.len()].into(),
            carried,
            synced: self.clock,
            event_base: entry.event_total(&self.cells.items),
            class,
            carried_events,
            fresh: true,
        }
    }

    /// What `sub` is owed right now: its pending chunks, ascending, and
    /// its pending event count.
    fn owed(&self, sub: &Subscriber) -> (Vec<ChunkPos>, u32) {
        let class = &self.classes.items[sub.class as usize];
        let cells = &self.cells.items;
        let mut chunks: Vec<ChunkPos> = class
            .cells
            .iter()
            .map(|&cell| &cells[cell as usize])
            .filter(|cell| cell.dirty > sub.synced)
            .map(|cell| cell.pos)
            .collect();
        if !sub.carried.is_empty() {
            chunks.extend_from_slice(&sub.carried);
            chunks.sort_unstable();
            chunks.dedup();
        }
        let events = class.event_total(cells) - sub.event_base;
        (chunks, sub.carried_events + events as u32)
    }

    /// Adds a member to the class of `interest`, making the class (and the
    /// cells it covers) if it has none yet.
    fn join(&mut self, interest: Interest) -> u32 {
        if let Some(&class) = self.class_index.get(&interest) {
            self.classes.items[class as usize].members += 1;
            return class;
        }
        let cells = interest
            .chunks()
            .into_iter()
            .map(|pos| match self.cell_index.get(&pos) {
                Some(&cell) => {
                    self.cells.items[cell as usize].classes += 1;
                    cell
                }
                None => {
                    let cell = self.cells.insert(Cell {
                        dirty: 0,
                        touched: 0,
                        events: 0,
                        pos,
                        classes: 1,
                    });
                    self.cell_index.insert(pos, cell);
                    cell
                }
            })
            .collect();
        let class = self.classes.insert(Class {
            interest,
            cells,
            shards: interest.shard_set(self.map.shard_count()).into(),
            members: 1,
            memo: ClassMemo {
                round: NEVER,
                touched: 0,
                events: 0,
                since: NEVER,
                chunks: Vec::new(),
            },
        });
        self.class_index.insert(interest, class);
        class
    }

    /// Removes a member from `class`, freeing the class (and the cells no
    /// other class covers) when it was the last.
    fn leave(&mut self, class: u32) {
        let entry = &mut self.classes.items[class as usize];
        entry.members -= 1;
        if entry.members > 0 {
            return;
        }
        self.class_index.remove(&entry.interest);
        for &cell in entry.cells.iter() {
            let covered = &mut self.cells.items[cell as usize];
            covered.classes -= 1;
            if covered.classes == 0 {
                self.cell_index.remove(&covered.pos);
                self.cells.free.push(cell);
            }
        }
        entry.cells = Box::default();
        entry.shards = Box::default();
        entry.memo.chunks = Vec::new();
        self.classes.free.push(class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-entry budget the type docs state.
    #[test]
    fn memory_budget_holds() {
        assert!(std::mem::size_of::<Slot>() <= 64);
        assert!(std::mem::size_of::<Class>() <= 104);
        assert!(std::mem::size_of::<Cell>() <= 40);
    }

    /// Subscribers with the same interest share one class, and the classes
    /// and cells go once their last member leaves.
    #[test]
    fn subscribers_over_160_centres_make_160_classes() {
        let mut hub = ReplicationHub::new(Arc::new(ShardMap::contiguous(16, 4)));
        let ids: Vec<SubscriberId> = (0..10_000)
            .map(|i| {
                let center = ChunkPos::new(i % 16, (i / 16) % 10);
                hub.subscribe(Interest::new(center, 2))
            })
            .collect();
        assert_eq!(hub.class_index.len(), 160);
        assert_eq!(hub.classes.items.len(), 160);
        // Centres span 16 x 10 chunks; radius 2 pads each side by 2.
        assert_eq!(hub.cell_index.len(), 20 * 14);

        // Moving everyone away frees the old classes and cells.
        for (i, &id) in ids.iter().enumerate() {
            let i = i as i32;
            hub.retarget(id, ChunkPos::new(100 + i % 16, (i / 16) % 10));
        }
        assert_eq!(hub.class_index.len(), 160);
        assert_eq!(hub.cell_index.len(), 20 * 14);

        for id in ids {
            hub.unsubscribe(id);
        }
        assert!(hub.class_index.is_empty());
        assert!(hub.cell_index.is_empty());
        assert_eq!(hub.classes.free.len(), hub.classes.items.len());
        assert_eq!(hub.cells.free.len(), hub.cells.items.len());
    }
}
