//! The subscription index and the epoch-keyed delta encoder.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use servo_metrics::StatsReport;
use servo_types::ChunkPos;
use servo_world::{FxBuildHasher, ShardDelta, ShardMap};

use crate::interest::{Interest, Subscription};

/// Stable handle to a subscriber registered with a [`ReplicationHub`].
pub type SubscriberId = u32;

/// Flush round meaning "none": no flush memo yet.
const NEVER: u64 = u64::MAX;

/// Index meaning "none yet" in a class's flush memo.
const NONE: u32 = u32::MAX;

/// Tunables of the encoder's byte model. Keyframe bytes are *measured*
/// (the owning zone's actual run-length-encoded chunk snapshot); delta
/// bytes are modelled per chunk — a delta carries only the run patch for
/// the chunk's changed columns, which the simulation does not materialise,
/// so a calibrated constant stands in for it.
#[derive(Debug, Clone, Copy)]
pub struct HubConfig {
    /// Modelled wire size of one chunk's delta patch, in bytes.
    pub delta_bytes_per_chunk: u64,
    /// Fixed framing overhead per frame, in bytes.
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

/// One flush's frames, one per due subscriber, grouped by content: every
/// due member of an interest class that synced at the same clock is owed
/// the same frame, so the frame is encoded once and shared by its
/// [`FrameGroup`]'s members.
#[derive(Debug, Clone, Default)]
pub struct Frames {
    groups: Vec<FrameGroup>,
    /// Every group's members, one contiguous ascending run per group.
    members: Vec<SubscriberId>,
}

impl Frames {
    /// The number of frames: one per due subscriber, whatever the groups.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no subscriber is owed a frame.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Every frame as `(addressed subscriber, its group)`, group by group
    /// and ascending within a group.
    pub fn iter(&self) -> impl Iterator<Item = (SubscriberId, &FrameGroup)> {
        self.groups()
            .flat_map(|(group, members)| members.iter().map(move |&id| (id, group)))
    }

    /// Every group with its members, ascending: first the flushed
    /// cohort's bands in the hub's roster order, then its fresh members'
    /// groups.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = (&FrameGroup, &[SubscriberId])> {
        self.groups.iter().map(|group| {
            let members = &self.members[group.members.start as usize..group.members.end as usize];
            (group, members)
        })
    }
}

/// One encoded frame and the subscribers it is addressed to: the due
/// members of one band, or the fresh members of one interest class that
/// are owed the same event count.
#[derive(Debug, Clone)]
pub struct FrameGroup {
    /// The class's interest centre, every member's home chunk — the owning
    /// zone of this chunk is charged for the frames' fan-out cost.
    pub home: ChunkPos,
    /// Keyframe or coalesced delta.
    pub kind: FrameKind,
    /// Construct/avatar events piggybacked on the frame.
    pub events: u32,
    /// Modelled wire size of one member's frame.
    pub bytes: u64,
    /// The chunks the frame carries, sorted by `(x, z)`; `None` when it
    /// carries none, so an empty frame costs no reference count.
    chunks: Option<Arc<[ChunkPos]>>,
    /// The members' run in the flush's member buffer.
    members: Range<u32>,
}

impl FrameGroup {
    /// The chunks the frame carries, sorted by `(x, z)`. A class's
    /// keyframe groups of one flush share one list.
    pub fn chunks(&self) -> &[ChunkPos] {
        self.chunks.as_deref().unwrap_or_default()
    }
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
    /// Latest `dirty` stamp over the class's cells.
    dirty: u64,
    /// Sum of the class's cell `events`.
    events: u64,
    /// The class's band at the flush's clock in the flushed cohort, as an
    /// index into that cohort's roster ([`NONE`]: none yet).
    band: u32,
    /// The class's first keyframe group of the flush, whose chunk list
    /// and bytes its later keyframe groups share ([`NONE`]: none yet).
    keyframe: u32,
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
    /// the cells on the first call of flush `round`, which also clears the
    /// memo's band and keyframe.
    fn totals(&mut self, round: u64, cells: &[Cell]) -> (u64, u64) {
        if self.memo.round != round {
            let (mut touched, mut dirty, mut events) = (0, 0, 0);
            for &cell in self.cells.iter() {
                let cell = &cells[cell as usize];
                touched = touched.max(cell.touched);
                dirty = dirty.max(cell.dirty);
                events += cell.events;
            }
            self.memo = ClassMemo {
                round,
                touched,
                dirty,
                events,
                band: NONE,
                keyframe: NONE,
            };
        }
        (self.memo.touched, self.memo.events)
    }

    /// The class's chunks dirtied after clock `since`, ascending, into
    /// `out`. Valid after [`Class::totals`] of the current flush.
    fn dirty_since(&self, since: u64, cells: &[Cell], out: &mut Vec<ChunkPos>) {
        out.clear();
        if self.memo.dirty > since {
            out.extend(
                self.cells
                    .iter()
                    .map(|&cell| &cells[cell as usize])
                    .filter(|cell| cell.dirty > since)
                    .map(|cell| cell.pos),
            );
        }
    }

    /// The events ever carried to the class's cells.
    fn event_total(&self, cells: &[Cell]) -> u64 {
        self.cells
            .iter()
            .map(|&cell| cells[cell as usize].events)
            .sum()
    }

    /// How many shard epochs members that acknowledged `acked` (every
    /// shard's epoch) are behind, maximised over the class's shards; at
    /// least 1.
    fn epochs_behind(&self, acked: &[u64], shard_epochs: &[u64]) -> u64 {
        self.shards
            .iter()
            .map(|&shard| shard_epochs[shard].saturating_sub(acked[shard]))
            .max()
            .unwrap_or(0)
            .max(1)
    }
}

/// The shard epochs at a `synced` clock that some band sits at. Its
/// members acknowledged every shard in the flush that synced them, and
/// only `ingest` moves the epochs and the clock, so this record holds
/// their acks: no subscriber or band carries acks of its own.
struct Ack {
    clock: u64,
    /// Subscribers synced at `clock`. A record left with none is dropped at
    /// the end of the next flush.
    members: u32,
    /// Every shard's epoch at `clock`.
    epochs: Box<[u64]>,
}

/// Where in `acks`, ascending by clock, the record of `clock` is; a band
/// sits at `clock`.
fn ack_at(acks: &[Ack], clock: u64) -> usize {
    acks.binary_search_by_key(&clock, |ack| ack.clock)
        .expect("a band's clock has an ack record")
}

/// Where in `acks` the record of `clock` is, made from the current
/// `shard_epochs` if there is none. No record is later than `clock`.
fn record_at(acks: &mut Vec<Ack>, clock: u64, shard_epochs: &[u64]) -> usize {
    if acks.last().map(|ack| ack.clock) != Some(clock) {
        acks.push(Ack {
            clock,
            members: 0,
            epochs: shard_epochs.into(),
        });
    }
    acks.len() - 1
}

/// The synced area subscribers of one interest class and one flush cohort
/// that sit at one `synced` clock. They are owed one and the same frame,
/// so a flush encodes it once and copies the member list.
struct Band {
    /// The ingest clock at the flush that last synced the members. The
    /// class's chunks dirtied after it are pending, and a cell touched
    /// after it owes the members a frame. Their acks are the [`Ack`]
    /// record of this clock.
    clock: u64,
    /// The class's event total at `clock`.
    event_base: u64,
    class: u32,
    /// The members, ascending; never empty.
    members: Vec<SubscriberId>,
}

/// An area subscriber that owes a keyframe: new, or retargeted since its
/// cohort's last flush.
struct Fresh {
    id: SubscriberId,
    /// Events it was owed when it last retargeted.
    carried_events: u32,
    /// The ingest clock at its subscribe or last retarget.
    synced: u64,
    /// Its class's event total at `synced`.
    event_base: u64,
    /// Chunks it was owed when it last retargeted, that its new interest
    /// still covers, ascending.
    carried: Box<[ChunkPos]>,
}

/// One subscriber id's entry.
enum Slot {
    /// The id is free for reuse.
    Vacant,
    /// A border subscriber: served by the mirror protocol, never flushed.
    Border,
    /// An area subscriber of the given class. Its encoder state is in the
    /// hub's fresh list or in one of its class's bands.
    Area { class: u32 },
}

/// Where an area subscriber's encoder state is.
enum Standing {
    /// In the hub's fresh list, at this index.
    Fresh(usize),
    /// In band `band` of cohort `cohort`'s roster, at `members[at]`.
    Banded {
        cohort: usize,
        band: usize,
        at: usize,
    },
}

/// One flush's groups as they are encoded, and what encoding needs.
struct Encoder<'a, S> {
    config: HubConfig,
    cells: &'a [Cell],
    shard_epochs: &'a [u64],
    /// A chunk list being gathered.
    gathered: &'a mut Vec<ChunkPos>,
    stats: &'a mut ReplicationStats,
    sizer: S,
    frames: Frames,
}

impl<S: FnMut(ChunkPos) -> Option<u64>> Encoder<'_, S> {
    /// Adds and counts the group of `members`, members of `class` owed
    /// `events` events. `delta` is the clock they synced at and the shard
    /// epochs they acknowledged then; without it, or with `keyframe_only`
    /// set, they get a keyframe, which the class's keyframe groups of one
    /// flush share.
    fn group(
        &mut self,
        class: &mut Class,
        delta: Option<(u64, &[u64])>,
        events: u32,
        members: impl IntoIterator<Item = SubscriberId>,
    ) {
        let config = &self.config;
        let (kind, chunks, bytes) = match delta {
            Some((since, acked)) if !config.keyframe_only => {
                let epochs_behind = class.epochs_behind(acked, self.shard_epochs);
                class.dirty_since(since, self.cells, self.gathered);
                let bytes = config.frame_header_bytes
                    + self.gathered.len() as u64 * config.delta_bytes_per_chunk
                    + u64::from(events) * config.event_bytes;
                let kind = FrameKind::Delta { epochs_behind };
                (kind, shared(self.gathered), bytes)
            }
            _ => {
                let (chunks, bytes) = match class.memo.keyframe {
                    NONE => {
                        class.memo.keyframe = self.frames.groups.len() as u32;
                        self.gathered.clear();
                        let mut bytes = config.frame_header_bytes;
                        for &cell in class.cells.iter() {
                            let pos = self.cells[cell as usize].pos;
                            if let Some(size) = (self.sizer)(pos) {
                                bytes += size;
                                self.gathered.push(pos);
                            }
                        }
                        (shared(self.gathered), bytes)
                    }
                    other => {
                        let other = &self.frames.groups[other as usize];
                        (other.chunks.clone(), other.bytes)
                    }
                };
                (FrameKind::Keyframe, chunks, bytes)
            }
        };
        let start = self.frames.members.len() as u32;
        self.frames.members.extend(members);
        let group = FrameGroup {
            home: class.interest.center,
            kind,
            events,
            bytes,
            chunks,
            members: start..self.frames.members.len() as u32,
        };
        self.stats.count(&group);
        self.frames.groups.push(group);
    }
}

impl ReplicationStats {
    /// Counts the frames of `group`, one per member.
    fn count(&mut self, group: &FrameGroup) {
        let n = u64::from(group.members.end - group.members.start);
        let chunks = group.chunks().len() as u64;
        self.frames += n;
        self.chunks_delivered += n * chunks;
        self.events_delivered += n * u64::from(group.events);
        self.bytes_sent += n * group.bytes;
        match group.kind {
            FrameKind::Keyframe => {
                self.keyframes += n;
                self.keyframe_bytes += n * group.bytes;
            }
            FrameKind::Delta { epochs_behind } => {
                self.delta_frames += n;
                self.delta_bytes += n * group.bytes;
                if epochs_behind > 1 {
                    self.coalesced_chunks += n * chunks;
                }
            }
        }
    }
}

/// The area-of-interest subscription index over a sharded world, plus the
/// per-tick delta encoder that turns drained dirty chunks and events into
/// epoch-keyed [`Frames`].
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
/// what a due subscriber is owed is a function of its class, its `synced`
/// clock and whether it is fresh. The hub keeps the synced members of each
/// class per flush cohort in *bands*, one per `synced` clock, so a flush
/// encodes one [`FrameGroup`] per due band and copies its member list,
/// without visiting the members. Only fresh subscribers, which owe a
/// keyframe, are kept one by one. The hub keeps the shard epochs once per
/// clock its bands sit at, so subscribers carry no per-shard acks.
///
/// # Memory
///
/// On a 64-bit target:
/// * per area subscriber: 8 B of slot and 4 B in its band, and nothing
///   per shard; while it owes a keyframe, a 40 B fresh entry instead of
///   the band entry, plus 8 B per chunk it carries across a retarget;
/// * per band: 48 B. A class has one band per flush cohort per `synced`
///   clock of its members, about one per cohort in steady state;
/// * per interest class: 88 B, plus 4 B per covered chunk and 8 B per
///   shard, plus its class-index entry (16 B);
/// * per covered chunk (cell): 40 B, plus its cell-index entry (12 B);
/// * per distinct band clock: one ack record of 32 B plus 8 B per shard of
///   the partition — about one per flush cohort in steady state, for all
///   subscribers together.
///
/// A radius-2 class over 16 shards is thus ~330 B, shared by all of its
/// members. Border subscribers hold only their slot and a 16 B entry.
/// Hash-index entries and vectors are counted without spare capacity.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use servo_replication::{FrameKind, Interest, ReplicationHub};
/// use servo_types::ChunkPos;
/// use servo_world::{ShardDelta, ShardMap};
///
/// let map = Arc::new(ShardMap::contiguous(16, 1));
/// let mut hub = ReplicationHub::new(Arc::clone(&map));
/// let a = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
/// let b = hub.subscribe(Interest::new(ChunkPos::new(0, 0), 1));
///
/// // Both fresh subscribers owe a keyframe of the same interest: two
/// // frames, one shared group.
/// let frames = hub.flush(1, |_| Some(64));
/// assert_eq!(frames.len(), 2);
/// assert_eq!(frames.groups().len(), 1);
///
/// // A dirty chunk inside the interest produces a delta frame for each.
/// hub.ingest(&[ShardDelta { shard: 0, epoch: 1, chunks: vec![ChunkPos::new(1, 1)] }]);
/// let frames = hub.flush(1, |_| Some(64));
/// let (group, members) = frames.groups().next().unwrap();
/// assert_eq!(members, &[a, b]);
/// assert_eq!(group.kind, FrameKind::Delta { epochs_behind: 1 });
/// assert_eq!(group.chunks(), &[ChunkPos::new(1, 1)]);
/// ```
pub struct ReplicationHub {
    map: Arc<ShardMap>,
    config: HubConfig,
    subs: Arena<Slot>,
    classes: Arena<Class>,
    class_index: HashMap<Interest, u32, FxBuildHasher>,
    cells: Arena<Cell>,
    cell_index: HashMap<ChunkPos, u32, FxBuildHasher>,
    /// Border subscribers, ascending by zone.
    border: Vec<(usize, SubscriberId)>,
    /// Per flush cohort, the bands of its synced members. A cohort that
    /// never held a band may have no roster.
    rosters: Vec<Vec<Band>>,
    /// The cohort count the rosters are laid out for: the latest flush's.
    cohorts: u64,
    /// Area subscribers that owe a keyframe, ascending by id.
    fresh: Vec<Fresh>,
    /// Current epoch per shard, updated from ingested deltas.
    shard_epochs: Vec<u64>,
    /// The shard epochs the bands' members acknowledged, one record per
    /// clock bands sit at, ascending.
    acks: Vec<Ack>,
    /// Ingest calls so far: the clock cell stamps are taken on.
    clock: u64,
    /// The partition version last seen by [`ReplicationHub::sync_partition`].
    map_version: u64,
    /// Flush counter, drives cohort selection.
    flushes: u64,
    /// Flush scratch, kept to reuse its capacity: the due fresh members as
    /// `(class, events, id)`, and a chunk list being gathered.
    joining: Vec<(u32, u32, SubscriberId)>,
    gathered: Vec<ChunkPos>,
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
            class_index: HashMap::default(),
            cells: Arena::new(),
            cell_index: HashMap::default(),
            border: Vec::new(),
            rosters: Vec::new(),
            cohorts: 1,
            fresh: Vec::new(),
            shard_epochs: vec![0; shard_count],
            acks: Vec::new(),
            clock: 0,
            map_version,
            flushes: 0,
            joining: Vec::new(),
            gathered: Vec::new(),
            stats: ReplicationStats::default(),
        }
    }

    /// Registers an area subscriber. It owes a keyframe, so the next flush
    /// of its cohort sends it one.
    pub fn subscribe(&mut self, interest: Interest) -> SubscriberId {
        let class = self.join(interest);
        let id = self.insert(Slot::Area { class });
        self.add_fresh(id, class, Box::default(), 0);
        id
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
            Slot::Area { class } => {
                let standing = self.standing(id, class);
                self.depart(class, standing);
            }
        }
        self.subs.free.push(id);
        self.stats.subscribers -= 1;
    }

    /// Moves an area subscriber's interest to a new centre: it joins the
    /// new interest's class, the pending chunks it moved away from are
    /// dropped, and the freshly entered terrain is owed a keyframe. No-op
    /// for border subscribers and unknown ids.
    pub fn retarget(&mut self, id: SubscriberId, center: ChunkPos) {
        let Some(&Slot::Area { class: old_class }) = self.subs.items.get(id as usize) else {
            return;
        };
        let old = self.classes.items[old_class as usize].interest;
        if old.center == center {
            return;
        }
        let interest = Interest::new(center, old.radius);
        let standing = self.standing(id, old_class);
        let (mut carried, events) = self.owed(old_class, &standing);
        let before = carried.len();
        carried.retain(|&pos| interest.covers(pos));
        self.stats.dropped_on_move += (before - carried.len()) as u64;
        self.stats.retargets += 1;

        let class = self.join(interest);
        self.depart(old_class, standing);
        self.subs.items[id as usize] = Slot::Area { class };
        self.add_fresh(id, class, carried.into(), events);
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

    /// Encodes the frames due this tick, one per due subscriber, grouped
    /// by content.
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
    /// `sizer` is asked once per chunk of a class per flush, so it must
    /// answer the same within one flush.
    ///
    /// The flush walks only the cohort's bands: each due band is one
    /// [`FrameGroup`], whose members are copied in one go. The cohort's
    /// fresh members are grouped by class and event count. Everyone synced
    /// ends in one band per class at this flush's clock. The bands are laid
    /// out for the latest flush's `cohorts`; a flush with another count
    /// first re-bands every synced subscriber, once.
    pub fn flush(&mut self, cohorts: u64, sizer: impl FnMut(ChunkPos) -> Option<u64>) -> Frames {
        let cohorts = cohorts.max(1);
        if cohorts != self.cohorts {
            self.reband(cohorts);
        }
        let round = self.flushes;
        self.flushes += 1;
        let cohort = round % cohorts;
        let index = usize::try_from(cohort).unwrap_or(usize::MAX);
        let ReplicationHub {
            config,
            subs,
            classes,
            cells,
            rosters,
            fresh,
            shard_epochs,
            acks,
            clock,
            joining,
            gathered,
            stats,
            ..
        } = self;
        let cells = &cells.items;
        let shard_epochs: &[u64] = shard_epochs;
        let clock = *clock;

        // The cohort's fresh members, to be grouped by class and event
        // count once the bands are done.
        joining.clear();
        for member in fresh
            .iter()
            .filter(|member| u64::from(member.id) % cohorts == cohort)
        {
            let Slot::Area { class } = subs.items[member.id as usize] else {
                unreachable!("a fresh subscriber is an area subscriber");
            };
            let (_, class_events) = classes.items[class as usize].totals(round, cells);
            let events = member.carried_events + (class_events - member.event_base) as u32;
            joining.push((class, events, member.id));
        }
        let (bands, banded) = rosters.get(index).map_or((0, 0), |roster| {
            let banded = roster.iter().map(|band| band.members.len()).sum();
            (roster.len(), banded)
        });
        let mut encoder = Encoder {
            config: *config,
            cells,
            shard_epochs,
            gathered,
            stats,
            sizer,
            frames: Frames {
                groups: Vec::with_capacity(bands + joining.len()),
                members: Vec::with_capacity(banded + joining.len()),
            },
        };
        // This flush's record in `acks`, once a member syncs.
        let mut synced_at = None;

        // Each due band is one group. A band that ends at this clock joins
        // the class's first such band, so that one band per class is left.
        let mut merged = false;
        if let Some(roster) = rosters.get_mut(index) {
            // The last ack record looked up, as `(clock, index)`; a record
            // made by this flush goes at the end, so indices stay valid.
            let mut last = None;
            for at in 0..roster.len() {
                let band = &mut roster[at];
                let class = &mut classes.items[band.class as usize];
                let (touched, class_events) = class.totals(round, cells);
                if touched > band.clock {
                    // Most bands of a cohort sit at its last flush's clock.
                    let from = match last {
                        Some((synced, record)) if synced == band.clock => record,
                        _ => ack_at(acks, band.clock),
                    };
                    last = Some((band.clock, from));
                    let events = (class_events - band.event_base) as u32;
                    let delta = Some((band.clock, &*acks[from].epochs));
                    encoder.group(class, delta, events, band.members.iter().copied());
                    // Acknowledge: the members are now current on every
                    // stamp and shard epoch so far.
                    let to = *synced_at.get_or_insert_with(|| record_at(acks, clock, shard_epochs));
                    let n = band.members.len() as u32;
                    acks[from].members -= n;
                    acks[to].members += n;
                    band.clock = clock;
                    band.event_base = class_events;
                }
                if band.clock == clock {
                    if class.memo.band == NONE {
                        class.memo.band = at as u32;
                    } else {
                        let moved = std::mem::take(&mut band.members);
                        roster[class.memo.band as usize].members.extend(moved);
                        merged = true;
                    }
                }
            }
            if merged {
                for band in roster.iter_mut() {
                    if !band.members.is_sorted() {
                        band.members.sort_unstable();
                    }
                }
            }
        }

        // The fresh members: one group per class and event count, and each
        // joins its class's band at this clock.
        if !joining.is_empty() {
            joining.sort_unstable();
            let to = *synced_at.get_or_insert_with(|| record_at(acks, clock, shard_epochs));
            acks[to].members += joining.len() as u32;
            if rosters.len() <= index {
                rosters.resize_with(index + 1, Vec::new);
            }
            let roster = &mut rosters[index];
            for run in joining.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
                let (class_id, events, _) = run[0];
                let class = &mut classes.items[class_id as usize];
                encoder.group(class, None, events, run.iter().map(|&(.., member)| member));
                if class.memo.band == NONE {
                    class.memo.band = roster.len() as u32;
                    roster.push(Band {
                        clock,
                        event_base: class.memo.events,
                        class: class_id,
                        members: Vec::new(),
                    });
                }
                let members = &mut roster[class.memo.band as usize].members;
                for &(.., member) in run {
                    let at = members.partition_point(|&other| other < member);
                    members.insert(at, member);
                }
            }
            fresh.retain(|member| u64::from(member.id) % cohorts != cohort);
            // A subscribe wave leaves the list as large as the wave; once
            // every member is banded, give that memory back.
            if fresh.is_empty() {
                *fresh = Vec::new();
            }
        }
        if merged {
            rosters[index].retain(|band| !band.members.is_empty());
        }
        acks.retain(|ack| ack.members > 0);
        encoder.frames
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

    /// Lays the bands out for `cohorts` cohorts: the members of all bands
    /// of one class and clock are dealt out by their new cohort. Costs
    /// O(subscribers), plus a sort of the bands by class and clock.
    fn reband(&mut self, cohorts: u64) {
        let mut bands: Vec<Band> = self.rosters.drain(..).flatten().collect();
        bands.sort_unstable_by_key(|band| (band.class, band.clock));
        // Per new cohort, the members dealt to it; `dealt` lists the
        // cohorts that received any.
        let mut hands: Vec<Vec<SubscriberId>> = Vec::new();
        let mut dealt = Vec::new();
        for run in bands.chunk_by(|a, b| (a.class, a.clock) == (b.class, b.clock)) {
            for &id in run.iter().flat_map(|band| &band.members) {
                let cohort = (u64::from(id) % cohorts) as usize;
                if hands.len() <= cohort {
                    hands.resize_with(cohort + 1, Vec::new);
                }
                if hands[cohort].is_empty() {
                    dealt.push(cohort);
                }
                hands[cohort].push(id);
            }
            for cohort in dealt.drain(..) {
                let mut members = std::mem::take(&mut hands[cohort]);
                if run.len() > 1 {
                    members.sort_unstable();
                }
                if self.rosters.len() <= cohort {
                    self.rosters.resize_with(cohort + 1, Vec::new);
                }
                self.rosters[cohort].push(Band { members, ..run[0] });
            }
        }
        self.cohorts = cohorts;
    }

    /// Where the encoder state of area subscriber `id`, of `class`, is.
    fn standing(&self, id: SubscriberId, class: u32) -> Standing {
        if let Ok(at) = self.fresh.binary_search_by_key(&id, |member| member.id) {
            return Standing::Fresh(at);
        }
        let cohort = (u64::from(id) % self.cohorts) as usize;
        self.rosters[cohort]
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.class == class)
            .find_map(|(band, entry)| {
                let at = entry.members.binary_search(&id).ok()?;
                Some(Standing::Banded { cohort, band, at })
            })
            .expect("a synced subscriber is in a band of its class and cohort")
    }

    /// A new fresh entry for area subscriber `id` of `class`, synced to
    /// the current clock and carrying `carried` chunks and
    /// `carried_events`.
    fn add_fresh(
        &mut self,
        id: SubscriberId,
        class: u32,
        carried: Box<[ChunkPos]>,
        carried_events: u32,
    ) {
        let entry = &self.classes.items[class as usize];
        let member = Fresh {
            id,
            carried_events,
            synced: self.clock,
            event_base: entry.event_total(&self.cells.items),
            carried,
        };
        let at = self.fresh.partition_point(|other| other.id < id);
        self.fresh.insert(at, member);
    }

    /// What a member of `class` standing at `standing` is owed right now:
    /// its pending chunks, ascending, and its pending event count.
    fn owed(&self, class: u32, standing: &Standing) -> (Vec<ChunkPos>, u32) {
        let (synced, event_base, carried, carried_events) = match *standing {
            Standing::Fresh(at) => {
                let member = &self.fresh[at];
                let carried: &[ChunkPos] = &member.carried;
                (
                    member.synced,
                    member.event_base,
                    carried,
                    member.carried_events,
                )
            }
            Standing::Banded { cohort, band, .. } => {
                let band = &self.rosters[cohort][band];
                (band.clock, band.event_base, &[][..], 0)
            }
        };
        let class = &self.classes.items[class as usize];
        let cells = &self.cells.items;
        let mut chunks: Vec<ChunkPos> = class
            .cells
            .iter()
            .map(|&cell| &cells[cell as usize])
            .filter(|cell| cell.dirty > synced)
            .map(|cell| cell.pos)
            .collect();
        if !carried.is_empty() {
            chunks.extend_from_slice(carried);
            chunks.sort_unstable();
            chunks.dedup();
        }
        let events = class.event_total(cells) - event_base;
        (chunks, carried_events + events as u32)
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
                dirty: 0,
                events: 0,
                band: NONE,
                keyframe: NONE,
            },
        });
        self.class_index.insert(interest, class);
        class
    }

    /// Takes a departing member of `class` out of where it stands — the
    /// fresh list, or its band and the band's [`Ack`] record, dropping the
    /// band if it empties — then out of the class itself.
    fn depart(&mut self, class: u32, standing: Standing) {
        match standing {
            Standing::Fresh(at) => {
                self.fresh.remove(at);
            }
            Standing::Banded { cohort, band, at } => {
                let roster = &mut self.rosters[cohort];
                let entry = &mut roster[band];
                entry.members.remove(at);
                let record = ack_at(&self.acks, entry.clock);
                self.acks[record].members -= 1;
                if entry.members.is_empty() {
                    roster.swap_remove(band);
                }
            }
        }
        self.leave(class);
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
        self.classes.free.push(class);
    }
}

/// `list` as a shared chunk list, `None` when it is empty.
fn shared(list: &[ChunkPos]) -> Option<Arc<[ChunkPos]>> {
    (!list.is_empty()).then(|| Arc::from(list))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeMap;

    use servo_simkit::SimRng;
    use servo_world::sharded::shard_index;

    /// The per-entry budget the type docs state. A subscriber's slot holds
    /// only its class, and nothing grows per shard with the subscribers.
    #[test]
    fn memory_budget_holds() {
        assert!(std::mem::size_of::<Slot>() <= 8);
        assert!(std::mem::size_of::<Band>() <= 48);
        assert!(std::mem::size_of::<Fresh>() <= 40);
        assert!(std::mem::size_of::<Class>() <= 88);
        assert!(std::mem::size_of::<Cell>() <= 40);
        assert!(std::mem::size_of::<Ack>() <= 32);
    }

    /// Asserts that the hub's ack records with subscribers are exactly one
    /// per distinct `synced` clock of its synced subscribers, each counting
    /// the subscribers at that clock, read from each one's band. Returns
    /// how many records it holds.
    fn assert_acks_match_subscribers(hub: &ReplicationHub) -> usize {
        let mut clocks: BTreeMap<u64, u32> = BTreeMap::new();
        for (id, slot) in hub.subs.items.iter().enumerate() {
            if let Slot::Area { class } = *slot {
                let standing = hub.standing(id as SubscriberId, class);
                if let Standing::Banded { cohort, band, .. } = standing {
                    *clocks.entry(hub.rosters[cohort][band].clock).or_default() += 1;
                }
            }
        }
        let acks = &hub.acks;
        assert!(acks.windows(2).all(|w| w[0].clock < w[1].clock));
        let live: BTreeMap<u64, u32> = acks
            .iter()
            .filter(|ack| ack.members > 0)
            .map(|ack| (ack.clock, ack.members))
            .collect();
        assert_eq!(live, clocks);
        acks.len()
    }

    /// Asserts the band invariants: every area subscriber is either fresh
    /// or in exactly one band, and that band is of its class and in the
    /// roster of its cohort; a band's members ascend (so are unique) and
    /// are never none; a roster holds one band per class and clock; every
    /// band clock has an ack record; the fresh list ascends. Returns how
    /// many bands the hub holds.
    fn assert_bands_track_subscribers(hub: &ReplicationHub) -> usize {
        let mut banded: BTreeMap<SubscriberId, u32> = BTreeMap::new();
        let mut bands = 0;
        for (cohort, roster) in hub.rosters.iter().enumerate() {
            let mut keys = std::collections::BTreeSet::new();
            for band in roster {
                assert!(!band.members.is_empty(), "an empty band");
                assert!(
                    band.members.windows(2).all(|w| w[0] < w[1]),
                    "unsorted band {:?}",
                    band.members
                );
                assert!(
                    keys.insert((band.class, band.clock)),
                    "two bands of class {} at clock {} in cohort {cohort}",
                    band.class,
                    band.clock
                );
                assert!(hub
                    .acks
                    .binary_search_by_key(&band.clock, |ack| ack.clock)
                    .is_ok());
                for &id in &band.members {
                    assert_eq!(u64::from(id) % hub.cohorts, cohort as u64);
                    assert!(
                        matches!(hub.subs.items[id as usize], Slot::Area { class } if class == band.class),
                        "subscriber {id} in a band of another class"
                    );
                    *banded.entry(id).or_default() += 1;
                }
                bands += 1;
            }
        }
        assert!(hub.fresh.windows(2).all(|w| w[0].id < w[1].id));
        let fresh: Vec<SubscriberId> = hub.fresh.iter().map(|member| member.id).collect();
        for (id, slot) in hub.subs.items.iter().enumerate() {
            let id = id as SubscriberId;
            let is_fresh = fresh.binary_search(&id).is_ok();
            let in_bands = banded.get(&id).copied().unwrap_or(0);
            match slot {
                Slot::Area { .. } => assert_eq!(
                    (is_fresh, in_bands),
                    if is_fresh { (true, 0) } else { (false, 1) },
                    "subscriber {id} is fresh {is_fresh} and in {in_bands} bands"
                ),
                _ => assert_eq!((is_fresh, in_bands), (false, 0)),
            }
        }
        bands
    }

    /// The bands stay exactly the synced subscribers through a seeded
    /// script of subscribes, retargets away and back home, unsubscribes
    /// with id reuse, ingests, and flushes at one cohort count, then at
    /// another, which re-bands everyone once.
    #[test]
    fn bands_track_the_synced_subscribers() {
        let mut hub = ReplicationHub::new(Arc::new(ShardMap::contiguous(16, 4)));
        let mut rng = SimRng::seed(23);
        let mut pick = |n: usize| (rng.unit() * n as f64) as usize % n;
        let centres = [(0, 0), (1, 0), (4, 4), (-3, 2), (2, -5)];
        let at = |(x, z): (i32, i32)| ChunkPos::new(x, z);
        // Each subscriber with its home centre and whether it is away.
        let mut members: Vec<(SubscriberId, (i32, i32), bool)> = (0..36)
            .map(|i| {
                let home = centres[i % centres.len()];
                (hub.subscribe(Interest::new(at(home), 1)), home, false)
            })
            .collect();
        let (mut epoch, mut flushes, mut most_bands) = (0u64, 0, 0);
        for step in 0..900 {
            let cohorts = if step < 600 { 3 } else { 5 };
            match pick(10) {
                0 | 1 => {
                    epoch += 1;
                    let pos = ChunkPos::new(pick(11) as i32 - 5, pick(11) as i32 - 6);
                    hub.ingest(&[ShardDelta {
                        shard: shard_index(pos, 16),
                        epoch,
                        chunks: vec![pos],
                    }]);
                }
                2 => {
                    let pos = ChunkPos::new(pick(11) as i32 - 5, pick(11) as i32 - 6);
                    hub.ingest_events(&[(pos, pick(3) as u32)]);
                }
                3 | 4 => {
                    let member = pick(members.len());
                    let member = &mut members[member];
                    let to = if member.2 {
                        member.1
                    } else {
                        centres[pick(centres.len())]
                    };
                    hub.retarget(member.0, at(to));
                    member.2 = to != member.1;
                }
                5 => {
                    let member = pick(members.len());
                    let member = &mut members[member];
                    hub.unsubscribe(member.0);
                    let home = centres[pick(centres.len())];
                    let id = hub.subscribe(Interest::new(at(home), 1));
                    assert_eq!(id, member.0, "the freed id is reused");
                    *member = (id, home, false);
                }
                _ => {
                    hub.flush(cohorts, |_| Some(8));
                    flushes += 1;
                }
            }
            most_bands = most_bands.max(assert_bands_track_subscribers(&hub));
            assert_acks_match_subscribers(&hub);
        }
        assert_eq!(hub.cohorts, 5);
        assert!(flushes > 200, "the script flushed: {flushes}");
        assert!(most_bands > centres.len() * 3, "bands met: {most_bands}");
        let synced = hub.stats().delta_frames;
        assert!(synced > 400, "the script exercised deltas: {synced}");
    }

    /// The ack records never outnumber the distinct clocks of the synced
    /// subscribers, through flushes over several cohorts, retargets away
    /// and back, unsubscribes and reused ids: a record left without
    /// subscribers goes at the end of the next flush.
    #[test]
    fn ack_records_track_the_subscribers_clocks() {
        let mut hub = ReplicationHub::new(Arc::new(ShardMap::contiguous(16, 4)));
        let mut rng = SimRng::seed(11);
        let mut pick = |n: usize| (rng.unit() * n as f64) as usize % n;
        let centres = [(0, 0), (1, 0), (4, 4), (-3, 2)];
        let mut ids: Vec<SubscriberId> = (0..48)
            .map(|i| {
                let (x, z) = centres[i % centres.len()];
                hub.subscribe(Interest::new(ChunkPos::new(x, z), 1))
            })
            .collect();
        for epoch in 1..400u64 {
            let pos = ChunkPos::new(pick(9) as i32 - 4, pick(9) as i32 - 2);
            hub.ingest(&[ShardDelta {
                shard: shard_index(pos, 16),
                epoch,
                chunks: vec![pos],
            }]);
            match pick(10) {
                0..=3 => {
                    let (x, z) = centres[pick(centres.len())];
                    hub.retarget(ids[pick(ids.len())], ChunkPos::new(x, z));
                }
                4 => {
                    let at = pick(ids.len());
                    hub.unsubscribe(ids[at]);
                    let (x, z) = centres[pick(centres.len())];
                    ids[at] = hub.subscribe(Interest::new(ChunkPos::new(x, z), 1));
                }
                _ => {}
            }
            assert_acks_match_subscribers(&hub);
            hub.flush(1 + epoch % 4, |_| Some(8));
            let records = assert_acks_match_subscribers(&hub);
            assert!(hub.acks.iter().all(|ack| ack.members > 0));
            assert!(records <= ids.len());
        }
        let synced = hub.stats().delta_frames;
        assert!(synced > 1_000, "the script exercised deltas: {synced}");

        for id in ids {
            hub.unsubscribe(id);
            assert_acks_match_subscribers(&hub);
        }
        assert_eq!(hub.classes.free.len(), hub.classes.items.len());
        hub.flush(1, |_| Some(8));
        assert!(hub.acks.is_empty());
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
