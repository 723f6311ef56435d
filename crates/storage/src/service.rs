//! The unified asynchronous chunk-service API.
//!
//! Every storage interaction of the game loop goes through one
//! request/completion pipeline: callers [`submit`](ChunkService::submit)
//! [`ChunkRequest`]s (read / prefetch / write-back / evict, each carrying a
//! [`Priority`]) and receive a [`Ticket`]; finished work comes back as
//! [`ChunkCompletion`]s from [`poll`](ChunkService::poll); and per-shard
//! dirty state flows out of [`drain_dirty`](ChunkService::drain_dirty) as
//! [`ShardDelta`]s, so write-back touches only the shards that were
//! actually modified.
//!
//! Two implementations cover the design space:
//!
//! * [`SyncChunkService`] — the baseline adapter over
//!   [`CachedChunkStore`]: requests execute at `submit`, and a read that
//!   misses every cache layer pays the full remote latency on the tick
//!   path, exactly like the pre-redesign blocking API.
//! * [`PipelinedChunkService`] — `submit` only queues, per owning world
//!   shard; `poll(now)` executes what was queued in one fixed order and
//!   nothing happens between polls. A read that misses becomes a simulated
//!   transfer whose data is integrated by the first poll at or after its
//!   arrival time, so blob latency stays off the tick that asked — and the
//!   seeds alone decide what was read, flushed and logged.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use servo_types::{ChunkPos, ServoError, SimDuration, SimTime};
use servo_world::{
    shard_index, BlockEdit, Chunk, ChunkSnapshot, FxBuildHasher, ShardDelta, ShardedWorld,
};

use crate::backend::ObjectStore;
use crate::cache::{CacheStats, CachedChunkStore, ChunkLocation, RetryPolicy, TryRead};
use crate::wal::SharedWal;

/// How urgently a [`ChunkRequest`] should be served relative to others
/// flushed in the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Maintenance work (write-back, eviction).
    Background,
    /// Speculative work the game loop does not wait for (prefetching).
    Normal,
    /// Work needed soon (prefetching just ahead of the view frontier).
    High,
    /// Work the game loop is actively waiting for (demand reads).
    Urgent,
}

/// An opaque handle identifying a submitted [`ChunkRequest`]; completions
/// carry the ticket of the request that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket#{}", self.0)
    }
}

/// One unit of work submitted to a [`ChunkService`].
///
/// # Example
///
/// ```
/// use servo_storage::{ChunkRequest, Priority};
/// use servo_types::ChunkPos;
///
/// // Demand reads default to the highest priority...
/// let read = ChunkRequest::read(ChunkPos::new(3, -1));
/// assert_eq!(read.priority(), Priority::Urgent);
/// // ...maintenance runs in the background.
/// assert_eq!(ChunkRequest::write_back().priority(), Priority::Background);
/// let prefetch = ChunkRequest::prefetch([ChunkPos::new(4, 0), ChunkPos::new(5, 0)]);
/// assert_eq!(prefetch.priority(), Priority::Normal);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkRequest {
    /// Load one chunk for the game loop. Completes with
    /// [`ChunkOutcome::Loaded`] (or [`ChunkOutcome::Missing`] when the
    /// chunk exists nowhere and must be generated). Re-submitted reads
    /// for a position already being served coalesce; the single
    /// completion carries the earliest request's ticket.
    Read {
        /// The chunk to load.
        pos: ChunkPos,
        /// Scheduling priority.
        priority: Priority,
    },
    /// Start background transfers for chunks expected to be needed soon.
    /// Each arrival completes as its own [`ChunkOutcome::Loaded`] carrying
    /// this request's ticket.
    Prefetch {
        /// The chunks to stage.
        positions: Vec<ChunkPos>,
        /// Scheduling priority.
        priority: Priority,
    },
    /// Flush dirty chunks to remote storage, visiting only dirty shards.
    /// Completes with [`ChunkOutcome::WroteBack`].
    WriteBack {
        /// Scheduling priority.
        priority: Priority,
    },
    /// Evict resident chunks not in `keep` (least recently used first,
    /// per shard), writing dirty ones back first. Completes with
    /// [`ChunkOutcome::Evicted`].
    Evict {
        /// The chunks that must stay resident.
        keep: Vec<ChunkPos>,
        /// Scheduling priority.
        priority: Priority,
    },
}

impl ChunkRequest {
    /// A demand read at [`Priority::Urgent`].
    pub fn read(pos: ChunkPos) -> Self {
        ChunkRequest::Read {
            pos,
            priority: Priority::Urgent,
        }
    }

    /// A prefetch at [`Priority::Normal`].
    pub fn prefetch<I: IntoIterator<Item = ChunkPos>>(positions: I) -> Self {
        ChunkRequest::Prefetch {
            positions: positions.into_iter().collect(),
            priority: Priority::Normal,
        }
    }

    /// A write-back pass at [`Priority::Background`].
    pub fn write_back() -> Self {
        ChunkRequest::WriteBack {
            priority: Priority::Background,
        }
    }

    /// An eviction pass at [`Priority::Background`].
    pub fn evict<I: IntoIterator<Item = ChunkPos>>(keep: I) -> Self {
        ChunkRequest::Evict {
            keep: keep.into_iter().collect(),
            priority: Priority::Background,
        }
    }

    /// The scheduling priority this request carries.
    pub fn priority(&self) -> Priority {
        match self {
            ChunkRequest::Read { priority, .. }
            | ChunkRequest::Prefetch { priority, .. }
            | ChunkRequest::WriteBack { priority }
            | ChunkRequest::Evict { priority, .. } => *priority,
        }
    }
}

/// What a completed request produced.
#[derive(Debug)]
pub enum ChunkOutcome {
    /// Chunk data became available (from a read, a prefetch arrival, or a
    /// generation backend).
    Loaded {
        /// The chunk's position.
        pos: ChunkPos,
        /// The materialised chunk.
        chunk: Box<Chunk>,
        /// The layer that served it.
        location: ChunkLocation,
        /// The latency the game loop observed for this data.
        latency: SimDuration,
    },
    /// The chunk exists nowhere; it must be generated.
    Missing {
        /// The chunk's position.
        pos: ChunkPos,
    },
    /// The request failed.
    Failed {
        /// The chunk involved, when the failure is chunk-specific.
        pos: Option<ChunkPos>,
        /// The underlying error.
        error: ServoError,
    },
    /// A write-back pass finished.
    WroteBack {
        /// Number of chunks written to remote storage.
        chunks: usize,
    },
    /// An eviction pass finished.
    Evicted {
        /// Number of chunks evicted from memory.
        chunks: usize,
    },
}

/// A finished unit of work, returned by [`ChunkService::poll`].
#[derive(Debug)]
pub struct ChunkCompletion {
    /// The ticket of the request that produced this completion.
    pub ticket: Ticket,
    /// What the request produced.
    pub outcome: ChunkOutcome,
}

/// The unified asynchronous chunk-storage interface (the paper's
/// Section III-E shape: request-scoped, completion-driven interaction with
/// stateless storage backends).
///
/// Submissions return immediately with a [`Ticket`]; results surface from
/// [`poll`](ChunkService::poll) as [`ChunkCompletion`]s once they are
/// ready. Implementations are free to execute inline
/// ([`SyncChunkService`]), at the next poll
/// ([`PipelinedChunkService`]), or in the cloud (the generation backends
/// of `servo-server` and `servo-core` implement this trait too).
///
/// # Example
///
/// ```
/// use servo_storage::{
///     BlobStore, BlobTier, ChunkOutcome, ChunkRequest, ChunkService, ObjectStore,
///     SyncChunkService,
/// };
/// use servo_simkit::SimRng;
/// use servo_types::{ChunkPos, SimTime};
/// use servo_world::Chunk;
///
/// let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
/// let pos = ChunkPos::new(0, 0);
/// remote.write("terrain/0/0", Chunk::empty(pos).to_bytes(), SimTime::ZERO).unwrap();
///
/// let mut service = SyncChunkService::new(remote, SimRng::seed(2));
/// let ticket = service.submit(ChunkRequest::read(pos));
/// let completions = service.poll(SimTime::ZERO);
/// assert!(completions.iter().any(|c| {
///     c.ticket == ticket && matches!(c.outcome, ChunkOutcome::Loaded { .. })
/// }));
/// ```
pub trait ChunkService {
    /// Submits a request, returning its ticket. Never blocks on storage.
    fn submit(&mut self, request: ChunkRequest) -> Ticket;

    /// Advances the service to virtual time `now` and returns every
    /// completion that became ready.
    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion>;

    /// Takes the per-shard dirty deltas accumulated since the last call
    /// (from the bound world and/or ingested chunks). The drained chunks
    /// stay staged inside the service, so a following
    /// [`ChunkRequest::WriteBack`] still flushes them; draining is for
    /// observation and routing, not a way to lose work.
    fn drain_dirty(&mut self) -> Vec<ShardDelta>;

    /// Stages externally drained dirty deltas into the service's write-back
    /// working set, so the next [`ChunkRequest::WriteBack`] flushes them.
    /// This is the inverse of [`ChunkService::drain_dirty`]: a consumer that
    /// drains a world view itself (e.g. a zoned cluster running its border
    /// protocol on `GameServer::drain_owned_dirty`) routes the deltas back
    /// into its persistence service here. Services without a persistence
    /// side (generation backends) ignore staged deltas.
    fn stage_dirty(&mut self, deltas: Vec<ShardDelta>) {
        let _ = deltas;
    }

    /// Returns the recoverable write-back deltas for `shard`: positions
    /// that were staged (and write-ahead logged) but whose flush has not
    /// durably completed. A crashed zone's adopter drives its rebuild from
    /// this plus the remote store. Services without a durability log — the
    /// generation backends, or a pipeline built without
    /// `PipelinedChunkService::with_wal` — recover nothing.
    fn recover(&mut self, shard: usize) -> Vec<ShardDelta> {
        let _ = shard;
        Vec::new()
    }

    /// Number of submitted requests whose final completion has not yet been
    /// returned by [`poll`](ChunkService::poll).
    fn pending(&self) -> usize;

    /// Number of requests currently executing on the game server itself
    /// (generation backends use this to model interference with the game
    /// loop; storage and serverless services return zero).
    fn busy_local_workers(&self, now: SimTime) -> usize {
        let _ = now;
        0
    }

    /// A short name for experiment output.
    fn name(&self) -> &'static str;
}

/// A cloneable [`ObjectStore`] handle sharing one backing store between
/// the per-shard segments of a [`PipelinedChunkService`]: the store (and
/// its latency RNG) stays a single cluster-wide resource, while each
/// segment keeps its own cache and in-flight state.
#[derive(Debug)]
pub struct SharedRemote<R>(Arc<Mutex<R>>);

impl<R> Clone for SharedRemote<R> {
    fn clone(&self) -> Self {
        SharedRemote(Arc::clone(&self.0))
    }
}

impl<R> SharedRemote<R> {
    fn lock(&self) -> std::sync::MutexGuard<'_, R> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<R: ObjectStore> ObjectStore for SharedRemote<R> {
    fn read(&mut self, key: &str, now: SimTime) -> Result<crate::backend::ReadResult, ServoError> {
        self.lock().read(key, now)
    }

    fn write(
        &mut self,
        key: &str,
        data: impl Into<Arc<[u8]>>,
        now: SimTime,
    ) -> Result<crate::backend::WriteResult, ServoError> {
        self.lock().write(key, data, now)
    }

    fn contains(&self, key: &str) -> bool {
        self.lock().contains(key)
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    fn name(&self) -> &'static str {
        "shared-remote"
    }
}

/// The state shared by the storage-backed service implementations: the
/// cache, the optionally bound world (the dirty-delta source), the staged
/// write-back working set, and the tickets waiting on in-flight transfers.
/// [`SyncChunkService`] owns one core; [`PipelinedChunkService`] owns one
/// *per world shard*.
#[derive(Debug)]
struct ServiceCore<R: ObjectStore> {
    cache: CachedChunkStore<R>,
    world: Option<Arc<ShardedWorld>>,
    /// When set, dirty state is pulled from the bound world only for these
    /// shards: each segment of a sharded pipeline pulls its own shard, and
    /// a zone-restricted persistence service pulls only owned shards so one
    /// zone never flushes another zone's chunks.
    world_shards: Option<Vec<usize>>,
    /// Per-shard write-back working set: dirty chunks drained from the
    /// world/cache but not yet flushed to remote storage.
    staged: Vec<BTreeSet<ChunkPos>>,
    /// Tickets waiting for an in-flight transfer of a position.
    waiting: HashMap<ChunkPos, Vec<Waiter>>,
    shard_count: usize,
    /// The zone's write-ahead delta log, when durability is enabled: every
    /// staged position is appended here (with the chunk's blocks captured
    /// from the bound world at staging time) before the stage is
    /// acknowledged, and re-rooted on the flushed bytes once its
    /// write-back has durably landed.
    wal: Option<SharedWal>,
    /// The chunk as its newest record leaves it, with that record's
    /// sequence, for each position this core logged whose records the WAL
    /// still holds: a later staging logs only its edits against it.
    shadows: HashMap<ChunkPos, Shadow, FxBuildHasher>,
}

/// The chunk a WAL record left a position at, and that record's `seq`.
#[derive(Debug)]
struct Shadow {
    seq: u64,
    chunk: Chunk,
    /// Whether the position was staged since the core's previous
    /// write-back pass. A pass drops the shadows, and lone roots, of the
    /// positions that were not: a root outlives its flush only while its
    /// chunk stays hot.
    staged: bool,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    ticket: Ticket,
    issued: SimTime,
    /// Prefetch waiters do not count as read joins in the cache stats.
    is_read: bool,
}

impl<R: ObjectStore> ServiceCore<R> {
    fn new(remote: R, rng: servo_simkit::SimRng) -> Self {
        let cache = CachedChunkStore::new(remote, rng);
        let shard_count = servo_world::DEFAULT_SHARDS;
        ServiceCore {
            cache,
            world: None,
            world_shards: None,
            staged: (0..shard_count).map(|_| BTreeSet::new()).collect(),
            waiting: HashMap::new(),
            shard_count,
            wal: None,
            shadows: HashMap::default(),
        }
    }

    /// Attaches (or detaches) the WAL. Shadows describe the old log's
    /// records, so they go with it.
    fn set_wal(&mut self, wal: Option<SharedWal>) {
        self.wal = wal;
        self.shadows.clear();
    }

    /// Stages one externally drained position for the next write-back,
    /// write-ahead-logging it first when a WAL is attached.
    fn stage(&mut self, pos: ChunkPos) {
        self.log_staged(pos);
        self.staged[shard_index(pos, self.shard_count)].insert(pos);
    }

    /// Logs `pos`'s current world chunk to the WAL. Every path that adds a
    /// position to the staged set must come through here (or through
    /// [`ServiceCore::stage`]) so nothing enters the write-back working set
    /// without first being recoverable. Positions the bound world no longer
    /// holds are skipped — there are no bytes left to make durable.
    ///
    /// While the WAL still holds the record the position's shadow was left
    /// by — a staging, or the root its last write-back left — the record
    /// is the chunk's edits against the shadow (empty when nothing
    /// changed), and the shadow takes them. Otherwise it is an image, and a
    /// copy of the chunk becomes the shadow.
    fn log_staged(&mut self, pos: ChunkPos) {
        let (Some(wal), Some(world)) = (&self.wal, &self.world) else {
            return;
        };
        let shadows = &mut self.shadows;
        world.read_chunk(pos, |chunk| {
            if let Some(shadow) = shadows.get_mut(&pos) {
                let edits = chunk.diff(&shadow.chunk);
                if let Some(seq) = wal.append_edits(pos, shadow.seq, &edits) {
                    shadow.chunk.apply_edits(&edits);
                    shadow.seq = seq;
                    shadow.staged = true;
                    return;
                }
            }
            let seq = wal.append(pos, chunk.snapshot().bytes);
            let chunk = chunk.clone();
            shadows.insert(
                pos,
                Shadow {
                    seq,
                    chunk,
                    staged: true,
                },
            );
        });
    }

    /// Truncates every WAL record of `pos` — the obligation moved to
    /// another pipeline, or a write-back landed that the shadow cannot
    /// follow — and drops its shadow.
    fn truncate_logged(&mut self, pos: ChunkPos) {
        if let Some(wal) = &self.wal {
            if let Some(seq) = wal.latest_seq(pos) {
                wal.truncate(pos, seq);
            }
        }
        self.shadows.remove(&pos);
    }

    /// Discharges the records of `pos`, whose write-back just landed: the
    /// chain re-roots on the bytes the remote store received, and the
    /// shadow takes `edits` — its difference from the chunk those bytes
    /// encode, taken when the pass snapshotted the world — so root and
    /// shadow are one chunk and the next staging appends edits.
    fn reroot_logged(&mut self, pos: ChunkPos, edits: &[BlockEdit]) {
        let (Some(wal), Some(snapshot)) = (&self.wal, self.cache.snapshot(pos)) else {
            return self.truncate_logged(pos);
        };
        let rerooted = wal.with(|wal| wal.reroot(pos, snapshot.bytes));
        let (Some(shadow), Some(seq)) = (self.shadows.get_mut(&pos), rerooted) else {
            return self.truncate_logged(pos);
        };
        shadow.chunk.apply_edits(edits);
        shadow.seq = seq;
    }

    /// Ends a write-back pass: drops the shadow of every position not
    /// staged since the previous pass, and its chain when that is a lone
    /// root. This one-pass rule bounds what re-rooting retains to the
    /// chunks that are still being edited.
    fn release_cold(&mut self) {
        let wal = self.wal.as_ref();
        self.shadows.retain(|&pos, shadow| {
            if std::mem::take(&mut shadow.staged) {
                return true;
            }
            if let Some(wal) = wal {
                wal.with(|wal| wal.release_root(pos));
            }
            false
        });
    }

    /// Takes the staged write-back set of one shard (the migration-handoff
    /// primitive; see `PipelinedChunkService::take_staged_shard`).
    fn take_staged_shard(&mut self, shard: usize) -> Vec<ChunkPos> {
        match self.staged.get_mut(shard) {
            Some(set) => std::mem::take(set).into_iter().collect(),
            None => Vec::new(),
        }
    }

    fn set_shard_count(&mut self, shard_count: usize) {
        let shard_count = shard_count.clamp(1, 1 << 10).next_power_of_two();
        self.shard_count = shard_count;
        let old: Vec<BTreeSet<ChunkPos>> = std::mem::take(&mut self.staged);
        self.staged = (0..shard_count).map(|_| BTreeSet::new()).collect();
        for set in old {
            for pos in set {
                self.staged[shard_index(pos, shard_count)].insert(pos);
            }
        }
        self.cache.set_shard_batching(shard_count);
    }

    /// Pulls dirty chunks from the bound world and the cache into the
    /// staged write-back set, returning one merged delta per shard that
    /// contributed anything new.
    fn absorb_dirty(&mut self) -> Vec<ShardDelta> {
        let mut merged: HashMap<usize, (u64, BTreeSet<ChunkPos>)> = HashMap::new();
        if let Some(world) = &self.world {
            let world_deltas = match &self.world_shards {
                Some(shards) => world.drain_dirty_shards(shards),
                None => world.drain_dirty(),
            };
            for delta in world_deltas {
                // World shards and service shards use the same hash, but may
                // differ in count; re-bucket defensively.
                for pos in delta.chunks {
                    let shard = shard_index(pos, self.shard_count);
                    let entry = merged.entry(shard).or_insert_with(|| (0, BTreeSet::new()));
                    entry.0 = entry.0.max(delta.epoch);
                    entry.1.insert(pos);
                }
            }
        }
        for delta in self.cache.take_dirty_deltas() {
            for pos in delta.chunks {
                let shard = shard_index(pos, self.shard_count);
                let entry = merged.entry(shard).or_insert_with(|| (0, BTreeSet::new()));
                entry.0 = entry.0.max(delta.epoch);
                entry.1.insert(pos);
            }
        }
        let mut deltas: Vec<ShardDelta> = merged
            .into_iter()
            .map(|(shard, (epoch, set))| {
                for &pos in &set {
                    self.log_staged(pos);
                    self.staged[shard].insert(pos);
                }
                ShardDelta {
                    shard,
                    epoch,
                    chunks: set.into_iter().collect(),
                }
            })
            .collect();
        deltas.sort_by_key(|d| d.shard);
        deltas
    }

    /// Executes a read with blocking semantics: a miss pays the full remote
    /// latency inline (the [`SyncChunkService`] baseline).
    fn exec_read_sync(&mut self, ticket: Ticket, pos: ChunkPos, now: SimTime) -> ChunkCompletion {
        let outcome = match self.cache.read(pos, now) {
            Ok(read) => match read.snapshot.restore() {
                Ok(chunk) => ChunkOutcome::Loaded {
                    pos,
                    chunk: Box::new(chunk),
                    location: read.location,
                    latency: read.latency,
                },
                Err(error) => ChunkOutcome::Failed {
                    pos: Some(pos),
                    error,
                },
            },
            Err(ServoError::NotFound { .. }) => ChunkOutcome::Missing { pos },
            Err(error) => ChunkOutcome::Failed {
                pos: Some(pos),
                error,
            },
        };
        ChunkCompletion { ticket, outcome }
    }

    /// Executes a read with asynchronous semantics: a miss issues a
    /// background transfer and the completion is deferred to the poll that
    /// observes the arrival (the [`PipelinedChunkService`] path).
    fn exec_read_async(
        &mut self,
        ticket: Ticket,
        pos: ChunkPos,
        now: SimTime,
    ) -> Option<ChunkCompletion> {
        match self.cache.try_read(pos, now) {
            Ok(TryRead::Ready(read)) => Some(match read.snapshot.restore() {
                Ok(chunk) => ChunkCompletion {
                    ticket,
                    outcome: ChunkOutcome::Loaded {
                        pos,
                        chunk: Box::new(chunk),
                        location: read.location,
                        latency: read.latency,
                    },
                },
                Err(error) => ChunkCompletion {
                    ticket,
                    outcome: ChunkOutcome::Failed {
                        pos: Some(pos),
                        error,
                    },
                },
            }),
            Ok(TryRead::InFlight { .. }) => {
                // Duplicate reads for a position already being read
                // coalesce: consumers like the game loop re-submit every
                // missing chunk every tick, and the arrival completes with
                // the earliest read's ticket. Without this, every re-ask
                // would add a waiter, multiplying arrival completions,
                // chunk decodes, and join stats for one logical read.
                let waiters = self.waiting.entry(pos).or_default();
                if !waiters.iter().any(|w| w.is_read) {
                    waiters.push(Waiter {
                        ticket,
                        issued: now,
                        is_read: true,
                    });
                }
                None
            }
            Err(ServoError::NotFound { .. }) => Some(ChunkCompletion {
                ticket,
                outcome: ChunkOutcome::Missing { pos },
            }),
            Err(error) => Some(ChunkCompletion {
                ticket,
                outcome: ChunkOutcome::Failed {
                    pos: Some(pos),
                    error,
                },
            }),
        }
    }

    fn exec_prefetch(&mut self, ticket: Ticket, positions: &[ChunkPos], now: SimTime) {
        self.cache.prefetch(positions.iter().copied(), now);
        for &pos in positions {
            if self.cache.is_in_flight(pos) {
                let waiters = self.waiting.entry(pos).or_default();
                if !waiters.iter().any(|w| !w.is_read) {
                    waiters.push(Waiter {
                        ticket,
                        issued: now,
                        is_read: false,
                    });
                }
            }
        }
    }

    fn exec_write_back(&mut self, now: SimTime) -> usize {
        self.absorb_dirty();
        let mut written = 0;
        for shard in 0..self.shard_count {
            if self.staged[shard].is_empty() {
                continue;
            }
            let positions: Vec<ChunkPos> = std::mem::take(&mut self.staged[shard])
                .into_iter()
                .collect();
            // A chunk edited in the bound world may have a stale (or no)
            // snapshot in the cache: refresh from the world first. A
            // logged position also notes how its shadow differs from the
            // snapshot, for the re-root once the write lands.
            let mut resyncs: HashMap<ChunkPos, Vec<BlockEdit>, FxBuildHasher> = HashMap::default();
            if let Some(world) = self.world.clone() {
                for &pos in &positions {
                    let shadow = self.shadows.get(&pos);
                    let refreshed = world.read_chunk(pos, |chunk| {
                        (chunk.snapshot(), shadow.map(|s| chunk.diff(&s.chunk)))
                    });
                    if let Some((snapshot, resync)) = refreshed {
                        let _ = self.cache.put(snapshot, now);
                        resyncs.extend(resync.map(|edits| (pos, edits)));
                    }
                }
                // The refresh re-marked these chunks dirty in the cache;
                // absorb that dirt immediately so it is not double-reported.
                for delta in self.cache.take_dirty_deltas() {
                    for pos in delta.chunks {
                        if positions.binary_search(&pos).is_err() {
                            self.log_staged(pos);
                            self.staged[shard_index(pos, self.shard_count)].insert(pos);
                        }
                    }
                }
            }
            // Every record of a flushed position is covered by the
            // snapshot that just landed: nothing appends during the flush.
            // A failed write leaves the chain and the shadow as they were.
            let flushed = self.cache.write_back(&positions, now);
            for &pos in &flushed {
                match resyncs.get(&pos) {
                    Some(edits) => self.reroot_logged(pos, edits),
                    None => self.truncate_logged(pos),
                }
            }
            written += flushed.len();
        }
        self.release_cold();
        written
    }

    fn exec_evict(&mut self, keep: &[ChunkPos], now: SimTime) -> usize {
        let keep: std::collections::HashSet<ChunkPos> = keep.iter().copied().collect();
        self.cache.evict_except(&keep, now)
    }

    /// Completes transfers that arrived by `now` and resolves every ticket
    /// waiting on them.
    fn harvest(&mut self, now: SimTime, out: &mut Vec<ChunkCompletion>) -> usize {
        let arrived = self.cache.poll_arrived(now);
        let mut reads_resolved = 0;
        for pos in arrived {
            let Some(waiters) = self.waiting.remove(&pos) else {
                continue;
            };
            for waiter in waiters {
                let snapshot = self.cache.snapshot(pos);
                let wait = now.saturating_since(waiter.issued);
                if waiter.is_read {
                    self.cache.record_async_join(wait);
                    reads_resolved += 1;
                }
                let outcome = match snapshot.as_ref().map(ChunkSnapshot::restore) {
                    Some(Ok(chunk)) => ChunkOutcome::Loaded {
                        pos,
                        chunk: Box::new(chunk),
                        location: ChunkLocation::PrefetchInFlight,
                        latency: wait,
                    },
                    Some(Err(error)) => ChunkOutcome::Failed {
                        pos: Some(pos),
                        error,
                    },
                    None => ChunkOutcome::Failed {
                        pos: Some(pos),
                        error: ServoError::storage_failed("arrived chunk vanished"),
                    },
                };
                out.push(ChunkCompletion {
                    ticket: waiter.ticket,
                    outcome,
                });
            }
        }
        reads_resolved
    }

    fn waiting_reads(&self) -> usize {
        self.waiting
            .values()
            .flatten()
            .filter(|w| w.is_read)
            .count()
    }
}

/// The baseline [`ChunkService`]: a thin adapter over [`CachedChunkStore`]
/// that executes every request at `submit`. A read that misses all cache
/// layers resolves the remote fetch synchronously — tick-visible latency
/// includes the full transfer, which is the blocking behaviour the
/// latency-model experiments (Figure 13) measure and the reference side of
/// the `service_differential` suite.
#[derive(Debug)]
pub struct SyncChunkService<R: ObjectStore> {
    core: ServiceCore<R>,
    tickets: u64,
    now: SimTime,
    ready: VecDeque<ChunkCompletion>,
}

impl<R: ObjectStore> SyncChunkService<R> {
    /// Creates a service in front of `remote`; the local-disk layer gets
    /// its own latency stream from `rng`.
    pub fn new(remote: R, rng: servo_simkit::SimRng) -> Self {
        SyncChunkService {
            core: ServiceCore::new(remote, rng),
            tickets: 0,
            now: SimTime::ZERO,
            ready: VecDeque::new(),
        }
    }

    /// Binds the world whose per-shard dirty deltas feed
    /// [`ChunkService::drain_dirty`] and write-back, aligning the service's
    /// shard grouping with the world's shard count.
    pub fn with_world(mut self, world: Arc<ShardedWorld>) -> Self {
        self.core.set_shard_count(world.shard_count());
        self.core.world = Some(world);
        self
    }

    /// Sets the shard count used for batching, returning the service.
    pub fn with_shard_batching(mut self, shard_count: usize) -> Self {
        self.core.set_shard_count(shard_count);
        self
    }

    /// Attaches a write-ahead delta log: staged positions are logged (with
    /// their world bytes) before the stage is acknowledged, and a durable
    /// write-back re-roots their chains on the flushed bytes. Attach after
    /// binding the world — the log reads chunk bytes from it.
    pub fn with_wal(mut self, wal: SharedWal) -> Self {
        self.core.set_wal(Some(wal));
        self
    }

    /// Sets the bounded retry-and-backoff policy for transient remote
    /// failures.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.core.cache.set_retry(retry);
        self
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.core.cache.stats()
    }

    /// Number of chunks resident in the in-memory cache layer.
    pub fn resident_chunks(&self) -> usize {
        self.core.cache.resident_chunks()
    }

    /// Access to the remote backend (e.g. to seed it with terrain).
    pub fn remote_mut(&mut self) -> &mut R {
        self.core.cache.remote_mut()
    }

    /// Ingests a freshly generated or modified chunk snapshot, marking it
    /// dirty for the next [`ChunkRequest::WriteBack`]. This is the only
    /// mutation that does not flow through [`ChunkService::submit`]: it is
    /// the boundary where new data *enters* the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::StorageFailed`] if the local cache copy cannot
    /// be written.
    pub fn put(&mut self, snapshot: ChunkSnapshot, now: SimTime) -> Result<(), ServoError> {
        self.core.cache.put(snapshot, now)
    }

    fn next_ticket(&mut self) -> Ticket {
        self.tickets += 1;
        Ticket(self.tickets)
    }
}

impl<R: ObjectStore> ChunkService for SyncChunkService<R> {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        let ticket = self.next_ticket();
        let now = self.now;
        match request {
            ChunkRequest::Read { pos, .. } => {
                let completion = self.core.exec_read_sync(ticket, pos, now);
                self.ready.push_back(completion);
            }
            ChunkRequest::Prefetch { positions, .. } => {
                self.core.exec_prefetch(ticket, &positions, now);
            }
            ChunkRequest::WriteBack { .. } => {
                let chunks = self.core.exec_write_back(now);
                self.ready.push_back(ChunkCompletion {
                    ticket,
                    outcome: ChunkOutcome::WroteBack { chunks },
                });
            }
            ChunkRequest::Evict { keep, .. } => {
                let chunks = self.core.exec_evict(&keep, now);
                self.ready.push_back(ChunkCompletion {
                    ticket,
                    outcome: ChunkOutcome::Evicted { chunks },
                });
            }
        }
        ticket
    }

    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion> {
        self.now = now;
        let mut out: Vec<ChunkCompletion> = self.ready.drain(..).collect();
        self.core.harvest(now, &mut out);
        out
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        self.core.absorb_dirty()
    }

    fn stage_dirty(&mut self, deltas: Vec<ShardDelta>) {
        for delta in deltas {
            for pos in delta.chunks {
                self.core.stage(pos);
            }
        }
    }

    fn recover(&mut self, shard: usize) -> Vec<ShardDelta> {
        match &self.core.wal {
            Some(wal) => wal.delta(shard).into_iter().collect(),
            None => Vec::new(),
        }
    }

    fn pending(&self) -> usize {
        self.ready.len() + self.core.waiting.values().map(Vec::len).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "chunks-sync"
    }
}

/// The asynchronous [`ChunkService`]: `submit` only queues — reads and
/// prefetches on the lane of the world shard that owns the chunk,
/// write-back and eviction on one control lane — and [`poll`] executes
/// everything queued on the calling thread, in one fixed order:
///
/// 1. the shard lanes by ascending shard, each stably by descending
///    [`Priority`] (urgent reads first, prefetches after);
/// 2. the control lane, stably by descending priority, each request
///    visiting the shard segments in ascending order;
/// 3. a harvest of every segment, ascending, at the polled time.
///
/// The completions come back in that order. Nothing happens between
/// polls, and no host thread, lock or clock decides an outcome: the
/// request stream, the poll times and the seeds of the remote store and of
/// `rng` determine every completion, counter, WAL record and stored byte.
///
/// Each world shard has its own *segment* — a cache, a staged write-back
/// set and a local-disk latency stream derived from `rng` by shard index;
/// the remote store (and its latency stream) is one resource shared by all
/// of them.
///
/// Reads that miss the in-memory layer become background transfers: the
/// completion arrives from the first poll at or after the simulated
/// arrival time, exactly like a prefetch join — the blob latency stays off
/// the tick that asked. The final cache/world/remote state is identical to
/// what [`SyncChunkService`] produces for the same request stream
/// (asserted by the `service_differential` test suite); only the
/// tick-visible cost differs.
///
/// [`poll`]: ChunkService::poll
#[derive(Debug)]
pub struct PipelinedChunkService<R: ObjectStore> {
    /// One service core per world shard.
    segments: Vec<ServiceCore<SharedRemote<R>>>,
    /// Per-shard lanes of read/prefetch submissions the next poll executes.
    lanes: Vec<Vec<(Ticket, ChunkRequest)>>,
    /// Write-back / evict lane (not tied to one shard).
    control: Vec<(Ticket, ChunkRequest)>,
    tickets: u64,
    /// The shared remote store handle (also held by every segment core).
    remote: SharedRemote<R>,
    /// Base RNG the per-segment local-disk latency streams derive from.
    disk_rng: servo_simkit::SimRng,
    /// The zone's write-ahead delta log, re-applied to the segments on
    /// every rebind. `None` disables durability logging.
    wal: Option<SharedWal>,
    /// Retry policy re-applied to the segment caches on every rebind.
    retry: RetryPolicy,
}

impl<R: ObjectStore> PipelinedChunkService<R> {
    /// Creates a service in front of `remote`. `_workers` is ignored: it
    /// sized a thread pool this service no longer has, and stays in the
    /// signature only for existing callers.
    pub fn new(remote: R, rng: servo_simkit::SimRng, _workers: usize) -> Self {
        let remote = SharedRemote(Arc::new(Mutex::new(remote)));
        let shard_count = servo_world::DEFAULT_SHARDS;
        PipelinedChunkService {
            segments: Self::build_segments(&remote, &rng, shard_count, None, None),
            lanes: (0..shard_count).map(|_| Vec::new()).collect(),
            control: Vec::new(),
            tickets: 0,
            remote,
            disk_rng: rng,
            wal: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Attaches a write-ahead delta log shared by every shard segment:
    /// staged positions are logged (with the chunk bytes read from the
    /// bound world) before the stage is acknowledged, and their chains are
    /// re-rooted on the flushed bytes once their write-back durably lands.
    /// The caller keeps a clone of the handle — the log models a durable
    /// device that outlives this pipeline, which is what crash recovery
    /// replays.
    pub fn with_wal(mut self, wal: SharedWal) -> Self {
        self.set_wal(Some(wal));
        self
    }

    /// The attached write-ahead log handle, if durability is enabled.
    pub fn wal(&self) -> Option<SharedWal> {
        self.wal.clone()
    }

    /// Attaches or detaches the write-ahead log in place (the non-builder
    /// form of [`PipelinedChunkService::with_wal`]; `None` disables
    /// durability — the configuration the failure ablation's no-WAL arms
    /// measure the data-loss window of).
    pub fn set_wal(&mut self, wal: Option<SharedWal>) {
        for core in &mut self.segments {
            core.set_wal(wal.clone());
        }
        self.wal = wal;
    }

    /// Sets the bounded retry-and-backoff policy applied to transient
    /// remote failures (see `RetryPolicy`).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.set_retry(retry);
        self
    }

    /// In-place form of [`PipelinedChunkService::with_retry`], for callers
    /// that only hold the built pipeline (e.g. a cluster re-configuring an
    /// attached persistence service).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        for core in &mut self.segments {
            core.cache.set_retry(retry);
        }
        self.retry = retry;
    }

    /// The *staged* (drained-but-not-yet-flushed) write-back positions of
    /// world shard `shard`, sorted by `(x, z)`, without removing them — the
    /// inspection half of [`PipelinedChunkService::take_staged_shard`].
    /// Crash accounting reads this to size the data-loss window: every
    /// staged position not covered by the WAL is lost with the zone's
    /// memory.
    pub fn staged_positions(&self, shard: usize) -> Vec<ChunkPos> {
        // Shard `s`'s staged positions live only in segment `s`, bucket `s`
        // (see `take_staged_shard`); a `BTreeSet<ChunkPos>` iterates in
        // `(x, z)` order.
        self.segments
            .get(shard)
            .and_then(|core| core.staged.get(shard))
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Builds one service core per shard segment, each with its own derived
    /// local-disk latency stream and (when bound) a pull view onto exactly
    /// its own world shard — intersected with `owned` when the service
    /// persists only a zone's slice of the world.
    fn build_segments(
        remote: &SharedRemote<R>,
        rng: &servo_simkit::SimRng,
        shard_count: usize,
        world: Option<&Arc<ShardedWorld>>,
        owned: Option<&[usize]>,
    ) -> Vec<ServiceCore<SharedRemote<R>>> {
        (0..shard_count)
            .map(|shard| {
                let mut core = ServiceCore::new(
                    remote.clone(),
                    rng.substream_indexed("segment", shard as u64),
                );
                core.set_shard_count(shard_count);
                if let Some(world) = world {
                    core.world = Some(Arc::clone(world));
                    let pulls = match owned {
                        Some(owned) if !owned.contains(&shard) => Vec::new(),
                        _ => vec![shard],
                    };
                    core.world_shards = Some(pulls);
                }
                core
            })
            .collect()
    }

    /// Rebuilds the segments for a newly bound world, re-applying the
    /// durability log and retry policy so builder-call order cannot
    /// silently drop them.
    fn rebind(&mut self, world: Arc<ShardedWorld>, owned: Option<Vec<usize>>) {
        let shard_count = world.shard_count();
        self.segments = Self::build_segments(
            &self.remote,
            &self.disk_rng,
            shard_count,
            Some(&world),
            owned.as_deref(),
        );
        self.lanes = (0..shard_count).map(|_| Vec::new()).collect();
        for core in &mut self.segments {
            core.set_wal(self.wal.clone());
            core.cache.set_retry(self.retry);
        }
    }

    /// Binds the world whose per-shard dirty deltas feed
    /// [`ChunkService::drain_dirty`] and write-back, aligning the service's
    /// shard segmentation with the world's shard count. Call before
    /// submitting work: rebinding starts from fresh segments.
    pub fn with_world(mut self, world: Arc<ShardedWorld>) -> Self {
        self.rebind(world, None);
        self
    }

    /// Like [`PipelinedChunkService::with_world`], but pulls dirty state
    /// only for the given world shards — the persistence view of one zone
    /// of a sharded cluster, which must never flush chunks another zone
    /// owns.
    pub fn with_world_shards(mut self, world: Arc<ShardedWorld>, owned: &[usize]) -> Self {
        self.rebind(world, Some(owned.to_vec()));
        self
    }

    /// Cache effectiveness counters, summed over the shard segments.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for core in &self.segments {
            total.merge(&core.cache.stats());
        }
        total
    }

    /// Number of chunks resident in the in-memory cache layer, summed over
    /// the shard segments.
    pub fn resident_chunks(&self) -> usize {
        self.segments
            .iter()
            .map(|core| core.cache.resident_chunks())
            .sum()
    }

    /// Number of simulated transfers currently in flight, summed over the
    /// shard segments.
    pub fn transfers_in_flight(&self) -> usize {
        self.segments
            .iter()
            .map(|core| core.cache.transfers_in_flight())
            .sum()
    }

    /// Runs `f` with the remote backend (e.g. to seed terrain before an
    /// experiment).
    pub fn with_remote<T>(&self, f: impl FnOnce(&mut R) -> T) -> T {
        f(&mut self.remote.lock())
    }

    /// Removes and returns every *staged* (drained-but-not-yet-flushed)
    /// write-back position belonging to world shard `shard`, sorted by
    /// `(x, z)`.
    ///
    /// This is the quiesce half of a shard-migration handoff: when a zoned
    /// cluster moves a shard to another zone, the source zone's pipeline
    /// must stop owing those chunks a flush — the cluster takes them here
    /// and `stage_dirty`s them into the destination zone's pipeline, which
    /// owns the write-back obligation from then on.
    pub fn take_staged_shard(&mut self, shard: usize) -> Vec<ChunkPos> {
        // Every staging path routes a position to segment
        // `shard_index(pos, shard_count)` and buckets it at the same index
        // inside the segment (segments and buckets share one shard count),
        // so shard `s`'s staged positions live only in segment `s`.
        let Some(core) = self.segments.get_mut(shard) else {
            return Vec::new();
        };
        let positions = core.take_staged_shard(shard);
        // The write-back obligation (and with it the durability obligation)
        // moves to whoever receives the handoff: drop this pipeline's WAL
        // records for the taken positions, or a later crash here would
        // replay chunks the zone no longer owns.
        for &pos in &positions {
            core.truncate_logged(pos);
        }
        positions
    }

    fn next_ticket(&mut self) -> Ticket {
        self.tickets += 1;
        Ticket(self.tickets)
    }
}

impl<R: ObjectStore> ChunkService for PipelinedChunkService<R> {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        let ticket = self.next_ticket();
        let shard_count = self.segments.len();
        match request {
            ChunkRequest::Read { pos, .. } => {
                self.lanes[shard_index(pos, shard_count)].push((ticket, request));
            }
            ChunkRequest::Prefetch {
                positions,
                priority,
            } => {
                // Split per owning shard so each sub-batch lands on the
                // shard lane that will receive the data.
                let mut by_shard: Vec<Vec<ChunkPos>> =
                    (0..shard_count).map(|_| Vec::new()).collect();
                for pos in positions {
                    by_shard[shard_index(pos, shard_count)].push(pos);
                }
                for (shard, positions) in by_shard.into_iter().enumerate() {
                    if positions.is_empty() {
                        continue;
                    }
                    self.lanes[shard].push((
                        ticket,
                        ChunkRequest::Prefetch {
                            positions,
                            priority,
                        },
                    ));
                }
            }
            ChunkRequest::WriteBack { .. } | ChunkRequest::Evict { .. } => {
                self.control.push((ticket, request));
            }
        }
        ticket
    }

    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion> {
        let mut out = Vec::new();
        for (core, lane) in self.segments.iter_mut().zip(&mut self.lanes) {
            lane.sort_by_key(|(_, r)| std::cmp::Reverse(r.priority()));
            for (ticket, request) in lane.drain(..) {
                match request {
                    ChunkRequest::Read { pos, .. } => {
                        out.extend(core.exec_read_async(ticket, pos, now));
                    }
                    ChunkRequest::Prefetch { positions, .. } => {
                        core.exec_prefetch(ticket, &positions, now);
                    }
                    ChunkRequest::WriteBack { .. } | ChunkRequest::Evict { .. } => {
                        unreachable!("submit routes maintenance to the control lane")
                    }
                }
            }
        }
        self.control
            .sort_by_key(|(_, r)| std::cmp::Reverse(r.priority()));
        for (ticket, request) in self.control.drain(..) {
            let segments = self.segments.iter_mut();
            let outcome = match request {
                ChunkRequest::WriteBack { .. } => ChunkOutcome::WroteBack {
                    chunks: segments.map(|core| core.exec_write_back(now)).sum(),
                },
                ChunkRequest::Evict { keep, .. } => ChunkOutcome::Evicted {
                    chunks: segments.map(|core| core.exec_evict(&keep, now)).sum(),
                },
                ChunkRequest::Read { .. } | ChunkRequest::Prefetch { .. } => {
                    unreachable!("submit routes reads and prefetches to the shard lanes")
                }
            };
            out.push(ChunkCompletion { ticket, outcome });
        }
        // Arrivals flow at every poll, whether or not anything was queued.
        for core in &mut self.segments {
            core.harvest(now, &mut out);
        }
        out
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        let mut deltas: Vec<ShardDelta> = self
            .segments
            .iter_mut()
            .flat_map(ServiceCore::absorb_dirty)
            .collect();
        deltas.sort_by_key(|d| d.shard);
        deltas
    }

    fn stage_dirty(&mut self, deltas: Vec<ShardDelta>) {
        let shard_count = self.segments.len();
        for delta in deltas {
            for pos in delta.chunks {
                self.segments[shard_index(pos, shard_count)].stage(pos);
            }
        }
    }

    fn recover(&mut self, shard: usize) -> Vec<ShardDelta> {
        match &self.wal {
            Some(wal) => wal.delta(shard).into_iter().collect(),
            None => Vec::new(),
        }
    }

    fn pending(&self) -> usize {
        let waiting: usize = self.segments.iter().map(ServiceCore::waiting_reads).sum();
        let queued: usize = self.lanes.iter().map(Vec::len).sum::<usize>() + self.control.len();
        waiting + queued
    }

    fn name(&self) -> &'static str {
        "chunks-pipelined"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BlobStore, BlobTier};
    use servo_simkit::SimRng;
    use servo_types::BlockPos;
    use servo_world::{Block, ShardedWorld};

    fn seeded_remote(n: i32) -> BlobStore {
        let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
        for x in 0..n {
            for z in 0..n {
                let pos = ChunkPos::new(x, z);
                remote
                    .write(
                        &format!("terrain/{x}/{z}"),
                        Chunk::empty(pos).to_bytes(),
                        SimTime::ZERO,
                    )
                    .unwrap();
            }
        }
        remote
    }

    #[test]
    fn sync_read_completes_inline() {
        let mut service = SyncChunkService::new(seeded_remote(2), SimRng::seed(2));
        let ticket = service.submit(ChunkRequest::read(ChunkPos::new(1, 1)));
        let completions = service.poll(SimTime::ZERO);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].ticket, ticket);
        match &completions[0].outcome {
            ChunkOutcome::Loaded { pos, location, .. } => {
                assert_eq!(*pos, ChunkPos::new(1, 1));
                assert_eq!(*location, ChunkLocation::Remote);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(service.pending(), 0);
        assert_eq!(service.stats().remote_misses, 1);
    }

    #[test]
    fn sync_missing_chunk_reports_missing() {
        let mut service = SyncChunkService::new(seeded_remote(1), SimRng::seed(2));
        service.submit(ChunkRequest::read(ChunkPos::new(9, 9)));
        let completions = service.poll(SimTime::ZERO);
        assert!(matches!(
            completions[0].outcome,
            ChunkOutcome::Missing { pos } if pos == ChunkPos::new(9, 9)
        ));
    }

    #[test]
    fn pipelined_read_defers_to_arrival() {
        let mut service = PipelinedChunkService::new(seeded_remote(2), SimRng::seed(2), 2);
        let ticket = service.submit(ChunkRequest::read(ChunkPos::new(0, 1)));
        // The poll that executes the read sees nothing arrive in sim time:
        // the read became an in-flight transfer instead of blocking.
        assert!(
            service.poll(SimTime::ZERO).is_empty(),
            "read completed without any sim time passing"
        );
        assert_eq!(service.pending(), 1);
        // Far in the future the transfer has arrived.
        let completions = service.poll(SimTime::from_secs(10));
        assert_eq!(service.pending(), 0);
        let loaded: Vec<_> = completions
            .iter()
            .filter(|c| matches!(c.outcome, ChunkOutcome::Loaded { .. }))
            .collect();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].ticket, ticket);
        // The read never blocked: no synchronous remote miss was recorded.
        assert_eq!(service.stats().remote_misses, 0);
        assert_eq!(service.stats().prefetch_joins, 1);
    }

    #[test]
    fn prefetch_arrivals_carry_the_prefetch_ticket() {
        let mut service = PipelinedChunkService::new(seeded_remote(3), SimRng::seed(2), 2);
        let positions: Vec<ChunkPos> = (0..3)
            .flat_map(|x| (0..3).map(move |z| ChunkPos::new(x, z)))
            .collect();
        let ticket = service.submit(ChunkRequest::prefetch(positions.clone()));
        // The first poll issues the transfers at t=10 s; the second observes
        // their arrivals (all due well before t=30 s).
        let mut completions = service.poll(SimTime::from_secs(10));
        completions.extend(service.poll(SimTime::from_secs(30)));
        let loaded: Vec<ChunkPos> = completions
            .iter()
            .filter(|c| c.ticket == ticket)
            .filter_map(|c| match &c.outcome {
                ChunkOutcome::Loaded { pos, .. } => Some(*pos),
                _ => None,
            })
            .collect();
        assert_eq!(loaded.len(), positions.len());
    }

    #[test]
    fn world_edits_surface_as_one_shard_delta_and_write_back_skips_clean_shards() {
        let world = Arc::new(ShardedWorld::flat(4));
        for x in 0..6 {
            for z in 0..6 {
                world.ensure_chunk_at(ChunkPos::new(x, z));
            }
        }
        let mut service =
            SyncChunkService::new(seeded_remote(0), SimRng::seed(2)).with_world(Arc::clone(&world));

        // Edit blocks of exactly one chunk.
        world
            .set_block(BlockPos::new(1, 9, 1), Block::Stone)
            .unwrap();
        world
            .set_block(BlockPos::new(2, 9, 2), Block::Lamp)
            .unwrap();
        let deltas = service.drain_dirty();
        assert_eq!(deltas.len(), 1, "one edited shard, one delta: {deltas:?}");
        assert_eq!(deltas[0].chunks, vec![ChunkPos::new(0, 0)]);

        // The drained delta stays staged: write-back flushes exactly that
        // chunk to remote storage and nothing else.
        service.submit(ChunkRequest::write_back());
        let completions = service.poll(SimTime::ZERO);
        let written: Vec<usize> = completions
            .iter()
            .filter_map(|c| match c.outcome {
                ChunkOutcome::WroteBack { chunks } => Some(chunks),
                _ => None,
            })
            .collect();
        assert_eq!(written, vec![1]);
        assert_eq!(service.remote_mut().len(), 1);
        assert!(service.remote_mut().contains("terrain/0/0"));

        // A clean world produces no deltas and write-back does nothing.
        assert!(service.drain_dirty().is_empty());
        service.submit(ChunkRequest::write_back());
        let completions = service.poll(SimTime::ZERO);
        assert!(completions
            .iter()
            .any(|c| matches!(c.outcome, ChunkOutcome::WroteBack { chunks: 0 })));
    }

    #[test]
    fn evict_request_drops_unkept_chunks() {
        let mut service = SyncChunkService::new(seeded_remote(3), SimRng::seed(2));
        for x in 0..3 {
            for z in 0..3 {
                service.submit(ChunkRequest::read(ChunkPos::new(x, z)));
            }
        }
        service.poll(SimTime::ZERO);
        assert_eq!(service.resident_chunks(), 9);
        let keep = vec![ChunkPos::new(0, 0), ChunkPos::new(1, 1)];
        service.submit(ChunkRequest::evict(keep));
        let completions = service.poll(SimTime::ZERO);
        assert!(completions
            .iter()
            .any(|c| matches!(c.outcome, ChunkOutcome::Evicted { chunks: 7 })));
        assert_eq!(service.resident_chunks(), 2);
    }

    #[test]
    fn staged_external_deltas_feed_write_back() {
        let world = Arc::new(ShardedWorld::flat(4));
        world.ensure_chunk_at(ChunkPos::new(1, 1));
        let mut service = PipelinedChunkService::new(seeded_remote(0), SimRng::seed(2), 2)
            .with_world(Arc::clone(&world));
        world
            .set_block(
                ChunkPos::new(1, 1).min_block() + BlockPos::new(2, 9, 2),
                Block::Stone,
            )
            .unwrap();
        // An external consumer (the cluster's border protocol) drains the
        // world itself...
        let deltas = world.drain_dirty();
        assert_eq!(deltas.len(), 1);
        // ...and routes the deltas back in: the next write-back still
        // flushes the chunk even though the world's dirty sets are clean.
        service.stage_dirty(deltas);
        service.submit(ChunkRequest::write_back());
        let completions = service.poll(SimTime::ZERO);
        assert!(completions
            .iter()
            .any(|c| matches!(c.outcome, ChunkOutcome::WroteBack { chunks: 1 })));
        assert!(service.with_remote(|remote| remote.contains("terrain/1/1")));
    }

    #[test]
    fn take_staged_shard_hands_off_the_write_back_obligation() {
        let world = Arc::new(ShardedWorld::flat(4));
        // Two chunks in different world shards, both dirtied and staged.
        let a = ChunkPos::new(0, 0);
        let mut b = ChunkPos::new(1, 0);
        'search: for x in 0..16 {
            for z in 0..16 {
                let candidate = ChunkPos::new(x, z);
                if world.shard_of(candidate) != world.shard_of(a) {
                    b = candidate;
                    break 'search;
                }
            }
        }
        assert_ne!(world.shard_of(a), world.shard_of(b));
        world.ensure_chunk_at(a);
        world.ensure_chunk_at(b);
        let mut source = PipelinedChunkService::new(seeded_remote(0), SimRng::seed(7), 2)
            .with_world_shards(Arc::clone(&world), &[]);
        for &pos in &[a, b] {
            world
                .set_block(pos.min_block() + BlockPos::new(2, 9, 2), Block::Stone)
                .unwrap();
        }
        source.stage_dirty(world.drain_dirty());

        // Quiesce: shard `a` leaves the source's staging (the migration
        // handoff); a repeated take is empty.
        let taken = source.take_staged_shard(world.shard_of(a));
        assert_eq!(taken, vec![a]);
        assert!(source.take_staged_shard(world.shard_of(a)).is_empty());

        // The source now owes a flush only for `b`.
        source.submit(ChunkRequest::write_back());
        let completions = source.poll(SimTime::ZERO);
        assert!(completions
            .iter()
            .any(|c| matches!(c.outcome, ChunkOutcome::WroteBack { chunks: 1 })));
        assert!(!source.with_remote(|remote| remote.contains("terrain/0/0")));

        // The destination, staged with the taken set, owes `a`'s flush.
        let mut destination = PipelinedChunkService::new(seeded_remote(0), SimRng::seed(8), 2)
            .with_world_shards(Arc::clone(&world), &[]);
        destination.stage_dirty(vec![ShardDelta {
            shard: world.shard_of(a),
            epoch: 1,
            chunks: taken,
        }]);
        destination.submit(ChunkRequest::write_back());
        let completions = destination.poll(SimTime::ZERO);
        assert!(completions
            .iter()
            .any(|c| matches!(c.outcome, ChunkOutcome::WroteBack { chunks: 1 })));
        assert!(destination.with_remote(|remote| remote.contains("terrain/0/0")));
    }

    #[test]
    fn zone_restricted_service_never_flushes_foreign_shards() {
        let world = Arc::new(ShardedWorld::flat(4));
        // Find two chunks living in different world shards.
        let a = ChunkPos::new(0, 0);
        let mut b = ChunkPos::new(1, 0);
        'search: for x in 0..16 {
            for z in 0..16 {
                let candidate = ChunkPos::new(x, z);
                if world.shard_of(candidate) != world.shard_of(a) {
                    b = candidate;
                    break 'search;
                }
            }
        }
        assert_ne!(world.shard_of(a), world.shard_of(b));
        world.ensure_chunk_at(a);
        world.ensure_chunk_at(b);
        let owned = vec![world.shard_of(a)];
        let mut service = PipelinedChunkService::new(seeded_remote(0), SimRng::seed(2), 2)
            .with_world_shards(Arc::clone(&world), &owned);
        // Edit both chunks; only the owned shard's chunk may be flushed.
        world
            .set_block(a.min_block() + BlockPos::new(1, 9, 1), Block::Stone)
            .unwrap();
        world
            .set_block(b.min_block() + BlockPos::new(1, 9, 1), Block::Lamp)
            .unwrap();
        let deltas = service.drain_dirty();
        assert_eq!(
            deltas.len(),
            1,
            "only the owned shard is pulled: {deltas:?}"
        );
        assert_eq!(deltas[0].chunks, vec![a]);
        service.submit(ChunkRequest::write_back());
        let completions = service.poll(SimTime::ZERO);
        assert!(completions
            .iter()
            .any(|c| matches!(c.outcome, ChunkOutcome::WroteBack { chunks: 1 })));
        service.with_remote(|remote| {
            assert_eq!(remote.len(), 1);
            assert!(remote.contains(&format!("terrain/{}/{}", a.x, a.z)));
        });
    }

    #[test]
    fn priorities_order_within_a_batch() {
        // A lane's stable descending-priority sort puts the urgent read
        // ahead of the background prefetch submitted before it.
        let mut requests = [
            (Ticket(1), ChunkRequest::prefetch([ChunkPos::new(5, 5)])),
            (Ticket(2), ChunkRequest::read(ChunkPos::new(1, 1))),
            (Ticket(3), ChunkRequest::write_back()),
        ];
        requests.sort_by_key(|(_, r)| std::cmp::Reverse(r.priority()));
        assert!(matches!(requests[0].1, ChunkRequest::Read { .. }));
        assert!(matches!(requests[2].1, ChunkRequest::WriteBack { .. }));
        assert!(Priority::Urgent > Priority::High);
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Background);
    }
}
