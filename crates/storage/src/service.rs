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
//!   [`CachedChunkStore`]: requests execute inline on the calling thread,
//!   and a read that misses every cache layer pays the full remote latency
//!   on the tick path, exactly like the pre-redesign blocking API.
//! * [`PipelinedChunkService`] — remote transfers run on a pool of worker
//!   threads (sized by `ServerConfig::with_parallelism` at the deployment
//!   layer) and submissions are batched per owning world shard, so issue
//!   cost leaves the tick path entirely: a read that misses becomes an
//!   asynchronous transfer whose data is integrated by a later poll.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use servo_faas::{Autoscaler, AutoscalerConfig, AutoscalerStats};
use servo_types::{ChunkPos, ServoError, SimDuration, SimTime};
use servo_world::{shard_index, Chunk, ChunkSnapshot, ShardDelta, ShardedWorld};

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
/// ([`SyncChunkService`]), on worker threads
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
/// segment keeps its own cache and in-flight state. The lock is held only
/// for the duration of one simulated storage operation.
#[derive(Debug)]
pub struct SharedRemote<R>(Arc<Mutex<R>>);

impl<R> Clone for SharedRemote<R> {
    fn clone(&self) -> Self {
        SharedRemote(Arc::clone(&self.0))
    }
}

impl<R> SharedRemote<R> {
    fn new(inner: Arc<Mutex<R>>) -> Self {
        SharedRemote(inner)
    }

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
        data: Vec<u8>,
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
/// *per world shard* so its storage workers overlap with each other.
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
    /// staged position is appended here (with the chunk bytes captured from
    /// the bound world at staging time) before the stage is acknowledged,
    /// and truncated only once its write-back has durably landed. A leaf
    /// lock under the segment lock, like the shared remote.
    wal: Option<SharedWal>,
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
        }
    }

    /// Stages one externally drained position for the next write-back,
    /// write-ahead-logging it first when a WAL is attached.
    fn stage(&mut self, pos: ChunkPos) {
        self.log_staged(pos);
        self.staged[shard_index(pos, self.shard_count)].insert(pos);
    }

    /// Appends `pos`'s current world bytes to the WAL. Every path that adds
    /// a position to the staged set must come through here (or through
    /// [`ServiceCore::stage`]) so nothing enters the write-back working set
    /// without first being recoverable. Positions the bound world no longer
    /// holds are skipped — there are no bytes left to make durable.
    fn log_staged(&mut self, pos: ChunkPos) {
        if let (Some(wal), Some(world)) = (&self.wal, &self.world) {
            if let Some(bytes) = world.read_chunk(pos, Chunk::to_bytes) {
                wal.append(pos, bytes);
            }
        }
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
            // snapshot in the cache: refresh from the world first.
            if let Some(world) = self.world.clone() {
                for &pos in &positions {
                    if let Some(snapshot) = world.read_chunk(pos, Chunk::snapshot) {
                        let _ = self.cache.put(snapshot, now);
                    }
                }
                // The refresh re-marked these chunks dirty in the cache;
                // absorb that dirt immediately so it is not double-reported.
                for delta in self.cache.take_dirty_deltas() {
                    for pos in delta.chunks {
                        if !positions.contains(&pos) {
                            self.log_staged(pos);
                            self.staged[shard_index(pos, self.shard_count)].insert(pos);
                        }
                    }
                }
            }
            // Record, per position, the newest WAL sequence covered by the
            // snapshot this pass is about to flush. Appends racing in after
            // this point carry higher sequences and survive truncation.
            let marks: Vec<(ChunkPos, Option<u64>)> = match &self.wal {
                Some(wal) => positions.iter().map(|&p| (p, wal.latest_seq(p))).collect(),
                None => Vec::new(),
            };
            let flushed = self.cache.write_back(&positions, now);
            if let Some(wal) = &self.wal {
                for &(pos, mark) in &marks {
                    if let Some(seq) = mark {
                        if flushed.contains(&pos) {
                            wal.truncate(pos, seq);
                        }
                    }
                }
            }
            written += flushed.len();
        }
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
/// that executes every request inline on the calling thread. A read that
/// misses all cache layers resolves the remote fetch synchronously —
/// tick-visible latency includes the full transfer, exactly like the
/// pre-redesign blocking API. Use it where determinism and simplicity beat
/// concurrency (tests, single-threaded experiments, the latency-model
/// benches).
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
    /// their world bytes) before the stage is acknowledged and truncated on
    /// durable write-back. Attach after binding the world — the log reads
    /// chunk bytes from it.
    pub fn with_wal(mut self, wal: SharedWal) -> Self {
        self.core.wal = Some(wal);
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

/// A job handed to the pipelined service's worker pool.
enum Job {
    /// One shard segment's batch of read/prefetch requests, executed in
    /// priority order under that segment's lock only.
    Batch {
        segment: usize,
        now: SimTime,
        requests: Vec<(Ticket, ChunkRequest)>,
    },
    /// Cross-shard maintenance (write-back, eviction), executed by visiting
    /// the segments one at a time in ascending index order.
    Control {
        now: SimTime,
        requests: Vec<(Ticket, ChunkRequest)>,
    },
    /// Complete transfers that arrived by `now` and resolve their waiters,
    /// one segment at a time.
    Harvest { now: SimTime },
}

struct PipeShared<R: ObjectStore> {
    /// One service core per world shard. Workers on different shards run
    /// concurrently; the only cross-segment resource is the shared remote
    /// store (its own short-lived lock). Lock order: at most ONE segment
    /// lock is held at a time (cross-shard jobs visit segments in ascending
    /// order, releasing each before the next), and the remote/`done_tx`
    /// locks are leaves taken under a segment lock — so the hierarchy is
    /// segment → {remote | done_tx} and deadlock-free.
    segments: Vec<Mutex<ServiceCore<SharedRemote<R>>>>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Submitted requests not yet executed by a worker (deferred reads move
    /// to the segments' waiting maps and are tracked there instead).
    unexecuted: AtomicUsize,
    /// Whether a harvest job is already queued (polls coalesce them).
    harvest_queued: AtomicBool,
    /// Thread quota of the worker pool. Fixed pools pin it to the pool
    /// size; elastic pools move it with the backlog, and idle workers
    /// above the quota retire themselves.
    worker_quota: AtomicUsize,
    /// Threads currently in the pool (spawned and not retired).
    live_workers: AtomicUsize,
    /// The newest virtual time any poll has announced (micros); queued
    /// harvest jobs catch up to it instead of using their enqueue-time
    /// timestamp.
    latest_now: AtomicU64,
    done_tx: Mutex<Sender<ChunkCompletion>>,
}

impl<R: ObjectStore> PipeShared<R> {
    fn publish(&self, out: Vec<ChunkCompletion>) {
        if out.is_empty() {
            return;
        }
        let tx = self.done_tx.lock().unwrap_or_else(|e| e.into_inner());
        for completion in out {
            // The receiver only disappears during teardown.
            let _ = tx.send(completion);
        }
    }

    fn segment(&self, index: usize) -> std::sync::MutexGuard<'_, ServiceCore<SharedRemote<R>>> {
        self.segments[index]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Retires this worker if the pool is above its quota. Only called
    /// with the queue drained (under the queue lock), so a retiring worker
    /// never strands a queued job.
    fn try_retire(&self) -> bool {
        let quota = self.worker_quota.load(Ordering::Acquire);
        let mut live = self.live_workers.load(Ordering::Acquire);
        while live > quota {
            match self.live_workers.compare_exchange(
                live,
                live - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => live = actual,
            }
        }
        false
    }

    fn run_worker(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    // The queue is drained: a pool above its quota retires
                    // the surplus worker instead of sleeping.
                    if self.try_retire() {
                        return;
                    }
                    queue = self
                        .available
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner());
                }
            };
            match job {
                Job::Batch {
                    segment,
                    now,
                    mut requests,
                } => {
                    let mut out = Vec::new();
                    let mut executed = 0usize;
                    {
                        let mut core = self.segment(segment);
                        // Stable by descending priority: urgent reads
                        // first, prefetches after.
                        requests.sort_by_key(|(_, r)| std::cmp::Reverse(r.priority()));
                        for (ticket, request) in requests {
                            executed += 1;
                            match request {
                                ChunkRequest::Read { pos, .. } => {
                                    if let Some(completion) = core.exec_read_async(ticket, pos, now)
                                    {
                                        out.push(completion);
                                    }
                                }
                                ChunkRequest::Prefetch { positions, .. } => {
                                    core.exec_prefetch(ticket, &positions, now);
                                }
                                // Maintenance never lands on a shard lane.
                                ChunkRequest::WriteBack { .. } | ChunkRequest::Evict { .. } => {}
                            }
                        }
                        // Publish results while still holding the segment
                        // lock: once a caller observes this segment
                        // quiescent (`pending()` and `transfers_due()` take
                        // the segment locks), every completion it produced
                        // must already be in the channel.
                        self.publish(out);
                    }
                    self.unexecuted.fetch_sub(executed, Ordering::AcqRel);
                }
                Job::Control { now, mut requests } => {
                    requests.sort_by_key(|(_, r)| std::cmp::Reverse(r.priority()));
                    let executed = requests.len();
                    let mut out = Vec::new();
                    for (ticket, request) in requests {
                        match request {
                            ChunkRequest::WriteBack { .. } => {
                                let mut chunks = 0;
                                for segment in 0..self.segments.len() {
                                    chunks += self.segment(segment).exec_write_back(now);
                                }
                                out.push(ChunkCompletion {
                                    ticket,
                                    outcome: ChunkOutcome::WroteBack { chunks },
                                });
                            }
                            ChunkRequest::Evict { keep, .. } => {
                                let mut chunks = 0;
                                for segment in 0..self.segments.len() {
                                    chunks += self.segment(segment).exec_evict(&keep, now);
                                }
                                out.push(ChunkCompletion {
                                    ticket,
                                    outcome: ChunkOutcome::Evicted { chunks },
                                });
                            }
                            ChunkRequest::Read { .. } | ChunkRequest::Prefetch { .. } => {}
                        }
                    }
                    // Publish before the pending count drops so a drain
                    // loop that sees `pending() == 0` finds the completions
                    // already in the channel.
                    self.publish(out);
                    self.unexecuted.fetch_sub(executed, Ordering::AcqRel);
                }
                Job::Harvest { now } => {
                    self.harvest_queued.store(false, Ordering::Release);
                    // Harvest at the freshest time any poll has announced:
                    // the job may have waited in the queue while virtual
                    // time moved on.
                    let newest = SimTime::from_micros(
                        self.latest_now.load(Ordering::Acquire).max(now.as_micros()),
                    );
                    for segment in 0..self.segments.len() {
                        let mut core = self.segment(segment);
                        let mut out = Vec::new();
                        core.harvest(newest, &mut out);
                        // Under the segment lock, as for batches.
                        self.publish(out);
                    }
                }
            }
        }
    }
}

/// The asynchronous [`ChunkService`]: remote transfers and storage
/// maintenance run on a pool of worker threads, and submissions are
/// batched per owning world shard before they are handed to the pool, so
/// the tick path pays neither transfer cost nor per-request dispatch cost.
///
/// The workers drain jobs from one queue and mutate *per-shard core
/// segments*, each behind its own mutex (the submission lanes were already
/// per-shard): workers on different shards overlap with each other, not
/// just with the tick thread. The only cross-segment resources are the
/// shared remote store (one short-lived leaf lock around each simulated
/// storage operation, so the store and its latency stream stay one
/// cluster-wide resource) and the completion channel. Cross-shard
/// maintenance (write-back, eviction) visits the segments one at a time in
/// ascending index order, never holding two segment locks at once.
///
/// Reads that miss the in-memory layer become background transfers: the
/// completion arrives from a later [`poll`](ChunkService::poll) once the
/// simulated transfer time has elapsed, exactly like a prefetch join. The
/// final cache/world/remote state is identical to what
/// [`SyncChunkService`] produces for the same request stream (asserted by
/// the `service_differential` test suite); only *where* the work executes
/// — and therefore the tick-visible cost — differs.
pub struct PipelinedChunkService<R: ObjectStore + Send + 'static> {
    shared: Arc<PipeShared<R>>,
    done_rx: Receiver<ChunkCompletion>,
    /// Per-shard lanes of not-yet-flushed read/prefetch submissions.
    lanes: Vec<Vec<(Ticket, ChunkRequest)>>,
    /// Write-back / evict lane (not tied to one shard).
    control: Vec<(Ticket, ChunkRequest)>,
    tickets: u64,
    now: SimTime,
    shard_count: usize,
    /// The shared remote store handle (also held by every segment core).
    remote: Arc<Mutex<R>>,
    /// Base RNG the per-segment local-disk latency streams derive from.
    disk_rng: servo_simkit::SimRng,
    /// Worker threads, spawned lazily on first use so the world can still
    /// be bound (rebuilding the segments) right after construction.
    workers: Vec<std::thread::JoinHandle<()>>,
    workers_target: usize,
    /// The machine's available parallelism — the hard cap on live threads.
    thread_cap: usize,
    /// Backlog-driven autoscaler of the thread quota (`None` = fixed pool).
    elastic: Option<Autoscaler>,
    /// The zone's write-ahead delta log, re-applied to the segments on
    /// every rebind. `None` disables durability logging.
    wal: Option<SharedWal>,
    /// Retry policy re-applied to the segment caches on every rebind.
    retry: RetryPolicy,
}

impl<R: ObjectStore + Send + 'static> std::fmt::Debug for PipelinedChunkService<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedChunkService")
            .field("workers", &self.workers_target)
            .field("segments", &self.shard_count)
            .field("pending", &self.pending())
            .finish()
    }
}

impl<R: ObjectStore + Send + 'static> PipelinedChunkService<R> {
    /// Creates a service in front of `remote` with `workers` transfer
    /// threads (clamped to at least one). Size the pool with
    /// `ServerConfig::with_parallelism` at the deployment layer.
    pub fn new(remote: R, rng: servo_simkit::SimRng, workers: usize) -> Self {
        let (done_tx, done_rx) = channel();
        let remote = Arc::new(Mutex::new(remote));
        let shard_count = servo_world::DEFAULT_SHARDS;
        // Clamp the pool to the machine's parallelism: with the core
        // sharded, every worker is genuinely runnable at once, and on
        // a box with fewer cores than requested workers the surplus
        // threads only preempt the tick thread (measured as multi-ms
        // p99 spikes in `storage_async` on 1-core containers) without
        // adding any overlap.
        let thread_cap = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let workers_target = workers.max(1).min(thread_cap);
        let shared = Arc::new(PipeShared {
            segments: Self::build_segments(&remote, &rng, shard_count, None, None),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            unexecuted: AtomicUsize::new(0),
            harvest_queued: AtomicBool::new(false),
            worker_quota: AtomicUsize::new(workers_target),
            live_workers: AtomicUsize::new(0),
            latest_now: AtomicU64::new(0),
            done_tx: Mutex::new(done_tx),
        });
        PipelinedChunkService {
            shared,
            done_rx,
            lanes: (0..shard_count).map(|_| Vec::new()).collect(),
            control: Vec::new(),
            tickets: 0,
            now: SimTime::ZERO,
            shard_count,
            remote,
            disk_rng: rng,
            workers: Vec::new(),
            workers_target,
            thread_cap,
            elastic: None,
            wal: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Makes the worker pool elastic: each poll drives `config`'s
    /// autoscaler from the backlog of not-yet-executed requests, raising
    /// the thread quota under load and letting idle surplus workers retire
    /// once the queue drains. The applied quota is clamped to the
    /// machine's available parallelism (the autoscaler's *decisions* — its
    /// stats — are not, so they stay machine-independent). Simulated
    /// outcomes are unaffected: the pool size only moves where wall-clock
    /// work runs.
    ///
    /// Call before the first submit/poll (the fixed pool is the default).
    pub fn with_elastic_workers(mut self, config: AutoscalerConfig) -> Self {
        assert!(
            self.workers.is_empty(),
            "configure elasticity before submitting work to the service"
        );
        self.workers_target = config.min_workers.max(1).min(self.thread_cap);
        self.shared
            .worker_quota
            .store(self.workers_target, Ordering::Release);
        self.elastic = Some(Autoscaler::new(config));
        self
    }

    /// Attaches a write-ahead delta log shared by every shard segment:
    /// staged positions are logged (with the chunk bytes read from the
    /// bound world) before the stage is acknowledged, and truncated once
    /// their write-back durably lands. The caller keeps a clone of the
    /// handle — the log models a durable device that outlives this
    /// pipeline, which is what crash recovery replays. Attach *after*
    /// `with_world`/`with_world_shards` (rebinding rebuilds the segments).
    pub fn with_wal(mut self, wal: SharedWal) -> Self {
        for segment in 0..self.shared.segments.len() {
            self.shared.segment(segment).wal = Some(wal.clone());
        }
        self.wal = Some(wal);
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
        for segment in 0..self.shared.segments.len() {
            self.shared.segment(segment).wal = wal.clone();
        }
        self.wal = wal;
    }

    /// Sets the bounded retry-and-backoff policy the workers apply to
    /// transient remote failures (see `RetryPolicy`).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.set_retry(retry);
        self
    }

    /// In-place form of [`PipelinedChunkService::with_retry`], for callers
    /// that only hold the built pipeline (e.g. a cluster re-configuring an
    /// attached persistence service).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        for segment in 0..self.shared.segments.len() {
            self.shared.segment(segment).cache.set_retry(retry);
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
        if shard >= self.shared.segments.len() {
            return Vec::new();
        }
        let mut positions: Vec<ChunkPos> = self
            .shared
            .segment(shard)
            .staged
            .get(shard)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        positions.sort_by_key(|p| (p.x, p.z));
        positions
    }

    /// Builds one service core per shard segment, each with its own derived
    /// local-disk latency stream and (when bound) a pull view onto exactly
    /// its own world shard — intersected with `owned` when the service
    /// persists only a zone's slice of the world.
    fn build_segments(
        remote: &Arc<Mutex<R>>,
        rng: &servo_simkit::SimRng,
        shard_count: usize,
        world: Option<&Arc<ShardedWorld>>,
        owned: Option<&[usize]>,
    ) -> Vec<Mutex<ServiceCore<SharedRemote<R>>>> {
        (0..shard_count)
            .map(|shard| {
                let mut core = ServiceCore::new(
                    SharedRemote::new(Arc::clone(remote)),
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
                Mutex::new(core)
            })
            .collect()
    }

    /// Rebuilds the segments for a newly bound world. Only legal before the
    /// workers have spawned (i.e. before the first submit/poll), which is
    /// when the builder-style `with_world*` calls run.
    fn rebind(&mut self, world: Arc<ShardedWorld>, owned: Option<Vec<usize>>) {
        assert!(
            self.workers.is_empty(),
            "bind the world before submitting work to the service"
        );
        let shard_count = world.shard_count();
        let segments = Self::build_segments(
            &self.remote,
            &self.disk_rng,
            shard_count,
            Some(&world),
            owned.as_deref(),
        );
        let shared = Arc::get_mut(&mut self.shared)
            .expect("no worker holds the shared state before the first spawn");
        shared.segments = segments;
        self.shard_count = shard_count;
        self.lanes = (0..shard_count).map(|_| Vec::new()).collect();
        // Re-apply the durability log and retry policy to the fresh
        // segments, so builder-call order cannot silently drop them.
        for segment in 0..self.shared.segments.len() {
            let mut core = self.shared.segment(segment);
            core.wal = self.wal.clone();
            core.cache.set_retry(self.retry);
        }
    }

    /// Binds the world whose per-shard dirty deltas feed
    /// [`ChunkService::drain_dirty`] and write-back, aligning the service's
    /// shard segmentation with the world's shard count.
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

    fn ensure_workers(&mut self) {
        if self.workers.is_empty() {
            self.spawn_up_to(self.workers_target);
        }
    }

    /// Spawns workers until `target` threads are live (retired threads'
    /// join handles stay in `workers` for teardown; only `live_workers`
    /// counts the pool).
    fn spawn_up_to(&mut self, target: usize) {
        while self.shared.live_workers.load(Ordering::Acquire) < target {
            let index = self.workers.len();
            self.shared.live_workers.fetch_add(1, Ordering::AcqRel);
            let shared = Arc::clone(&self.shared);
            self.workers.push(
                std::thread::Builder::new()
                    .name(format!("chunk-worker-{index}"))
                    .spawn(move || shared.run_worker())
                    .expect("spawning a chunk worker must succeed"),
            );
        }
    }

    /// Cache effectiveness counters, summed over the shard segments
    /// (briefly locks each segment in turn).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for segment in 0..self.shared.segments.len() {
            total.merge(&self.shared.segment(segment).cache.stats());
        }
        total
    }

    /// Number of chunks resident in the in-memory cache layer, summed over
    /// the shard segments.
    pub fn resident_chunks(&self) -> usize {
        (0..self.shared.segments.len())
            .map(|segment| self.shared.segment(segment).cache.resident_chunks())
            .sum()
    }

    /// Number of simulated transfers currently in flight, summed over the
    /// shard segments.
    pub fn transfers_in_flight(&self) -> usize {
        (0..self.shared.segments.len())
            .map(|segment| self.shared.segment(segment).cache.transfers_in_flight())
            .sum()
    }

    /// Number of in-flight transfers due by `now` whose arrival has not
    /// been harvested yet, summed over the shard segments. Tests and
    /// benches use this to detect quiescence at a given virtual time.
    pub fn transfers_due(&self, now: SimTime) -> usize {
        (0..self.shared.segments.len())
            .map(|segment| self.shared.segment(segment).cache.transfers_due(now))
            .sum()
    }

    /// Number of worker threads the pool starts with: the requested size
    /// clamped to the machine's available parallelism (elastic pools grow
    /// and shrink from here).
    pub fn worker_count(&self) -> usize {
        self.workers_target
    }

    /// The current thread quota of the pool (moves with the backlog when
    /// the pool is elastic, pinned to the pool size otherwise).
    pub fn worker_quota(&self) -> usize {
        self.shared.worker_quota.load(Ordering::Acquire)
    }

    /// Threads currently live in the pool.
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::Acquire)
    }

    /// Lifetime counters of the worker autoscaler, or `None` for a fixed
    /// pool. The counters record the scaler's *decisions*, unclamped by
    /// the machine's core count, so assertions on them are portable to
    /// single-core CI runners.
    pub fn autoscaler_stats(&self) -> Option<AutoscalerStats> {
        self.elastic.as_ref().map(|scaler| scaler.stats())
    }

    /// Runs `f` with the remote backend (briefly locks the shared store;
    /// e.g. to seed terrain before an experiment).
    pub fn with_remote<T>(&self, f: impl FnOnce(&mut R) -> T) -> T {
        let mut remote = self.remote.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut remote)
    }

    /// Removes and returns every *staged* (drained-but-not-yet-flushed)
    /// write-back position belonging to world shard `shard`, across all
    /// segments, sorted by `(x, z)`.
    ///
    /// This is the quiesce half of a shard-migration handoff: when a zoned
    /// cluster moves a shard to another zone, the source zone's pipeline
    /// must stop owing those chunks a flush — the cluster takes them here
    /// and `stage_dirty`s them into the destination zone's pipeline, which
    /// owns the write-back obligation from then on. Positions already
    /// snapshotted by an in-flight write-back pass are flushed by the
    /// source as usual (a harmless duplicate write); only the not-yet
    /// started remainder is handed over.
    pub fn take_staged_shard(&mut self, shard: usize) -> Vec<ChunkPos> {
        // Every staging path routes a position to segment
        // `shard_index(pos, shard_count)` and buckets it at the same index
        // inside the segment (segments and buckets share one shard count),
        // so shard `s`'s staged positions live only in segment `s` — one
        // segment lock suffices.
        if shard >= self.shared.segments.len() {
            return Vec::new();
        }
        let mut positions = self.shared.segment(shard).take_staged_shard(shard);
        positions.sort_by_key(|p| (p.x, p.z));
        // The write-back obligation (and with it the durability obligation)
        // moves to whoever receives the handoff: drop this pipeline's WAL
        // records for the taken positions, or a later crash here would
        // replay chunks the zone no longer owns.
        if let Some(wal) = &self.wal {
            for &pos in &positions {
                if let Some(seq) = wal.latest_seq(pos) {
                    wal.truncate(pos, seq);
                }
            }
        }
        positions
    }

    fn next_ticket(&mut self) -> Ticket {
        self.tickets += 1;
        Ticket(self.tickets)
    }

    fn enqueue(&self, job: Job) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(job);
        drop(queue);
        // One job, one worker: waking the whole pool for every enqueue
        // stampedes the queue lock (and, on small machines, the
        // scheduler). Sleeping workers each consume one job, so one
        // wake-up per job keeps the pool exactly as busy as the backlog.
        self.shared.available.notify_one();
    }
}

impl<R: ObjectStore + Send + 'static> ChunkService for PipelinedChunkService<R> {
    fn submit(&mut self, request: ChunkRequest) -> Ticket {
        let ticket = self.next_ticket();
        match request {
            ChunkRequest::Read { pos, priority } => {
                self.lanes[shard_index(pos, self.shard_count)]
                    .push((ticket, ChunkRequest::Read { pos, priority }));
                self.shared.unexecuted.fetch_add(1, Ordering::AcqRel);
            }
            ChunkRequest::Prefetch {
                positions,
                priority,
            } => {
                // Split per owning shard so each sub-batch lands on the
                // shard lane that will receive the data.
                let mut by_shard: Vec<Vec<ChunkPos>> =
                    (0..self.shard_count).map(|_| Vec::new()).collect();
                for pos in positions {
                    by_shard[shard_index(pos, self.shard_count)].push(pos);
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
                    self.shared.unexecuted.fetch_add(1, Ordering::AcqRel);
                }
            }
            request @ (ChunkRequest::WriteBack { .. } | ChunkRequest::Evict { .. }) => {
                self.control.push((ticket, request));
                self.shared.unexecuted.fetch_add(1, Ordering::AcqRel);
            }
        }
        ticket
    }

    fn poll(&mut self, now: SimTime) -> Vec<ChunkCompletion> {
        self.now = now;
        self.ensure_workers();
        if self.elastic.is_some() {
            let backlog = self.shared.unexecuted.load(Ordering::Acquire);
            let desired = self
                .elastic
                .as_mut()
                .expect("checked above")
                .observe(now, backlog);
            // Decisions are machine-independent; the applied thread quota
            // is clamped to what the machine can actually run.
            let quota = desired.min(self.thread_cap).max(1);
            self.shared.worker_quota.store(quota, Ordering::Release);
            self.spawn_up_to(quota);
            if quota < self.shared.live_workers.load(Ordering::Acquire) {
                // Wake sleepers so surplus workers observe the lowered
                // quota and retire.
                self.shared.available.notify_all();
            }
        }
        self.shared
            .latest_now
            .fetch_max(now.as_micros(), Ordering::AcqRel);
        // Flush the per-shard lanes (each to its own segment) and the
        // control lane to the pool.
        let mut batches = Vec::new();
        for (segment, lane) in self.lanes.iter_mut().enumerate() {
            if !lane.is_empty() {
                batches.push((segment, std::mem::take(lane)));
            }
        }
        for (segment, requests) in batches {
            self.enqueue(Job::Batch {
                segment,
                now,
                requests,
            });
        }
        if !self.control.is_empty() {
            let requests = std::mem::take(&mut self.control);
            self.enqueue(Job::Control { now, requests });
        }
        // One coalesced harvest per poll keeps sim-time arrivals flowing
        // even when no new requests were submitted.
        if !self.shared.harvest_queued.swap(true, Ordering::AcqRel) {
            self.enqueue(Job::Harvest { now });
        }
        self.done_rx.try_iter().collect()
    }

    fn drain_dirty(&mut self) -> Vec<ShardDelta> {
        let mut deltas = Vec::new();
        for segment in 0..self.shared.segments.len() {
            deltas.extend(self.shared.segment(segment).absorb_dirty());
        }
        deltas.sort_by_key(|d| d.shard);
        deltas
    }

    fn stage_dirty(&mut self, deltas: Vec<ShardDelta>) {
        // Group per segment so each segment lock is taken once.
        let mut by_segment: Vec<Vec<ChunkPos>> =
            (0..self.shard_count).map(|_| Vec::new()).collect();
        for delta in deltas {
            for pos in delta.chunks {
                by_segment[shard_index(pos, self.shard_count)].push(pos);
            }
        }
        for (segment, positions) in by_segment.into_iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let mut core = self.shared.segment(segment);
            for pos in positions {
                core.stage(pos);
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
        let waiting: usize = (0..self.shared.segments.len())
            .map(|segment| self.shared.segment(segment).waiting_reads())
            .sum();
        let unflushed: usize = self.lanes.iter().map(Vec::len).sum::<usize>() + self.control.len();
        self.shared.unexecuted.load(Ordering::Acquire) + waiting + unflushed
    }

    fn name(&self) -> &'static str {
        "chunks-pipelined"
    }
}

impl<R: ObjectStore + Send + 'static> Drop for PipelinedChunkService<R> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
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

    /// Polls a pipelined service until it is quiescent *at* `now`: no
    /// unexecuted submissions, no reads waiting on transfers due by `now`,
    /// and three consecutive empty polls (covering channel latency).
    fn drain<R: ObjectStore + Send + 'static>(
        service: &mut PipelinedChunkService<R>,
        now: SimTime,
    ) -> Vec<ChunkCompletion> {
        let mut all = Vec::new();
        let mut idle = 0;
        for _ in 0..100_000 {
            let got = service.poll(now);
            let empty = got.is_empty();
            all.extend(got);
            if empty && service.pending() == 0 && service.transfers_due(now) == 0 {
                idle += 1;
                if idle >= 3 {
                    return all;
                }
            } else {
                idle = 0;
            }
            std::thread::yield_now();
        }
        panic!("pipelined service failed to quiesce");
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
        // Immediately after submission nothing has arrived in sim time: the
        // read became an in-flight transfer instead of blocking.
        let mut early = Vec::new();
        for _ in 0..50 {
            early.extend(service.poll(SimTime::ZERO));
            std::thread::yield_now();
        }
        assert!(
            !early
                .iter()
                .any(|c| matches!(c.outcome, ChunkOutcome::Loaded { .. })),
            "read completed without any sim time passing"
        );
        // Far in the future the transfer has arrived.
        let completions = drain(&mut service, SimTime::from_secs(10));
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
        // First drain issues the transfers at t=10 s; the second observes
        // their arrivals (all due well before t=30 s).
        let mut completions = drain(&mut service, SimTime::from_secs(10));
        completions.extend(drain(&mut service, SimTime::from_secs(30)));
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
    fn elastic_worker_pool_scales_with_backlog_and_releases() {
        // Deterministic-decision assertions only: on a 1-core runner the
        // *applied* thread quota is clamped to 1, but the autoscaler's
        // decision counters are machine-independent.
        let config = AutoscalerConfig::elastic(1, 6).with_backlog_per_worker(2);
        let mut service = PipelinedChunkService::new(seeded_remote(6), SimRng::seed(2), 1)
            .with_elastic_workers(config);
        assert_eq!(service.autoscaler_stats().unwrap().scale_up_events, 0);
        let positions: Vec<ChunkPos> = (0..6)
            .flat_map(|x| (0..6).map(move |z| ChunkPos::new(x, z)))
            .collect();
        let ticket = service.submit(ChunkRequest::prefetch(positions.clone()));
        // The submission burst lands on every shard lane: the first poll
        // observes the backlog and scales the quota out.
        let mut completions = drain(&mut service, SimTime::from_secs(10));
        let stats = service.autoscaler_stats().unwrap();
        assert!(stats.scale_up_events > 0, "no scale-up: {stats:?}");
        assert!(stats.peak_workers > 1, "pool never grew: {stats:?}");
        // Once the backlog drains the quota releases back to min, and live
        // threads follow it down.
        completions.extend(drain(&mut service, SimTime::from_secs(30)));
        let loaded = completions
            .iter()
            .filter(|c| c.ticket == ticket && matches!(c.outcome, ChunkOutcome::Loaded { .. }))
            .count();
        assert_eq!(loaded, positions.len(), "elastic pool lost requests");
        let stats = service.autoscaler_stats().unwrap();
        assert!(stats.workers_retired > 0, "pool never shrank: {stats:?}");
        assert_eq!(service.worker_quota(), 1);
        assert!(service.live_workers() <= service.worker_quota().max(1));
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
        let completions = drain(&mut service, SimTime::ZERO);
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
        let completions = drain(&mut source, SimTime::ZERO);
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
        let completions = drain(&mut destination, SimTime::ZERO);
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
        let completions = drain(&mut service, SimTime::ZERO);
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
        // Submit a background prefetch and an urgent read touching disjoint
        // chunks; the worker executes the read first (observable through
        // the cache stats' issue order is racy, so assert on the request
        // ordering contract instead).
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
