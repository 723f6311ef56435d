//! The server-local terrain cache with pre-fetching.
//!
//! Servo keeps terrain in serverless storage but hides its latency
//! variability behind a server-local cache (Section III-E): chunks near a
//! player are pre-fetched before they are needed, reads served from memory
//! or the local file system stay well under one simulation step, and writes
//! to remote storage happen periodically in the background.
//!
//! Dirty tracking, recency tracking, and write-back grouping are all
//! *per world shard* (the same [`shard_index`] partition the sharded world
//! uses), so a write-back pass visits only the shards that were actually
//! modified and eviction walks small per-shard recency maps instead of
//! scanning the full resident map.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use servo_types::consts::TICK_BUDGET;
use servo_types::{ChunkPos, ServoError, SimDuration, SimTime};
use servo_world::{shard_index, ChunkSnapshot, ShardDelta, DEFAULT_SHARDS};

use crate::backend::{LocalDiskStore, ObjectStore, ReadResult, WriteResult};

/// The canonical object-store key terrain chunks persist under. Every
/// producer of persisted terrain — the cache write-back path, remote
/// seeding, and the cluster's migration quiesce flush — must share this
/// scheme, or recovery paths silently stop finding each other's bytes.
pub fn chunk_key(pos: ChunkPos) -> String {
    format!("terrain/{}/{}", pos.x, pos.z)
}

/// Where a chunk read was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkLocation {
    /// Already resident in the in-memory cache.
    Memory,
    /// Found in the local file-system cache.
    LocalDisk,
    /// A pre-fetch for this chunk was already in flight; the read waited for
    /// the remaining transfer time.
    PrefetchInFlight,
    /// Fetched synchronously from remote storage.
    Remote,
    /// Produced by a terrain generator rather than loaded from storage.
    Generated,
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from memory.
    pub memory_hits: u64,
    /// Reads served from the local disk cache.
    pub disk_hits: u64,
    /// Reads that joined an in-flight pre-fetch.
    pub prefetch_joins: u64,
    /// Pre-fetch joins that still had to wait longer than one simulation
    /// step — latency the game loop *does* observe, even though no new
    /// remote request was issued.
    pub slow_prefetch_joins: u64,
    /// Reads that had to go to remote storage synchronously.
    pub remote_misses: u64,
    /// Pre-fetch requests issued.
    pub prefetches_issued: u64,
    /// Chunks written back to remote storage.
    pub write_backs: u64,
    /// Remote operations retried after a transient storage failure.
    pub retries: u64,
    /// Remote operations that failed even after exhausting their retry
    /// budget (the error then surfaces exactly like a no-retry failure).
    pub retries_exhausted: u64,
}

impl CacheStats {
    /// Total number of chunk reads served.
    pub fn total_reads(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.prefetch_joins + self.remote_misses
    }

    /// Adds another store's counters into this one — e.g. to aggregate the
    /// per-shard segments of a sharded chunk service.
    pub fn merge(&mut self, other: &CacheStats) {
        self.memory_hits += other.memory_hits;
        self.disk_hits += other.disk_hits;
        self.prefetch_joins += other.prefetch_joins;
        self.slow_prefetch_joins += other.slow_prefetch_joins;
        self.remote_misses += other.remote_misses;
        self.prefetches_issued += other.prefetches_issued;
        self.write_backs += other.write_backs;
        self.retries += other.retries;
        self.retries_exhausted += other.retries_exhausted;
    }

    /// Fraction of reads that did not require a synchronous remote fetch.
    ///
    /// Asynchronous services never fetch synchronously — a demand-read
    /// miss becomes an in-flight transfer (counted under
    /// `prefetches_issued`, joined on arrival) — so they report 1.0 here
    /// by construction. Use [`CacheStats::effective_hit_rate`] to compare
    /// a synchronous and an asynchronous service: it charges joins that
    /// stalled the loop past one simulation step as misses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.remote_misses as f64 / total as f64
    }

    /// Fraction of reads the game loop experienced as fast: like
    /// [`CacheStats::hit_rate`], but pre-fetch joins that still waited past
    /// one simulation step also count as misses. [`CacheStats::hit_rate`]
    /// flatters the cache by counting such joins as hits even though the
    /// tick stalled on them.
    pub fn effective_hit_rate(&self) -> f64 {
        let total = self.total_reads();
        if total == 0 {
            return 1.0;
        }
        1.0 - (self.remote_misses + self.slow_prefetch_joins) as f64 / total as f64
    }
}

/// An outcome of a cached chunk read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRead {
    /// The chunk snapshot.
    pub snapshot: ChunkSnapshot,
    /// End-to-end latency as observed by the game loop.
    pub latency: SimDuration,
    /// Where the chunk was served from.
    pub location: ChunkLocation,
}

/// The outcome of a non-blocking [`CachedChunkStore::try_read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TryRead {
    /// The chunk was available without touching remote storage.
    Ready(CachedRead),
    /// A remote transfer is in flight (issued by this call if necessary);
    /// the data arrives at the given instant and materialises on the next
    /// [`CachedChunkStore::poll`] at or after it.
    InFlight {
        /// The instant the transfer completes.
        arrives_at: SimTime,
    },
}

/// A chunk store that fronts a remote [`ObjectStore`] with an in-memory map,
/// a local-disk cache, and asynchronous pre-fetching.
///
/// # Example
///
/// ```
/// use servo_storage::{BlobStore, BlobTier, CachedChunkStore, ChunkLocation};
/// use servo_simkit::SimRng;
/// use servo_types::{ChunkPos, SimTime};
/// use servo_world::Chunk;
///
/// let remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
/// let mut store = CachedChunkStore::new(remote, SimRng::seed(2));
/// let pos = ChunkPos::new(0, 0);
/// store.put(Chunk::empty(pos).snapshot(), SimTime::ZERO).unwrap();
///
/// let read = store.read(pos, SimTime::ZERO).unwrap();
/// assert_eq!(read.location, ChunkLocation::Memory);
/// ```
#[derive(Debug)]
pub struct CachedChunkStore<R: ObjectStore> {
    remote: R,
    local: LocalDiskStore,
    memory: HashMap<ChunkPos, ChunkSnapshot>,
    /// Chunks modified since the last write-back, per world shard — the
    /// write-back pass visits only shards whose set is non-empty.
    dirty: Vec<HashSet<ChunkPos>>,
    /// Lifetime count of `put`s per shard, the epoch reported in the
    /// [`ShardDelta`]s of [`CachedChunkStore::take_dirty_deltas`].
    dirty_epochs: Vec<u64>,
    /// Per-shard access stamps over the resident set — eviction sorts one
    /// shard's stamps to find its least-recently-used chunks instead of
    /// scanning the full resident map, and recording an access is O(1).
    recency: Vec<HashMap<ChunkPos, u64>>,
    /// Monotone access clock feeding the recency stamps.
    access_clock: u64,
    /// Reusable buffer for grouping one shard's dirty chunks during
    /// write-back; kept across calls so the hot path does not allocate.
    write_back_scratch: Vec<ChunkPos>,
    /// Pre-fetches in flight: chunk -> instant the data arrives locally.
    in_flight: HashMap<ChunkPos, SimTime>,
    stats: CacheStats,
    /// Latency of serving a read straight from the in-memory map.
    memory_latency: SimDuration,
    /// Shard count used to batch prefetches and write-backs in the same
    /// groups the sharded world partitions chunks into.
    shard_count: usize,
    /// Bounded retry-and-backoff for transient remote failures. Zero
    /// attempts (the default) preserves the historical fail-once behavior
    /// bit for bit.
    retry: RetryPolicy,
}

/// Bounded retry-and-backoff applied to remote reads and writes when the
/// store reports a transient [`ServoError::StorageFailed`]. Each retry is
/// issued `backoff * attempt` later in simulated time, so retried
/// operations genuinely cost more latency than clean ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 disables retrying).
    pub attempts: u32,
    /// Delay added per retry attempt.
    pub backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff: SimDuration::from_millis(5),
        }
    }
}

impl<R: ObjectStore> CachedChunkStore<R> {
    /// Creates a cache in front of `remote`. The local-disk cache layer gets
    /// its own latency stream from `rng`.
    pub fn new(remote: R, rng: servo_simkit::SimRng) -> Self {
        CachedChunkStore {
            remote,
            local: LocalDiskStore::new(rng),
            memory: HashMap::new(),
            dirty: (0..DEFAULT_SHARDS).map(|_| HashSet::new()).collect(),
            dirty_epochs: vec![0; DEFAULT_SHARDS],
            recency: (0..DEFAULT_SHARDS).map(|_| HashMap::new()).collect(),
            access_clock: 0,
            write_back_scratch: Vec::new(),
            in_flight: HashMap::new(),
            stats: CacheStats::default(),
            memory_latency: SimDuration::from_micros(50),
            shard_count: DEFAULT_SHARDS,
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the bounded retry-and-backoff policy for transient remote
    /// failures (see [`RetryPolicy`]).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Reads `key` from the remote store, retrying transient failures up to
    /// the policy's budget with linear backoff. `NotFound` is never retried.
    fn remote_read_retrying(&mut self, key: &str, now: SimTime) -> Result<ReadResult, ServoError> {
        let mut attempt: u32 = 0;
        loop {
            match self
                .remote
                .read(key, now + self.retry.backoff * attempt as u64)
            {
                Ok(read) => return Ok(read),
                Err(err @ ServoError::NotFound { .. }) => return Err(err),
                Err(err) => {
                    if attempt >= self.retry.attempts {
                        if self.retry.attempts > 0 {
                            self.stats.retries_exhausted += 1;
                        }
                        return Err(err);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                }
            }
        }
    }

    /// Writes `key` to the remote store with the same bounded retry policy
    /// as [`CachedChunkStore::remote_read_retrying`]. Every attempt hands
    /// the store the same shared bytes.
    fn remote_write_retrying(
        &mut self,
        key: &str,
        data: &Arc<[u8]>,
        now: SimTime,
    ) -> Result<WriteResult, ServoError> {
        let mut attempt: u32 = 0;
        loop {
            match self.remote.write(
                key,
                Arc::clone(data),
                now + self.retry.backoff * attempt as u64,
            ) {
                Ok(write) => return Ok(write),
                Err(err) => {
                    if attempt >= self.retry.attempts {
                        if self.retry.attempts > 0 {
                            self.stats.retries_exhausted += 1;
                        }
                        return Err(err);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                }
            }
        }
    }

    /// Sets the shard count used for grouping batch operations, returning
    /// the modified store. Use the owning
    /// [`servo_world::ShardedWorld::shard_count`] so cache batches align
    /// with world shards.
    pub fn with_shard_batching(mut self, shard_count: usize) -> Self {
        self.set_shard_batching(shard_count);
        self
    }

    /// In-place version of [`CachedChunkStore::with_shard_batching`], used
    /// by the chunk services when binding to a world.
    pub(crate) fn set_shard_batching(&mut self, shard_count: usize) {
        self.shard_count = shard_count.clamp(1, 1 << 10).next_power_of_two();
        let mut dirty: Vec<HashSet<ChunkPos>> =
            (0..self.shard_count).map(|_| HashSet::new()).collect();
        for set in self.dirty.drain(..) {
            for pos in set {
                dirty[shard_index(pos, self.shard_count)].insert(pos);
            }
        }
        self.dirty = dirty;
        self.dirty_epochs = vec![0; self.shard_count];
        let mut recency: Vec<HashMap<ChunkPos, u64>> =
            (0..self.shard_count).map(|_| HashMap::new()).collect();
        for map in self.recency.drain(..) {
            for (pos, stamp) in map {
                recency[shard_index(pos, self.shard_count)].insert(pos, stamp);
            }
        }
        self.recency = recency;
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Access to the remote backend (e.g. to seed it with generated terrain).
    pub fn remote_mut(&mut self) -> &mut R {
        &mut self.remote
    }

    /// Number of chunks resident in memory.
    pub fn resident_chunks(&self) -> usize {
        self.memory.len()
    }

    /// Whether a chunk is resident in memory.
    pub fn is_resident(&self, pos: ChunkPos) -> bool {
        self.memory.contains_key(&pos)
    }

    /// Whether a transfer for this chunk is currently in flight.
    pub fn is_in_flight(&self, pos: ChunkPos) -> bool {
        self.in_flight.contains_key(&pos)
    }

    /// Number of transfers currently in flight.
    pub fn transfers_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// A clone of the resident snapshot at `pos`, if any.
    pub fn snapshot(&self, pos: ChunkPos) -> Option<ChunkSnapshot> {
        self.memory.get(&pos).cloned()
    }

    fn shard_of(&self, pos: ChunkPos) -> usize {
        shard_index(pos, self.shard_count)
    }

    /// Stamps `pos` as the most recently used chunk of its shard. O(1) —
    /// this sits on the memory-hit read path.
    fn touch(&mut self, pos: ChunkPos) {
        self.access_clock += 1;
        self.recency[shard_index(pos, self.shard_count)].insert(pos, self.access_clock);
    }

    fn key(pos: ChunkPos) -> String {
        chunk_key(pos)
    }

    /// Inserts a freshly generated or modified chunk into the cache and
    /// marks it dirty for the next write-back.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::StorageFailed`] if the local cache copy cannot
    /// be written.
    pub fn put(&mut self, snapshot: ChunkSnapshot, now: SimTime) -> Result<(), ServoError> {
        self.local
            .write(&Self::key(snapshot.pos), Arc::clone(&snapshot.bytes), now)?;
        let shard = self.shard_of(snapshot.pos);
        self.dirty[shard].insert(snapshot.pos);
        self.dirty_epochs[shard] += 1;
        let pos = snapshot.pos;
        self.memory.insert(pos, snapshot);
        self.touch(pos);
        Ok(())
    }

    /// Completes any pre-fetches that have arrived by `now`, moving them
    /// into memory. Returns how many arrived.
    pub fn poll(&mut self, now: SimTime) -> usize {
        self.poll_arrived(now).len()
    }

    /// Completes due pre-fetches and returns the positions that actually
    /// materialised this call (the asynchronous chunk services use the
    /// positions to resolve tickets waiting on them).
    pub fn poll_arrived(&mut self, now: SimTime) -> Vec<ChunkPos> {
        let due: Vec<ChunkPos> = self
            .in_flight
            .iter()
            .filter(|(_, &t)| t <= now)
            .map(|(&p, _)| p)
            .collect();
        let mut arrived = Vec::with_capacity(due.len());
        for pos in due {
            self.in_flight.remove(&pos);
            // The data was transferred in the background; materialise it.
            match self.remote_read_retrying(&Self::key(pos), now) {
                Ok(read) => {
                    let snapshot = ChunkSnapshot {
                        pos,
                        bytes: read.data.into(),
                    };
                    let _ = self
                        .local
                        .write(&Self::key(pos), Arc::clone(&snapshot.bytes), now);
                    self.memory.insert(pos, snapshot);
                    self.touch(pos);
                    arrived.push(pos);
                }
                Err(ServoError::NotFound { .. }) => {}
                Err(_) if self.retry.attempts > 0 => {
                    // Transient failure even after the retry budget: keep
                    // the transfer in flight with a pushed-out arrival so
                    // waiters are resolved on a later poll instead of
                    // being stranded.
                    self.in_flight.insert(
                        pos,
                        now + self.retry.backoff * (self.retry.attempts + 1) as u64,
                    );
                }
                Err(_) => {}
            }
        }
        arrived
    }

    /// Starts asynchronous pre-fetches for every chunk in `positions` that
    /// is not already resident, cached locally on disk, or in flight,
    /// grouping the requests by the world shard that will receive the data.
    ///
    /// Shard grouping makes the issue order (and therefore the latency
    /// stream consumed from the RNG) deterministic regardless of the
    /// iteration order of the caller's set type.
    pub fn prefetch<I: IntoIterator<Item = ChunkPos>>(&mut self, positions: I, now: SimTime) {
        let mut by_shard: Vec<Vec<ChunkPos>> = (0..self.shard_count).map(|_| Vec::new()).collect();
        for pos in positions {
            by_shard[shard_index(pos, self.shard_count)].push(pos);
        }
        for batch in &mut by_shard {
            batch.sort_by_key(|p| (p.x, p.z));
        }
        for pos in by_shard.into_iter().flatten() {
            if self.memory.contains_key(&pos)
                || self.in_flight.contains_key(&pos)
                || self.local.contains(&Self::key(pos))
            {
                continue;
            }
            if !self.remote.contains(&Self::key(pos)) {
                continue;
            }
            // Sample the transfer time by performing the remote read now and
            // recording only its completion time; the bytes are re-read (at
            // no extra simulated cost) when the transfer completes in
            // `poll`.
            if let Ok(read) = self.remote_read_retrying(&Self::key(pos), now) {
                self.in_flight.insert(pos, read.completed_at);
                self.stats.prefetches_issued += 1;
            }
        }
    }

    /// Reads a chunk through the cache hierarchy, resolving remote misses
    /// *synchronously*: the returned latency includes the full remote
    /// transfer when nothing closer holds the chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::NotFound`] if the chunk exists nowhere
    /// (it must be generated instead), or [`ServoError::StorageFailed`] if
    /// the backing store fails.
    pub fn read(&mut self, pos: ChunkPos, now: SimTime) -> Result<CachedRead, ServoError> {
        self.poll(now);
        let key = Self::key(pos);

        if let Some(snapshot) = self.memory.get(&pos).cloned() {
            self.stats.memory_hits += 1;
            self.touch(pos);
            return Ok(CachedRead {
                snapshot,
                latency: self.memory_latency,
                location: ChunkLocation::Memory,
            });
        }

        if let Some(&arrives_at) = self.in_flight.get(&pos) {
            // Wait for the in-flight transfer to finish.
            self.stats.prefetch_joins += 1;
            let wait = arrives_at.saturating_since(now).max(self.memory_latency);
            if wait > TICK_BUDGET {
                self.stats.slow_prefetch_joins += 1;
            }
            self.poll(arrives_at);
            let snapshot = self
                .memory
                .get(&pos)
                .cloned()
                .ok_or_else(|| ServoError::storage_failed("prefetched chunk vanished"))?;
            return Ok(CachedRead {
                snapshot,
                latency: wait,
                location: ChunkLocation::PrefetchInFlight,
            });
        }

        if self.local.contains(&key) {
            let read = self.local.read(&key, now)?;
            self.stats.disk_hits += 1;
            let snapshot = ChunkSnapshot {
                pos,
                bytes: read.data.into(),
            };
            self.memory.insert(pos, snapshot.clone());
            self.touch(pos);
            return Ok(CachedRead {
                snapshot,
                latency: read.latency,
                location: ChunkLocation::LocalDisk,
            });
        }

        let read = self.remote_read_retrying(&key, now)?;
        self.stats.remote_misses += 1;
        let snapshot = ChunkSnapshot {
            pos,
            bytes: read.data.into(),
        };
        let _ = self.local.write(&key, Arc::clone(&snapshot.bytes), now);
        self.memory.insert(pos, snapshot.clone());
        self.touch(pos);
        Ok(CachedRead {
            snapshot,
            latency: read.latency,
            location: ChunkLocation::Remote,
        })
    }

    /// The non-blocking counterpart of [`CachedChunkStore::read`]: serves
    /// memory, in-flight, and local-disk outcomes like `read`, but turns a
    /// remote miss into an *asynchronous transfer* ([`TryRead::InFlight`])
    /// instead of paying the remote latency inline. The pipelined chunk
    /// service is built on this: the tick path never blocks on remote
    /// storage.
    ///
    /// Joins of in-flight transfers are not counted in [`CacheStats`] here;
    /// the caller records them when the data arrives (it knows the observed
    /// wait), via [`CachedChunkStore::record_async_join`].
    ///
    /// # Errors
    ///
    /// Returns [`ServoError::NotFound`] if the chunk exists nowhere, or
    /// [`ServoError::StorageFailed`] if the backing store fails.
    pub fn try_read(&mut self, pos: ChunkPos, now: SimTime) -> Result<TryRead, ServoError> {
        let key = Self::key(pos);

        if let Some(snapshot) = self.memory.get(&pos).cloned() {
            self.stats.memory_hits += 1;
            self.touch(pos);
            return Ok(TryRead::Ready(CachedRead {
                snapshot,
                latency: self.memory_latency,
                location: ChunkLocation::Memory,
            }));
        }

        if let Some(&arrives_at) = self.in_flight.get(&pos) {
            return Ok(TryRead::InFlight { arrives_at });
        }

        if self.local.contains(&key) {
            let read = self.local.read(&key, now)?;
            self.stats.disk_hits += 1;
            let snapshot = ChunkSnapshot {
                pos,
                bytes: read.data.into(),
            };
            self.memory.insert(pos, snapshot.clone());
            self.touch(pos);
            return Ok(TryRead::Ready(CachedRead {
                snapshot,
                latency: read.latency,
                location: ChunkLocation::LocalDisk,
            }));
        }

        if !self.remote.contains(&key) {
            return Err(ServoError::not_found(format!("chunk {pos}")));
        }
        let read = self.remote_read_retrying(&key, now)?;
        self.stats.prefetches_issued += 1;
        let arrives_at = read.completed_at;
        self.in_flight.insert(pos, arrives_at);
        Ok(TryRead::InFlight { arrives_at })
    }

    /// Records that an asynchronous read joined a transfer and observed
    /// `wait` of tick-visible latency before its data arrived (counted as a
    /// slow join when the wait exceeded one simulation step).
    pub fn record_async_join(&mut self, wait: SimDuration) {
        self.stats.prefetch_joins += 1;
        if wait > TICK_BUDGET {
            self.stats.slow_prefetch_joins += 1;
        }
    }

    /// Evicts from memory every chunk not contained in `keep`, walking the
    /// per-shard recency maps (least recently used first, by access stamp)
    /// instead of scanning the full resident map. Evicted chunks remain in
    /// the local-disk cache; dirty evicted chunks are written back to
    /// remote storage first.
    ///
    /// Returns the number of chunks evicted.
    pub fn evict_except(&mut self, keep: &HashSet<ChunkPos>, now: SimTime) -> usize {
        let mut evicted = 0usize;
        for shard in 0..self.shard_count {
            if self.recency[shard].is_empty() {
                continue;
            }
            let map = std::mem::take(&mut self.recency[shard]);
            let mut entries: Vec<(ChunkPos, u64)> = map.into_iter().collect();
            entries.sort_by_key(|&(pos, stamp)| (stamp, pos.x, pos.z));
            let mut kept = HashMap::with_capacity(entries.len());
            for (pos, stamp) in entries {
                if keep.contains(&pos) {
                    kept.insert(pos, stamp);
                    continue;
                }
                if self.dirty[shard].remove(&pos) {
                    if let Some(snapshot) = self.memory.get(&pos) {
                        let bytes = Arc::clone(&snapshot.bytes);
                        let _ = self.remote_write_retrying(&Self::key(pos), &bytes, now);
                        self.stats.write_backs += 1;
                    }
                }
                self.memory.remove(&pos);
                evicted += 1;
            }
            self.recency[shard] = kept;
        }
        evicted
    }

    /// Writes every dirty chunk back to remote storage (the paper's periodic
    /// write policy), shard by shard — clean shards are skipped without any
    /// scanning. Returns the number of chunks written.
    ///
    /// Within one shard chunks flush in `(x, z)` order through a reusable
    /// scratch buffer (no per-call set allocation), so the latency stream
    /// consumed from the RNG — and with it every derived statistic — is
    /// reproducible across runs.
    pub fn write_back_dirty(&mut self, now: SimTime) -> usize {
        let mut written = 0;
        for shard in 0..self.shard_count {
            if self.dirty[shard].is_empty() {
                continue;
            }
            self.write_back_scratch.clear();
            self.write_back_scratch.extend(self.dirty[shard].drain());
            self.write_back_scratch.sort_by_key(|p| (p.x, p.z));
            for i in 0..self.write_back_scratch.len() {
                let pos = self.write_back_scratch[i];
                if let Some(snapshot) = self.memory.get(&pos) {
                    let bytes = Arc::clone(&snapshot.bytes);
                    if self
                        .remote_write_retrying(&Self::key(pos), &bytes, now)
                        .is_ok()
                    {
                        written += 1;
                        self.stats.write_backs += 1;
                    } else {
                        // Keep it dirty so the next write-back retries.
                        self.dirty[shard].insert(pos);
                    }
                }
            }
        }
        written
    }

    /// Writes the given chunks back to remote storage (skipping positions
    /// not resident in memory), clearing their dirty flags on success and
    /// re-marking them on failure. The chunk services drive this with the
    /// per-shard deltas from [`CachedChunkStore::take_dirty_deltas`] and
    /// [`servo_world::ShardedWorld::drain_dirty`]. Returns the positions
    /// actually written — the caller's signal for which durability
    /// obligations (WAL records, staged sets) may now be discharged; a
    /// failed position is re-marked dirty and must stay recoverable.
    pub fn write_back(&mut self, positions: &[ChunkPos], now: SimTime) -> Vec<ChunkPos> {
        let mut written = Vec::with_capacity(positions.len());
        for &pos in positions {
            let Some(snapshot) = self.memory.get(&pos) else {
                continue;
            };
            let bytes = Arc::clone(&snapshot.bytes);
            let shard = shard_index(pos, self.shard_count);
            if self
                .remote_write_retrying(&Self::key(pos), &bytes, now)
                .is_ok()
            {
                written.push(pos);
                self.stats.write_backs += 1;
                self.dirty[shard].remove(&pos);
            } else {
                self.dirty[shard].insert(pos);
            }
        }
        written
    }

    /// Takes the per-shard sets of chunks dirtied through
    /// [`CachedChunkStore::put`] since the last call, as one sorted
    /// [`ShardDelta`] per affected shard (clean shards produce nothing).
    /// The reported epoch is the shard's lifetime `put` count.
    pub fn take_dirty_deltas(&mut self) -> Vec<ShardDelta> {
        let mut deltas = Vec::new();
        for shard in 0..self.shard_count {
            if self.dirty[shard].is_empty() {
                continue;
            }
            let mut chunks: Vec<ChunkPos> = self.dirty[shard].drain().collect();
            chunks.sort_by_key(|p| (p.x, p.z));
            deltas.push(ShardDelta {
                shard,
                epoch: self.dirty_epochs[shard],
                chunks,
            });
        }
        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BlobStore, BlobTier};
    use servo_simkit::SimRng;
    use servo_world::Chunk;

    fn store_with_remote_chunks(n: i32) -> CachedChunkStore<BlobStore> {
        let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
        for x in 0..n {
            for z in 0..n {
                let pos = ChunkPos::new(x, z);
                let chunk = Chunk::empty(pos);
                remote
                    .write(
                        &format!("terrain/{}/{}", x, z),
                        chunk.to_bytes(),
                        SimTime::ZERO,
                    )
                    .unwrap();
            }
        }
        CachedChunkStore::new(remote, SimRng::seed(2))
    }

    #[test]
    fn read_miss_then_memory_hit() {
        let mut store = store_with_remote_chunks(2);
        let pos = ChunkPos::new(0, 0);
        let first = store.read(pos, SimTime::ZERO).unwrap();
        assert_eq!(first.location, ChunkLocation::Remote);
        let second = store.read(pos, SimTime::ZERO + first.latency).unwrap();
        assert_eq!(second.location, ChunkLocation::Memory);
        assert!(second.latency < SimDuration::from_millis(1));
        assert_eq!(store.stats().remote_misses, 1);
        assert_eq!(store.stats().memory_hits, 1);
        assert_eq!(first.snapshot.restore().unwrap().pos(), pos);
    }

    #[test]
    fn unknown_chunk_is_not_found() {
        let mut store = store_with_remote_chunks(1);
        let err = store.read(ChunkPos::new(9, 9), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, ServoError::NotFound { .. }));
        let err = store
            .try_read(ChunkPos::new(9, 9), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ServoError::NotFound { .. }));
    }

    #[test]
    fn prefetch_arrivals_become_memory_hits() {
        let mut store = store_with_remote_chunks(3);
        let targets: Vec<ChunkPos> = (0..3)
            .flat_map(|x| (0..3).map(move |z| ChunkPos::new(x, z)))
            .collect();
        store.prefetch(targets.clone(), SimTime::ZERO);
        assert_eq!(store.stats().prefetches_issued, 9);
        // Long after the transfers finish, every read is a memory hit.
        let later = SimTime::from_secs(10);
        for pos in targets {
            let read = store.read(pos, later).unwrap();
            assert_eq!(read.location, ChunkLocation::Memory, "chunk {pos}");
        }
        assert_eq!(store.stats().hit_rate(), 1.0);
    }

    #[test]
    fn read_during_prefetch_waits_for_remaining_time() {
        let mut store = store_with_remote_chunks(1);
        let pos = ChunkPos::new(0, 0);
        store.prefetch([pos], SimTime::ZERO);
        // Read immediately: must join the in-flight transfer, not start a new
        // remote read.
        let read = store.read(pos, SimTime::ZERO).unwrap();
        assert_eq!(read.location, ChunkLocation::PrefetchInFlight);
        assert_eq!(store.stats().remote_misses, 0);
        assert!(read.latency >= SimDuration::from_micros(50));
    }

    #[test]
    fn try_read_issues_async_transfer_instead_of_blocking() {
        let mut store = store_with_remote_chunks(2);
        let pos = ChunkPos::new(1, 1);
        // First touch: a transfer is issued, nothing blocks.
        let TryRead::InFlight { arrives_at } = store.try_read(pos, SimTime::ZERO).unwrap() else {
            panic!("expected an in-flight transfer");
        };
        assert!(arrives_at > SimTime::ZERO);
        assert!(store.is_in_flight(pos));
        assert_eq!(store.stats().remote_misses, 0);
        assert_eq!(store.stats().prefetches_issued, 1);
        // Asking again joins the same transfer.
        assert!(matches!(
            store.try_read(pos, SimTime::ZERO).unwrap(),
            TryRead::InFlight { .. }
        ));
        assert_eq!(store.stats().prefetches_issued, 1);
        // Once polled past the arrival, the chunk is a memory hit.
        assert_eq!(store.poll_arrived(arrives_at), vec![pos]);
        let TryRead::Ready(read) = store.try_read(pos, arrives_at).unwrap() else {
            panic!("expected a ready read");
        };
        assert_eq!(read.location, ChunkLocation::Memory);
        // A slow async join counts against the effective hit rate only.
        store.record_async_join(SimDuration::from_millis(200));
        let stats = store.stats();
        assert_eq!(stats.prefetch_joins, 1);
        assert_eq!(stats.slow_prefetch_joins, 1);
        assert!(stats.effective_hit_rate() < stats.hit_rate());
    }

    #[test]
    fn prefetch_skips_resident_and_missing_chunks() {
        let mut store = store_with_remote_chunks(1);
        let pos = ChunkPos::new(0, 0);
        store.read(pos, SimTime::ZERO).unwrap();
        store.prefetch([pos, ChunkPos::new(5, 5)], SimTime::ZERO);
        // Resident chunk and non-existent chunk are both skipped.
        assert_eq!(store.stats().prefetches_issued, 0);
    }

    #[test]
    fn eviction_keeps_local_copy_and_writes_back_dirty() {
        let mut store = store_with_remote_chunks(1);
        let pos = ChunkPos::new(4, 4);
        let chunk = Chunk::empty(pos);
        store.put(chunk.snapshot(), SimTime::ZERO).unwrap();
        assert!(store.is_resident(pos));
        let evicted = store.evict_except(&HashSet::new(), SimTime::ZERO);
        assert_eq!(evicted, 1);
        assert!(!store.is_resident(pos));
        assert_eq!(store.stats().write_backs, 1);
        // The chunk is still available quickly from the local disk cache.
        let read = store.read(pos, SimTime::from_secs(1)).unwrap();
        assert_eq!(read.location, ChunkLocation::LocalDisk);
    }

    #[test]
    fn eviction_prefers_least_recently_used_order() {
        let mut store = store_with_remote_chunks(0).with_shard_batching(1);
        for x in 0..4 {
            store
                .put(Chunk::empty(ChunkPos::new(x, 0)).snapshot(), SimTime::ZERO)
                .unwrap();
        }
        // Touch chunk 0 so it becomes the most recently used.
        store.read(ChunkPos::new(0, 0), SimTime::ZERO).unwrap();
        // With one shard the LRU list orders all four chunks; evicting all
        // writes the dirty ones back in LRU order: 1, 2, 3, then 0.
        let evicted = store.evict_except(&HashSet::new(), SimTime::ZERO);
        assert_eq!(evicted, 4);
        assert_eq!(store.stats().write_backs, 4);
        assert_eq!(store.resident_chunks(), 0);
    }

    #[test]
    fn write_back_flushes_dirty_chunks() {
        let mut store = store_with_remote_chunks(0);
        for x in 0..4 {
            let pos = ChunkPos::new(x, 0);
            store
                .put(Chunk::empty(pos).snapshot(), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(store.write_back_dirty(SimTime::ZERO), 4);
        // A second write-back has nothing to do.
        assert_eq!(store.write_back_dirty(SimTime::ZERO), 0);
        // The remote store now contains the chunks.
        assert_eq!(store.remote_mut().len(), 4);
    }

    #[test]
    fn take_dirty_deltas_reports_only_touched_shards() {
        let mut store = store_with_remote_chunks(0).with_shard_batching(8);
        let pos = ChunkPos::new(3, 7);
        store
            .put(Chunk::empty(pos).snapshot(), SimTime::ZERO)
            .unwrap();
        let deltas = store.take_dirty_deltas();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].shard, shard_index(pos, 8));
        assert_eq!(deltas[0].chunks, vec![pos]);
        assert_eq!(deltas[0].epoch, 1);
        // Taking drains: the set is clean afterwards, and targeted
        // write-back of the taken positions flushes to remote.
        assert!(store.take_dirty_deltas().is_empty());
        assert_eq!(store.write_back(&[pos], SimTime::ZERO), vec![pos]);
        assert_eq!(store.remote_mut().len(), 1);
    }

    #[test]
    fn write_back_order_is_deterministic() {
        let collect_latency_profile = || {
            let mut store = store_with_remote_chunks(0).with_shard_batching(8);
            for x in 0..12 {
                for z in 0..12 {
                    let pos = ChunkPos::new(x, z);
                    store
                        .put(Chunk::empty(pos).snapshot(), SimTime::ZERO)
                        .unwrap();
                }
            }
            assert_eq!(store.write_back_dirty(SimTime::ZERO), 144);
            store.remote_mut().len()
        };
        assert_eq!(collect_latency_profile(), collect_latency_profile());
    }

    #[test]
    fn hit_rate_reflects_misses() {
        let mut store = store_with_remote_chunks(2);
        store.read(ChunkPos::new(0, 0), SimTime::ZERO).unwrap();
        store.read(ChunkPos::new(0, 1), SimTime::ZERO).unwrap();
        store.read(ChunkPos::new(0, 0), SimTime::ZERO).unwrap();
        store.read(ChunkPos::new(0, 1), SimTime::ZERO).unwrap();
        assert!((store.stats().hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(store.stats().total_reads(), 4);
        // No slow joins occurred, so the effective rate matches.
        assert_eq!(store.stats().effective_hit_rate(), store.stats().hit_rate());
    }

    #[test]
    fn slow_prefetch_joins_lower_effective_hit_rate() {
        // A ~1 MB object takes >100 ms to transfer on the standard tier, so
        // a join issued at transfer start is guaranteed to wait past one
        // 50 ms simulation step.
        let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(1));
        remote
            .write("terrain/0/0", vec![7u8; 1_000_000], SimTime::ZERO)
            .unwrap();
        let mut store = CachedChunkStore::new(remote, SimRng::seed(2));
        let pos = ChunkPos::new(0, 0);
        store.prefetch([pos], SimTime::ZERO);
        let read = store.read(pos, SimTime::ZERO).unwrap();
        assert_eq!(read.location, ChunkLocation::PrefetchInFlight);
        assert!(read.latency > TICK_BUDGET, "wait {:?}", read.latency);
        let stats = store.stats();
        assert_eq!(stats.prefetch_joins, 1);
        assert_eq!(stats.slow_prefetch_joins, 1);
        assert_eq!(stats.hit_rate(), 1.0);
        assert_eq!(stats.effective_hit_rate(), 0.0);
    }
}
