//! A write-ahead delta log for staged-but-unflushed terrain.
//!
//! The periodic write-back policy (Section III-E) leaves a window between a
//! chunk being modified and its bytes reaching remote storage. A zone server
//! that crashes inside that window would silently lose every staged chunk —
//! the modifications exist only in its memory. The [`DeltaWal`] closes the
//! window: every position staged for write-back is appended here *with the
//! chunk bytes captured at staging time*, and records are truncated only
//! once the corresponding write-back has durably landed. The log models a
//! durable device that survives the zone server (a replicated log service or
//! attached journal volume), so crash recovery replays it to rebuild the
//! staged-but-unflushed state.
//!
//! Replay semantics are last-writer-wins per chunk: records carry a
//! monotone sequence number, and [`DeltaWal::replay_shard`] keeps only the
//! highest-sequence record per position. Replay is therefore idempotent and
//! insensitive to record order — properties the `wal_semantics` proptest
//! suite pins down.

use std::sync::{Arc, Mutex};

use servo_types::ChunkPos;
use servo_world::{shard_index, ShardDelta};

/// One logged staging event: the chunk's bytes as they were when the
/// position entered the write-back working set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The chunk's position.
    pub pos: ChunkPos,
    /// Monotone append sequence; higher wins on replay.
    pub seq: u64,
    /// The chunk's serialized bytes at staging time.
    pub bytes: Vec<u8>,
}

/// The per-zone write-ahead delta log. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct DeltaWal {
    shard_count: usize,
    next_seq: u64,
    /// Per-shard record logs, in append order.
    shards: Vec<Vec<WalRecord>>,
    appended: u64,
    truncated: u64,
}

impl DeltaWal {
    /// Creates an empty log partitioned like a world with `shard_count`
    /// shards (clamped to a power of two, matching [`shard_index`]).
    pub fn new(shard_count: usize) -> Self {
        let shard_count = shard_count.clamp(1, 1 << 10).next_power_of_two();
        DeltaWal {
            shard_count,
            next_seq: 0,
            shards: (0..shard_count).map(|_| Vec::new()).collect(),
            appended: 0,
            truncated: 0,
        }
    }

    /// The number of shards the log is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Appends a staging event for `pos`, stamping and returning its
    /// sequence number.
    pub fn append(&mut self, pos: ChunkPos, bytes: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.appended += 1;
        self.shards[shard_index(pos, self.shard_count)].push(WalRecord { pos, seq, bytes });
        seq
    }

    /// Ingests a record with an explicit sequence number (tests and
    /// cross-log merges); future appends stamp past it.
    pub fn ingest(&mut self, record: WalRecord) {
        self.next_seq = self.next_seq.max(record.seq + 1);
        self.appended += 1;
        self.shards[shard_index(record.pos, self.shard_count)].push(record);
    }

    /// The highest sequence number logged for `pos`, if any record remains.
    pub fn latest_seq(&self, pos: ChunkPos) -> Option<u64> {
        self.shards[shard_index(pos, self.shard_count)]
            .iter()
            .filter(|r| r.pos == pos)
            .map(|r| r.seq)
            .max()
    }

    /// Truncates `pos`'s records with sequence `<= through_seq` — the
    /// write-back that made them durable has completed. Records appended
    /// *after* the flushed snapshot was taken keep their place: truncation
    /// never drops an unflushed delta. Returns how many records dropped.
    pub fn truncate(&mut self, pos: ChunkPos, through_seq: u64) -> usize {
        let shard = &mut self.shards[shard_index(pos, self.shard_count)];
        let before = shard.len();
        shard.retain(|r| r.pos != pos || r.seq > through_seq);
        let dropped = before - shard.len();
        self.truncated += dropped as u64;
        dropped
    }

    /// Replays one shard's log: the surviving record per position with the
    /// highest sequence number, sorted by `(x, z)`. Replaying a replay (or
    /// any permutation of the same records) yields the same result.
    pub fn replay_shard(&self, shard: usize) -> Vec<WalRecord> {
        let Some(records) = self.shards.get(shard) else {
            return Vec::new();
        };
        let mut latest: std::collections::HashMap<ChunkPos, &WalRecord> = Default::default();
        for record in records {
            match latest.get(&record.pos) {
                Some(existing) if existing.seq >= record.seq => {}
                _ => {
                    latest.insert(record.pos, record);
                }
            }
        }
        let mut out: Vec<WalRecord> = latest.into_values().cloned().collect();
        out.sort_by_key(|r| (r.pos.x, r.pos.z));
        out
    }

    /// The recoverable delta for `shard`: every position with a surviving
    /// record, as one [`ShardDelta`] whose epoch is the highest surviving
    /// sequence. `None` when the shard's log is empty.
    pub fn delta(&self, shard: usize) -> Option<ShardDelta> {
        let replay = self.replay_shard(shard);
        if replay.is_empty() {
            return None;
        }
        Some(ShardDelta {
            shard,
            epoch: replay.iter().map(|r| r.seq).max().unwrap_or(0),
            chunks: replay.iter().map(|r| r.pos).collect(),
        })
    }

    /// The raw surviving records of one shard, in append order.
    pub fn records(&self, shard: usize) -> &[WalRecord] {
        self.shards.get(shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total surviving records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Whether no records survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime number of records appended (including ingested ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Lifetime number of records truncated after durable write-back.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

/// A cloneable handle sharing one [`DeltaWal`] between the per-shard
/// segments of a `PipelinedChunkService` and the cluster that owns the
/// zone: the cluster keeps a clone so the log outlives a crashed zone's
/// pipeline, exactly like a durable log device would.
#[derive(Debug, Clone)]
pub struct SharedWal(Arc<Mutex<DeltaWal>>);

impl SharedWal {
    /// Creates a shared log for `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        SharedWal(Arc::new(Mutex::new(DeltaWal::new(shard_count))))
    }

    /// Runs `f` with the log (briefly locks it).
    pub fn with<T>(&self, f: impl FnOnce(&mut DeltaWal) -> T) -> T {
        let mut wal = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut wal)
    }

    /// See [`DeltaWal::append`].
    pub fn append(&self, pos: ChunkPos, bytes: Vec<u8>) -> u64 {
        self.with(|wal| wal.append(pos, bytes))
    }

    /// See [`DeltaWal::latest_seq`].
    pub fn latest_seq(&self, pos: ChunkPos) -> Option<u64> {
        self.with(|wal| wal.latest_seq(pos))
    }

    /// See [`DeltaWal::truncate`].
    pub fn truncate(&self, pos: ChunkPos, through_seq: u64) -> usize {
        self.with(|wal| wal.truncate(pos, through_seq))
    }

    /// See [`DeltaWal::replay_shard`].
    pub fn replay_shard(&self, shard: usize) -> Vec<WalRecord> {
        self.with(|wal| wal.replay_shard(shard))
    }

    /// See [`DeltaWal::delta`].
    pub fn delta(&self, shard: usize) -> Option<ShardDelta> {
        self.with(|wal| wal.delta(shard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(x: i32, z: i32) -> ChunkPos {
        ChunkPos::new(x, z)
    }

    #[test]
    fn append_stamps_monotone_sequences() {
        let mut wal = DeltaWal::new(4);
        let a = wal.append(pos(0, 0), vec![1]);
        let b = wal.append(pos(1, 0), vec![2]);
        assert!(b > a);
        assert_eq!(wal.len(), 2);
        assert_eq!(wal.appended(), 2);
    }

    #[test]
    fn replay_is_last_writer_wins_per_chunk() {
        let mut wal = DeltaWal::new(1);
        wal.append(pos(0, 0), vec![1]);
        wal.append(pos(0, 0), vec![2]);
        wal.append(pos(1, 0), vec![9]);
        let replay = wal.replay_shard(0);
        assert_eq!(replay.len(), 2);
        let winner = replay.iter().find(|r| r.pos == pos(0, 0)).unwrap();
        assert_eq!(winner.bytes, vec![2]);
    }

    #[test]
    fn truncate_through_flushed_seq_keeps_later_appends() {
        let mut wal = DeltaWal::new(1);
        let flushed = wal.append(pos(0, 0), vec![1]);
        let later = wal.append(pos(0, 0), vec![2]);
        assert_eq!(wal.truncate(pos(0, 0), flushed), 1);
        assert_eq!(wal.latest_seq(pos(0, 0)), Some(later));
        let replay = wal.replay_shard(0);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].bytes, vec![2]);
    }

    #[test]
    fn delta_reports_surviving_positions() {
        let mut wal = DeltaWal::new(4);
        wal.append(pos(0, 0), vec![1]);
        let shard = shard_index(pos(0, 0), 4);
        let delta = wal.delta(shard).unwrap();
        assert_eq!(delta.shard, shard);
        assert_eq!(delta.chunks, vec![pos(0, 0)]);
        wal.truncate(pos(0, 0), u64::MAX);
        assert!(wal.delta(shard).is_none());
        assert!(wal.is_empty());
    }
}
