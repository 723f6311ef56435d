//! A write-ahead delta log for staged-but-unflushed terrain.
//!
//! The periodic write-back policy (Section III-E) leaves a window between a
//! chunk being modified and its bytes reaching remote storage. A zone server
//! that crashes inside that window would silently lose every staged chunk —
//! the modifications exist only in its memory. The [`DeltaWal`] closes the
//! window: every position staged for write-back is appended here *with the
//! chunk's blocks as they were at staging time*, and its records are
//! discharged only once the corresponding write-back has durably landed.
//! The log models a durable device that survives the zone server (a
//! replicated log service or attached journal volume), so crash recovery
//! replays it to rebuild the staged-but-unflushed state.
//!
//! A staging record is an [`Image`](RecordKind::Image) of the whole chunk
//! or the [`Edits`](RecordKind::Edits) since the position's previous
//! record, so a chunk staged again and again costs its changed blocks, not
//! its bytes. [`DeltaWal::append_edits`] accepts edits only on top of the
//! record they were taken against, so no chain of edits lacks the base it
//! starts from.
//!
//! A landed write-back *re-roots* the chain instead of ending it:
//! [`DeltaWal::reroot`] replaces the position's records with one
//! [`Root`](RecordKind::Root) holding the bytes the remote store received
//! (the same shared allocation), at the newest replaced sequence. The next
//! staging appends edits against the root, so a hot chunk is encoded whole
//! once per write-back cadence — by the flush — and not again by the log. A
//! root is not a staging: it counts in neither [`DeltaWal::appended`] nor
//! [`DeltaWal::truncated`], a chain that is only a root replays nothing
//! (the remote store already holds those bytes), and
//! [`DeltaWal::release_root`] drops it once its position goes cold.
//!
//! Replay folds each position's records into one image: the last image or
//! root, with the later edits applied in sequence order, stamped with the
//! highest sequence — the image an image-per-staging log would have
//! replayed. Replay is therefore idempotent and insensitive to the order in
//! which images arrive — properties the `wal_semantics` proptest suite pins
//! down.

use std::sync::{Arc, Mutex};

use servo_types::ChunkPos;
use servo_world::{shard_index, Block, BlockEdit, Chunk, ShardDelta};

/// What a [`WalRecord`]'s bytes hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The whole chunk, as [`Chunk::to_bytes`] encodes it.
    Image,
    /// The whole chunk as its last landed write-back stored it remotely:
    /// the base later edits apply to, not a staging of its own.
    Root,
    /// The blocks changed since the position's previous record, 4 bytes
    /// each: the block's linear index (u16 LE), then its id (u16 LE). A
    /// staging that changed nothing is an empty record.
    Edits,
}

/// One logged staging event — the chunk's blocks as they were when the
/// position entered the write-back working set — or the root a landed
/// write-back left its chain on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The chunk's position.
    pub pos: ChunkPos,
    /// Monotone append sequence; higher wins on replay.
    pub seq: u64,
    /// Whether `bytes` is an image, a root or edits.
    pub kind: RecordKind,
    /// The chunk's serialized bytes, or its edits, at staging time; a
    /// root shares the bytes its write-back stored.
    pub bytes: Arc<[u8]>,
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

    /// Appends an image of `pos` (its [`Chunk::to_bytes`]), stamping and
    /// returning its sequence number.
    pub fn append(&mut self, pos: ChunkPos, bytes: impl Into<Arc<[u8]>>) -> u64 {
        self.push(pos, RecordKind::Image, bytes.into())
    }

    /// Appends the edits that turn `pos`'s chunk as of record `after` into
    /// its chunk now, stamping and returning the sequence number. Returns
    /// `None`, appending nothing, unless `after` is the newest surviving
    /// record of `pos`: edits need the chain they were taken against, so
    /// the caller appends an image instead.
    pub fn append_edits(&mut self, pos: ChunkPos, after: u64, edits: &[BlockEdit]) -> Option<u64> {
        if self.latest_seq(pos) != Some(after) {
            return None;
        }
        let mut bytes = Vec::with_capacity(4 * edits.len());
        for edit in edits {
            bytes.extend_from_slice(&edit.index.to_le_bytes());
            bytes.extend_from_slice(&edit.block.id().to_le_bytes());
        }
        Some(self.push(pos, RecordKind::Edits, bytes.into()))
    }

    fn push(&mut self, pos: ChunkPos, kind: RecordKind, bytes: Arc<[u8]>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.appended += 1;
        self.shards[shard_index(pos, self.shard_count)].push(WalRecord {
            pos,
            seq,
            kind,
            bytes,
        });
        seq
    }

    /// Ingests a record with an explicit sequence number (tests and
    /// cross-log merges); future appends stamp past it.
    pub fn ingest(&mut self, record: WalRecord) {
        self.next_seq = self.next_seq.max(record.seq + 1);
        self.appended += 1;
        self.shards[shard_index(record.pos, self.shard_count)].push(record);
    }

    /// The highest sequence number logged for `pos`, if any record remains
    /// (a root included).
    pub fn latest_seq(&self, pos: ChunkPos) -> Option<u64> {
        self.shards[shard_index(pos, self.shard_count)]
            .iter()
            .filter(|r| r.pos == pos)
            .map(|r| r.seq)
            .max()
    }

    /// Whether a staging record of `pos` survives. A lone root does not
    /// count: it covers nothing the remote store lacks.
    pub fn covers(&self, pos: ChunkPos) -> bool {
        self.shards[shard_index(pos, self.shard_count)]
            .iter()
            .any(|r| r.pos == pos && r.kind != RecordKind::Root)
    }

    /// Replaces every record of `pos` with one root holding `bytes` — the
    /// bytes a write-back that covered all of them just stored remotely —
    /// at the newest replaced sequence, so edits taken against that record
    /// still chain onto the root. Returns that sequence, or `None`,
    /// changing nothing, when `pos` has no record.
    pub fn reroot(&mut self, pos: ChunkPos, bytes: Arc<[u8]>) -> Option<u64> {
        let seq = self.latest_seq(pos)?;
        let shard = &mut self.shards[shard_index(pos, self.shard_count)];
        let mut staged = 0;
        shard.retain(|r| {
            let keep = r.pos != pos;
            staged += usize::from(!keep && r.kind != RecordKind::Root);
            keep
        });
        shard.push(WalRecord {
            pos,
            seq,
            kind: RecordKind::Root,
            bytes,
        });
        self.truncated += staged as u64;
        Some(seq)
    }

    /// Drops `pos`'s chain if it is only a root, returning whether it did.
    /// A chain with staging records is left alone.
    pub fn release_root(&mut self, pos: ChunkPos) -> bool {
        let shard = &mut self.shards[shard_index(pos, self.shard_count)];
        let mut records = shard.iter().enumerate().filter(|(_, r)| r.pos == pos);
        match (records.next(), records.next()) {
            (Some((at, root)), None) if root.kind == RecordKind::Root => {
                shard.remove(at);
                true
            }
            _ => false,
        }
    }

    /// Truncates `pos`'s records with sequence `<= through_seq` — the
    /// write-back that made them durable has completed. Records appended
    /// *after* the flushed snapshot was taken keep their place: truncation
    /// never drops an unflushed delta. Returns how many records dropped.
    ///
    /// When the first record kept would be edits, the dropped records are
    /// folded into one record at the highest dropped sequence instead, so
    /// the kept edits still have the base they apply to: an image, or the
    /// root itself when the root was all that dropped. Only staging
    /// records count towards [`DeltaWal::truncated`].
    pub fn truncate(&mut self, pos: ChunkPos, through_seq: u64) -> usize {
        let shard = &mut self.shards[shard_index(pos, self.shard_count)];
        let first_kept = shard
            .iter()
            .filter(|r| r.pos == pos && r.seq > through_seq)
            .min_by_key(|r| r.seq);
        let folded = match first_kept {
            Some(record) if record.kind == RecordKind::Edits => fold(&chain(
                shard
                    .iter()
                    .filter(|r| r.pos == pos && r.seq <= through_seq),
            )),
            _ => None,
        };
        let before = shard.len();
        let mut staged = 0;
        shard.retain(|r| {
            let keep = r.pos != pos || r.seq > through_seq;
            staged += usize::from(!keep && r.kind != RecordKind::Root);
            keep
        });
        let mut dropped = before - shard.len();
        if let Some(base) = folded {
            staged -= usize::from(base.kind != RecordKind::Root);
            let at = shard
                .iter()
                .position(|r| r.pos == pos)
                .unwrap_or(shard.len());
            shard.insert(at, base);
            dropped -= 1;
        }
        self.truncated += staged as u64;
        dropped
    }

    /// Replays one shard's log: one image per position with surviving
    /// staging records, folded as the module docs describe and stamped with
    /// the position's highest sequence number, sorted by `(x, z)`. A lone
    /// root replays nothing. Replaying a replay (or any permutation of the
    /// same images) yields the same result.
    pub fn replay_shard(&self, shard: usize) -> Vec<WalRecord> {
        let mut by_pos: std::collections::HashMap<ChunkPos, Vec<&WalRecord>> = Default::default();
        for record in self.records(shard) {
            by_pos.entry(record.pos).or_default().push(record);
        }
        let mut out: Vec<WalRecord> = by_pos
            .into_values()
            .filter_map(|records| fold(&chain(records.into_iter())))
            .filter(|record| record.kind != RecordKind::Root)
            .collect();
        out.sort_by_key(|r| (r.pos.x, r.pos.z));
        out
    }

    /// The recoverable delta for `shard`: every position its replay
    /// rebuilds, as one [`ShardDelta`] whose epoch is the highest replayed
    /// sequence. `None` when the replay is empty.
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

    /// Total surviving records across all shards, roots included.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Whether no records survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime number of staging records appended (including ingested
    /// ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Lifetime number of staging records discharged — truncated, or
    /// replaced by a root — net of the images partial truncations fold
    /// in.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

/// One position's records in `seq` order (append order among equals).
fn chain<'a>(records: impl Iterator<Item = &'a WalRecord>) -> Vec<&'a WalRecord> {
    let mut chain: Vec<&WalRecord> = records.collect();
    chain.sort_by_key(|r| r.seq);
    chain
}

/// Folds one position's records, in `seq` order, into one image: the
/// last image or root with the later edits applied, stamped with the last
/// sequence. A base with no records after it is passed on as it is (a lone
/// root stays a root); with only empty edits after it, its bytes are
/// shared without decoding. `None` when the records hold no base, or one
/// the fold needs cannot be decoded.
fn fold(chain: &[&WalRecord]) -> Option<WalRecord> {
    let start = chain.iter().rposition(|r| r.kind != RecordKind::Edits)?;
    let (base, edits) = (chain[start], &chain[start + 1..]);
    if edits.is_empty() {
        return Some(base.clone());
    }
    let bytes = if edits.iter().all(|r| r.bytes.is_empty()) {
        Arc::clone(&base.bytes)
    } else {
        let mut chunk = Chunk::from_bytes(&base.bytes).ok()?;
        for record in edits {
            chunk.apply_edits(&decode_edits(&record.bytes)?);
        }
        chunk.to_bytes().into()
    };
    Some(WalRecord {
        pos: base.pos,
        seq: chain[chain.len() - 1].seq,
        kind: RecordKind::Image,
        bytes,
    })
}

/// The edits an [`RecordKind::Edits`] record holds, or `None` if its
/// length is not a whole number of edits or it names an unknown block.
fn decode_edits(bytes: &[u8]) -> Option<Vec<BlockEdit>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    bytes
        .chunks_exact(4)
        .map(|edit| {
            Some(BlockEdit {
                index: u16::from_le_bytes([edit[0], edit[1]]),
                block: Block::from_id(u16::from_le_bytes([edit[2], edit[3]]))?,
            })
        })
        .collect()
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
    pub fn append(&self, pos: ChunkPos, bytes: impl Into<Arc<[u8]>>) -> u64 {
        let bytes = bytes.into();
        self.with(|wal| wal.append(pos, bytes))
    }

    /// See [`DeltaWal::append_edits`].
    pub fn append_edits(&self, pos: ChunkPos, after: u64, edits: &[BlockEdit]) -> Option<u64> {
        self.with(|wal| wal.append_edits(pos, after, edits))
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
        assert_eq!(*winner.bytes, [2]);
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
        assert_eq!(*replay[0].bytes, [2]);
    }

    #[test]
    fn reroot_shares_the_flushed_bytes_and_replays_nothing() {
        let mut wal = DeltaWal::new(1);
        let image = wal.append(pos(0, 0), vec![1]);
        let root: Arc<[u8]> = Arc::from(vec![7]);
        assert_eq!(wal.reroot(pos(0, 0), Arc::clone(&root)), Some(image));
        assert_eq!(wal.latest_seq(pos(0, 0)), Some(image));
        assert!(Arc::ptr_eq(&wal.records(0)[0].bytes, &root));
        assert!(!wal.covers(pos(0, 0)));
        assert!(wal.replay_shard(0).is_empty());
        assert!(wal.delta(0).is_none());
        assert_eq!((wal.appended(), wal.truncated()), (1, 1));
        assert_eq!(wal.reroot(pos(1, 0), root), None, "no chain to re-root");
        assert!(wal.release_root(pos(0, 0)));
        assert!(wal.is_empty());
    }

    #[test]
    fn a_root_with_edits_replays_and_is_not_released() {
        let mut wal = DeltaWal::new(1);
        let seq = wal.append(pos(0, 0), vec![1]);
        wal.reroot(pos(0, 0), Arc::from(vec![7]));
        let edits = wal.append_edits(pos(0, 0), seq, &[]).unwrap();
        assert!(wal.covers(pos(0, 0)));
        assert!(!wal.release_root(pos(0, 0)));
        let replay = wal.replay_shard(0);
        assert_eq!(replay.len(), 1);
        assert_eq!((replay[0].seq, replay[0].kind), (edits, RecordKind::Image));
        assert_eq!(*replay[0].bytes, [7]);
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
