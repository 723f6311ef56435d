//! Driving a [`PipelinedChunkService`] as a persistence pipeline: the
//! write-back cadence, the completion accounting, and the checkpoint flush —
//! shared by the single-server deployment and every zone of a cluster.

use servo_metrics::StatsReport;
use servo_types::{ChunkPos, SimTime};

use crate::backend::BlobStore;
use crate::service::{ChunkOutcome, ChunkRequest, ChunkService, PipelinedChunkService, Ticket};

/// Counters of one persistence pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistenceStats {
    /// Write-back passes completed by the pipeline.
    pub write_back_passes: u64,
    /// Dirty chunks flushed to remote storage.
    pub chunks_flushed: u64,
    /// Chunks staged into the cache by prefetch arrivals.
    pub prefetch_arrivals: u64,
}

impl PersistenceStats {
    /// Adds `other`'s counters to this one (summing pipelines).
    pub fn absorb(&mut self, other: PersistenceStats) {
        self.write_back_passes += other.write_back_passes;
        self.chunks_flushed += other.chunks_flushed;
        self.prefetch_arrivals += other.prefetch_arrivals;
    }
}

impl StatsReport for PersistenceStats {
    fn section(&self) -> &'static str {
        "persistence"
    }

    fn report(&self) -> Vec<(&'static str, String)> {
        vec![
            ("write_back_passes", self.write_back_passes.to_string()),
            ("chunks_flushed", self.chunks_flushed.to_string()),
            ("prefetch_arrivals", self.prefetch_arrivals.to_string()),
        ]
    }
}

/// A persistence pipeline and the one way it is driven: every `interval`
/// calls of [`WriteBackDriver::tick`] submit a prefetch plus a write-back
/// pass, every call polls the pipeline — which is when the pass executes —
/// and counts what completed, and [`WriteBackDriver::flush`] runs one pass
/// on the spot.
#[derive(Debug)]
pub struct WriteBackDriver {
    /// The driven pipeline. Stage dirty deltas and inspect the remote
    /// store through it; poll it only through the driver, or completions
    /// go uncounted.
    pub service: PipelinedChunkService<BlobStore>,
    interval: u64,
    ticks_since_pass: u64,
    stats: PersistenceStats,
}

impl WriteBackDriver {
    /// Drives `service` with a pass every `interval` ticks (clamped to ≥ 1).
    pub fn new(service: PipelinedChunkService<BlobStore>, interval: u64) -> Self {
        WriteBackDriver {
            service,
            interval: interval.max(1),
            ticks_since_pass: 0,
            stats: PersistenceStats::default(),
        }
    }

    /// Everything the pipeline completed so far.
    pub fn stats(&self) -> PersistenceStats {
        self.stats
    }

    /// Counts chunks written to the pipeline's remote store outside a pass.
    pub fn record_flushed(&mut self, chunks: u64) {
        self.stats.chunks_flushed += chunks;
    }

    /// Restarts the cadence: the next pass is a full interval away.
    pub fn restart_cadence(&mut self) {
        self.ticks_since_pass = 0;
    }

    /// One game tick at virtual time `now`. On the cadence, prefetches the
    /// terrain `needed` returns (not called otherwise) and submits a
    /// write-back pass; always polls, executing what is queued and
    /// collecting what finished.
    pub fn tick<I>(&mut self, now: SimTime, needed: impl FnOnce() -> I)
    where
        I: IntoIterator<Item = ChunkPos>,
    {
        self.ticks_since_pass += 1;
        if self.ticks_since_pass >= self.interval {
            self.ticks_since_pass = 0;
            self.service.submit(ChunkRequest::prefetch(needed()));
            self.service.submit(ChunkRequest::write_back());
        }
        self.poll(now, None);
    }

    /// Submits one write-back pass and polls it home, returning the number
    /// of chunks it wrote.
    pub fn flush(&mut self, now: SimTime) -> u64 {
        let ticket = self.service.submit(ChunkRequest::write_back());
        self.poll(now, Some(ticket))
            .expect("a poll executes every queued pass")
    }

    /// Polls once, folding every completion into the stats. Returns the
    /// chunk count of the write-back pass `awaited`, if it completed.
    fn poll(&mut self, now: SimTime, awaited: Option<Ticket>) -> Option<u64> {
        let mut flushed = None;
        for completion in self.service.poll(now) {
            match completion.outcome {
                ChunkOutcome::WroteBack { chunks } => {
                    self.stats.write_back_passes += 1;
                    self.stats.chunks_flushed += chunks as u64;
                    if awaited == Some(completion.ticket) {
                        flushed = Some(chunks as u64);
                    }
                }
                ChunkOutcome::Loaded { .. } => self.stats.prefetch_arrivals += 1,
                _ => {}
            }
        }
        flushed
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use servo_simkit::SimRng;
    use servo_types::BlockPos;
    use servo_world::{Block, ShardedWorld};

    use super::*;
    use crate::backend::BlobTier;

    fn driver(world: &Arc<ShardedWorld>, interval: u64) -> WriteBackDriver {
        let rng = SimRng::seed(3);
        let remote = BlobStore::new(BlobTier::Standard, rng.substream("blob"));
        let service = PipelinedChunkService::new(remote, rng.substream("disk"), 1)
            .with_world(Arc::clone(world));
        WriteBackDriver::new(service, interval)
    }

    #[test]
    fn flush_writes_the_dirty_chunks_and_counts_the_pass() {
        let world = Arc::new(ShardedWorld::flat(4));
        let mut driver = driver(&world, 20);
        world.ensure_chunk_at(ChunkPos::new(0, 0));
        world.ensure_chunk_at(ChunkPos::new(5, 5));
        world
            .set_block(BlockPos::new(1, 70, 1), Block::Stone)
            .unwrap();
        world
            .set_block(BlockPos::new(81, 70, 81), Block::Stone)
            .unwrap();
        let flushed = driver.flush(SimTime::ZERO);
        assert!(flushed >= 2, "both edited chunks reach storage: {flushed}");
        assert_eq!(driver.stats().write_back_passes, 1);
        assert_eq!(driver.stats().chunks_flushed, flushed);
        assert_eq!(driver.flush(SimTime::ZERO), 0, "nothing left to flush");
    }

    fn no_pass() -> Vec<ChunkPos> {
        unreachable!("off the cadence")
    }

    #[test]
    fn tick_submits_a_pass_only_on_the_cadence() {
        let world = Arc::new(ShardedWorld::flat(4));
        let mut driver = driver(&world, 3);
        let mut asked = 0;
        for _ in 0..2 {
            driver.tick(SimTime::ZERO, no_pass);
        }
        driver.tick(SimTime::ZERO, || {
            asked += 1;
            Vec::new()
        });
        assert_eq!(asked, 1);
        // The third tick's pass ran in that tick's poll; the flush adds one.
        driver.flush(SimTime::ZERO);
        assert_eq!(driver.stats().write_back_passes, 2);
        // Restarting the cadence pushes the next pass a full interval out.
        driver.tick(SimTime::ZERO, no_pass);
        driver.restart_cadence();
        for _ in 0..2 {
            driver.tick(SimTime::ZERO, no_pass);
        }
    }
}
