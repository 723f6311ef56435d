//! Layer probes: after a traced run, the inputs the workload fed a layer
//! are replayed against that layer's public functions in isolation and
//! each call is timed. A probe reports the median ns per operation over
//! at least [`MIN_CALLS`] operations; a layer the workload fed nothing
//! reports nothing (the metric reads 0).

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use servo::core::ServoConfig;
use servo::faas::FaasPlatform;
use servo::redstone::{simulate_sequence, Construct};
use servo::replication::{HubConfig, ReplicationHub};
use servo::simkit::SimRng;
use servo::storage::{
    chunk_key, BlobStore, BlobTier, CachedChunkStore, ChunkOutcome, ChunkRequest, ChunkService,
    DeltaWal, ObjectStore, PipelinedChunkService, ShardDelta, SharedWal,
};
use servo::types::consts::TICK_BUDGET;
use servo::types::{ChunkPos, SimTime};
use servo::world::{Chunk, ShardedWorld};

use crate::stats::median;
use crate::workloads::ProbeInputs;

/// Operations behind every reported median.
pub const MIN_CALLS: usize = 1_000;

type Metrics = BTreeMap<&'static str, f64>;

/// Times `f` and returns its result with the elapsed ns.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_nanos() as f64)
}

/// How many passes over `items` inputs reach [`MIN_CALLS`] operations.
fn rounds(items: usize) -> usize {
    MIN_CALLS.div_ceil(items.max(1))
}

/// Runs every probe the workload supplied inputs for.
pub fn run(inputs: &ProbeInputs, seed: u64) -> Metrics {
    let mut out = Metrics::new();
    let rng = SimRng::seed(seed).substream("probes");
    redstone_and_faas(inputs, &rng, &mut out);
    if let Some((generator, positions)) = &inputs.terrain {
        let stride = positions.len().div_ceil(MIN_CALLS).max(1);
        let sample: Vec<ChunkPos> = positions.iter().copied().step_by(stride).collect();
        let mut ns = Vec::new();
        for _ in 0..rounds(sample.len()) {
            for &pos in &sample {
                ns.push(timed(|| black_box(generator.generate(pos))).1);
            }
        }
        out.insert("pcg.generate_chunk_ns", median(&ns));
    }
    if !inputs.chunks.is_empty() {
        chunk_codec(&inputs.chunks, &mut out);
        let world = Arc::new(ShardedWorld::new());
        world_insert(&world, &inputs.chunks, &mut out);
        if !inputs.edits.is_empty() {
            let deltas = world_edits(&world, inputs, &mut out);
            if inputs.persistence {
                storage(&world, inputs, &rng, &mut out);
            }
            if let Some((map, interests, cohorts)) = &inputs.replication {
                let mut hub = ReplicationHub::with_config(Arc::clone(map), HubConfig::default());
                for &interest in interests {
                    hub.subscribe(interest);
                }
                replication(&mut hub, *cohorts, &deltas, &mut out);
            }
        }
    }
    out
}

fn redstone_and_faas(inputs: &ProbeInputs, rng: &SimRng, out: &mut Metrics) {
    let defaults = ServoConfig::default();
    let (function, work) = match (&inputs.construct, &inputs.terrain) {
        (Some((blueprint, work)), _) => {
            let mut construct = Construct::new(blueprint.clone());
            let ns: Vec<f64> = (0..MIN_CALLS)
                .map(|_| timed(|| construct.step()).1)
                .collect();
            out.insert("redstone.step_ns", median(&ns));

            let steps = defaults.speculation.simulation_steps;
            let (mut ns, mut loops) = (Vec::new(), 0usize);
            for i in 0..MIN_CALLS {
                // Start every sequence from another phase of the circuit.
                let mut construct = Construct::new(blueprint.clone());
                construct.step_many(i % 37);
                let (outcome, elapsed) = timed(|| simulate_sequence(&mut construct, steps));
                loops += usize::from(outcome.loop_info.is_some());
                ns.push(elapsed);
            }
            out.insert("redstone.simulate_sequence_ns", median(&ns));
            out.insert("redstone.loop_found_frac", loops as f64 / MIN_CALLS as f64);
            (defaults.sc_function, *work)
        }
        (None, Some((generator, _))) => (defaults.generation_function, generator.cost().work_units),
        (None, None) => return,
    };
    // One invocation per simulated tick, as the speculation unit and the
    // terrain backend issue them.
    let mut platform = FaasPlatform::new(function, rng.substream("faas"));
    let ns: Vec<f64> = (0..MIN_CALLS as u64)
        .map(|i| {
            let now = SimTime::ZERO + TICK_BUDGET * i;
            timed(|| black_box(platform.invoke(now, work).is_ok())).1
        })
        .collect();
    out.insert("faas.invoke_ns", median(&ns));
}

fn chunk_codec(chunks: &[Chunk], out: &mut Metrics) {
    let (mut snapshot_ns, mut restore_ns, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds(chunks.len()) {
        for chunk in chunks {
            let (snapshot, elapsed) = timed(|| chunk.snapshot());
            snapshot_ns.push(elapsed);
            bytes.push(snapshot.size_bytes() as f64);
            restore_ns.push(timed(|| black_box(snapshot.restore().is_ok())).1);
        }
    }
    out.insert("world.snapshot_ns", median(&snapshot_ns));
    out.insert("world.snapshot_bytes", median(&bytes));
    out.insert("world.restore_ns", median(&restore_ns));
}

/// Chunks per timed `insert_chunks` call.
const INSERT_BATCH: usize = 16;

fn world_insert(world: &ShardedWorld, chunks: &[Chunk], out: &mut Metrics) {
    let positions: Vec<ChunkPos> = chunks.iter().map(Chunk::pos).collect();
    let mut pool: Vec<Chunk> = chunks.to_vec();
    let mut ns = Vec::new();
    let rounds = rounds(chunks.len());
    for round in 0..rounds {
        while !pool.is_empty() {
            let batch: Vec<Chunk> = pool.drain(..INSERT_BATCH.min(pool.len())).collect();
            let size = batch.len() as f64;
            ns.push(timed(|| world.insert_chunks(batch)).1 / size);
        }
        // Take the chunks back out for the next round; the last round's
        // stay, for the probes that follow.
        if round + 1 < rounds {
            pool = positions
                .iter()
                .filter_map(|&pos| world.remove_chunk(pos))
                .collect();
        }
    }
    out.insert("world.insert_chunk_ns", median(&ns));
}

/// Replays the recorded block writes tick by tick and returns each tick's
/// drained deltas.
fn world_edits(
    world: &ShardedWorld,
    inputs: &ProbeInputs,
    out: &mut Metrics,
) -> Vec<Vec<ShardDelta>> {
    for &(pos, _) in inputs.edits.iter().flatten() {
        world.ensure_chunk_at(ChunkPos::from(pos));
    }
    let (mut set_ns, mut drain_ns, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    for batch in inputs.edits.iter().filter(|b| !b.is_empty()) {
        let (written, elapsed) = timed(|| world.set_blocks(batch.iter().copied()));
        set_ns.push(elapsed / written.unwrap_or(0).max(1) as f64);
        let (drained, elapsed) = timed(|| world.drain_dirty());
        drain_ns.push(elapsed);
        deltas.push(drained);
    }
    out.insert("world.set_block_ns", median(&set_ns));
    out.insert("world.drain_dirty_ns", median(&drain_ns));
    deltas
}

fn storage(world: &Arc<ShardedWorld>, inputs: &ProbeInputs, rng: &SimRng, out: &mut Metrics) {
    // Write-back: stage one tick's deltas, submit a pass, poll it home.
    let mut service = PipelinedChunkService::new(
        BlobStore::new(BlobTier::Standard, rng.substream("blob")),
        rng.substream("disk"),
        1,
    )
    .with_world(Arc::clone(world))
    .with_wal(SharedWal::new(world.shard_count()));
    let mut ns = Vec::new();
    for (tick, batch) in inputs.edits.iter().enumerate() {
        if world.set_blocks(batch.iter().copied()).is_err() {
            continue;
        }
        let deltas = world.drain_dirty();
        let chunks: usize = deltas.iter().map(|d| d.chunks.len()).sum();
        if chunks == 0 {
            continue;
        }
        let now = SimTime::ZERO + TICK_BUDGET * tick as u64;
        let ((), elapsed) = timed(|| {
            service.stage_dirty(deltas);
            let ticket = service.submit(ChunkRequest::write_back());
            loop {
                let done = service.poll(now).iter().any(|c| {
                    c.ticket == ticket && matches!(c.outcome, ChunkOutcome::WroteBack { .. })
                });
                if done {
                    return;
                }
                std::thread::yield_now();
            }
        });
        ns.push(elapsed / chunks as f64);
    }
    out.insert("storage.writeback_ns_per_chunk", median(&ns));
    drop(service);

    // The write-ahead log, on the sample chunks' serialized bytes.
    let encoded: Vec<(ChunkPos, Vec<u8>)> = inputs
        .chunks
        .iter()
        .map(|c| (c.pos(), c.to_bytes()))
        .collect();
    let mut wal = DeltaWal::new(world.shard_count());
    let (mut append_ns, mut replay_ns, mut truncate_ns) = (Vec::new(), Vec::new(), Vec::new());
    let replays_per_round = MIN_CALLS.div_ceil(rounds(encoded.len()) * wal.shard_count());
    for _ in 0..rounds(encoded.len()) {
        let mut latest = Vec::with_capacity(encoded.len());
        for (pos, bytes) in &encoded {
            let bytes = bytes.clone();
            let (seq, elapsed) = timed(|| wal.append(*pos, bytes));
            append_ns.push(elapsed);
            latest.push((*pos, seq));
        }
        for _ in 0..replays_per_round {
            for shard in 0..wal.shard_count() {
                replay_ns.push(timed(|| black_box(wal.replay_shard(shard))).1);
            }
        }
        for (pos, seq) in latest {
            truncate_ns.push(timed(|| wal.truncate(pos, seq)).1);
        }
    }
    out.insert("storage.wal_append_ns", median(&append_ns));
    out.insert("storage.wal_replay_ns", median(&replay_ns));
    out.insert("storage.wal_truncate_ns", median(&truncate_ns));

    // The read cache: the first read of a chunk misses to the remote
    // store, the second hits memory. A fresh cache per round, so every
    // round's first reads miss again.
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    for round in 0..rounds(encoded.len()) as u64 {
        let mut remote = BlobStore::new(BlobTier::Standard, rng.substream_indexed("cache", round));
        for (pos, bytes) in &encoded {
            let _ = remote.write(&chunk_key(*pos), bytes.clone(), SimTime::ZERO);
        }
        let mut cache = CachedChunkStore::new(remote, rng.substream("cache-disk"));
        for (pos, _) in &encoded {
            miss_ns.push(timed(|| black_box(cache.read(*pos, SimTime::ZERO).is_ok())).1);
        }
        for (pos, _) in &encoded {
            hit_ns.push(timed(|| black_box(cache.read(*pos, SimTime::ZERO).is_ok())).1);
        }
    }
    out.insert("storage.read_hit_ns", median(&hit_ns));
    out.insert("storage.read_miss_ns", median(&miss_ns));
}

fn replication(
    hub: &mut ReplicationHub,
    cohorts: u64,
    deltas: &[Vec<ShardDelta>],
    out: &mut Metrics,
) {
    // Dirty every subscriber once and flush the keyframe wave of fresh
    // subscribers with a constant sizer: the workload's warm-up absorbs it
    // too, and the timed flushes below see the steady delta protocol.
    let touched: HashSet<ChunkPos> = deltas
        .iter()
        .flatten()
        .flat_map(|d| d.chunks.iter().copied())
        .collect();
    let sizer = |pos: ChunkPos| touched.contains(&pos).then_some(1u64);
    if let Some(first) = deltas.first() {
        hub.ingest(first);
    }
    for _ in 0..cohorts.max(1) {
        hub.flush(cohorts, sizer);
    }
    let (mut ingest_ns, mut flush_ns) = (Vec::new(), Vec::new());
    for tick in deltas {
        let chunks: usize = tick.iter().map(|d| d.chunks.len()).sum();
        if chunks > 0 {
            ingest_ns.push(timed(|| hub.ingest(tick)).1 / chunks as f64);
        }
        let (frames, elapsed) = timed(|| hub.flush(cohorts, sizer));
        if !frames.is_empty() {
            flush_ns.push(elapsed / frames.len() as f64);
        }
    }
    out.insert("replication.ingest_ns_per_chunk", median(&ingest_ns));
    out.insert("replication.flush_ns_per_frame", median(&flush_ns));
}
