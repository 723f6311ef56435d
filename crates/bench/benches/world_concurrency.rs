//! Concurrency benchmark matrix for the world layer.
//!
//! Two storage designs run the same tick-shaped actor workload:
//!
//! * **mutex** — the seed's single-map design (one `Mutex` around one
//!   `World`, accessed through its per-block API), the continuity baseline;
//! * **rwlock** — `ShardedWorld` (one `RwLock<HashMap>` per shard).
//!
//! The sharded world sweeps a full matrix: thread count (1/2/4/8) ×
//! read/write mix (100%/90%/50% scans) × key skew (uniform vs zipf-1.1
//! hotspot over the chunk grid, sampled through
//! `servo_workload::KeySkew` so both designs replay byte-identical
//! schedules). Workload shape per operation: a *scan* reads a 32-block
//! chunk-local region (avatar view / construct neighbourhood), an *edit*
//! writes an 8-block column (player build action).
//!
//! Baseline locking model: the single-lock server releases the global lock
//! between individual block calls — what a game loop serving many
//! concurrent actors must do for fairness. The sharded world instead
//! holds one shard lock per batch (`read_chunk` / `set_blocks`), which is
//! the design delta the matrix quantifies.
//!
//! Results land in `BENCH_world_shard.json` at the workspace root: the
//! mutex baseline rows, every matrix cell, the host's core count, and an
//! acceptance block comparing the two designs at the top thread count.
//!
//! Run with `cargo bench -p servo-bench --bench world_concurrency`; set
//! `SERVO_BENCH_FAST=1` (or pass `--fast`) for a smoke-test-sized run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use servo_simkit::SimRng;
use servo_types::{BlockPos, ChunkPos};
use servo_workload::{KeySkew, SkewKind};
use servo_world::{Block, ShardedWorld, World};

/// Side length of the pre-loaded chunk grid.
const GRID_CHUNKS: i32 = 16;

/// Blocks read by one scan operation.
const SCAN_BLOCKS: usize = 32;

/// Blocks written by one edit operation.
const EDIT_BLOCKS: usize = 8;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Scan share of the operation mix, in tenths (10 = read-only).
const MIXES: [u64; 3] = [10, 9, 5];

/// The mix the headline acceptance metrics are read from (90% scans — MVE
/// tick workloads are read-dominated).
const ACCEPT_MIX: u64 = 9;

const SKEWS: [SkewKind; 2] = [SkewKind::Uniform, SkewKind::Zipf { exponent: 1.1 }];

/// The sharded world must beat the global mutex by at least this factor at
/// the top thread count. The win is per-operation efficiency (one lock per
/// batch, not per block), so the floor holds even where the threads
/// time-slice a single core.
const MUTEX_SPEEDUP_TARGET: f64 = 1.5;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pre-generated actor operation: an anchor block inside some chunk.
#[derive(Clone, Copy)]
struct ActorOp {
    /// Anchor position (chunk-interior so the whole scan/edit span stays in
    /// one chunk, as chunk-local game logic does).
    anchor: BlockPos,
    /// Whether this is a scan (read) or an edit (write).
    scan: bool,
}

/// Pre-generates one thread's operation schedule so RNG cost stays out of
/// the measured loop. The *chunk* is drawn from the configured skew through
/// a dedicated `SimRng` sub-stream (deterministic per `(mix, skew,
/// thread)`), the in-chunk coordinates from a splitmix counter — both
/// designs replay the exact same schedule.
fn schedule(thread_id: usize, ops: u64, scan_tenths: u64, skew: SkewKind) -> Vec<ActorOp> {
    let rng = SimRng::seed(0x5eed)
        .substream(&format!("world-bench-{scan_tenths}-{}", skew.label()))
        .substream_indexed("thread", thread_id as u64);
    let mut keys = KeySkew::new(skew, (GRID_CHUNKS * GRID_CHUNKS) as usize, rng);
    let mut state = 0xc0ffee ^ ((thread_id as u64) << 32);
    (0..ops)
        .map(|op| {
            let key = keys.sample() as i32;
            let (cx, cz) = (key % GRID_CHUNKS, key / GRID_CHUNKS);
            let r = splitmix(&mut state);
            let lx = ((r >> 16) % 14) as i32 + 1;
            let lz = ((r >> 24) % 14) as i32 + 1;
            let y = ((r >> 32) % 64) as i32 + 1;
            ActorOp {
                anchor: BlockPos::new(cx * 16 + lx, y, cz * 16 + lz),
                scan: op % 10 < scan_tenths,
            }
        })
        .collect()
}

fn populated_world() -> World {
    let mut world = World::flat(4);
    for cx in 0..GRID_CHUNKS {
        for cz in 0..GRID_CHUNKS {
            world.ensure_chunk_at(ChunkPos::new(cx, cz));
        }
    }
    world
}

/// Block positions touched by a scan: a 32-block vertical span above the
/// anchor (wrapping inside the chunk height is unnecessary: y <= 65 + 32).
fn scan_span(anchor: BlockPos) -> impl Iterator<Item = BlockPos> {
    (0..SCAN_BLOCKS as i32).map(move |dy| BlockPos::new(anchor.x, anchor.y + dy, anchor.z))
}

/// Block positions touched by an edit: an 8-block vertical column above the
/// anchor (chunk-local, like the scan).
fn edit_span(anchor: BlockPos) -> impl Iterator<Item = BlockPos> {
    (0..EDIT_BLOCKS as i32).map(move |dy| BlockPos::new(anchor.x, anchor.y + dy, anchor.z))
}

fn block_ops(schedules: &[Vec<ActorOp>]) -> u64 {
    schedules
        .iter()
        .flatten()
        .map(|op| {
            if op.scan {
                SCAN_BLOCKS as u64
            } else {
                EDIT_BLOCKS as u64
            }
        })
        .sum()
}

/// Runs the actor schedule against the world behind a single global mutex
/// through the seed's per-block API; returns aggregate block operations per
/// second.
fn run_mutex(threads: usize, ops_per_thread: u64, scan_tenths: u64, skew: SkewKind) -> f64 {
    let world = Mutex::new(populated_world());
    let sink = AtomicU64::new(0);
    let schedules: Vec<Vec<ActorOp>> = (0..threads)
        .map(|t| schedule(t, ops_per_thread, scan_tenths, skew))
        .collect();
    let total = block_ops(&schedules);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for ops in &schedules {
            let world = &world;
            let sink = &sink;
            scope.spawn(move || {
                let mut acc = 0u64;
                for op in ops {
                    if op.scan {
                        for pos in scan_span(op.anchor) {
                            // Lock per block call: the single global lock
                            // must be released between calls to keep other
                            // actors live.
                            let guard = world.lock().unwrap();
                            acc ^= guard.block(pos).map(|b| b.id()).unwrap_or(0) as u64;
                        }
                    } else {
                        for pos in edit_span(op.anchor) {
                            let mut guard = world.lock().unwrap();
                            let _ = guard.set_block(pos, Block::Stone);
                        }
                    }
                }
                sink.fetch_xor(acc, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sink.load(Ordering::Relaxed));
    total as f64 / elapsed
}

/// The same actor schedule against a sharded world, using its per-chunk
/// batch accessors; returns aggregate block operations per second.
fn run_sharded(threads: usize, ops_per_thread: u64, scan_tenths: u64, skew: SkewKind) -> f64 {
    let world = ShardedWorld::from(populated_world());
    let sink = AtomicU64::new(0);
    let schedules: Vec<Vec<ActorOp>> = (0..threads)
        .map(|t| schedule(t, ops_per_thread, scan_tenths, skew))
        .collect();
    let total = block_ops(&schedules);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for ops in &schedules {
            let world = &world;
            let sink = &sink;
            scope.spawn(move || {
                let mut acc = 0u64;
                let mut edits: Vec<(BlockPos, Block)> = Vec::with_capacity(EDIT_BLOCKS);
                for op in ops {
                    if op.scan {
                        let anchor = op.anchor;
                        // One shard read lock for the whole chunk-local
                        // scan.
                        let sum = world
                            .read_chunk(ChunkPos::from(anchor), |chunk| {
                                let mut sum = 0u64;
                                for pos in scan_span(anchor) {
                                    let (lx, lz) = (pos.x & 15, pos.z & 15);
                                    sum ^= chunk.local(lx, pos.y, lz).map(|b| b.id()).unwrap_or(0)
                                        as u64;
                                }
                                sum
                            })
                            .unwrap_or(0);
                        acc ^= sum;
                    } else {
                        // One shard write lock for the whole edit.
                        edits.clear();
                        edits.extend(edit_span(op.anchor).map(|p| (p, Block::Stone)));
                        let _ = world.set_blocks(edits.iter().copied());
                    }
                }
                sink.fetch_xor(acc, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sink.load(Ordering::Relaxed));
    total as f64 / elapsed
}

/// One measured matrix cell.
struct Cell {
    threads: usize,
    scan_tenths: u64,
    skew: SkewKind,
    blocks_per_sec: f64,
}

fn main() {
    let fast = std::env::var("SERVO_BENCH_FAST")
        .map(|v| v != "0")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--fast");
    let ops_per_thread: u64 = if fast { 6_000 } else { 40_000 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Warm up allocator and page cache so the first configuration is not
    // penalised.
    run_sharded(1, ops_per_thread / 10, ACCEPT_MIX, SkewKind::Uniform);
    run_mutex(1, ops_per_thread / 10, ACCEPT_MIX, SkewKind::Uniform);

    println!(
        "world_concurrency: {GRID_CHUNKS}x{GRID_CHUNKS} chunks, scans of {SCAN_BLOCKS} blocks, \
         edits of {EDIT_BLOCKS} blocks, {ops_per_thread} actor ops/thread, {cores} cores{}",
        if fast { " (fast mode)" } else { "" }
    );

    // Continuity baseline: the seed's global-mutex world on the headline
    // mix, across the thread counts.
    let mut baseline = Vec::new();
    println!("{:>8} {:>20}", "threads", "mutex blocks/s");
    for &threads in &THREAD_COUNTS {
        let bps = run_mutex(threads, ops_per_thread, ACCEPT_MIX, SkewKind::Uniform);
        println!("{threads:>8} {bps:>20.0}");
        baseline.push((threads, bps));
    }

    // The threads x mix x skew matrix.
    let mut cells: Vec<Cell> = Vec::new();
    println!(
        "{:>8} {:>6} {:>9} {:>20}",
        "threads", "scan%", "skew", "sharded blocks/s"
    );
    for &scan_tenths in &MIXES {
        for &skew in &SKEWS {
            for &threads in &THREAD_COUNTS {
                let bps = run_sharded(threads, ops_per_thread, scan_tenths, skew);
                println!(
                    "{threads:>8} {:>6} {:>9} {bps:>20.0}",
                    scan_tenths * 10,
                    skew.label()
                );
                cells.push(Cell {
                    threads,
                    scan_tenths,
                    skew,
                    blocks_per_sec: bps,
                });
            }
        }
    }

    // Headline metrics (90% scans, uniform).
    let max_threads = *THREAD_COUNTS.last().unwrap();
    let rwlock_at_max = cells
        .iter()
        .find(|c| {
            c.threads == max_threads && c.scan_tenths == ACCEPT_MIX && c.skew == SkewKind::Uniform
        })
        .map(|c| c.blocks_per_sec)
        .expect("matrix cell was measured");
    let mutex_at_max = baseline
        .iter()
        .find(|(t, _)| *t == max_threads)
        .map(|(_, bps)| *bps)
        .unwrap();
    let sharded_vs_mutex = rwlock_at_max / mutex_at_max;
    let met = sharded_vs_mutex >= MUTEX_SPEEDUP_TARGET;

    println!(
        "sharded/mutex @{max_threads}t 90% scans: {sharded_vs_mutex:.2}x \
         (target {MUTEX_SPEEDUP_TARGET}); met: {met}"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"world_concurrency\",\n");
    json.push_str(&format!("  \"grid_chunks\": {GRID_CHUNKS},\n"));
    json.push_str(&format!("  \"scan_blocks\": {SCAN_BLOCKS},\n"));
    json.push_str(&format!("  \"edit_blocks\": {EDIT_BLOCKS},\n"));
    json.push_str(&format!("  \"actor_ops_per_thread\": {ops_per_thread},\n"));
    json.push_str(&format!("  \"fast_mode\": {fast},\n"));
    json.push_str(&format!("  \"hardware\": {{\"cores\": {cores}}},\n"));
    json.push_str("  \"baseline\": [\n");
    for (i, (threads, bps)) in baseline.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"mutex\", \"threads\": {threads}, \"scan_pct\": {}, \"skew\": \"uniform\", \"blocks_per_sec\": {bps:.0}}}{}\n",
            ACCEPT_MIX * 10,
            if i + 1 < baseline.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"rwlock\", \"threads\": {}, \"scan_pct\": {}, \"skew\": \"{}\", \"blocks_per_sec\": {:.0}}}{}\n",
            cell.threads,
            cell.scan_tenths * 10,
            cell.skew.label(),
            cell.blocks_per_sec,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"summary\": {\n");
    json.push_str(&format!(
        "    \"rwlock_blocks_per_sec_at_max\": {rwlock_at_max:.0},\n"
    ));
    json.push_str(&format!(
        "    \"sharded_vs_mutex_speedup_at_max\": {sharded_vs_mutex:.3}\n"
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"acceptance\": {{\"threads\": {max_threads}, \"speedup\": {sharded_vs_mutex:.3}, \
         \"target\": {MUTEX_SPEEDUP_TARGET}, \"met\": {met}}}\n"
    ));
    json.push_str("}\n");
    // `cargo bench` runs with the package directory as CWD; anchor the
    // artifact at the workspace root so it lands in one predictable place.
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the workspace root")
        .join("BENCH_world_shard.json");
    std::fs::write(&out_path, &json).expect("BENCH_world_shard.json must be writable");
    println!("wrote {}", out_path.display());
}
