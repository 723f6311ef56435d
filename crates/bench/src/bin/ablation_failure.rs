//! Ablation: **zone crash recovery** — kill one zone of a 4-zone
//! persistent cluster mid-run and measure what it costs to survive it.
//!
//! The crashed zone is fenced (its remote store freezes at the crash),
//! its shards are adopted by the three survivors through the migration
//! path — chunk state rebuilt from the dead zone's remote store plus a
//! replay of its write-ahead delta log — and its avatars re-route to the
//! adopters, with every recovery message charged to the bus. Arms vary
//! two knobs:
//!
//! * **WAL on/off** — with the log, staged-but-unflushed deltas survive
//!   the crash (`chunks_lost == 0`); without it, everything staged since
//!   the last write-back pass dies with the zone's memory;
//! * **flush cadence** — the width of that loss window. Without a WAL,
//!   chunks lost grows with the cadence; with one, it stays zero at any
//!   cadence the log covers.
//!
//! Each arm reports the adoption window (recovery ticks, ticks over the
//! 50 ms budget, peak critical-path tick) and whether the cluster's
//! steady state after adoption is back within QoS. Writes
//! `results/ablation_failure.csv` and the acceptance artefact
//! `BENCH_failure.json` at the workspace root.

use servo_bench::artefact::{write_artefact, Object};
use servo_bench::{emit, experiment_scale, scaled_secs};
use servo_metrics::{qos_satisfied_default, Summary, Table};
use servo_redstone::generators;
use servo_server::cluster::{zone_hotspot_sites, ShardedGameCluster};
use servo_server::{PersistenceBinding, RecoveryStats, ServerConfig};
use servo_simkit::SimRng;
use servo_storage::{BlobStore, BlobTier};
use servo_types::{BlockPos, SimDuration};
use servo_workload::{BehaviorKind, PlayerFleet};

/// Players wandering the world when the zone dies.
const PLAYERS: usize = 120;
/// Zones in every arm.
const ZONES: usize = 4;
/// The zone that crashes.
const DEAD_ZONE: usize = 3;
/// Constructs pinned into the dead zone's shards, so its staging always
/// holds freshly dirtied chunks when the crash fires.
const DEAD_ZONE_CONSTRUCTS: usize = 4;
const SEED: u64 = 23;

struct Arm {
    wal: bool,
    cadence: u64,
    recovery: RecoveryStats,
    /// Peak critical-path tick inside the adoption window.
    adoption_peak_ms: f64,
    /// Steady-state p99 after the adoption window closed.
    post_p99_ms: f64,
    /// QoS satisfied over the post-recovery steady state.
    qos_recovered: bool,
}

fn run_arm(wal: bool, cadence: u64) -> Arm {
    let settle = scaled_secs(6);
    let post = scaled_secs(10);

    let config = ServerConfig::opencraft().with_view_distance(32);
    let mut cluster = ShardedGameCluster::baseline(config, ZONES, SEED);
    for zone in 0..ZONES {
        cluster.bind_persistence(
            zone,
            PersistenceBinding::new(
                BlobStore::new(BlobTier::Standard, SimRng::seed(900 + zone as u64)),
                SimRng::seed(950 + zone as u64),
            )
            .write_back_interval(cadence),
        );
        cluster.set_wal_enabled(zone, wal);
    }
    let sites = zone_hotspot_sites(cluster.shard_map(), DEAD_ZONE, DEAD_ZONE_CONSTRUCTS);
    for (i, site) in sites.iter().enumerate() {
        let base = site.min_block() + BlockPos::new(2 + (i as i32 % 3) * 5, 6, 2);
        cluster.add_construct(generators::wire_line(6).translated(base));
    }

    // Random walkers use the Table II action mix — 30% of actions break or
    // place a block, so every zone's staging (the dead one included) holds
    // unflushed dirt when the crash fires mid-cadence.
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(SEED ^ 0x5eed));
    fleet.connect_all(PLAYERS);

    // Settle: terrain provisions, the cadence establishes its rhythm.
    cluster.run_with_fleet(&mut fleet, settle);

    // Crash mid-cadence: half a flush window after the next pass, so the
    // dead zone's staging holds roughly cadence/2 ticks of dirt (plus the
    // construct chunks redirtied every tick).
    let ticks_now = cluster.stats().ticks;
    let crash_tick = ticks_now.div_ceil(cadence) * cadence + cadence + cadence / 2;
    cluster.crash_zone(DEAD_ZONE, crash_tick);
    cluster.discard_ticks();
    let base_tick = ticks_now;

    // Run through the crash, the adoption window, and a steady-state tail.
    let run_ticks = (crash_tick - base_tick) + 40 + post.as_millis() / 50;
    cluster.run_with_fleet(&mut fleet, SimDuration::from_millis(run_ticks * 50));

    let recovery = cluster.recovery_stats();
    assert!(recovery.crashes == 1, "the scheduled crash never fired");
    let details = cluster.ticks();
    let crash_idx = (crash_tick - base_tick) as usize;
    let adoption_end = (crash_idx + recovery.recovery_ticks.max(1) as usize).min(details.len());
    let adoption_peak_ms = details[crash_idx..adoption_end]
        .iter()
        .map(|d| d.tick.critical_path.as_millis_f64())
        .fold(0.0, f64::max);
    let post_durations: Vec<_> = details[adoption_end..]
        .iter()
        .map(|d| d.tick.critical_path)
        .collect();
    let post_summary = Summary::from_durations(&post_durations);
    let qos_recovered = cluster.pending_adoption_count() == 0
        && cluster.shard_map().zone_shards(DEAD_ZONE).is_empty()
        && qos_satisfied_default(&post_durations);

    Arm {
        wal,
        cadence,
        recovery,
        adoption_peak_ms,
        post_p99_ms: post_summary.p99,
        qos_recovered,
    }
}

fn arm_json(arm: &Arm) -> Object {
    Object::new()
        .display("wal", arm.wal)
        .display("cadence_ticks", arm.cadence)
        .display("chunks_lost", arm.recovery.chunks_lost)
        .display("chunks_restored", arm.recovery.chunks_restored)
        .display("chunks_replayed", arm.recovery.chunks_replayed)
        .display("shards_adopted", arm.recovery.shards_adopted)
        .display("constructs_adopted", arm.recovery.constructs_adopted)
        .display("recovery_ticks", arm.recovery.recovery_ticks)
        .display("ticks_over_qos", arm.recovery.ticks_over_qos)
        .display("recovery_messages", arm.recovery.recovery_messages)
        .fixed("adoption_peak_ms", arm.adoption_peak_ms, 3)
        .fixed("post_p99_ms", arm.post_p99_ms, 3)
        .display("qos_recovered", arm.qos_recovered)
}

fn main() {
    let arms = [
        run_arm(true, 10),
        run_arm(true, 30),
        run_arm(false, 10),
        run_arm(false, 30),
        run_arm(false, 60),
    ];

    let mut table = Table::new(vec![
        "Arm",
        "chunks lost",
        "replayed",
        "recovery ticks",
        "adoption peak [ms]",
        "post p99 [ms]",
        "QoS recovered",
    ]);
    for arm in &arms {
        table.row(vec![
            format!(
                "{} @ cadence {}",
                if arm.wal { "WAL" } else { "no WAL" },
                arm.cadence
            ),
            arm.recovery.chunks_lost.to_string(),
            arm.recovery.chunks_replayed.to_string(),
            arm.recovery.recovery_ticks.to_string(),
            format!("{:.1}", arm.adoption_peak_ms),
            format!("{:.1}", arm.post_p99_ms),
            arm.qos_recovered.to_string(),
        ]);
    }
    emit(
        "ablation_failure",
        "Ablation: zone crash recovery (WAL replay vs bounded loss)",
        &table,
    );

    let wal_zero_loss = arms
        .iter()
        .filter(|a| a.wal)
        .all(|a| a.recovery.chunks_lost == 0);
    let loss_without_wal = arms
        .iter()
        .filter(|a| !a.wal)
        .any(|a| a.recovery.chunks_lost > 0);
    let qos_recovered_all = arms.iter().all(|a| a.qos_recovered);
    let adopted_all = arms.iter().all(|a| a.recovery.shards_adopted > 0);
    let met = wal_zero_loss && loss_without_wal && qos_recovered_all && adopted_all;

    let named = [
        ("wal_c10", &arms[0]),
        ("wal_c30", &arms[1]),
        ("nowal_c10", &arms[2]),
        ("nowal_c30", &arms[3]),
        ("nowal_c60", &arms[4]),
    ];
    let mut json = Object::new().text("experiment", "ablation_failure").object(
        "workload",
        Object::new()
            .display("players", PLAYERS)
            .display("zones", ZONES)
            .display("dead_zone", DEAD_ZONE)
            .display("constructs", DEAD_ZONE_CONSTRUCTS)
            .fixed("scale", experiment_scale(), 2),
    );
    for (name, arm) in &named {
        json = json.object(name, arm_json(arm));
    }
    let json = json.object(
        "acceptance",
        Object::new()
            .display("wal_zero_loss", wal_zero_loss)
            .display("loss_without_wal", loss_without_wal)
            .display("qos_recovered", qos_recovered_all)
            .display("met", met),
    );
    write_artefact("BENCH_failure.json", &json);
    for (name, arm) in &named {
        println!(
            "{name}: {} chunks lost ({} replayed), recovery {} ticks \
             ({} over QoS, peak {:.1} ms), post p99 {:.1} ms, recovered {}",
            arm.recovery.chunks_lost,
            arm.recovery.chunks_replayed,
            arm.recovery.recovery_ticks,
            arm.recovery.ticks_over_qos,
            arm.adoption_peak_ms,
            arm.post_p99_ms,
            arm.qos_recovered,
        );
    }
}
