//! Ablation: **dynamic zone rebalancing under hotspot load** — the cost of
//! a static `ShardMap` when players pile into one zone, and what shard
//! migration buys back.
//!
//! The workload is the cluster-level worst case the paper's zoning model
//! cannot answer: every player converges on a handful of chunks that all
//! belong to *one* zone (but different world shards), so one server
//! simulates the whole fleet while its three peers idle. The static arm
//! rides that skew for the whole measurement; the rebalanced arm runs the
//! same cluster with a `RebalancePolicy` that watches per-zone load and
//! per-shard heat and migrates the hot shards apart — quiescing per-zone
//! persistence, transferring chunks and constructs, re-routing avatars —
//! with every migration message charged to both endpoint servers.
//!
//! Both arms share one seed, one fleet walk and one timeline:
//!
//! 1. *settle* — players wander at spawn while terrain provisions;
//! 2. *adapt* — players walk to the hotspot and dwell; the policy (if
//!    any) detects the skew and fires its migration storm here;
//! 3. *measure* — steady-state window whose critical-path p99 the
//!    acceptance compares (`SERVO_EXPERIMENT_SCALE` scales this window);
//! 4. *disperse* — players walk home (handoffs back, lifetime stats only).
//!
//! Writes `results/ablation_rebalance.csv` and the acceptance artefact
//! `BENCH_rebalance.json` (static vs rebalanced p99, migration-storm cost
//! accounting) at the workspace root.

use servo_bench::artefact::{write_artefact, Object};
use servo_bench::hybrid::{bounded_fleet, Window};
use servo_bench::{emit, experiment_scale, scaled_secs};
use servo_metrics::Table;
use servo_redstone::generators;
use servo_server::cluster::{zone_hotspot_sites, RebalanceStats, ShardedGameCluster};
use servo_server::ServerConfig;
use servo_types::{BlockPos, SimDuration, SimTime};
use servo_workload::Hotspot;
use servo_world::{RebalanceConfig, RebalancePolicy};

/// Players converging on the hotspot.
const PLAYERS: usize = 200;
/// Hotspot chunks — all owned by zone 0 initially, each in its own shard,
/// so migration can actually split the load instead of relocating it.
const HOTSPOT_SITES: usize = 4;
/// Constructs pinned inside each hotspot chunk (they migrate with it).
const CONSTRUCTS_PER_SITE: usize = 2;
/// Zones in both arms.
const ZONES: usize = 4;
/// The zone the hotspot initially belongs to.
const HOT_ZONE: usize = 0;
const SEED: u64 = 17;

struct Arm {
    window: Window,
    /// Mean (over measured ticks) of the busiest zone's avatar count —
    /// the skew the policy is supposed to dissolve.
    max_zone_players_mean: f64,
    /// Peak critical-path tick during the adapt window (the migration
    /// storm lands here for the rebalanced arm).
    adapt_peak_ms: f64,
    /// Migrations applied during the adapt window.
    adapt_migrations: u64,
    /// Migrations that landed inside the measured window (expected zero:
    /// the quiesce loop extends adapt until the policy goes quiet).
    measure_migrations: u64,
    rebalance: RebalanceStats,
}

fn hotspot_policy() -> RebalancePolicy {
    RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 20,
        evaluate_every: 10,
        cooldown_ticks: 60,
        trigger_ratio: 1.3,
        min_gap_ms: 1.0,
        max_migrations_per_step: 8,
        smoothing: 0.25,
        ..RebalanceConfig::default()
    })
}

fn run_arm(rebalanced: bool, measure: SimDuration) -> Arm {
    let settle = SimDuration::from_secs(8);
    let adapt = SimDuration::from_secs(10);
    // The adapt window stretches (in whole seconds) until the policy has
    // been quiet for a full second, so no residual migration storm bleeds
    // into the measured steady state.
    let quiesce_budget = SimDuration::from_secs(10);
    let disperse_window = SimDuration::from_secs(4);

    let config = ServerConfig::opencraft().with_view_distance(32);
    let mut cluster = ShardedGameCluster::baseline(config, ZONES, SEED);
    if rebalanced {
        cluster.enable_rebalancing(hotspot_policy());
    }
    let sites = zone_hotspot_sites(cluster.shard_map(), HOT_ZONE, HOTSPOT_SITES);
    for site in &sites {
        for i in 0..CONSTRUCTS_PER_SITE {
            let base = site.min_block() + BlockPos::new(2 + 5 * i as i32, 6, 2 + 5 * i as i32);
            cluster.add_construct(generators::wire_line(6).translated(base));
        }
    }

    let mut fleet = bounded_fleet(SEED, PLAYERS);
    let disperse_at = SimTime::ZERO + settle + adapt + quiesce_budget + measure;
    fleet.set_hotspot(Hotspot {
        targets: Hotspot::chunk_centers(&sites),
        converge_at: SimTime::ZERO + settle,
        disperse_at,
        travel_speed: 24.0,
        dwell_radius: 4.0,
    });

    // Phase 1+2: settle, then converge + adapt (the storm window).
    cluster.run_with_fleet(&mut fleet, settle);
    let adapt_start = cluster.ticks().len();
    cluster.run_with_fleet(&mut fleet, adapt);
    // Quiesce: extend the adapt window until one full second passes with
    // no migrations (bounded by the budget).
    let mut quiesce_spent = SimDuration::ZERO;
    while quiesce_spent < quiesce_budget {
        let before = cluster.rebalance_stats().shard_migrations;
        cluster.run_with_fleet(&mut fleet, SimDuration::from_secs(1));
        quiesce_spent += SimDuration::from_secs(1);
        if cluster.rebalance_stats().shard_migrations == before {
            break;
        }
    }
    let adapt_details = &cluster.ticks()[adapt_start..];
    let adapt_peak_ms = adapt_details
        .iter()
        .map(|d| d.tick.critical_path.as_millis_f64())
        .fold(0.0, f64::max);
    let adapt_migrations: u64 = adapt_details.iter().map(|d| d.shard_migrations).sum();

    // Phase 3: the measured steady state.
    cluster.discard_ticks();
    let messages_before = cluster.stats().cross_server_messages;
    cluster.run_with_fleet(&mut fleet, measure);
    let window = Window::of(&cluster, messages_before);
    let ticks = cluster.ticks().len().max(1);
    let max_zone_players_mean = cluster
        .ticks()
        .iter()
        .map(|d| d.zones.iter().map(|z| z.players).max().unwrap_or(0) as f64)
        .sum::<f64>()
        / ticks as f64;
    let measure_migrations: u64 = cluster.ticks().iter().map(|d| d.shard_migrations).sum();

    // Phase 4: disperse (lifetime stats only) — run up to the scripted
    // dispersal time plus a tail for the walk home.
    let remaining = disperse_at.saturating_since(cluster.now()) + disperse_window;
    cluster.run_with_fleet(&mut fleet, remaining);

    Arm {
        window,
        max_zone_players_mean,
        adapt_peak_ms,
        adapt_migrations,
        measure_migrations,
        rebalance: cluster.rebalance_stats(),
    }
}

fn main() {
    let measure = scaled_secs(20);
    let static_arm = run_arm(false, measure);
    let rebalanced = run_arm(true, measure);
    let p99_improvement = static_arm.window.p99_ms / rebalanced.window.p99_ms.max(1e-9);

    let mut table = Table::new(vec![
        "Cluster",
        "mean tick [ms]",
        "p95 [ms]",
        "p99 [ms]",
        "max-zone players",
        "msgs/tick",
        "QoS ok",
    ]);
    for (label, arm) in [
        ("Static ShardMap (4 zones)", &static_arm),
        ("Rebalanced (4 zones)", &rebalanced),
    ] {
        table.row(vec![
            label.to_string(),
            format!("{:.1}", arm.window.mean_ms),
            format!("{:.1}", arm.window.p95_ms),
            format!("{:.1}", arm.window.p99_ms),
            format!("{:.1}", arm.max_zone_players_mean),
            format!("{:.1}", arm.window.messages_per_tick),
            arm.window.qos_ok.to_string(),
        ]);
    }
    emit(
        "ablation_rebalance",
        "Ablation: dynamic zone rebalancing under hotspot load",
        &table,
    );

    let migrations = rebalanced.rebalance;
    let migrated = migrations.shard_migrations > 0;
    let met = migrated && p99_improvement >= 1.5;
    let window_json = |arm: &Arm| {
        Object::new()
            .fixed("mean_ms", arm.window.mean_ms, 3)
            .fixed("p95_ms", arm.window.p95_ms, 3)
            .fixed("critical_path_p99_ms", arm.window.p99_ms, 3)
            .display("qos_ok", arm.window.qos_ok)
            .fixed("messages_per_tick", arm.window.messages_per_tick, 2)
            .fixed("max_zone_players_mean", arm.max_zone_players_mean, 1)
    };
    let json = Object::new()
        .text("experiment", "ablation_rebalance")
        .object(
            "workload",
            Object::new()
                .display("players", PLAYERS)
                .display("hotspot_sites", HOTSPOT_SITES)
                .display("constructs", HOTSPOT_SITES * CONSTRUCTS_PER_SITE)
                .display("zones", ZONES)
                .fixed("measure_s", measure.as_secs_f64(), 1)
                .fixed("scale", experiment_scale(), 2),
        )
        .object("static", window_json(&static_arm))
        .object(
            "rebalanced",
            window_json(&rebalanced)
                .fixed("adapt_peak_ms", rebalanced.adapt_peak_ms, 3)
                .display("adapt_migrations", rebalanced.adapt_migrations)
                .display("measure_migrations", rebalanced.measure_migrations),
        )
        .object(
            "migration_storm",
            Object::new()
                .display("rebalance_events", migrations.rebalance_events)
                .display("shard_migrations", migrations.shard_migrations)
                .display("chunks_transferred", migrations.chunks_transferred)
                .display("constructs_transferred", migrations.constructs_transferred)
                .display(
                    "staged_dirty_handed_off",
                    migrations.staged_dirty_handed_off,
                )
                .display("migration_messages", migrations.migration_messages),
        )
        .object(
            "acceptance",
            Object::new()
                .fixed("p99_improvement", p99_improvement, 3)
                .fixed("target", 1.5, 1)
                .display("migrations_required", true)
                .display("migrated", migrated)
                .display("met", met),
        );
    write_artefact("BENCH_rebalance.json", &json);
    println!(
        "Hotspot on one zone: static p99 {:.1} ms (QoS {}), rebalanced p99 {:.1} ms (QoS {}) — \
         {p99_improvement:.2}x better after {} shard migrations ({} chunks, {} constructs, \
         {} messages charged; adapt-window peak {:.1} ms).",
        static_arm.window.p99_ms,
        if static_arm.window.qos_ok {
            "ok"
        } else {
            "violated"
        },
        rebalanced.window.p99_ms,
        if rebalanced.window.qos_ok {
            "ok"
        } else {
            "violated"
        },
        migrations.shard_migrations,
        migrations.chunks_transferred,
        migrations.constructs_transferred,
        migrations.migration_messages,
        rebalanced.adapt_peak_ms,
    );
}
