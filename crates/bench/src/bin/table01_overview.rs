//! Table I: overview of the experiments and where each is reproduced,
//! plus the storage-cache effectiveness summary (raw hit rate vs the
//! effective hit rate that counts slow pre-fetch joins as misses).

use servo_core::{PrefetchPolicy, RemoteTerrainStore, ServoDeployment};
use servo_metrics::{report_table, StatsReport, Table};
use servo_pcg::{DefaultGenerator, TerrainGenerator};
use servo_redstone::generators;
use servo_server::cluster::{border_construct_sites, place_across_east_seam};
use servo_simkit::SimRng;
use servo_storage::{BlobStore, BlobTier, ObjectStore};
use servo_types::{BlockPos, ChunkPos, SimDuration, SimTime};
use servo_workload::{BehaviorKind, PlayerFleet};

fn main() {
    let mut table = Table::new(vec![
        "Experiment",
        "Focus",
        "SC",
        "TG",
        "RS",
        "Players",
        "Behavior",
        "World",
        "Reproduced by",
    ]);
    let rows: Vec<[&str; 9]> = vec![
        [
            "IV-B (Fig. 7)",
            "SC: system scalability",
            "L+S",
            "L",
            "L",
            "10-200",
            "A",
            "flat",
            "fig07a_max_players / fig07b_tick_distribution",
        ],
        [
            "IV-C (Fig. 8, 9)",
            "SC: latency hiding",
            "L+S",
            "L",
            "L",
            "1",
            "-",
            "flat",
            "fig08_speculation_efficiency / fig09_function_latency",
        ],
        [
            "IV-D (Fig. 10, 11)",
            "TG: QoS",
            "-",
            "S",
            "L",
            "5",
            "Sinc",
            "default",
            "fig10_terrain_qos / fig11_memory_scaling",
        ],
        [
            "IV-E (Fig. 12)",
            "TG: system scalability",
            "-",
            "L+S",
            "L+S",
            "up to 50 / 100",
            "S3, S8, R",
            "default",
            "fig12a_terrain_scalability / fig12b_random_behavior",
        ],
        [
            "IV-F (Fig. 13)",
            "RS: perf. variability",
            "-",
            "-",
            "S",
            "8",
            "S3",
            "default",
            "fig13_storage_icdf",
        ],
        [
            "IV-G",
            "SC: function performance",
            "S",
            "-",
            "-",
            "1",
            "-",
            "flat",
            "sec4g_sc_performance",
        ],
        [
            "Fig. 1 / Fig. 3",
            "headline & storage motivation",
            "L+S",
            "L",
            "S",
            "10-200",
            "A",
            "flat",
            "fig01_headline / fig03_storage_latency",
        ],
    ];
    for row in rows {
        table.row(row.iter().map(|s| s.to_string()).collect());
    }
    servo_bench::emit(
        "table01_overview",
        "Table I: Overview of Experiments",
        &table,
    );

    emit_cache_effectiveness();
    emit_hybrid_overview();
    emit_platform_overview();
}

/// The serverless-platform row(s): cold-start rate, queue wait, and the
/// warm-idle share of the (idle-inclusive) bill per platform arm, on one
/// shared construct workload. The frictionless arm is the pre-platform
/// behaviour; the AWS-like arms add provisioning delay, a finite
/// keep-alive, and (in the capped arm) a container cap with a FIFO
/// request queue.
fn emit_platform_overview() {
    let arms: [(&str, servo_faas::PlatformConfig); 3] = [
        ("frictionless", servo_faas::PlatformConfig::frictionless()),
        ("aws-like", servo_faas::PlatformConfig::aws_like()),
        (
            "aws-like, cap 16 + queue",
            servo_faas::PlatformConfig::aws_like()
                .with_max_containers(16)
                .with_queue_capacity(256),
        ),
    ];
    let mut table = Table::new(vec![
        "Platform",
        "invocations",
        "cold-start rate",
        "mean queue wait [ms]",
        "peak queue",
        "warm-idle cost share",
    ]);
    for (label, platform) in arms {
        let mut hybrid = ServoDeployment::builder()
            .seed(2024)
            .view_distance(32)
            .speculation(servo_core::SpeculationConfig {
                loop_detection: false,
                ..servo_core::SpeculationConfig::default()
            })
            .sc_platform(platform)
            .hybrid(4);
        for site in border_construct_sites(hybrid.cluster.shard_map(), 48) {
            hybrid.cluster.add_construct(place_across_east_seam(
                &generators::wire_line(14),
                site,
                6,
            ));
        }
        let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(7));
        fleet.connect_all(24);
        let seconds = servo_bench::scaled_secs(30).as_secs_f64().max(1.0) as u64;
        hybrid.run_with_fleet(&mut fleet, SimDuration::from_secs(seconds));
        let stats = hybrid.sc_platform_stats();
        let billing = hybrid.sc_billing_at(hybrid.cluster.now());
        let idle_share = if billing.total_cost_with_idle_usd() > 0.0 {
            billing.warm_idle_cost_usd() / billing.total_cost_with_idle_usd()
        } else {
            0.0
        };
        table.row(vec![
            label.to_string(),
            stats.invocations.to_string(),
            format!(
                "{:.4}",
                stats.cold_starts as f64 / stats.invocations.max(1) as f64
            ),
            format!("{:.3}", stats.queue_wait_ms / stats.queued.max(1) as f64),
            stats.peak_queue_depth.to_string(),
            format!("{idle_share:.4}"),
        ]);
    }
    servo_bench::emit(
        "table01_platform",
        "Serverless platform model: cold starts, queue wait, and warm-idle cost share per arm",
        &table,
    );
}

/// The hybrid zoned+offloading deployment's row(s): per-zone speculation
/// efficiency and per-zone persistence-cache effectiveness, so the paper
/// tables cover the deployment `ablation_hybrid` measures.
fn emit_hybrid_overview() {
    let zones = 4usize;
    let mut hybrid = ServoDeployment::builder()
        .seed(2024)
        .view_distance(32)
        // Continuously active speculation (as the capacity experiments
        // measure it): loop replay would trivially serve the synthetic
        // wire constructs and leave no efficiency samples to report.
        .speculation(servo_core::SpeculationConfig {
            loop_detection: false,
            ..servo_core::SpeculationConfig::default()
        })
        .hybrid(zones);
    for site in border_construct_sites(hybrid.cluster.shard_map(), 48) {
        hybrid
            .cluster
            .add_construct(place_across_east_seam(&generators::wire_line(14), site, 6));
    }
    // Random behaviour includes terrain edits, so the per-zone persistence
    // pipelines have dirty shards to flush.
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(7));
    fleet.connect_all(24);
    let seconds = servo_bench::scaled_secs(30).as_secs_f64().max(1.0) as u64;
    hybrid.run_with_fleet(&mut fleet, SimDuration::from_secs(seconds));
    hybrid.flush_persistence();

    let mut table = Table::new(vec![
        "Zone",
        "SC efficiency (median)",
        "invocations",
        "cache hit rate",
        "effective hit rate",
        "chunks flushed",
    ]);
    for zone in 0..zones {
        let speculation = hybrid.speculation[zone].stats();
        let cache = hybrid
            .cluster
            .persistence_cache_stats(zone)
            .expect("hybrid zones persist");
        let persistence = hybrid
            .cluster
            .persistence_stats(zone)
            .expect("hybrid zones persist");
        table.row(vec![
            zone.to_string(),
            speculation
                .median_efficiency()
                .map(|e| format!("{e:.4}"))
                .unwrap_or_else(|| "-".to_string()),
            speculation.invocations.to_string(),
            format!("{:.4}", cache.hit_rate()),
            format!("{:.4}", cache.effective_hit_rate()),
            persistence.chunks_flushed.to_string(),
        ]);
    }
    let total = hybrid.speculation_stats_total();
    table.row(vec![
        "all (shared platform)".to_string(),
        total
            .median_efficiency()
            .map(|e| format!("{e:.4}"))
            .unwrap_or_else(|| "-".to_string()),
        hybrid.sc_platform_stats().invocations.to_string(),
        "-".to_string(),
        "-".to_string(),
        hybrid.persistence_stats().chunks_flushed.to_string(),
    ]);
    servo_bench::emit(
        "table01_hybrid",
        "Hybrid zoned+offloading deployment: per-zone speculation and persistence-cache effectiveness",
        &table,
    );

    // The deployment-wide counter dump: every subsystem stats struct
    // renders itself through the shared `StatsReport` trait, so this table
    // (and the replication ablation's) no longer hand-roll per-struct
    // formatting and new counters appear here without touching the bench.
    let cluster_stats = hybrid.cluster.stats();
    let rebalance = hybrid.cluster.rebalance_stats();
    let recovery = hybrid.cluster.recovery_stats();
    let speculation_total = hybrid.speculation_stats_total();
    let platform = hybrid.sc_platform_stats();
    let persistence = hybrid.persistence_stats();
    let reports: [&dyn StatsReport; 6] = [
        &cluster_stats,
        &rebalance,
        &recovery,
        &speculation_total,
        &platform,
        &persistence,
    ];
    servo_bench::emit(
        "table01_stats_report",
        "Unified subsystem counters (via the StatsReport trait)",
        &report_table(&reports),
    );
}

/// A short walking workload against the remote terrain store, reporting
/// both hit-rate views: `hit_rate` counts every pre-fetch join as a hit;
/// `effective_hit_rate` counts joins that still stalled the loop past one
/// simulation step as misses. The gap is the latency the raw rate hides.
fn emit_cache_effectiveness() {
    let generator = DefaultGenerator::new(2024);
    let mut remote = BlobStore::new(BlobTier::Standard, SimRng::seed(21));
    let radius = 24;
    for x in -radius..=radius {
        for z in -radius..=radius {
            let chunk = generator.generate(ChunkPos::new(x, z));
            // Pad each object to the multi-hundred-kilobyte terrain size
            // the paper measures (Figure 3) — run-length encoding shrinks
            // synthetic terrain far below the real on-the-wire regime, and
            // the slow-join asymmetry only appears when a transfer rivals
            // the 50 ms step. Trailing padding is ignored on restore.
            let mut bytes = chunk.to_bytes();
            bytes.resize(bytes.len().max(300_000), 0);
            remote
                .write(&format!("terrain/{x}/{z}"), bytes, SimTime::ZERO)
                .expect("seed write");
        }
    }

    let mut table = Table::new(vec![
        "Pre-fetch margin [blocks]",
        "reads",
        "hit rate",
        "effective hit rate",
        "slow joins",
    ]);
    for margin in [0i32, 48] {
        let mut store = RemoteTerrainStore::new(
            remote.clone(),
            SimRng::seed(22),
            PrefetchPolicy {
                view_distance_blocks: 64,
                prefetch_margin_blocks: margin,
                eviction_margin_blocks: 64,
            },
        );
        // Bound the walk so the player's view never leaves the seeded
        // terrain (radius 24 chunks = 384 blocks, view + margin ~70):
        // beyond that every read is NotFound and the ticks are wasted.
        let on_terrain_ticks = (((radius * 16 - 70) as f64) / 1.5) as u64;
        let walk_ticks =
            ((servo_bench::scaled_secs(120).as_secs_f64() * 20.0) as u64).min(on_terrain_ticks);
        let mut already_needed: std::collections::BTreeSet<ChunkPos> = Default::default();
        for tick in 0..walk_ticks {
            let now = SimTime::from_millis(tick * 50);
            let x = (tick as f64 * 1.5) as i32; // a sprinting player
            let player = [BlockPos::new(x, 4, 0)];
            store.maintain(&player, now);
            // Read every chunk the moment it enters the view distance —
            // exactly when the game loop needs it.
            for chunk in servo_world::required_chunks(&player, 64) {
                if already_needed.insert(chunk) {
                    let _ = store.read(chunk, now);
                }
            }
        }
        let stats = store.stats();
        table.row(vec![
            margin.to_string(),
            stats.total_reads().to_string(),
            format!("{:.4}", stats.hit_rate()),
            format!("{:.4}", stats.effective_hit_rate()),
            stats.slow_prefetch_joins.to_string(),
        ]);
    }
    servo_bench::emit(
        "table01_cache_effectiveness",
        "Storage cache effectiveness: raw vs effective hit rate",
        &table,
    );
}
