//! Ablation: **client replication at 10^5–10^6 subscribers** — what the
//! interest-managed delta broadcast costs on the 4-zone hybrid workload,
//! and what delta compression buys over naive full-interest resync.
//!
//! Arms, all driven by the shared construct + edit workload of
//! [`servo_bench::hybrid`]:
//!
//! * **control** — no replication attached: the tick is byte-identical to
//!   the pre-replication cluster, giving the p99 floor;
//! * **delta** — `SUBSCRIBERS` (scaled, 10^5 at full scale) clients with
//!   zipf-skewed interest centres over the edit hot-spot and the border
//!   construct sites, flushed in round-robin cohorts: fresh subscribers
//!   get one keyframe, everyone else gets dirty-chunk deltas, slow
//!   cohorts get coalesced diffs; a small fraction of clients retargets
//!   every tick (avatar movement);
//! * **keyframe** — the same subscribers with delta compression disabled
//!   ([`servo_replication::HubConfig::keyframe_only`]): every touched
//!   subscriber re-receives its full loaded interest region per flush —
//!   the naive-resync control the `delta_ratio` headline divides by;
//! * **sweep** — 10x the subscribers (10^6 at full scale) at radius 1,
//!   bounding index memory while proving the fan-out holds QoS;
//! * **mirror equality** — the border-as-subscriber path vs the legacy
//!   mirror on identical seeds must produce *equal* cluster stats,
//!   message for message.
//!
//! Writes `results/ablation_replication.csv` and the acceptance artefact
//! `BENCH_replication.json` at the workspace root.

use servo_bench::artefact::{write_artefact, Object};
use servo_bench::hybrid::{
    border_blueprints, bounded_fleet, drive, EditStream, Seam, Window, CONSTRUCTS, PLAYERS, ZONES,
};
use servo_bench::{emit, experiment_scale, scaled_secs};
use servo_core::{HybridDeployment, ServoDeployment};
use servo_metrics::{report_table, StatsReport, Table};
use servo_replication::{FanoutConfig, HubConfig, Interest, ReplicationConfig, SubscriberId};
use servo_server::cluster::{border_construct_sites, ShardedGameCluster};
use servo_simkit::SimRng;
use servo_types::{ChunkPos, SimDuration};
use servo_workload::KeySkew;
use servo_world::ShardMap;

/// Chebyshev interest radius of the headline arms (a 5x5 chunk view).
const RADIUS: i32 = 2;
/// Round-robin flush cohorts of the headline arms.
const COHORTS: u64 = 8;
/// Zipf exponent of the interest-centre skew.
const ZIPF_EXPONENT: f64 = 1.1;
/// Fraction of subscribers that retargets (moves) per tick.
const RETARGET_FRACTION: f64 = 2e-4;

/// What replication (if any) an arm runs with.
enum Mode {
    Control,
    Replicated {
        subscribers: usize,
        radius: i32,
        cohorts: u64,
        keyframe_only: bool,
    },
}

struct ReplRun {
    window: Window,
    ticks: u64,
    subscribers: u64,
    frames_per_tick: f64,
    bytes_per_tick: f64,
    delta_frames: u64,
    keyframes: u64,
    chunks_per_tick: f64,
    coalesced_chunks: u64,
    retargets: u64,
    fanout_charged_ms: f64,
    stats_dump: Option<Table>,
}

/// Interest-centre universe: the spawn edit hot-spot first (the zipf head,
/// where terrain accumulates modifications all run), then the border
/// construct sites (the tail, kept dirty by the redstone steps).
fn interest_targets(map: &ShardMap) -> Vec<ChunkPos> {
    let mut targets = Vec::new();
    for x in -3..3 {
        for z in -3..3 {
            targets.push(ChunkPos::new(x, z));
        }
    }
    targets.extend(border_construct_sites(map, CONSTRUCTS));
    targets
}

fn run_arm(seed: u64, mode: Mode, warmup: SimDuration, measure: SimDuration) -> ReplRun {
    let mut hybrid: HybridDeployment = ServoDeployment::builder()
        .seed(seed)
        .view_distance(32)
        .hybrid(ZONES);
    let map = hybrid.cluster.shard_map().clone();
    for blueprint in border_blueprints(&map, CONSTRUCTS, Seam::Centred) {
        hybrid.cluster.add_construct(blueprint);
    }

    let targets = interest_targets(&map);
    let mut skew = KeySkew::zipf(
        targets.len(),
        ZIPF_EXPONENT,
        SimRng::seed(seed).substream("interest-skew"),
    );
    let mut clients: Vec<SubscriberId> = Vec::new();
    let mut movers_per_tick = 0usize;
    if let Mode::Replicated {
        subscribers,
        radius,
        cohorts,
        keyframe_only,
    } = mode
    {
        hybrid.cluster.enable_replication(ReplicationConfig {
            hub: HubConfig {
                keyframe_only,
                ..HubConfig::default()
            },
            fanout: FanoutConfig {
                scaler: servo_faas::AutoscalerConfig::elastic(4, 64).with_backlog_per_worker(1024),
                ..FanoutConfig::default()
            },
            cohorts,
            border_via_subscription: false,
        });
        clients = (0..subscribers)
            .map(|_| {
                let center = targets[skew.sample()];
                hybrid
                    .cluster
                    .subscribe_client(Interest::new(center, radius))
                    .expect("replication attached")
            })
            .collect();
        movers_per_tick = ((subscribers as f64) * RETARGET_FRACTION).round() as usize;
    }

    let mut fleet = bounded_fleet(seed, PLAYERS);
    let mut edits = EditStream::new(seed);
    let mut mover_rng = SimRng::seed(seed).substream("movers");
    // Each tick `movers_per_tick` random subscribers retarget (move).
    let mut movers = |cluster: &mut ShardedGameCluster, _: &mut Vec<_>| {
        for _ in 0..movers_per_tick {
            let who = clients[(mover_rng.unit() * clients.len() as f64) as usize % clients.len()];
            cluster.retarget_client(who, targets[skew.sample()]);
        }
    };

    // Warm-up absorbs terrain loading and the initial keyframe wave, so
    // the measure window sees the steady delta protocol.
    let cluster = &mut hybrid.cluster;
    drive(cluster, &mut fleet, &mut edits, warmup, &mut movers);
    cluster.discard_ticks();
    let repl_before = cluster.replication_stats();
    let messages_before = cluster.stats().cross_server_messages;
    let ticks = drive(cluster, &mut fleet, &mut edits, measure, &mut movers) as u64;

    let before = repl_before.unwrap_or_default();
    let after = hybrid.cluster.replication_stats().unwrap_or_default();
    let fanout = hybrid.cluster.fanout_stats();
    let per_tick = |count: u64| count as f64 / ticks.max(1) as f64;
    ReplRun {
        window: Window::of(&hybrid.cluster, messages_before),
        ticks,
        subscribers: clients.len() as u64,
        frames_per_tick: per_tick(after.frames - before.frames),
        bytes_per_tick: per_tick(after.bytes_sent - before.bytes_sent),
        delta_frames: after.delta_frames - before.delta_frames,
        keyframes: after.keyframes - before.keyframes,
        chunks_per_tick: per_tick(after.chunks_delivered - before.chunks_delivered),
        coalesced_chunks: after.coalesced_chunks - before.coalesced_chunks,
        retargets: after.retargets - before.retargets,
        fanout_charged_ms: fanout.as_ref().map_or(0.0, |f| f.charged_ms),
        stats_dump: fanout.map(|fanout| report_table(&[&after as &dyn StatsReport, &fanout])),
    }
}

/// The degeneracy check: the same short run with border mirroring routed
/// through whole-shard subscriptions vs the legacy path. Returns the two
/// message counts and whether the full cluster stats match.
fn mirror_equality(seed: u64) -> (u64, u64, bool) {
    let run = |via_subscription: bool| {
        let mut hybrid: HybridDeployment = ServoDeployment::builder()
            .seed(seed)
            .view_distance(32)
            .hybrid(ZONES);
        if via_subscription {
            hybrid.cluster.enable_replication(ReplicationConfig {
                border_via_subscription: true,
                ..ReplicationConfig::default()
            });
        }
        for blueprint in border_blueprints(&hybrid.cluster.shard_map().clone(), 40, Seam::Centred) {
            hybrid.cluster.add_construct(blueprint);
        }
        let mut fleet = bounded_fleet(seed, 24);
        let mut edits = EditStream::new(seed);
        let window = scaled_secs(8);
        drive(
            &mut hybrid.cluster,
            &mut fleet,
            &mut edits,
            window,
            |_, _| {},
        );
        hybrid
    };
    let legacy = run(false);
    let subscribed = run(true);
    let matches = legacy.cluster.stats() == subscribed.cluster.stats()
        && legacy.cluster.critical_path_durations() == subscribed.cluster.critical_path_durations();
    (
        legacy.cluster.stats().cross_server_messages,
        subscribed.cluster.stats().cross_server_messages,
        matches,
    )
}

fn main() {
    let scale = experiment_scale();
    let warmup = scaled_secs(8);
    let measure = scaled_secs(20);
    let seed = 17;

    let headline_subs = ((100_000.0 * scale).round() as usize).max(1_000);
    let sweep_subs = ((1_000_000.0 * scale).round() as usize).max(10_000);

    let control = run_arm(seed, Mode::Control, warmup, measure);
    let delta = run_arm(
        seed,
        Mode::Replicated {
            subscribers: headline_subs,
            radius: RADIUS,
            cohorts: COHORTS,
            keyframe_only: false,
        },
        warmup,
        measure,
    );
    let keyframe = run_arm(
        seed,
        Mode::Replicated {
            subscribers: headline_subs,
            radius: RADIUS,
            cohorts: COHORTS,
            keyframe_only: true,
        },
        warmup,
        measure,
    );
    let sweep = run_arm(
        seed,
        Mode::Replicated {
            subscribers: sweep_subs,
            radius: 1,
            cohorts: 4 * COHORTS,
            keyframe_only: false,
        },
        scaled_secs(3),
        scaled_secs(5),
    );
    let (mirror_legacy_msgs, mirror_sub_msgs, mirror_match) = mirror_equality(seed);

    let mut table = Table::new(vec![
        "Arm",
        "subscribers",
        "mean tick [ms]",
        "p99 [ms]",
        "frames/tick",
        "KB/tick",
        "keyframes",
        "delta frames",
        "QoS ok",
    ]);
    for (label, run) in [
        ("Control (no replication)", &control),
        ("Delta broadcast", &delta),
        ("Keyframe-only resync", &keyframe),
        ("Sweep 10x, radius 1", &sweep),
    ] {
        table.row(vec![
            label.to_string(),
            run.subscribers.to_string(),
            format!("{:.1}", run.window.mean_ms),
            format!("{:.1}", run.window.p99_ms),
            format!("{:.0}", run.frames_per_tick),
            format!("{:.1}", run.bytes_per_tick / 1024.0),
            run.keyframes.to_string(),
            run.delta_frames.to_string(),
            run.window.qos_ok.to_string(),
        ]);
    }
    emit(
        "ablation_replication",
        "Ablation: interest-managed delta broadcast vs keyframe resync vs no replication",
        &table,
    );
    if let Some(dump) = &delta.stats_dump {
        emit(
            "ablation_replication_stats",
            "Delta arm subsystem counters (via the StatsReport trait)",
            dump,
        );
    }

    let delta_ratio = keyframe.bytes_per_tick / delta.bytes_per_tick.max(1.0);
    let p99_impact_ms = delta.window.p99_ms - control.window.p99_ms;
    let min_subscribers = ((100_000.0 * scale).round() as u64).clamp(1_000, 100_000);
    let met = delta.subscribers >= min_subscribers
        && delta_ratio >= 5.0
        && delta.window.qos_ok
        && delta.delta_frames > 0
        && delta.coalesced_chunks > 0
        && mirror_match;

    let arm_json = |run: &ReplRun| {
        Object::new()
            .display("subscribers", run.subscribers)
            .display("ticks", run.ticks)
            .fixed("mean_ms", run.window.mean_ms, 3)
            .fixed("p95_ms", run.window.p95_ms, 3)
            .fixed("p99_ms", run.window.p99_ms, 3)
            .display("qos_ok", run.window.qos_ok)
            .fixed("frames_per_tick", run.frames_per_tick, 1)
            .fixed("bytes_per_tick", run.bytes_per_tick, 0)
            .display("delta_frames", run.delta_frames)
            .display("keyframes", run.keyframes)
            .fixed("chunks_per_tick", run.chunks_per_tick, 1)
            .display("coalesced_chunks", run.coalesced_chunks)
            .display("retargets", run.retargets)
            .fixed("fanout_charged_ms", run.fanout_charged_ms, 3)
    };
    let json = Object::new()
        .text("experiment", "ablation_replication")
        .object(
            "workload",
            Object::new()
                .display("players", PLAYERS)
                .display("border_constructs", CONSTRUCTS)
                .display("zones", ZONES)
                .display("radius", RADIUS)
                .display("cohorts", COHORTS)
                .display("zipf_exponent", ZIPF_EXPONENT)
                .display("retarget_fraction", RETARGET_FRACTION),
        )
        .object("control", arm_json(&control))
        .object("delta", arm_json(&delta))
        .object("keyframe", arm_json(&keyframe))
        .object("sweep", arm_json(&sweep))
        .object(
            "mirror",
            Object::new()
                .display("legacy_messages", mirror_legacy_msgs)
                .display("subscription_messages", mirror_sub_msgs)
                .display("stats_match", mirror_match),
        )
        .object(
            "acceptance",
            Object::new()
                .display("subscribers", delta.subscribers)
                .display("min_subscribers", min_subscribers)
                .fixed("delta_ratio", delta_ratio, 3)
                .fixed("required_ratio", 5.0, 1)
                .display("qos_ok", delta.window.qos_ok)
                .fixed("p99_impact_ms", p99_impact_ms, 3)
                .display("mirror_messages_match", mirror_match)
                .display("met", met),
        );
    write_artefact("BENCH_replication.json", &json);
    println!(
        "Delta broadcast serves {} subscribers at {:.0} KB/tick ({delta_ratio:.1}x below the \
         keyframe-only resync's {:.0} KB/tick), p99 {:.1} ms vs {:.1} ms control \
         (+{p99_impact_ms:.1} ms); border-as-subscriber {} the legacy mirror.",
        delta.subscribers,
        delta.bytes_per_tick / 1024.0,
        keyframe.bytes_per_tick / 1024.0,
        delta.window.p99_ms,
        control.window.p99_ms,
        if mirror_match {
            "matches"
        } else {
            "DIVERGES from"
        },
    );
}
