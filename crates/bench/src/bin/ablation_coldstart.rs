//! Ablation: the **serverless platform model** — cold starts, keep-alive,
//! provisioning delay, and saturation queuing — on the hybrid deployment's
//! construct workload under bursty edit storms.
//!
//! Every storm edits one block of every border construct in the same tick,
//! invalidating all in-flight speculation at once: the platform sees a
//! mass re-invocation burst. What happens next depends on platform
//! friction:
//!
//! * with a **short keep-alive**, the warm pool expired during the quiet
//!   gap, so every burst pays a cold start plus the provisioning delay —
//!   constructs fall back to local simulation for the whole round-trip
//!   and tick times collapse toward the zoned baseline;
//! * with the **default keep-alive budget**, containers survive the gap
//!   and bursts run warm — QoS holds, but the platform bills the idle
//!   time the operator paid to keep the pool resident;
//! * with a **container cap + request queue**, burst overflow waits in
//!   FIFO order instead of being rejected, surfacing queue wait in the
//!   invocation latency and `queued`/`peak_queue_depth` stats.
//!
//! The cost/keep-alive frontier — QoS vs billed GB-ms plus warm-idle time
//! — is the headline artefact. The `frictionless` arm is the exact
//! [`servo_bench::hybrid`] workload `ablation_hybrid` runs, and so
//! reproduces its numbers by construction; the
//! `infinite_keepalive` arm spells the frictionless platform out
//! explicitly and must match the default tick-for-tick and cent-for-cent.
//!
//! Writes `results/ablation_coldstart.csv` and the acceptance artefact
//! `BENCH_coldstart.json` at the workspace root.

use servo_bench::artefact::{write_artefact, Object};
use servo_bench::hybrid::{
    border_blueprints, bounded_fleet, drive, EditStream, Seam, Window, CONSTRUCTS, PLAYERS, ZONES,
};
use servo_bench::{emit, scaled_secs};
use servo_core::{HybridDeployment, ServoDeployment};
use servo_faas::PlatformConfig;
use servo_metrics::Table;
use servo_server::cluster::ShardedGameCluster;
use servo_types::{BlockPos, PlayerId, SimDuration};
use servo_workload::PlayerEvent;

/// Border-spanning constructs in the storm arms: local fallback cost is
/// quadratic in the constructs a zone simulates, so 120 per zone is
/// enough that a full fallback tick (every construct waiting on a cold
/// invocation) visibly breaks the 50 ms budget, while merged speculative
/// states keep the same tick comfortably inside it.
const STORM_CONSTRUCTS: usize = 480;
/// Provisioning delay of the frictive arms: what a fresh container pays
/// on top of the function's own cold-start latency.
const PROVISIONING_MS: u64 = 500;

struct ArmResult {
    label: &'static str,
    window: Window,
    invocations: u64,
    cold_start_rate: f64,
    mean_queue_wait_ms: f64,
    peak_queue_depth: usize,
    provisioned: u64,
    expired_containers: u64,
    billed_gb_ms: f64,
    warm_idle_gb_s: f64,
    cost_usd: f64,
    cost_with_idle_usd: f64,
}

/// Runs the shared hybrid workload on `platform`. With `storm_gap_ticks`
/// set, every gap one block event lands on every border construct in the
/// same tick, dropping all available speculation sequences at once.
fn run_arm(
    label: &'static str,
    seed: u64,
    platform: PlatformConfig,
    storm_gap_ticks: Option<u64>,
    warmup: SimDuration,
    measure: SimDuration,
) -> ArmResult {
    let mut hybrid: HybridDeployment = ServoDeployment::builder()
        .seed(seed)
        .view_distance(32)
        .sc_platform(platform)
        .hybrid(ZONES);
    let constructs = if storm_gap_ticks.is_some() {
        STORM_CONSTRUCTS
    } else {
        CONSTRUCTS
    };
    let blueprints = border_blueprints(
        &hybrid.cluster.shard_map().clone(),
        constructs,
        Seam::Centred,
    );
    let storm_targets: Vec<BlockPos> = blueprints
        .iter()
        .map(|b| b.positions()[b.positions().len() / 2])
        .collect();
    for blueprint in blueprints {
        hybrid.cluster.add_construct(blueprint);
    }
    let mut fleet = bounded_fleet(seed, PLAYERS);
    let mut edits = EditStream::new(seed);
    let mut tick_counter = 0u64;
    let mut storm = |_: &mut ShardedGameCluster, events: &mut Vec<(PlayerId, PlayerEvent)>| {
        if let Some(gap) = storm_gap_ticks {
            if tick_counter % gap == gap - 1 {
                events.extend(storm_targets.iter().enumerate().map(|(i, &pos)| {
                    (
                        PlayerId::new((i % PLAYERS) as u64),
                        PlayerEvent::BlockPlaced(pos),
                    )
                }));
            }
        }
        tick_counter += 1;
    };
    let cluster = &mut hybrid.cluster;
    drive(cluster, &mut fleet, &mut edits, warmup, &mut storm);
    cluster.discard_ticks();
    let before = cluster.stats().cross_server_messages;
    drive(cluster, &mut fleet, &mut edits, measure, &mut storm);
    let window = Window::of(cluster, before);
    let stats = hybrid.sc_platform_stats();
    let billing = hybrid.sc_billing_at(hybrid.cluster.now());
    ArmResult {
        label,
        window,
        invocations: stats.invocations,
        cold_start_rate: stats.cold_starts as f64 / stats.invocations.max(1) as f64,
        mean_queue_wait_ms: stats.queue_wait_ms / stats.queued.max(1) as f64,
        peak_queue_depth: stats.peak_queue_depth,
        provisioned: stats.provisioned,
        expired_containers: stats.expired_containers,
        billed_gb_ms: billing.billed_gb_ms(),
        warm_idle_gb_s: billing.warm_idle_gb_seconds(),
        cost_usd: billing.total_cost_usd(),
        cost_with_idle_usd: billing.total_cost_with_idle_usd(),
    }
}

fn arm_json(arm: &ArmResult) -> Object {
    Object::new()
        .fixed("mean_ms", arm.window.mean_ms, 3)
        .fixed("p95_ms", arm.window.p95_ms, 3)
        .fixed("p99_ms", arm.window.p99_ms, 3)
        .display("qos_ok", arm.window.qos_ok)
        .display("invocations", arm.invocations)
        .fixed("cold_start_rate", arm.cold_start_rate, 4)
        .fixed("mean_queue_wait_ms", arm.mean_queue_wait_ms, 3)
        .display("peak_queue_depth", arm.peak_queue_depth)
        .display("provisioned", arm.provisioned)
        .display("expired_containers", arm.expired_containers)
        .fixed("billed_gb_ms", arm.billed_gb_ms, 1)
        .fixed("warm_idle_gb_s", arm.warm_idle_gb_s, 3)
        .fixed("cost_usd", arm.cost_usd, 6)
        .fixed("cost_with_idle_usd", arm.cost_with_idle_usd, 6)
}

fn main() {
    // Floor the windows at SERVO_EXPERIMENT_SCALE=0.3 equivalents: the
    // measure window must cover several 3 s storm cycles or the frontier
    // is unmeasurable (a shorter smoke run would see zero storms).
    let warmup = scaled_secs(10).max(SimDuration::from_secs(3));
    let measure = scaled_secs(20).max(SimDuration::from_secs(6));
    let seed = 13;
    // Burst gaps in ticks (20 Hz): a 3 s storm cadence outlives a 1 s
    // keep-alive budget, an 8 s cadence outlives it even harder.
    let gap_fast = 60;
    let gap_slow = 160;

    let short_keepalive = PlatformConfig::frictionless()
        .with_provisioning_delay(SimDuration::from_millis(PROVISIONING_MS))
        .with_keep_alive(SimDuration::from_secs(1));
    let long_keepalive = PlatformConfig::frictionless()
        .with_provisioning_delay(SimDuration::from_millis(PROVISIONING_MS));
    let queue_capped = short_keepalive
        .with_max_containers(48)
        .with_queue_capacity(512);

    // The frictionless pair: default config vs the same platform spelled
    // out explicitly (zero provisioning, effectively infinite keep-alive).
    let run = |label, platform, storm_gap_ticks| {
        run_arm(label, seed, platform, storm_gap_ticks, warmup, measure)
    };
    let frictionless = run("frictionless", PlatformConfig::frictionless(), None);
    let infinite = run(
        "infinite_keepalive",
        PlatformConfig::frictionless().with_keep_alive(SimDuration::from_secs(1_000_000)),
        None,
    );
    let storm_cold_fast = run("storm3s_keepalive1s", short_keepalive, Some(gap_fast));
    let storm_warm_fast = run("storm3s_keepalive_default", long_keepalive, Some(gap_fast));
    let storm_cold_slow = run("storm8s_keepalive1s", short_keepalive, Some(gap_slow));
    let storm_queue = run("storm3s_queue_capped", queue_capped, Some(gap_fast));

    let arms = [
        &frictionless,
        &infinite,
        &storm_cold_fast,
        &storm_warm_fast,
        &storm_cold_slow,
        &storm_queue,
    ];
    let mut table = Table::new(vec![
        "Arm",
        "mean [ms]",
        "p99 [ms]",
        "QoS ok",
        "cold rate",
        "queue wait [ms]",
        "GB-ms",
        "idle [GB-s]",
        "cost+idle [$]",
    ]);
    for arm in arms {
        table.row(vec![
            arm.label.to_string(),
            format!("{:.1}", arm.window.mean_ms),
            format!("{:.1}", arm.window.p99_ms),
            arm.window.qos_ok.to_string(),
            format!("{:.3}", arm.cold_start_rate),
            format!("{:.1}", arm.mean_queue_wait_ms),
            format!("{:.0}", arm.billed_gb_ms),
            format!("{:.1}", arm.warm_idle_gb_s),
            format!("{:.6}", arm.cost_with_idle_usd),
        ]);
    }
    emit(
        "ablation_coldstart",
        "Ablation: cold starts, keep-alive, and queuing under bursty edit storms",
        &table,
    );

    // The frictionless platform spelled out explicitly must be
    // indistinguishable from the default.
    let matches_default = frictionless.window.mean_ms == infinite.window.mean_ms
        && frictionless.window.p99_ms == infinite.window.p99_ms
        && frictionless.cost_usd == infinite.cost_usd
        && frictionless.cost_with_idle_usd == infinite.cost_with_idle_usd;
    // The frontier: the keep-alive budget converts the storm's QoS
    // violation into qos_ok at measurably higher (idle-inclusive) cost.
    let qos_flip = !storm_cold_fast.window.qos_ok && storm_warm_fast.window.qos_ok;
    let cost_ratio = storm_warm_fast.cost_with_idle_usd / storm_cold_fast.cost_with_idle_usd;
    let cost_ordered = cost_ratio > 1.1;
    let met = matches_default && qos_flip && cost_ordered && frictionless.window.qos_ok;

    let mut arms_json = Object::multiline();
    for arm in arms {
        arms_json = arms_json.object(arm.label, arm_json(arm));
    }
    let json = Object::new()
        .text("experiment", "ablation_coldstart")
        .object(
            "workload",
            Object::new()
                .display("players", PLAYERS)
                .display("border_constructs", CONSTRUCTS)
                .display("storm_constructs", STORM_CONSTRUCTS)
                .display("zones", ZONES)
                .display("storm_gap_fast_ticks", gap_fast)
                .display("storm_gap_slow_ticks", gap_slow)
                .display("provisioning_ms", PROVISIONING_MS),
        )
        .object("arms", arms_json)
        .object(
            "acceptance",
            Object::new()
                .display("matches_default", matches_default)
                .display("qos_flip", qos_flip)
                .fixed("keepalive_cost_ratio", cost_ratio, 3)
                .display("cost_ordered", cost_ordered)
                .display("frictionless_qos_ok", frictionless.window.qos_ok)
                .display("met", met),
        );
    write_artefact("BENCH_coldstart.json", &json);
    println!(
        "Keep-alive frontier: storms every 3 s run at {:.1} ms p99 (QoS {}) with a 1 s budget vs \
         {:.1} ms p99 (QoS {}) with the default budget, at {cost_ratio:.2}x the idle-inclusive cost.",
        storm_cold_fast.window.p99_ms,
        if storm_cold_fast.window.qos_ok { "ok" } else { "violated" },
        storm_warm_fast.window.p99_ms,
        if storm_warm_fast.window.qos_ok { "ok" } else { "violated" },
    );
}
