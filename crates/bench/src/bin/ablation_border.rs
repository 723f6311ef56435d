//! Ablation: **border-traffic minimization** — what the cross-zone seam
//! costs under each border-construct exchange mode, and what the
//! ownership-aware (border-traffic) rebalancing term buys on top.
//!
//! `ablation_hybrid` (BENCH_hybrid.json) establishes the hybrid baseline:
//! 4 zones, 160 border constructs, batched exchange, ~21 msgs/tick. This
//! binary sweeps the remaining axes on the same workload
//! ([`servo_bench::hybrid`]):
//!
//! * **exchange mode** — per-construct (classic), batched (one bundle per
//!   (owner, neighbour) pair), and speculative ([`BorderExchange::
//!   Speculative`]): the owner publishes one *handle* per re-invocation
//!   (sequence id, storage location, validity horizon) and neighbours
//!   replay the precomputed sequence from the shared substrate — zero
//!   seam traffic while the sequence stays valid, eager fallback when
//!   nothing is published;
//! * **construct count** (40 vs 160) and **zones** (2 vs 4);
//! * **ownership-aware migration** — constructs placed with the majority
//!   of their footprint across the seam ([`Seam::Weighted`]), measured
//!   with the border-traffic rebalance term off vs on: migrating each
//!   construct to its majority zone unifies seam ownership and collapses
//!   the bundled exchange pairs.
//!
//! Writes `results/ablation_border.csv` and the acceptance artefact
//! `BENCH_border.json` at the workspace root.

use servo_bench::artefact::{write_artefact, Object};
use servo_bench::hybrid::{
    border_blueprints, bounded_fleet, drive, EditStream,
    Seam::{self, Centred, Weighted},
    Window, CONSTRUCTS, CONSTRUCT_WIRES, PLAYERS, ZONES,
};
use servo_bench::{emit, scaled_secs};
use servo_core::{HybridDeployment, ServoDeployment};
use servo_metrics::Table;
use servo_server::BorderExchange::{self, Batched, PerConstruct, Speculative};
use servo_types::SimDuration;
use servo_world::{RebalanceConfig, RebalancePolicy};

/// A shard-term-inert policy whose border-traffic term evaluates every
/// five ticks after a short warmup — migrations all land inside the
/// warm-up window, so the measure window sees only their effect.
fn traffic_policy() -> RebalancePolicy {
    RebalancePolicy::new(RebalanceConfig {
        warmup_ticks: 20,
        evaluate_every: 5,
        cooldown_ticks: 1_000_000,
        trigger_ratio: 1e9,
        max_migrations_per_step: 8,
        border_traffic: true,
        ..RebalanceConfig::default()
    })
}

struct BorderRun {
    arm: Window,
    construct_exchanges: u64,
    batched_bundles: u64,
    speculation_handles: u64,
    speculative_replays: u64,
    construct_migrations: u64,
    median_efficiency: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_arm(
    seed: u64,
    zones: usize,
    constructs: usize,
    exchange: BorderExchange,
    seam: Seam,
    policy: Option<RebalancePolicy>,
    warmup: SimDuration,
    measure: SimDuration,
) -> BorderRun {
    let mut hybrid: HybridDeployment = ServoDeployment::builder()
        .seed(seed)
        .view_distance(32)
        .border_exchange(exchange)
        .hybrid(zones);
    if let Some(policy) = policy {
        hybrid.enable_rebalancing(policy);
    }
    for blueprint in border_blueprints(&hybrid.cluster.shard_map().clone(), constructs, seam) {
        hybrid.cluster.add_construct(blueprint);
    }
    let mut fleet = bounded_fleet(seed, PLAYERS);
    let mut edits = EditStream::new(seed);
    let cluster = &mut hybrid.cluster;
    drive(cluster, &mut fleet, &mut edits, warmup, |_, _| {});
    cluster.discard_ticks();
    let before = cluster.stats();
    drive(cluster, &mut fleet, &mut edits, measure, |_, _| {});
    let after = cluster.stats();
    BorderRun {
        arm: Window::of(cluster, before.cross_server_messages),
        construct_exchanges: after.construct_exchanges - before.construct_exchanges,
        batched_bundles: after.batched_bundles - before.batched_bundles,
        speculation_handles: after.speculation_handles - before.speculation_handles,
        speculative_replays: after.speculative_replays - before.speculative_replays,
        construct_migrations: hybrid.cluster.rebalance_stats().construct_migrations,
        median_efficiency: hybrid
            .speculation_stats_total()
            .median_efficiency()
            .unwrap_or(0.0),
    }
}

fn main() {
    let warmup = scaled_secs(10);
    let measure = scaled_secs(20);
    let seed = 13;

    let run = |zones, constructs, exchange, seam, policy| {
        run_arm(
            seed, zones, constructs, exchange, seam, policy, warmup, measure,
        )
    };

    // Exchange-mode sweep on the headline 4-zone workload.
    let per_construct = run(ZONES, CONSTRUCTS, PerConstruct, Centred, None);
    let batched = run(ZONES, CONSTRUCTS, Batched, Centred, None);
    let speculative = run(ZONES, CONSTRUCTS, Speculative, Centred, None);
    // Construct-count and zone-count corners of the sweep.
    let batched_40 = run(ZONES, 40, Batched, Centred, None);
    let speculative_40 = run(ZONES, 40, Speculative, Centred, None);
    let speculative_z2 = run(2, CONSTRUCTS, Speculative, Centred, None);
    // Ownership-aware migration: weighted placement, batched exchange,
    // border-traffic term off vs on.
    let traffic_off = run(ZONES, CONSTRUCTS, Batched, Weighted, None);
    let traffic_on = run(ZONES, CONSTRUCTS, Batched, Weighted, Some(traffic_policy()));

    let mut table = Table::new(vec![
        "Arm",
        "mean tick [ms]",
        "p99 [ms]",
        "msgs/tick",
        "bundles",
        "handles",
        "replays",
        "QoS ok",
    ]);
    for (label, run) in [
        ("Per-construct (160c, 4z)", &per_construct),
        ("Batched (160c, 4z)", &batched),
        ("Speculative (160c, 4z)", &speculative),
        ("Batched (40c, 4z)", &batched_40),
        ("Speculative (40c, 4z)", &speculative_40),
        ("Speculative (160c, 2z)", &speculative_z2),
        ("Weighted batched, traffic off", &traffic_off),
        ("Weighted batched, traffic on", &traffic_on),
    ] {
        table.row(vec![
            label.to_string(),
            format!("{:.1}", run.arm.mean_ms),
            format!("{:.1}", run.arm.p99_ms),
            format!("{:.1}", run.arm.messages_per_tick),
            run.batched_bundles.to_string(),
            run.speculation_handles.to_string(),
            run.speculative_replays.to_string(),
            run.arm.qos_ok.to_string(),
        ]);
    }
    emit(
        "ablation_border",
        "Ablation: border exchange mode x construct count x zones, plus traffic-driven migration",
        &table,
    );

    let reduction_vs_batched = batched.arm.messages_per_tick / speculative.arm.messages_per_tick;
    let traffic_reduction = traffic_off.arm.messages_per_tick / traffic_on.arm.messages_per_tick;
    let p99_no_worse = speculative.arm.p99_ms <= batched.arm.p99_ms;
    let met = reduction_vs_batched >= 2.0
        && speculative.arm.qos_ok
        && p99_no_worse
        && traffic_on.construct_migrations > 0
        && traffic_on.arm.messages_per_tick < traffic_off.arm.messages_per_tick;

    let arm_json = |run: &BorderRun| {
        Object::new()
            .fixed("mean_ms", run.arm.mean_ms, 3)
            .fixed("p95_ms", run.arm.p95_ms, 3)
            .fixed("p99_ms", run.arm.p99_ms, 3)
            .display("qos_ok", run.arm.qos_ok)
            .fixed("messages_per_tick", run.arm.messages_per_tick, 2)
            .display("construct_exchanges", run.construct_exchanges)
            .display("batched_bundles", run.batched_bundles)
            .display("speculation_handles", run.speculation_handles)
            .display("speculative_replays", run.speculative_replays)
            .display("construct_migrations", run.construct_migrations)
            .fixed("median_speculation_efficiency", run.median_efficiency, 4)
    };
    let json = Object::new()
        .text("experiment", "ablation_border")
        .object(
            "workload",
            Object::new()
                .display("players", PLAYERS)
                .display("border_constructs", CONSTRUCTS)
                .display("zones", ZONES)
                .display("wire_blocks", CONSTRUCT_WIRES),
        )
        .object("per_construct", arm_json(&per_construct))
        .object("batched", arm_json(&batched))
        .object("speculative", arm_json(&speculative))
        .object("batched_40", arm_json(&batched_40))
        .object("speculative_40", arm_json(&speculative_40))
        .object("speculative_2_zones", arm_json(&speculative_z2))
        .object("traffic_off", arm_json(&traffic_off))
        .object("traffic_on", arm_json(&traffic_on))
        .object(
            "acceptance",
            Object::new()
                .fixed("reduction_vs_batched", reduction_vs_batched, 3)
                .fixed("required_reduction", 2.0, 1)
                .display("speculative_qos_ok", speculative.arm.qos_ok)
                .display("speculative_p99_no_worse_than_batched", p99_no_worse)
                .display("traffic_migrations", traffic_on.construct_migrations)
                .fixed("traffic_reduction", traffic_reduction, 3)
                .display("met", met),
        );
    write_artefact("BENCH_border.json", &json);
    println!(
        "Speculative exchange cuts the seam from {:.1} to {:.1} msgs/tick ({reduction_vs_batched:.2}x) \
         on {CONSTRUCTS} border constructs at {ZONES} zones; traffic-driven migration of {} constructs \
         cuts the weighted batched seam {traffic_reduction:.2}x further (QoS {}).",
        batched.arm.messages_per_tick,
        speculative.arm.messages_per_tick,
        traffic_on.construct_migrations,
        if speculative.arm.qos_ok { "satisfied" } else { "violated" },
    );
}
