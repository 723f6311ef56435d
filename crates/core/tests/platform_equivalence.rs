//! Frictionless-platform equivalence: a deployment whose [`PlatformConfig`]
//! has zero provisioning delay, an effectively infinite keep-alive, and no
//! container cap or queue must reproduce the default deployment exactly —
//! tick durations, speculation and platform stats, billing, and persisted
//! world bytes. This is the guarantee that lets the platform model ride
//! along without perturbing any committed baseline.
//!
//! The converse sanity check: a platform *with* friction visibly changes
//! behaviour (provisioning delays surface in latency, short keep-alives
//! expire containers), so the equivalence above is not vacuous.

use std::collections::BTreeMap;

use servo_core::{PersistenceStats, ServoDeployment};
use servo_faas::PlatformConfig;
use servo_simkit::SimRng;
use servo_storage::ObjectStore;
use servo_types::{ChunkPos, SimDuration, SimTime};
use servo_workload::{BehaviorKind, PlayerFleet};

fn random_fleet(players: usize, seed: u64) -> PlayerFleet {
    let mut fleet = PlayerFleet::new(BehaviorKind::Random, SimRng::seed(seed));
    fleet.connect_all(players);
    fleet
}

fn key(pos: ChunkPos) -> String {
    format!("terrain/{}/{}", pos.x, pos.z)
}

/// Runs a deployment for `seconds` with a deterministic fleet and the
/// standard construct mix, then flushes persistence.
fn run(mut deployment: ServoDeployment, seconds: u64) -> ServoDeployment {
    deployment
        .server
        .add_constructs(6, |i| servo_redstone::generators::dense_circuit(32 + i * 7));
    let mut fleet = random_fleet(8, 77);
    deployment.run_with_fleet(&mut fleet, SimDuration::from_secs(seconds));
    deployment.flush_persistence();
    deployment
}

fn persisted_bytes(deployment: &ServoDeployment) -> BTreeMap<String, Vec<u8>> {
    let positions = deployment.server.world().loaded_positions();
    let late = SimTime::from_secs(10_000);
    deployment
        .with_persisted(|remote| {
            positions
                .iter()
                .filter_map(|&pos| {
                    remote
                        .read(&key(pos), late)
                        .ok()
                        .map(|r| (key(pos), r.data))
                })
                .collect()
        })
        .expect("deployment persists")
}

#[test]
fn frictionless_platform_reproduces_default_deployment_exactly() {
    let baseline = run(
        ServoDeployment::builder()
            .seed(57)
            .view_distance(32)
            .build(),
        8,
    );

    // Explicitly spelled-out frictionless platform, including a keep-alive
    // budget far beyond the run length (the "infinite keep-alive" arm):
    // within any finite run it must be indistinguishable from the default.
    let frictionless =
        PlatformConfig::frictionless().with_keep_alive(SimDuration::from_secs(1_000_000));
    let explicit = run(
        ServoDeployment::builder()
            .seed(57)
            .view_distance(32)
            .sc_platform(frictionless)
            .generation_platform(frictionless)
            .build(),
        8,
    );

    assert_eq!(baseline.server.stats(), explicit.server.stats());
    assert_eq!(
        baseline.server.tick_durations(),
        explicit.server.tick_durations()
    );
    assert_eq!(
        baseline.server.world().total_modifications(),
        explicit.server.world().total_modifications()
    );
    assert_eq!(baseline.speculation.stats(), explicit.speculation.stats());
    assert_eq!(
        baseline.speculation.billing(),
        explicit.speculation.billing()
    );
    assert_eq!(
        baseline.speculation.platform_stats(),
        explicit.speculation.platform_stats()
    );
    assert_eq!(baseline.terrain.stats(), explicit.terrain.stats());
    assert_eq!(baseline.terrain.billing(), explicit.terrain.billing());
    // Every counter but `chunks_flushed`: how often a re-dirtied chunk is
    // flushed depends on how far the write-back worker threads got. The
    // persisted bytes below are the deterministic statement of that one.
    let without_flush_count = |deployment: &ServoDeployment| PersistenceStats {
        chunks_flushed: 0,
        ..deployment.persistence_stats()
    };
    assert_eq!(
        without_flush_count(&baseline),
        without_flush_count(&explicit),
        "persistence pipelines diverged"
    );
    let baseline_map = persisted_bytes(&baseline);
    assert!(!baseline_map.is_empty(), "nothing reached blob storage");
    assert_eq!(
        baseline_map,
        persisted_bytes(&explicit),
        "persisted bytes diverged"
    );
    // Frictionless platforms never queue, and their warm-idle meter stays
    // flat, so the with-idle cost equals the billed cost.
    let stats = explicit.speculation.platform_stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.rejected, 0);
    let billing = explicit.speculation.billing();
    assert_eq!(billing.total_cost_with_idle_usd(), billing.total_cost_usd());
}

#[test]
fn platform_friction_visibly_changes_behavior() {
    let baseline = run(
        ServoDeployment::builder()
            .seed(57)
            .view_distance(32)
            .build(),
        8,
    );
    // The generation function sees steady traffic as the fleet explores,
    // with idle gaps between bursts — exactly where a short keep-alive and
    // a provisioning delay bite.
    let frictive = run(
        ServoDeployment::builder()
            .seed(57)
            .view_distance(32)
            .generation_platform(
                PlatformConfig::frictionless()
                    .with_provisioning_delay(SimDuration::from_millis(400))
                    .with_keep_alive(SimDuration::from_millis(200)),
            )
            .build(),
        8,
    );

    let base_stats = baseline.terrain.platform_stats();
    let fric_stats = frictive.terrain.platform_stats();
    assert!(
        fric_stats.invocations > 10,
        "too few generation invocations to observe friction: {fric_stats:?}"
    );
    // A 200ms keep-alive expires containers between generation bursts,
    // forcing repeat cold starts the 120s default never sees...
    assert!(
        fric_stats.expired_containers > 0,
        "short keep-alive never expired a container: {fric_stats:?}"
    );
    assert!(
        fric_stats.cold_starts > base_stats.cold_starts,
        "friction did not add cold starts ({} vs {})",
        fric_stats.cold_starts,
        base_stats.cold_starts
    );
    // ...and the 400ms provisioning delay pushes those cold invocations
    // past the frictionless latencies.
    assert_ne!(
        base_stats, fric_stats,
        "friction left platform stats untouched"
    );
}
