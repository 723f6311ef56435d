//! The seeded game-loop workload of the speculation transparency check:
//! a mixed fleet of aperiodic circuits, looping clocks, wire lines and a
//! repeater chain on one `GameServer`, with players breaking construct
//! blocks mid-run. The same workload runs on `SpeculativeScBackend` and on
//! `LocalScBackend::every_tick()`, the construct states are recorded after
//! every tick, and the two runs must agree on all of them.
//!
//! Shared, via `#[path]`, by the core crate's property test
//! (`tests/speculative_transparency.rs`) and the facade's tier-1 case
//! (`tests/cross_properties.rs` at the workspace root).

use servo_core::{SpeculationConfig, SpeculationStats, SpeculativeScBackend};
use servo_faas::{BillingMeter, FaasPlatform, FunctionConfig};
use servo_pcg::FlatGenerator;
use servo_redstone::{generators, Blueprint, CircuitBlock};
use servo_server::{
    GameServer, LocalGenerationBackend, LocalScBackend, ScBackend, ServerConfig, ServerStats,
};
use servo_simkit::SimRng;
use servo_types::{BlockPos, ConstructId, MemoryMb, PlayerId};
use servo_workload::PlayerEvent;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Repeaters in the fleet's chain: more than the 100 steps of one
/// speculative sequence.
const CHAIN_REPEATERS: i32 = 112;

/// A power source feeding a line of repeaters. Its signal moves one
/// repeater a step, so its state changes every step for 112 steps: a
/// sequence from it neither settles nor loops, and each one ends in a
/// tick-lead refresh, with loop detection on or off. It lies on a row of
/// its own (`z = -4`), so a break aimed at another construct, all of which
/// start at the origin, does not cut it short.
fn repeater_chain() -> Blueprint {
    let mut chain = Blueprint::new();
    chain.add(BlockPos::new(0, 0, -4), CircuitBlock::PowerSource);
    for x in 1..=CHAIN_REPEATERS {
        chain.add(BlockPos::new(x, 0, -4), CircuitBlock::Repeater);
    }
    chain
}

/// The construct fleet of one generated workload: a deterministic mix of
/// aperiodic circuits, looping clocks, and wire lines, plus one repeater
/// chain. Most of the mix settles or loops within one sequence, where a
/// state labelled one step off still matches; the chain does not.
fn fleet_blueprints(seed: u64) -> Vec<Blueprint> {
    let mut state = seed ^ 0xb1e0;
    (0..8)
        .map(|_| {
            let r = splitmix(&mut state);
            match r % 3 {
                0 => generators::dense_circuit(24 + (r >> 8) as usize % 40),
                1 => generators::clock(4 + (r >> 8) as usize % 4),
                _ => generators::wire_line(6 + (r >> 8) as usize % 10),
            }
        })
        .chain([repeater_chain()])
        .collect()
}

/// The modification schedule: (tick, construct, block index) triples.
fn modifications(seed: u64, ticks: u64, blueprints: &[Blueprint]) -> Vec<(u64, usize, usize)> {
    let mut state = seed ^ 0x0d1f;
    (0..5)
        .map(|_| {
            let r = splitmix(&mut state);
            let construct = (r % blueprints.len() as u64) as usize;
            let block = ((r >> 16) as usize) % blueprints[construct].positions().len();
            ((r >> 32) % ticks.max(1), construct, block)
        })
        .collect()
}

/// What one run of the workload leaves behind.
pub struct Run {
    /// Every construct's state hash, after every tick.
    pub hashes: Vec<Vec<u64>>,
    /// The server's lifetime counters.
    pub server_stats: ServerStats,
    /// Speculation statistics.
    pub stats: SpeculationStats,
    /// The SC-offload function's billing.
    pub billing: BillingMeter,
}

/// Drives the workload of `seed` for `ticks` ticks on a server whose
/// constructs advance through `backend`.
fn drive(seed: u64, ticks: u64, backend: Box<dyn ScBackend>) -> (Vec<Vec<u64>>, ServerStats) {
    let mut server = GameServer::new(
        ServerConfig::servo_base().with_view_distance(32),
        backend,
        Box::new(LocalGenerationBackend::new(
            Box::new(FlatGenerator::default()),
            8,
        )),
        SimRng::seed(seed ^ 0x5e4e4),
    );
    let blueprints = fleet_blueprints(seed);
    for blueprint in &blueprints {
        server.add_construct(blueprint.clone());
    }
    let schedule = modifications(seed, ticks, &blueprints);
    let positions = vec![BlockPos::new(4, 4, 4)];
    let mut hashes = Vec::new();
    for tick in 0..ticks {
        let events: Vec<(PlayerId, PlayerEvent)> = schedule
            .iter()
            .filter(|(t, _, _)| *t == tick)
            .map(|&(_, construct, block)| {
                let pos = blueprints[construct].positions()[block];
                (PlayerId::new(0), PlayerEvent::BlockBroken(pos))
            })
            .collect();
        server.run_tick(&positions, &events);
        hashes.push(
            (0..blueprints.len())
                .map(|i| {
                    server
                        .construct(ConstructId::new(i as u64))
                        .expect("constructs stay on the server")
                        .state()
                        .hash()
                })
                .collect(),
        );
    }
    (hashes, server.stats())
}

/// The workload on `SpeculativeScBackend` configured by `config`,
/// offloading to a platform whose concurrency limit is `max_concurrency`.
pub fn speculative(
    seed: u64,
    ticks: u64,
    config: SpeculationConfig,
    max_concurrency: Option<usize>,
) -> Run {
    let mut function = FunctionConfig::aws_like(MemoryMb::new(2048));
    function.max_concurrency = max_concurrency;
    let backend =
        SpeculativeScBackend::new(config, FaasPlatform::new(function, SimRng::seed(seed)));
    let handle = backend.handle();
    let (hashes, server_stats) = drive(seed, ticks, Box::new(backend));
    Run {
        hashes,
        server_stats,
        stats: handle.stats(),
        billing: handle.billing(),
    }
}

/// The speculation configurations the contract is checked under: the
/// default, which detects loops and replays them, and the one the
/// `sc_offload` benchmark runs, which does not and refreshes each sequence
/// from its last state a tick lead before it runs out.
pub fn configs() -> [SpeculationConfig; 2] {
    [true, false].map(|loop_detection| SpeculationConfig {
        loop_detection,
        ..SpeculationConfig::default()
    })
}

/// Asserts the transparency contract for one seed under `config`:
/// speculation leaves every construct in the state local stepping leaves
/// it in, after every tick; it genuinely offloaded; and a second run of the
/// seed agrees on every statistic and on billing. Returns the speculative
/// run.
pub fn assert_transparent(
    seed: u64,
    ticks: u64,
    config: SpeculationConfig,
    max_concurrency: Option<usize>,
) -> Run {
    let (reference, _) = drive(seed, ticks, Box::new(LocalScBackend::every_tick()));
    let run = speculative(seed, ticks, config, max_concurrency);
    let detection = config.loop_detection;
    for (tick, (got, want)) in run.hashes.iter().zip(&reference).enumerate() {
        assert_eq!(
            got, want,
            "seed {seed}, loop detection {detection}: construct states diverged at tick {tick}"
        );
    }
    assert_eq!(run.hashes.len(), reference.len());
    assert!(
        run.stats.invocations > 0,
        "seed {seed}, loop detection {detection}: nothing was offloaded"
    );
    assert!(
        run.server_stats.sc_merged + run.server_stats.sc_replayed > 0,
        "seed {seed}, loop detection {detection}: no construct advanced from an offloaded state"
    );
    let again = speculative(seed, ticks, config, max_concurrency);
    assert_eq!(run.stats, again.stats, "seed {seed}: speculation stats");
    assert_eq!(run.billing, again.billing, "seed {seed}: billing");
    assert_eq!(run.server_stats, again.server_stats, "seed {seed}: server");
    run
}
