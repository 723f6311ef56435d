//! Real-CPU benchmark of Servo's speculative execution unit, for one
//! looping construct and for `sc_offload`'s 200-construct fleet, and of the
//! full game-loop tick for the three systems under a construct-heavy
//! workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use servo_bench::{build_system, ExperimentWorld, SystemKind};
use servo_core::{SpeculationConfig, SpeculativeScBackend};
use servo_faas::{FaasPlatform, FunctionConfig};
use servo_redstone::{generators, Construct};
use servo_server::ScBackend;
use servo_simkit::SimRng;
use servo_types::{ConstructId, MemoryMb, SimTime, Tick};
use servo_workload::{BehaviorKind, PlayerFleet};

fn bench_resolve(c: &mut Criterion) {
    c.bench_function("speculative_resolve_per_tick", |b| {
        let platform = FaasPlatform::new(
            FunctionConfig::aws_like(MemoryMb::new(2048)),
            SimRng::seed(1),
        );
        let mut backend = SpeculativeScBackend::new(SpeculationConfig::default(), platform);
        let mut construct = Construct::new(generators::dense_circuit(64));
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            backend.resolve(
                ConstructId::new(0),
                &mut construct,
                Tick(tick),
                SimTime::from_millis(tick * 50),
            )
        });
    });
}

/// One tick of resolves over `sc_offload`'s fleet: 200 constructs of 64
/// blocks, loop detection off, so every construct is served from its
/// speculative sequence or re-invokes.
fn bench_resolve_fleet(c: &mut Criterion) {
    c.bench_function("speculative_resolve_200sc_no_loops_per_tick", |b| {
        let platform = FaasPlatform::new(
            FunctionConfig::aws_like(MemoryMb::new(2048)),
            SimRng::seed(1),
        );
        let config = SpeculationConfig {
            loop_detection: false,
            ..SpeculationConfig::default()
        };
        let mut backend = SpeculativeScBackend::new(config, platform);
        let mut constructs: Vec<Construct> = (0..200)
            .map(|_| Construct::new(generators::dense_circuit(64)))
            .collect();
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            let now = SimTime::from_millis(tick * 50);
            for (i, construct) in constructs.iter_mut().enumerate() {
                backend.resolve(ConstructId::new(i as u64), construct, Tick(tick), now);
            }
        });
    });
}

fn bench_server_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_tick_100sc_50players");
    group.sample_size(20);
    for kind in [
        SystemKind::Servo,
        SystemKind::Opencraft,
        SystemKind::Minecraft,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                let world = ExperimentWorld::flat_sc(100);
                let mut server = build_system(kind, &world, 9);
                let mut fleet =
                    PlayerFleet::new(BehaviorKind::Bounded { radius: 24.0 }, SimRng::seed(10));
                fleet.connect_all(50);
                let tick_budget = server.config().tick_budget();
                b.iter(|| {
                    let events = fleet.tick(server.now(), tick_budget);
                    let positions = fleet.positions();
                    server.run_tick(&positions, &events)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_resolve,
    bench_resolve_fleet,
    bench_server_tick
);
criterion_main!(benches);
