//! Real-CPU benchmark of the simulated-construct engine: steps per second
//! for the construct sizes the paper evaluates (Section IV-G), and the
//! one-off cost of compiling a blueprint into the circuit a step reads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use servo_redstone::{generators, simulate_sequence, Construct};

const SIZES: [usize; 4] = [64, 252, 484, 1000];

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sc_step");
    for blocks in SIZES {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                // Steady state: the circuit is compiled and the construct
                // is past its first steps, as in a running game.
                let mut construct = Construct::new(generators::dense_circuit(blocks));
                construct.step_many(50);
                b.iter(|| construct.step());
            },
        );
    }
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("sc_compile");
    for blocks in SIZES {
        group.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                b.iter_batched(
                    || generators::dense_circuit(blocks),
                    |blueprint| {
                        blueprint.circuit();
                        blueprint
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_simulate_sequence(c: &mut Criterion) {
    let mut group = c.benchmark_group("sc_simulate_100_steps");
    // 64 blocks is the construct size of the `sc_offload` benchmark.
    for blocks in [64usize, 252, 484] {
        group.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                let blueprint = generators::dense_circuit(blocks);
                b.iter_batched(
                    || Construct::new(blueprint.clone()),
                    |mut construct| simulate_sequence(&mut construct, 100),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_step, bench_compile, bench_simulate_sequence);
criterion_main!(benches);
