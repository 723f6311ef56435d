//! Real-CPU benchmark of the simulated-construct engine: steps per second
//! for the construct sizes the paper evaluates (Section IV-G), the one-off
//! cost of compiling a blueprint into the circuit a step reads, and one
//! offloaded 100-step sequence with and without loop detection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use servo_redstone::{generators, simulate_sequence, simulate_steps, Construct};

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

fn bench_simulate_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("sc_simulate_100_steps_no_loops");
    // Without loop detection: the dense circuit settles three steps in and
    // stops there, while the clock never settles and steps all 100 times,
    // comparing each row with the one before.
    for (name, blueprint) in [
        ("dense_64", generators::dense_circuit(64)),
        ("clock_5", generators::clock(5)),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || Construct::new(blueprint.clone()),
                |mut construct| simulate_steps(&mut construct, 100),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_step,
    bench_compile,
    bench_simulate_sequence,
    bench_simulate_steps
);
criterion_main!(benches);
