//! Real-CPU benchmark of procedural chunk generation (the work a terrain
//! generation function performs per invocation, Figure 11).

use criterion::{criterion_group, criterion_main, Criterion};
use servo_pcg::{DefaultGenerator, FlatGenerator, Perlin, TerrainGenerator};
use servo_types::ChunkPos;

fn bench_generators(c: &mut Criterion) {
    let default_gen = DefaultGenerator::new(7);
    let flat_gen = FlatGenerator::default();
    let mut group = c.benchmark_group("chunk_generation");
    group.bench_function("default_world", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i += 1;
            default_gen.generate(ChunkPos::new(i, -i))
        })
    });
    group.bench_function("flat_world", |b| {
        let mut i = 0i32;
        b.iter(|| {
            i += 1;
            flat_gen.generate(ChunkPos::new(i, -i))
        })
    });
    group.finish();
}

fn bench_noise(c: &mut Criterion) {
    let noise = Perlin::new(3);
    c.bench_function("perlin_fbm_sample", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x += 0.37;
            noise.fbm(x, -x * 0.5, 5, 0.004)
        })
    });
}

fn bench_serialization(c: &mut Criterion) {
    let chunk = DefaultGenerator::new(7).generate(ChunkPos::new(3, 3));
    let bytes = chunk.to_bytes();
    let mut group = c.benchmark_group("chunk_serialization");
    group.bench_function("to_bytes", |b| b.iter(|| chunk.to_bytes()));
    group.bench_function("serialized_size", |b| {
        b.iter(|| std::hint::black_box(&chunk).serialized_size())
    });
    group.bench_function("from_bytes", |b| {
        b.iter(|| servo_world::Chunk::from_bytes(&bytes).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_generators, bench_noise, bench_serialization);
criterion_main!(benches);
