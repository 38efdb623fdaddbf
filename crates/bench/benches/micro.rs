//! Criterion micro-benchmarks for the building blocks: GP fit/predict
//! scaling, fANOVA, acquisition maximization, simulator throughput, and a
//! full tuner iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use otune_core::{OnlineTuner, Telemetry, TunerOptions};
use otune_forest::Fanova;
use otune_gp::{FeatureKind, GaussianProcess, GpConfig};
use otune_pool::Pool;
use otune_space::{spark_space, ClusterScale};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn training_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen()).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| r.iter().sum::<f64>().sin() * 10.0)
        .collect();
    (x, y)
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp");
    let (env_pool, tm) = (Pool::from_env(), Telemetry::disabled());
    for &n in &[10usize, 30, 100] {
        let (x, y) = training_data(n, 31, 1);
        let kinds = vec![FeatureKind::Numeric; 31];
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| {
                let cfg = GpConfig::default();
                GaussianProcess::fit(kinds.clone(), x.clone(), &y, cfg, &env_pool, &tm).unwrap()
            })
        });
        let cfg = GpConfig::default();
        let gp = GaussianProcess::fit(kinds.clone(), x.clone(), &y, cfg, &env_pool, &tm).unwrap();
        let probe = vec![0.5; 31];
        group.bench_with_input(BenchmarkId::new("predict", n), &n, |b, _| {
            b.iter(|| black_box(gp.predict(black_box(&probe))))
        });

        // The acquisition hot path: hundreds of candidates per iteration.
        let (candidates, _) = training_data(860, 31, 3);
        let flat = candidates.concat();
        let rows = otune_gp::Rows::new(&flat, 31);
        group.bench_with_input(BenchmarkId::new("predict-scalar-loop", n), &n, |b, _| {
            b.iter(|| {
                let out: Vec<(f64, f64)> = candidates
                    .iter()
                    .map(|c| gp.predict(black_box(c)))
                    .collect();
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("predict-batch", n), &n, |b, _| {
            b.iter(|| black_box(gp.predict_batch(black_box(rows))))
        });
        let pool = Pool::new(4);
        group.bench_with_input(BenchmarkId::new("fit-pooled4", n), &n, |b, _| {
            b.iter(|| {
                let cfg = GpConfig::default();
                GaussianProcess::fit(kinds.clone(), x.clone(), &y, cfg, &pool, &tm).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_fanova(c: &mut Criterion) {
    let (x, y) = training_data(100, 30, 2);
    let pool = Pool::from_env();
    c.bench_function("fanova/fit+importance (100x30)", |b| {
        b.iter(|| {
            let f = Fanova::fit(&x, &y, 3, &pool).unwrap();
            black_box(f.importance())
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let space = spark_space(ClusterScale::hibench());
    let cfg = space.default_configuration();
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::TeraSort));
    c.bench_function("simulator/terasort-run", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(job.run(black_box(&cfg), i))
        })
    });
}

fn bench_tuner_iteration(c: &mut Criterion) {
    let space = spark_space(ClusterScale::hibench());
    let job = SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount));
    c.bench_function("tuner/20-iteration-run", |b| {
        b.iter(|| {
            let mut tuner = OnlineTuner::new(
                space.clone(),
                TunerOptions {
                    budget: 20,
                    enable_meta: false,
                    ..TunerOptions::default()
                },
            );
            for t in 0..20 {
                let cfg = tuner.suggest(&[]).unwrap();
                let r = job.run(&cfg, t);
                tuner.observe(cfg, r.runtime_s, r.resource, &[]).unwrap();
            }
            black_box(tuner.best().map(|o| o.objective))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gp, bench_fanova, bench_simulator, bench_tuner_iteration
}
criterion_main!(benches);
