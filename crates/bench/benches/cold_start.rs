//! Cold-start benchmark: what the tuning corpus + k-NN retrieval buy a
//! task that has never executed.
//!
//! Two measurements land in `BENCH_cold_start.json`:
//!
//! * **Cold suggestion throughput** — first-suggestion rate across a
//!   fleet of cold tasks, with and without retrieval. Without a corpus,
//!   the first suggestion assembles the meta ensemble (base-surrogate
//!   fits and weights); with retrieval, burn-in suggestions come straight
//!   from the k-NN index and the ensemble build is skipped. Acceptance:
//!   retrieval lifts cold suggestions/sec by ≥ 3×.
//! * **Iterations to beat the manual default** (Figure-2 style) — a
//!   production-scale fleet (`OTUNE_FIG2_TASKS`, default 400) of cold
//!   tasks, each tuned until its feasible incumbent beats the manual
//!   default configuration, averaged over `OTUNE_SEEDS` repetitions.
//!   Acceptance: retrieval campaigns need strictly fewer iterations in
//!   the mean.
//!
//! `OTUNE_BENCH_QUICK=1` shrinks both parts for CI smoke runs;
//! `OTUNE_RESULTS_DIR` moves the output.

use otune_bench::{mean, n_fig2_tasks, n_seeds, results_dir, Table};
use otune_bo::{within_constraints, Observation};
use otune_core::{OnlineTuner, TunerOptions};
use otune_meta::{
    CorpusRecord, TaskRecord, TuningCorpus, DEFAULT_MAX_DISTANCE, DEFAULT_RETRIEVAL_K,
};
use otune_space::{ConfigSpace, Configuration, Parameter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Base tasks whose surrogate fits dominate the no-retrieval cold path.
const N_BASES: usize = 8;
/// Runhistory length of each base task.
const BASE_OBS: usize = 150;
/// Historical tasks that seed the Figure-2 corpus.
const SEED_TASKS: usize = 32;
/// Tuning iterations per cold task in the Figure-2 part.
const FIG2_BUDGET: usize = 8;

fn toy_space() -> ConfigSpace {
    ConfigSpace::new(vec![
        Parameter::float("alpha", 0.1, 8.0, 1.0),
        Parameter::int("cores", 1, 64, 8),
    ])
}

/// Per-task workload weight: the optimum shifts smoothly with it.
fn weight(task: usize) -> f64 {
    1.0 + (task % 17) as f64 * 0.2
}

fn toy_eval(w: f64, c: &Configuration) -> (f64, f64) {
    let a = c[0].as_f64();
    let n = c[1].as_int().unwrap() as f64;
    (w * 300.0 / (a * n) + 20.0 / a + 5.0, n * (1.0 + 0.3 * a))
}

/// Meta-features that reflect the workload weight, so k-NN distance in
/// feature space tracks similarity of the underlying response surface.
fn features(w: f64) -> Vec<f64> {
    vec![w, w * w, 1.0 / w]
}

// ---------------------------------------------------------------------
// Part 1: cold suggestion throughput.
// ---------------------------------------------------------------------

/// Synthetic base-task runhistories (the expensive meta-knowledge a
/// no-retrieval cold task must digest before its first suggestion).
fn base_records(space: &ConfigSpace) -> Vec<TaskRecord> {
    (0..N_BASES)
        .map(|b| {
            let mut rng = StdRng::seed_from_u64(100 + b as u64);
            let observations = (0..BASE_OBS)
                .map(|_| {
                    let config = space.sample(&mut rng);
                    let (runtime, resource) = toy_eval(weight(b), &config);
                    Observation {
                        failed: false,
                        objective: (runtime * resource).sqrt(),
                        runtime,
                        resource,
                        context: vec![],
                        config,
                    }
                })
                .collect();
            TaskRecord {
                task_id: format!("base-{b}"),
                meta_features: features(weight(b)),
                observations,
            }
        })
        .collect()
}

/// A corpus mirroring the base runhistories.
fn base_corpus(bases: &[TaskRecord]) -> TuningCorpus {
    let mut corpus = TuningCorpus::in_memory();
    for base in bases {
        for obs in base.observations.iter().take(25) {
            corpus
                .append(CorpusRecord {
                    task_id: base.task_id.clone(),
                    meta_features: base.meta_features.clone(),
                    config: obs.config.clone(),
                    objective: obs.objective,
                    runtime: obs.runtime,
                    resource: obs.resource,
                    failed: false,
                })
                .expect("in-memory append");
        }
    }
    corpus
}

/// First-suggestion rate across `n_tasks` cold tasks (suggestions/sec).
///
/// Each task is a brand-new standalone tuner with private meta caches —
/// the genuine cold-start position of a task that has never executed and
/// has no warm fleet state behind it. Without retrieval, the first
/// suggestion assembles the full meta ensemble (refitting every base
/// surrogate); with retrieval, the timed section is the k-NN corpus
/// query plus the suggestion it feeds, and the ensemble build is
/// deferred past burn-in.
fn cold_suggest_rate(n_tasks: usize, bases: &[TaskRecord], corpus: Option<&TuningCorpus>) -> f64 {
    let space = toy_space();
    let index = corpus.map(|c| c.index_for(features(1.0).len()));
    let mut elapsed = Duration::ZERO;
    for t in 0..n_tasks {
        let mut options = TunerOptions {
            budget: 2,
            n_init: 2,
            enable_meta: true,
            base_tasks: bases.to_vec(),
            seed: 4242,
            ..TunerOptions::default()
        };
        // Re-runs of workloads the fleet has seen: every query lands on
        // one of the base weights, so retrieval always has a neighbor.
        let query = features(weight(t % N_BASES));
        let start = Instant::now();
        if let Some(index) = &index {
            options.retrieval_configs = index
                .bootstrap(&space, &query, DEFAULT_RETRIEVAL_K, DEFAULT_MAX_DISTANCE)
                .expect("corpus neighbors within threshold");
        }
        let mut tuner = OnlineTuner::new(space.clone(), options);
        let cfg = tuner.suggest(&[]).expect("protocol");
        elapsed += start.elapsed();
        std::hint::black_box(cfg);
    }
    n_tasks as f64 / elapsed.as_secs_f64()
}

// ---------------------------------------------------------------------
// Part 2: Figure-2-style iterations to beat the manual default.
// ---------------------------------------------------------------------

/// Build a corpus by tuning `SEED_TASKS` historical tasks to completion.
fn seed_corpus(space: &ConfigSpace, rep: u64) -> TuningCorpus {
    let mut corpus = TuningCorpus::in_memory();
    for t in 0..SEED_TASKS {
        let w = weight(t);
        let mut tuner = OnlineTuner::new(
            space.clone(),
            TunerOptions {
                budget: FIG2_BUDGET,
                seed: rep * 1000 + t as u64,
                ..TunerOptions::default()
            },
        );
        for _ in 0..FIG2_BUDGET {
            let cfg = tuner.suggest(&[]).expect("protocol");
            let (rt, r) = toy_eval(w, &cfg);
            corpus
                .append(CorpusRecord {
                    task_id: format!("seed-{t}"),
                    meta_features: features(w),
                    config: cfg.clone(),
                    objective: (rt * r).sqrt(),
                    runtime: rt,
                    resource: r,
                    failed: false,
                })
                .expect("in-memory append");
            tuner.observe(cfg, rt, r, &[]).expect("pending");
        }
    }
    corpus
}

/// Tune one cold task and return the first iteration (1-based) whose run
/// is feasible and beats the manual default objective; `FIG2_BUDGET + 1`
/// when the budget expires first.
fn iters_to_beat_manual(
    space: &ConfigSpace,
    task: usize,
    rep: u64,
    retrieval_configs: Vec<Configuration>,
) -> usize {
    // Cold fleets see workloads near — not at — the historical ones.
    let w = weight(task) + 0.05;
    let default_cfg = space.default_configuration();
    let (manual_rt, manual_res) = toy_eval(w, &default_cfg);
    let manual_obj = (manual_rt * manual_res).sqrt();
    let t_max = 2.0 * manual_rt;
    let mut tuner = OnlineTuner::new(
        space.clone(),
        TunerOptions {
            budget: FIG2_BUDGET,
            t_max: Some(t_max),
            seed: rep * 7777 + task as u64,
            retrieval_configs,
            ..TunerOptions::default()
        },
    );
    for i in 1..=FIG2_BUDGET {
        let cfg = tuner.suggest(&[]).expect("protocol");
        let (rt, r) = toy_eval(w, &cfg);
        tuner.observe(cfg, rt, r, &[]).expect("pending");
        if within_constraints(rt, r, Some(t_max), None) && (rt * r).sqrt() < manual_obj {
            return i;
        }
    }
    FIG2_BUDGET + 1
}

#[derive(Serialize)]
struct CurvePoint {
    iteration: usize,
    frac_beating_manual_cold: f64,
    frac_beating_manual_retrieval: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    note: &'static str,
    n_cold_tasks_throughput: usize,
    suggestions_per_s_cold: f64,
    suggestions_per_s_retrieval: f64,
    cold_speedup: f64,
    fig2_n_tasks: usize,
    fig2_seeds: u64,
    fig2_budget: usize,
    mean_iters_to_beat_manual_cold: f64,
    mean_iters_to_beat_manual_retrieval: f64,
    mean_iters_by_seed_cold: BTreeMap<String, f64>,
    mean_iters_by_seed_retrieval: BTreeMap<String, f64>,
    curve: Vec<CurvePoint>,
}

fn main() {
    let quick = std::env::var("OTUNE_BENCH_QUICK").is_ok_and(|v| v != "0");
    let space = toy_space();

    // --- Part 1: cold suggestion throughput. ---
    let n_cold = if quick { 50 } else { 200 };
    let bases = base_records(&space);
    let corpus = base_corpus(&bases);
    let rate_cold = cold_suggest_rate(n_cold, &bases, None);
    let rate_retrieval = cold_suggest_rate(n_cold, &bases, Some(&corpus));
    let speedup = rate_retrieval / rate_cold;
    let mut table = Table::new(
        "Cold start — first-suggestion throughput",
        &["arm", "tasks", "suggest/s"],
    );
    table.row(vec![
        "cold".into(),
        n_cold.to_string(),
        format!("{rate_cold:.1}"),
    ]);
    table.row(vec![
        "retrieval".into(),
        n_cold.to_string(),
        format!("{rate_retrieval:.1}"),
    ]);
    table.print();
    println!("cold-suggestion speedup: {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "retrieval lifts cold suggestions/sec only {speedup:.2}x \
         (cold {rate_cold:.1}/s, retrieval {rate_retrieval:.1}/s); need >= 3x"
    );

    // --- Part 2: iterations to beat the manual default. ---
    let fig2_tasks = if quick { 60 } else { n_fig2_tasks() };
    let seeds = n_seeds();
    let mut iters_cold: Vec<f64> = Vec::new();
    let mut iters_retrieval: Vec<f64> = Vec::new();
    let mut by_seed_cold = BTreeMap::new();
    let mut by_seed_retrieval = BTreeMap::new();
    // (iteration index - 1) -> count of tasks that first beat manual there.
    let mut hist_cold = [0usize; FIG2_BUDGET + 1];
    let mut hist_retrieval = [0usize; FIG2_BUDGET + 1];
    for rep in 1..=seeds {
        let corpus = seed_corpus(&space, rep);
        let index = corpus.index_for(features(1.0).len());
        let (mut rep_cold, mut rep_retrieval) = (Vec::new(), Vec::new());
        for task in 0..fig2_tasks {
            let cold = iters_to_beat_manual(&space, task, rep, Vec::new());
            let bootstrap = index
                .bootstrap(
                    &space,
                    &features(weight(task) + 0.05),
                    DEFAULT_RETRIEVAL_K,
                    DEFAULT_MAX_DISTANCE,
                )
                .unwrap_or_default();
            let retr = iters_to_beat_manual(&space, task, rep, bootstrap);
            hist_cold[cold - 1] += 1;
            hist_retrieval[retr - 1] += 1;
            rep_cold.push(cold as f64);
            rep_retrieval.push(retr as f64);
        }
        by_seed_cold.insert(format!("seed-{rep}"), mean(&rep_cold));
        by_seed_retrieval.insert(format!("seed-{rep}"), mean(&rep_retrieval));
        iters_cold.extend(rep_cold);
        iters_retrieval.extend(rep_retrieval);
    }
    let mean_cold = mean(&iters_cold);
    let mean_retrieval = mean(&iters_retrieval);

    let n_runs = iters_cold.len() as f64;
    let mut curve = Vec::new();
    let (mut cum_cold, mut cum_retrieval) = (0usize, 0usize);
    let mut table = Table::new(
        "Cold start — fraction of tasks beating the manual default",
        &["iteration", "cold", "retrieval"],
    );
    for i in 1..=FIG2_BUDGET {
        cum_cold += hist_cold[i - 1];
        cum_retrieval += hist_retrieval[i - 1];
        let point = CurvePoint {
            iteration: i,
            frac_beating_manual_cold: cum_cold as f64 / n_runs,
            frac_beating_manual_retrieval: cum_retrieval as f64 / n_runs,
        };
        table.row(vec![
            i.to_string(),
            format!("{:.3}", point.frac_beating_manual_cold),
            format!("{:.3}", point.frac_beating_manual_retrieval),
        ]);
        curve.push(point);
    }
    table.print();
    println!(
        "mean iterations to beat manual: cold {mean_cold:.2}, retrieval {mean_retrieval:.2} \
         ({fig2_tasks} task(s) x {seeds} seed(s))"
    );
    assert!(
        mean_retrieval < mean_cold,
        "retrieval does not beat the manual default in strictly fewer iterations \
         (cold {mean_cold:.2}, retrieval {mean_retrieval:.2})"
    );

    let out = results_dir().join("BENCH_cold_start.json");
    let doc = Report {
        bench: "cold_start",
        quick,
        note: "part 1 times the first suggestion of cold fleet tasks: without \
               retrieval the meta ensemble is assembled before the initial \
               design, with retrieval the k-NN bootstrap replaces burn-in and \
               the ensemble build is deferred past it. part 2 tunes cold tasks \
               whose optimum shifts smoothly with a workload weight reflected \
               in the meta-features; iterations-to-beat-manual counts the \
               first feasible run under the manual default objective \
               (budget+1 when the budget expires first)",
        n_cold_tasks_throughput: n_cold,
        suggestions_per_s_cold: rate_cold,
        suggestions_per_s_retrieval: rate_retrieval,
        cold_speedup: speedup,
        fig2_n_tasks: fig2_tasks,
        fig2_seeds: seeds,
        fig2_budget: FIG2_BUDGET,
        mean_iters_to_beat_manual_cold: mean_cold,
        mean_iters_to_beat_manual_retrieval: mean_retrieval,
        mean_iters_by_seed_cold: by_seed_cold,
        mean_iters_by_seed_retrieval: by_seed_retrieval,
        curve,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("results dir is writable");
    println!("json: {}", out.display());
}
