//! Fleet throughput benchmark: suggestions/sec and reports/sec for the
//! multi-task controller at 50/200/1000 tasks.
//!
//! Four arms, every one walking bitwise-identical per-task suggestion
//! traces (asserted):
//!
//! * `tuner-cold` — one tuner per task, private meta caches: every task
//!   refits all base-task surrogates itself.
//! * `tuner-shared` — the same tuners attached to one fleet-wide
//!   [`SharedMetaStore`]: the first task fits each base surrogate, every
//!   other task reuses it.
//! * `fleet-seq` — the controller's batched wave API with 1 shard on a
//!   1-thread pool (the sharding overhead floor).
//! * `fleet-sharded` — batched waves over 8 shards on a 4-thread pool.
//!
//! A fifth arm, `cold-retrieval`, registers every task with pre-known
//! meta-features against a tuning corpus mirroring the base runhistories:
//! burn-in suggestions come from k-NN retrieval (no ensemble build), so
//! its traces intentionally differ from the other arms and are excluded
//! from the identity assert.
//!
//! The acceptance bar: at 200 tasks the shared meta store must lift
//! single-threaded suggestions/sec by ≥ 2× over cold private caches.
//! Results land in `BENCH_fleet_throughput.json` under the results
//! directory. `OTUNE_BENCH_QUICK=1` shrinks the fleet to 50 tasks for CI
//! smoke runs; `OTUNE_RESULTS_DIR` moves the output.

use otune_bench::{results_dir, Table};
use otune_bo::Observation;
use otune_core::fleet::{FleetOptions, FleetReport, FleetRequest};
use otune_core::{DataRepository, OnlineTuneController, OnlineTuner, TaskHandle, TunerOptions};
use otune_meta::{CorpusRecord, SharedMetaStore, TaskRecord, TuningCorpus};
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration, Parameter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Periodic executions per task.
const BUDGET: usize = 5;
/// Initial-design size; iterations past this hit the BO + meta path.
const N_INIT: usize = 2;
/// Base tasks every tuner transfers from.
const N_BASES: usize = 8;
/// Runhistory length of each base task (sets the base-fit cost).
const BASE_OBS: usize = 150;

fn toy_space() -> ConfigSpace {
    ConfigSpace::new(vec![
        Parameter::float("alpha", 0.1, 8.0, 1.0),
        Parameter::int("cores", 1, 64, 8),
    ])
}

/// Deterministic per-task workload.
fn toy_eval(task: usize, c: &Configuration) -> (f64, f64) {
    let a = c[0].as_f64();
    let n = c[1].as_int().unwrap() as f64;
    let w = 1.0 + (task % 17) as f64 * 0.2;
    (w * 300.0 / (a * n) + 20.0 / a + 5.0, n * (1.0 + 0.3 * a))
}

fn task_options(_task: usize, bases: &[TaskRecord]) -> TunerOptions {
    TunerOptions {
        budget: BUDGET,
        n_init: N_INIT,
        enable_meta: true,
        base_tasks: bases.to_vec(),
        // One fleet-wide seed: shared-store entries are keyed by
        // (task, fingerprint, seed), so cross-task sharing requires the
        // fleet to agree on the fit seed. Traces still differ per task —
        // the workloads differ, so histories diverge after the initial
        // design.
        seed: 4242,
        ..TunerOptions::default()
    }
}

/// Synthetic meta-knowledge: completed base-task runhistories whose
/// surrogate fits dominate a cold tuner's first BO suggestion.
fn base_records(space: &ConfigSpace) -> Vec<TaskRecord> {
    (0..N_BASES)
        .map(|b| {
            let mut rng = StdRng::seed_from_u64(100 + b as u64);
            let observations = (0..BASE_OBS)
                .map(|_| {
                    let config = space.sample(&mut rng);
                    let (runtime, resource) = toy_eval(b, &config);
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
                meta_features: vec![b as f64, 1.0, 2.0],
                observations,
            }
        })
        .collect()
}

/// A task's trace as raw bits of the encoded configurations.
type Trace = Vec<Vec<u64>>;

fn bits(space: &ConfigSpace, cfg: &Configuration) -> Vec<u64> {
    space.encode(cfg).iter().map(|v| v.to_bits()).collect()
}

struct ArmResult {
    suggest_s: f64,
    report_s: f64,
    traces: Vec<Trace>,
}

/// Drive `n_tasks` standalone tuners round-robin on one thread, with or
/// without a fleet-wide shared meta store.
fn run_tuners(n_tasks: usize, bases: &[TaskRecord], shared: bool) -> ArmResult {
    let space = toy_space();
    let store = Arc::new(SharedMetaStore::new());
    let mut tuners: Vec<OnlineTuner> = (0..n_tasks)
        .map(|t| {
            let mut tuner = OnlineTuner::new(toy_space(), task_options(t, bases));
            if shared {
                tuner.set_shared_meta(Arc::clone(&store));
            }
            tuner
        })
        .collect();
    let mut traces: Vec<Trace> = vec![Vec::new(); n_tasks];
    let mut suggest_s = Duration::ZERO;
    let mut report_s = Duration::ZERO;
    for _ in 0..BUDGET {
        for (t, tuner) in tuners.iter_mut().enumerate() {
            let start = Instant::now();
            let cfg = tuner.suggest(&[]).expect("protocol");
            suggest_s += start.elapsed();
            traces[t].push(bits(&space, &cfg));
            let (rt, r) = toy_eval(t, &cfg);
            let start = Instant::now();
            tuner.observe(cfg, rt, r, &[]).expect("pending");
            report_s += start.elapsed();
        }
    }
    ArmResult {
        suggest_s: suggest_s.as_secs_f64(),
        report_s: report_s.as_secs_f64(),
        traces,
    }
}

/// A tuning corpus mirroring the base tasks' runhistories, queried by the
/// `cold-retrieval` arm for zero-execution bootstraps.
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

/// Drive `n_tasks` through the controller's batched wave API. With
/// `retrieval`, tasks register with pre-known meta-features against a
/// corpus built from the base records, so burn-in comes from k-NN
/// retrieval instead of low-discrepancy sampling.
fn run_fleet_with(
    n_tasks: usize,
    bases: &[TaskRecord],
    shards: usize,
    threads: usize,
    retrieval: bool,
) -> ArmResult {
    let space = toy_space();
    let mut ctl = OnlineTuneController::with_options(
        Arc::new(DataRepository::new()),
        FleetOptions {
            shards,
            pool: Pool::new(threads),
        },
    );
    if retrieval {
        ctl.set_corpus(base_corpus(bases));
    }
    let handles: Vec<TaskHandle> = (0..n_tasks)
        .map(|t| {
            let task_id = format!("fleet-task-{t}");
            if retrieval {
                ctl.create_task_with_features(
                    &task_id,
                    toy_space(),
                    task_options(t, bases),
                    vec![(t % N_BASES) as f64, 1.0, 2.0],
                )
            } else {
                ctl.create_task(&task_id, toy_space(), task_options(t, bases))
            }
        })
        .collect();
    let mut traces: Vec<Trace> = vec![Vec::new(); n_tasks];
    let mut suggest_s = Duration::ZERO;
    let mut report_s = Duration::ZERO;
    for _ in 0..BUDGET {
        let requests: Vec<FleetRequest> = handles
            .iter()
            .map(|h| FleetRequest {
                handle: h,
                context: &[],
            })
            .collect();
        let start = Instant::now();
        let configs = ctl.request_configs(&requests);
        suggest_s += start.elapsed();
        let reports: Vec<FleetReport> = configs
            .into_iter()
            .enumerate()
            .map(|(t, cfg)| {
                let cfg = cfg.expect("registered task");
                traces[t].push(bits(&space, &cfg));
                let (rt, r) = toy_eval(t, &cfg);
                FleetReport {
                    handle: &handles[t],
                    config: cfg,
                    runtime_s: rt,
                    resource: r,
                    context: &[],
                    meta_features: None,
                }
            })
            .collect();
        let start = Instant::now();
        let results = ctl.report_results(&reports);
        report_s += start.elapsed();
        for res in results {
            res.expect("pending suggestion");
        }
    }
    ArmResult {
        suggest_s: suggest_s.as_secs_f64(),
        report_s: report_s.as_secs_f64(),
        traces,
    }
}

#[derive(Serialize)]
struct Entry {
    arm: &'static str,
    n_tasks: usize,
    shards: usize,
    threads: usize,
    shared_cache: bool,
    suggestions_per_s: f64,
    reports_per_s: f64,
    suggest_total_s: f64,
    report_total_s: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    budget: usize,
    n_bases: usize,
    base_obs: usize,
    quick: bool,
    note: &'static str,
    warm_speedup_at_largest: f64,
    results: Vec<Entry>,
}

fn main() {
    let quick = std::env::var("OTUNE_BENCH_QUICK").is_ok_and(|v| v != "0");
    let fleet_sizes: &[usize] = if quick { &[50] } else { &[50, 200, 1000] };
    let space = toy_space();
    let bases = base_records(&space);

    let mut table = Table::new(
        "Fleet throughput — suggestions/sec and reports/sec",
        &["tasks", "arm", "shards", "threads", "suggest/s", "report/s"],
    );
    let mut entries = Vec::new();
    let mut warm_speedup_at_largest = 0.0;
    for &n_tasks in fleet_sizes {
        let n_calls = (n_tasks * BUDGET) as f64;
        let arms: [(&'static str, usize, usize, bool, ArmResult); 5] = [
            (
                "tuner-cold",
                1,
                1,
                false,
                run_tuners(n_tasks, &bases, false),
            ),
            (
                "tuner-shared",
                1,
                1,
                true,
                run_tuners(n_tasks, &bases, true),
            ),
            (
                "fleet-seq",
                1,
                1,
                true,
                run_fleet_with(n_tasks, &bases, 1, 1, false),
            ),
            (
                "fleet-sharded",
                8,
                4,
                true,
                run_fleet_with(n_tasks, &bases, 8, 4, false),
            ),
            (
                "cold-retrieval",
                1,
                1,
                true,
                run_fleet_with(n_tasks, &bases, 1, 1, true),
            ),
        ];
        // Determinism cross-check: sharing caches and batching waves must
        // not change a single suggestion. The cold-retrieval arm is
        // excluded by design — retrieval replaces its burn-in prefix.
        for (arm, _, _, _, res) in &arms[1..4] {
            assert_eq!(
                res.traces, arms[0].4.traces,
                "arm {arm} changed a task trace at {n_tasks} tasks"
            );
        }
        assert_ne!(
            arms[4].4.traces, arms[0].4.traces,
            "cold-retrieval arm did not engage retrieval at {n_tasks} tasks"
        );
        let cold_rate = n_calls / arms[0].4.suggest_s;
        let warm_rate = n_calls / arms[1].4.suggest_s;
        warm_speedup_at_largest = warm_rate / cold_rate;
        for (arm, shards, threads, shared, res) in arms {
            table.row(vec![
                n_tasks.to_string(),
                arm.to_string(),
                shards.to_string(),
                threads.to_string(),
                format!("{:.1}", n_calls / res.suggest_s),
                format!("{:.1}", n_calls / res.report_s),
            ]);
            entries.push(Entry {
                arm,
                n_tasks,
                shards,
                threads,
                shared_cache: shared,
                suggestions_per_s: n_calls / res.suggest_s,
                reports_per_s: n_calls / res.report_s,
                suggest_total_s: res.suggest_s,
                report_total_s: res.report_s,
            });
        }
        // Acceptance: the shared meta store must at least double
        // single-threaded suggestion throughput at fleet scale (≥ 200
        // tasks), where per-task base refits dominate the cold arm.
        if n_tasks >= 200 {
            assert!(
                warm_speedup_at_largest >= 2.0,
                "shared meta store speedup at {n_tasks} tasks is only \
                 {warm_speedup_at_largest:.2}x (cold {cold_rate:.1}/s, warm {warm_rate:.1}/s)"
            );
        }
    }
    table.print();

    let out = results_dir().join("BENCH_fleet_throughput.json");
    let doc = Report {
        bench: "fleet_throughput",
        budget: BUDGET,
        n_bases: N_BASES,
        base_obs: BASE_OBS,
        quick,
        note: "every arm walks bitwise-identical per-task suggestion traces; \
               tuner-cold refits base surrogates per task, the other arms \
               share one fleet-wide meta store. suggestions/sec counts whole \
               suggest calls (waves for the fleet arms); single-core rates — \
               fleet-sharded additionally fans waves across a 4-thread pool",
        warm_speedup_at_largest,
        results: entries,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("results dir is writable");
    println!("json: {}", out.display());
}
