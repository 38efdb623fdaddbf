//! Incremental-maintenance benchmark: rank-one updates vs a full refit.
//!
//! Replays an append-only online trace (one new observation per iteration,
//! exactly the periodic-execution pattern of §3.1) through
//! `ConfigGenerator::suggest` and times the suggest call in a window before
//! each history-size checkpoint. At each checkpoint it then times the
//! surrogate maintenance step alone, at the GP level: the two models a
//! store fitted on the history absorb one appended observation through
//! `GaussianProcess::update` (an O(n²) factor extension), against the
//! baseline of refitting both models from scratch at the same
//! hyperparameters (`GpConfig { optimize_hypers: false, warm_hyper }`, the
//! oracle the incremental path is bitwise-equal to). Results land in
//! `BENCH_refit_latency.json` under the results directory.
//!
//! Scale knobs: `OTUNE_BENCH_QUICK=1` shrinks reps and trace length for CI
//! smoke runs; `OTUNE_RESULTS_DIR` moves the output.

use otune_bench::{mean, percentile, results_dir, Table};
use otune_bo::{surrogate_kinds, Observation, SurrogateStore};
use otune_core::objective::resource_fn_for;
use otune_core::telemetry::SuggestionKind;
use otune_core::{ConfigGenerator, TunerOptions};
use otune_gp::{GaussianProcess, GpConfig, IncrementalPolicy};
use otune_pool::Pool;
use otune_space::{spark_space, ClusterScale, ConfigSpace, Configuration};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Iterations timed per checkpoint: `n-2`, `n-1`, `n` for checkpoint `n`.
const WINDOW: usize = 3;
/// Observations seeding the trace before the first suggest.
const N_SEED: usize = 5;
/// Seed shared by the trace's generator and the timed surrogate fits.
const SEED: u64 = 7;

#[derive(Serialize)]
struct Entry {
    n_obs: usize,
    incremental: bool,
    /// Whole `suggest` call on the online trace (fit + screening + EIC).
    suggest_mean_s: f64,
    suggest_p50_s: f64,
    /// The surrogate maintenance step alone: absorbing one appended
    /// observation into both fitted models at fixed hyperparameters.
    refit_mean_s: f64,
    refit_p50_s: f64,
    refit_speedup_vs_full: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    space_dims: usize,
    reps: usize,
    quick: bool,
    note: &'static str,
    results: Vec<Entry>,
}

fn seed_history(space: &ConfigSpace, job: &SimJob, n: usize, seed: u64) -> Vec<Observation> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|t| {
            let config = space.sample(&mut rng);
            observe(job, config, t as u64)
        })
        .collect()
}

fn observe(job: &SimJob, config: Configuration, t: u64) -> Observation {
    let r = job.run(&config, t);
    Observation {
        failed: false,
        objective: (r.runtime_s * r.resource).sqrt(),
        runtime: r.runtime_s,
        resource: r.resource,
        context: vec![],
        config,
    }
}

/// The maintenance policy under test: default schedule, with the LML
/// trigger disarmed so no checkpoint coincides with a full search.
fn policy() -> IncrementalPolicy {
    IncrementalPolicy {
        lml_degradation: f64::INFINITY,
        ..IncrementalPolicy::default()
    }
}

/// Replay the trace once; return per-checkpoint suggest latencies and the
/// configuration chosen at every iteration (the determinism cross-check).
fn run_trace(
    space: &ConfigSpace,
    checkpoints: &[usize],
    latencies: &mut [Vec<f64>],
) -> (Vec<Configuration>, Vec<Observation>) {
    let job =
        SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount)).with_seed(42);
    let opts = TunerOptions {
        // Land every iteration on the BO path: no initial design, no AGD.
        n_init: 0,
        n_agd: 0,
        incremental: policy(),
        t_max: Some(1.5 * 3600.0),
        seed: SEED,
        pool: Pool::new(4),
        ..TunerOptions::default()
    };
    let ranking = (0..space.len()).collect();
    let mut g = ConfigGenerator::new(space.clone(), &opts, ranking, resource_fn_for(space));

    let mut hist = seed_history(space, &job, N_SEED, 42);
    let last = *checkpoints.last().expect("at least one checkpoint");
    let mut choices = Vec::with_capacity(last - N_SEED);
    while hist.len() < last {
        let start = Instant::now();
        let s = g.suggest(&opts, &hist, &[], None);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(s.source, SuggestionKind::Bo, "BO path exercised");
        // The suggest call fitted `hist`; it counts toward checkpoint `n`
        // when the history size lands in (n - WINDOW, n].
        let n_obs = hist.len();
        for (ci, &cp) in checkpoints.iter().enumerate() {
            if n_obs + WINDOW > cp && n_obs <= cp {
                latencies[ci].push(elapsed);
            }
        }
        choices.push(s.config.clone());
        hist.push(observe(&job, s.config, hist.len() as u64));
    }
    (choices, hist)
}

/// Time the surrogate maintenance step in isolation, at the GP level so
/// both arms do the same work: the two models a store fitted on
/// `hist[..n-1]` absorb the `n`-th observation. `incremental` times
/// `GaussianProcess::update` (rank-one factor extension, no re-search) on
/// clones of the warmed models; otherwise both models are refitted from
/// scratch on `hist[..n]` at the warmed hyperparameters.
fn timed_refits(
    space: &ConfigSpace,
    hist: &[Observation],
    incremental: bool,
    n_obs: usize,
    reps: usize,
) -> Vec<f64> {
    let telemetry = otune_core::telemetry::Telemetry::disabled();
    let pool = Pool::new(4);
    let kinds = surrogate_kinds(space, 0);
    // The trace carries no context features.
    let x: Vec<Vec<f64>> = hist[..n_obs]
        .iter()
        .map(|o| space.encode(&o.config))
        .collect();
    let runtime: Vec<f64> = hist[..n_obs].iter().map(|o| o.runtime).collect();
    let objective: Vec<f64> = hist[..n_obs].iter().map(|o| o.objective).collect();
    let same_hyper = |gp: &GaussianProcess| GpConfig {
        optimize_hypers: false,
        warm_hyper: Some(gp.kernel().hyper),
        seed: SEED,
        ..GpConfig::default()
    };
    let mut store = SurrogateStore::new(policy());
    let (rt_gp, obj_gp) = store
        .prepare(space, &hist[..n_obs - 1], SEED, &telemetry, &pool)
        .expect("warm-up fit");
    let warmed = [(&*rt_gp, &runtime), (&*obj_gp, &objective)];
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        if incremental {
            let mut models: Vec<_> = warmed
                .iter()
                .map(|(gp, y)| ((*gp).clone(), same_hyper(gp), y[n_obs - 1]))
                .collect();
            let start = Instant::now();
            for (gp, cfg, y_new) in &mut models {
                gp.update(
                    x[n_obs - 1].clone(),
                    *y_new,
                    &IncrementalPolicy::never_research(),
                    *cfg,
                    &pool,
                    &telemetry,
                )
                .expect("rank-one update");
            }
            samples.push(start.elapsed().as_secs_f64());
        } else {
            let refits: Vec<_> = warmed
                .iter()
                .map(|(gp, y)| (x.clone(), *y, same_hyper(gp)))
                .collect();
            let start = Instant::now();
            for (x, y, cfg) in refits {
                GaussianProcess::fit(kinds.clone(), x, y, cfg, &pool, &telemetry)
                    .expect("same-hyper full refit");
            }
            samples.push(start.elapsed().as_secs_f64());
        }
    }
    samples
}

fn main() {
    let quick = std::env::var("OTUNE_BENCH_QUICK").is_ok_and(|v| v != "0");
    let reps = if quick { 1 } else { 3 };
    let checkpoints: &[usize] = if quick { &[10, 30] } else { &[10, 30, 100] };
    let space = spark_space(ClusterScale::hibench());

    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); checkpoints.len()];
    let mut choices: Vec<Vec<Configuration>> = Vec::new();
    let mut trace: Vec<Observation> = Vec::new();
    for _ in 0..reps {
        let (c, h) = run_trace(&space, checkpoints, &mut latencies);
        choices.push(c);
        trace = h;
    }
    for other in &choices[1..] {
        assert_eq!(
            &choices[0], other,
            "repeated replays must walk an identical suggestion trace"
        );
    }

    let refit_reps = if quick { 3 } else { 7 };
    let mut table = Table::new(
        "Append-only trace — incremental vs same-hyper full refit",
        &[
            "n_obs",
            "mode",
            "suggest mean (ms)",
            "refit mean (ms)",
            "refit p50 (ms)",
            "speedup",
        ],
    );
    let mut entries = Vec::new();
    let mut last_pair = (0.0f64, 0.0f64);
    for (ci, &n_obs) in checkpoints.iter().enumerate() {
        let refit_full = timed_refits(&space, &trace, false, n_obs, refit_reps);
        let refit_inc = timed_refits(&space, &trace, true, n_obs, refit_reps);
        let speedup = mean(&refit_full) / mean(&refit_inc);
        last_pair = (mean(&refit_inc), mean(&refit_full));
        let sug = &latencies[ci];
        for (label, refit, inc, sp) in [
            ("full", &refit_full, false, None),
            ("incremental", &refit_inc, true, Some(speedup)),
        ] {
            table.row(vec![
                n_obs.to_string(),
                label.to_string(),
                format!("{:.2}", mean(sug) * 1e3),
                format!("{:.3}", mean(refit) * 1e3),
                format!("{:.3}", percentile(refit, 0.5) * 1e3),
                sp.map_or("1.00x (baseline)".into(), |s| format!("{s:.2}x")),
            ]);
            entries.push(Entry {
                n_obs,
                incremental: inc,
                suggest_mean_s: mean(sug),
                suggest_p50_s: percentile(sug, 0.5),
                refit_mean_s: mean(refit),
                refit_p50_s: percentile(refit, 0.5),
                refit_speedup_vs_full: sp.unwrap_or(1.0),
            });
        }
    }
    table.print();

    // The acceptance bar: at the largest history the O(n²) extension must
    // beat the O(n³) rebuild outright.
    let (inc_mean, full_mean) = last_pair;
    assert!(
        inc_mean < full_mean,
        "incremental must be faster at n_obs={}: {:.3}ms vs {:.3}ms",
        checkpoints[checkpoints.len() - 1],
        inc_mean * 1e3,
        full_mean * 1e3,
    );

    let out = results_dir().join("BENCH_refit_latency.json");
    let doc = Report {
        bench: "refit_latency",
        space_dims: space.len(),
        reps,
        quick,
        note: "append-only trace through the one production maintenance path; \
               suggest_* is that trace's suggest latency, shared by both rows. \
               refit_* times the maintenance step alone (absorbing one appended \
               observation into both fitted models) at the GP level: \
               incremental = GaussianProcess::update rank-one factor extension, \
               full = same-hyper GaussianProcess::fit of both models",
        results: entries,
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("results dir is writable");
    println!("json: {}", out.display());
}
