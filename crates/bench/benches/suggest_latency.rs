//! Suggest-latency benchmark for the parallel + batched BO hot path.
//!
//! Measures the wall-clock latency of `ConfigGenerator::suggest` (surrogate
//! fitting + safe-region screening + EIC maximization) on the full 30-d
//! Spark space at several history sizes, comparing a sequential pool with a
//! 4-thread pool. Every surrogate fit is exact, and both pool widths must
//! pick bitwise-identical configurations. Results land in
//! `BENCH_suggest_latency.json` under the results directory, including the
//! before/after comparison against the p50 committed before the
//! SIMD-blocked kernels landed.
//!
//! Scale knobs: `OTUNE_BENCH_QUICK=1` shrinks the repetition count and
//! drops the n_obs=300 arm for CI smoke runs; `OTUNE_RESULTS_DIR` moves
//! the output; `OTUNE_BENCH_ASSERT=1` enforces the reference-host latency
//! target (exact p50 at n_obs = 100 at least 1.5x below the committed
//! baseline).

use otune_bench::{mean, percentile, results_dir, Table};
use otune_bo::Observation;
use otune_core::objective::resource_fn_for;
use otune_core::telemetry::{
    attribute, chrome_trace_json, structural_key, SpanRecord, SuggestionKind, Telemetry,
};
use otune_core::{ConfigGenerator, OnlineTuner, TunerOptions};
use otune_pool::Pool;
use otune_space::{spark_space, ClusterScale, ConfigSpace, Configuration};
use otune_sparksim::{hibench_task, ClusterSpec, HibenchTask, SimJob};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Steady-state p50 at n_obs = 100, threads = 1, measured on the reference
/// host immediately before the blocked kernels landed — the
/// denominator of the before/after comparison below.
const PREV_P50_S: f64 = 0.01817;

#[derive(Serialize)]
struct Entry {
    n_obs: usize,
    threads: usize,
    mean_s: f64,
    p50_s: f64,
    speedup_vs_seq: f64,
}

/// Per-phase latency attribution row (exclusive = total minus children).
#[derive(Serialize)]
struct PhaseRow {
    name: String,
    count: u64,
    total_s: f64,
    exclusive_s: f64,
}

/// Summary of one fully-traced suggest call (largest history size).
/// Exclusive per-phase times must cover the measured wall-clock: the
/// trace runs on a sequential pool, so exclusive times sum (up to
/// clamping) to the root span and the root must track the timer.
#[derive(Serialize)]
struct TraceSummary {
    n_obs: usize,
    n_spans: usize,
    /// Timer-measured wall-clock of the traced suggest call, seconds.
    wall_s: f64,
    /// Root-span ("suggest") wall from the trace, seconds.
    root_wall_s: f64,
    /// Sum of per-phase exclusive times, seconds.
    exclusive_sum_s: f64,
    /// `exclusive_sum_s / wall_s` — asserted within 5% of 1.0.
    exclusive_over_wall: f64,
    /// Whether traces at threads=1 and threads=4 are structurally
    /// identical (same span ids/names/hierarchy, timing fields aside).
    structurally_identical_across_threads: bool,
    /// Per-phase attribution of the traced call.
    phases: Vec<PhaseRow>,
}

/// Before/after comparison at the reference point (n_obs = 100, threads = 1).
#[derive(Serialize)]
struct Comparison {
    /// Committed pre-optimization steady-state p50, seconds.
    prev_p50_s: f64,
    exact_p50_s: Option<f64>,
    /// `prev / exact` — the blocked-kernel win.
    exact_speedup: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    space_dims: usize,
    reps: usize,
    quick: bool,
    host_parallelism: usize,
    note: &'static str,
    results: Vec<Entry>,
    comparison: Comparison,
    trace: TraceSummary,
}

/// Run one traced suggest over a pre-seeded history and return the spans
/// plus the call's measured wall-clock seconds.
fn traced_suggest(
    space: &otune_space::ConfigSpace,
    hist: &[Observation],
    threads: usize,
) -> (Vec<SpanRecord>, f64) {
    let (telemetry, _sink) = Telemetry::ring_traced(1, 7);
    let mut tuner = OnlineTuner::new(
        space.clone(),
        TunerOptions {
            budget: hist.len() + 10,
            n_init: 0,
            n_agd: 0,
            enable_meta: false,
            seed: 7,
            pool: Pool::new(threads),
            ..TunerOptions::default()
        },
    );
    tuner.set_telemetry(telemetry.clone());
    for o in hist {
        tuner.seed_observation(o.config.clone(), o.runtime, o.resource, &[]);
    }
    let start = Instant::now();
    let s = tuner.suggest(&[]).expect("protocol");
    let wall = start.elapsed().as_secs_f64();
    drop(s);
    (telemetry.traces(), wall)
}

/// A runhistory of `n_obs` simulator executions on sampled configurations.
fn history(space: &ConfigSpace, n_obs: usize, seed: u64) -> Vec<Observation> {
    let job =
        SimJob::new(ClusterSpec::hibench(), hibench_task(HibenchTask::WordCount)).with_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_obs)
        .map(|t| {
            let config = space.sample(&mut rng);
            let r = job.run(&config, t as u64);
            Observation {
                failed: false,
                objective: (r.runtime_s * r.resource).sqrt(),
                runtime: r.runtime_s,
                resource: r.resource,
                context: vec![],
                config,
            }
        })
        .collect()
}

/// Run `reps` BO suggestions against a fixed history and return each call's
/// latency in seconds plus the chosen configurations (for the determinism
/// cross-check).
fn timed_suggests(
    space: &ConfigSpace,
    hist: &[Observation],
    pool: Pool,
    reps: usize,
) -> (Vec<f64>, Vec<Configuration>) {
    let worst = hist.iter().map(|o| o.runtime).fold(0.0, f64::max);
    let opts = TunerOptions {
        // Land every iteration on the BO path: no initial design, no AGD.
        n_init: 0,
        n_agd: 0,
        // A runtime bound keeps the batched safe-region screening in the
        // loop.
        t_max: Some(worst * 1.5),
        seed: 7,
        pool,
        ..TunerOptions::default()
    };
    let ranking = (0..space.len()).collect();
    let mut g = ConfigGenerator::new(space.clone(), &opts, ranking, resource_fn_for(space));
    // Warm-up call absorbs one-time ingest work (fANOVA forest refresh).
    let _ = g.suggest(&opts, hist, &[], None);
    let mut latencies = Vec::with_capacity(reps);
    let mut choices = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let s = g.suggest(&opts, hist, &[], None);
        latencies.push(start.elapsed().as_secs_f64());
        assert_eq!(s.source, SuggestionKind::Bo, "BO path exercised");
        choices.push(s.config);
    }
    (latencies, choices)
}

fn main() {
    let quick = std::env::var("OTUNE_BENCH_QUICK").is_ok_and(|v| v != "0");
    let assert_targets = std::env::var("OTUNE_BENCH_ASSERT").is_ok_and(|v| v != "0");
    let reps = if quick { 2 } else { 6 };
    let sizes: &[usize] = if quick {
        &[10, 30, 100]
    } else {
        &[10, 30, 100, 300]
    };
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    let space = spark_space(ClusterScale::hibench());

    let mut table = Table::new(
        "Suggest latency — sequential vs 4-thread pool",
        &["n_obs", "threads", "mean (ms)", "p50 (ms)", "speedup"],
    );
    let mut entries: Vec<Entry> = Vec::new();
    for &n_obs in sizes {
        let hist = history(&space, n_obs, 42);
        let (seq, seq_choices) = timed_suggests(&space, &hist, Pool::sequential(), reps);
        let (par, par_choices) = timed_suggests(&space, &hist, Pool::new(4), reps);
        assert_eq!(
            seq_choices, par_choices,
            "suggestions must be identical across pool widths (n_obs {n_obs})"
        );
        let speedup = mean(&seq) / mean(&par);
        for (threads, lat, sp) in [(1usize, &seq, None), (4, &par, Some(speedup))] {
            table.row(vec![
                n_obs.to_string(),
                threads.to_string(),
                format!("{:.2}", mean(lat) * 1e3),
                format!("{:.2}", percentile(lat, 0.5) * 1e3),
                sp.map_or("1.00x (baseline)".into(), |s| format!("{s:.2}x")),
            ]);
            entries.push(Entry {
                n_obs,
                threads,
                mean_s: mean(lat),
                p50_s: percentile(lat, 0.5),
                speedup_vs_seq: sp.unwrap_or(1.0),
            });
        }
    }
    table.print();

    // --- Before/after at the reference point: n_obs = 100, threads = 1.
    let exact_p50_s = entries
        .iter()
        .find(|e| e.n_obs == 100 && e.threads == 1)
        .map(|e| e.p50_s);
    let comparison = Comparison {
        prev_p50_s: PREV_P50_S,
        exact_p50_s,
        exact_speedup: exact_p50_s.map(|p| PREV_P50_S / p),
    };
    if let Some(e) = exact_p50_s {
        println!(
            "n_obs=100 t1 p50: exact {:.2} ms ({:.2}x vs committed {:.2} ms)",
            e * 1e3,
            PREV_P50_S / e,
            PREV_P50_S * 1e3,
        );
        if assert_targets {
            assert!(
                PREV_P50_S / e >= 1.5,
                "exact p50 must improve >= 1.5x over the committed baseline; \
                 got {:.2}x",
                PREV_P50_S / e
            );
        }
    }

    // --- Traced arm: hierarchical latency attribution on the largest
    // history. Sequential pool for the coverage check (exclusive times
    // sum to the root wall only when children never overlap), threads=4
    // for the structural-determinism cross-check.
    let n_obs = *sizes.last().expect("non-empty size list");
    let hist = history(&space, n_obs, 42);
    let (spans_seq, wall_s) = traced_suggest(&space, &hist, 1);
    let (spans_par, _) = traced_suggest(&space, &hist, 4);
    let structurally_identical = structural_key(&spans_seq) == structural_key(&spans_par);
    assert!(
        structurally_identical,
        "trace structure must not depend on the pool width"
    );
    let report = attribute(&spans_seq);
    let root_wall_s = report.wall_ns as f64 / 1e9;
    let exclusive_sum_s = report.exclusive_sum_ns() as f64 / 1e9;
    let exclusive_over_wall = exclusive_sum_s / wall_s.max(1e-12);
    assert!(
        (exclusive_over_wall - 1.0).abs() <= 0.05,
        "per-phase exclusive times must sum to within 5% of the suggest \
         wall-clock; got {exclusive_sum_s:.6}s of {wall_s:.6}s"
    );
    let trace_path = results_dir().join("BENCH_suggest_trace.json");
    std::fs::write(&trace_path, chrome_trace_json(&spans_seq)).expect("results dir is writable");
    let mut trace_table = Table::new(
        "Traced suggest — per-phase exclusive latency",
        &["phase", "count", "total (ms)", "exclusive (ms)"],
    );
    let mut phases = Vec::with_capacity(report.rows.len());
    for row in &report.rows {
        trace_table.row(vec![
            row.name.clone(),
            row.count.to_string(),
            format!("{:.3}", row.total_ns as f64 / 1e6),
            format!("{:.3}", row.exclusive_ns as f64 / 1e6),
        ]);
        phases.push(PhaseRow {
            name: row.name.clone(),
            count: row.count,
            total_s: row.total_ns as f64 / 1e9,
            exclusive_s: row.exclusive_ns as f64 / 1e9,
        });
    }
    trace_table.print();
    println!(
        "trace: {} span(s), exclusive sum {:.2} ms of {:.2} ms wall ({:.1}% coverage), \
         perfetto json: {}",
        spans_seq.len(),
        exclusive_sum_s * 1e3,
        wall_s * 1e3,
        exclusive_over_wall * 100.0,
        trace_path.display()
    );

    let out = results_dir().join("BENCH_suggest_latency.json");
    let doc = Report {
        bench: "suggest_latency",
        space_dims: space.len(),
        reps,
        quick,
        host_parallelism: host,
        note: "wall-clock speedup of threads=4 over threads=1 scales with \
               host cores; exact-GP suggestions are bitwise-identical across \
               widths and to the pre-SIMD scalar path",
        results: entries,
        comparison,
        trace: TraceSummary {
            n_obs,
            n_spans: spans_seq.len(),
            wall_s,
            root_wall_s,
            exclusive_sum_s,
            exclusive_over_wall,
            structurally_identical_across_threads: structurally_identical,
            phases,
        },
    };
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("results dir is writable");
    println!("json: {}", out.display());
}
