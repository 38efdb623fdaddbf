//! Metric definitions: the end-to-end metrics a user of the service sees,
//! and the per-layer metrics that say which layer moved them. Names and
//! units match `BENCHMARK.json`.

use crate::record::Recorder;
use crate::stats::median;
use crate::workloads::{Unit, Workload};
use otune_bench::{geo_mean, percentile};
use otune_telemetry::metric as m;
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Durations of every call of the workload's latency span.
pub fn latency_samples(w: Workload, units: &[Unit], rec: &Recorder) -> Vec<f64> {
    units
        .iter()
        .flat_map(|u| rec.secs(&u.spans, w.latency_span()))
        .collect()
}

/// Share of wave wall time covered by the bench spans of the calls inside
/// each wave (`None` for workloads without waves in their measured part).
pub fn wave_coverage(units: &[Unit], rec: &Recorder) -> Option<f64> {
    let (mut wave, mut covered) = (0.0, 0.0);
    for u in units {
        for s in &rec.spans()[u.spans.clone()] {
            if s.name == "wave" {
                wave += s.secs();
            } else if s.parent.is_some_and(|p| rec.spans()[p].name == "wave") {
                covered += s.secs();
            }
        }
    }
    (wave > 0.0).then(|| covered / wave)
}

pub fn end_to_end(w: Workload, units: &[Unit], rec: &Recorder) -> Vec<Metric> {
    let setup: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    let evals: u64 = units.iter().map(|u| u.evals).sum();
    let measured: f64 = units.iter().map(|u| u.measured_s).sum();
    let latency = latency_samples(w, units, rec);
    let gains: Vec<f64> = units
        .iter()
        .take(w.min_units())
        .flat_map(|u| u.gains.iter().copied())
        .collect();
    // Memory after the fixed prefix of units, so it does not grow with the
    // number of units a fast host fits in the budget.
    let prefix = &units[..w.min_units().min(units.len())];
    let peak_rss = prefix.last().map_or(0.0, |u| u.peak_rss_mb);
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("evals_per_s", evals as f64 / measured, "1/s"),
        metric("latency_s_p50", median(&latency), "s"),
        metric("latency_s_p90", percentile(&latency, 0.9), "s"),
        metric("objective_gain", geo_mean(&gains), "ratio"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ]
}

/// Phases of the product's own trace reported as `trace.<phase>.excl_s`.
pub const TRACE_PHASES: [&str; 16] = [
    "suggest",
    "fanova_refresh",
    "subspace",
    "agd",
    "candidate_gen",
    "safe_screen",
    "eic_score",
    "eic_maximize",
    "hyper_search",
    "gp_full_fit",
    "gp_update",
    "chol_factor",
    "chol_extend",
    "kernel_assembly",
    "meta_ensemble",
    "base_fit",
];

/// Product counters reported from the first unit, which depends on the
/// seed alone: `(metric, counter)`.
const COUNTERS: [(&str, &str); 17] = [
    ("jobs.journal_fsyncs", m::JOURNAL_FSYNCS),
    ("jobs.checkpoint_full_bytes", m::CHECKPOINT_FULL_BYTES),
    ("jobs.retries", m::JOB_RETRIES),
    ("jobs.dead_letters", m::JOB_DEAD_LETTERS),
    ("meta.shared_meta_hits", m::SHARED_META_HITS),
    ("meta.shared_meta_misses", m::SHARED_META_MISSES),
    ("meta.base_cache_hits", m::META_BASE_CACHE_HITS),
    ("meta.base_cache_misses", m::META_BASE_CACHE_MISSES),
    ("meta.similarity_refits", m::SIMILARITY_REFITS),
    ("meta.warm_start_hits", m::WARM_START_HITS),
    ("bo.surrogate_cache_hits", m::SURROGATE_CACHE_HITS),
    ("bo.surrogate_cache_misses", m::SURROGATE_CACHE_MISSES),
    ("bo.incremental_updates", m::SURROGATE_INCREMENTAL_UPDATES),
    ("bo.full_refits", m::SURROGATE_FULL_REFITS),
    ("bo.safe_region_rejections", m::SAFE_REGION_REJECTIONS),
    ("gp.hyper_searches", m::GP_HYPER_SEARCHES),
    ("gp.chol_jitter_retries", m::CHOL_JITTER_RETRIES),
];

/// Per-layer metrics. Times are the median over units of the seconds a
/// unit spent in a call (`*_s`), or a percentile over all calls
/// (`*_s_p50`, `*_s_p95`). Counters come from the first unit.
pub fn per_layer(units: &[Unit], rec: &Recorder, overhead: f64) -> Vec<Metric> {
    let per_unit = |names: &[&'static str]| {
        let totals: Vec<f64> = units
            .iter()
            .map(|u| {
                names
                    .iter()
                    .flat_map(|n| rec.secs(&u.spans, n))
                    .sum::<f64>()
            })
            .collect();
        median(&totals)
    };
    let calls = |name: &'static str| -> Vec<f64> {
        units
            .iter()
            .flat_map(|u| rec.secs(&u.spans, name))
            .collect()
    };
    let first = &units[0];
    let counter = |name: &str| first.counters.get(name).copied().unwrap_or(0) as f64;

    let mut out = vec![
        metric("jobs.start_s", median(&calls("start_with")), "s"),
        metric("jobs.suggest_wave_s", per_unit(&["suggest_wave"]), "s"),
        metric(
            "jobs.suggest_wave_s_p95",
            percentile(&calls("suggest_wave"), 0.95),
            "s",
        ),
        metric(
            "jobs.report_wave_s",
            per_unit(&["report_wave", "report_wave_ckpt"]),
            "s",
        ),
        metric(
            "jobs.report_plain_s_p50",
            median(&calls("report_wave")),
            "s",
        ),
        metric(
            "jobs.report_ckpt_s_p50",
            median(&calls("report_wave_ckpt")),
            "s",
        ),
        metric("jobs.journal_load_s", median(&calls("journal_load")), "s"),
    ];
    let opens = calls("open_with");
    let replay = if opens.is_empty() {
        0.0
    } else {
        median(&opens) - median(&calls("journal_load"))
    };
    out.push(metric("jobs.open_replay_s", replay, "s"));
    out.push(metric(
        "jobs.journal_bytes_per_eval",
        counter(m::JOURNAL_BYTES) / first.evals.max(1) as f64,
        "B/eval",
    ));
    out.push(metric(
        "core.request_configs_s",
        per_unit(&["request_configs"]),
        "s",
    ));
    out.push(metric(
        "core.request_configs_s_p50",
        median(&calls("request_configs")),
        "s",
    ));
    out.push(metric(
        "core.report_results_s",
        per_unit(&["report_results"]),
        "s",
    ));
    out.push(metric("pool.threads", first.pool_threads, "threads"));
    out.push(metric(
        "pool.parallel_maps",
        first.pool_parallel_maps,
        "count",
    ));
    out.push(metric(
        "meta.bases_build_s",
        median(&calls("bases_build")),
        "s",
    ));
    out.push(metric(
        "sparksim.run_s",
        per_unit(&["execute_pending", "sim_run"]),
        "s",
    ));
    out.push(metric("sparksim.runs", first.runs as f64, "count"));
    for (name, counter_name) in COUNTERS {
        let unit = if name.ends_with("_bytes") {
            "B"
        } else {
            "count"
        };
        out.push(metric(name, counter(counter_name), unit));
    }
    for phase in TRACE_PHASES {
        let excl: Vec<f64> = units
            .iter()
            .map(|u| u.phases.get(phase).copied().unwrap_or(0.0))
            .collect();
        out.push(metric(&format!("trace.{phase}.excl_s"), median(&excl), "s"));
    }
    out.push(metric("trace.spans", first.trace_spans as f64, "count"));
    out.push(metric(
        "trace.spans_dropped",
        first.trace_dropped as f64,
        "count",
    ));
    out.push(metric("trace.overhead_frac", overhead, "fraction"));
    out
}
