//! Incremental surrogate maintenance against the full tuner: across an
//! append-only online run the fitted models must be reused (cache hits and
//! rank-one updates), with full hyperparameter searches confined to the
//! initial fits and the scheduled re-search points.

use otune_core::prelude::*;
use otune_core::telemetry::metric;
use otune_gp::IncrementalPolicy;
use std::sync::Arc;

fn toy_space() -> ConfigSpace {
    use otune_space::Parameter;
    ConfigSpace::new(vec![
        Parameter::int("n", 1, 50, 10),
        Parameter::int("m", 1, 32, 8),
    ])
}

fn toy_eval(c: &Configuration) -> (f64, f64) {
    let n = c[0].as_int().unwrap() as f64;
    let m = c[1].as_int().unwrap() as f64;
    (400.0 / n + 30.0 / m + 10.0, n * (1.0 + 0.5 * m))
}

fn toy_resource(c: &Configuration) -> f64 {
    toy_eval(c).1
}

fn make_tuner(iterations: usize) -> OnlineTuner {
    let opts = TunerOptions {
        budget: iterations,
        // Disarm the LML trigger: the only legal full searches are the
        // initial fits and the scheduled re-search every `refit_period`
        // updates.
        incremental: IncrementalPolicy {
            lml_degradation: f64::INFINITY,
            ..IncrementalPolicy::default()
        },
        seed: 3,
        ..TunerOptions::default()
    };
    OnlineTuner::with_resource_fn(toy_space(), opts, Arc::new(toy_resource))
}

#[test]
fn online_run_reuses_surrogates_between_scheduled_searches() {
    let iterations = 20;
    let mut tuner = make_tuner(iterations);
    let telemetry = Telemetry::new(Box::new(otune_core::telemetry::NullSink));
    tuner.set_telemetry(telemetry.clone());

    let mut hits_mid = 0;
    for i in 0..iterations {
        let cfg = tuner.suggest(&[]).unwrap();
        let (rt, r) = toy_eval(&cfg);
        tuner.observe(cfg, rt, r, &[]).unwrap();
        if i == iterations / 2 {
            let snap = telemetry.snapshot().unwrap();
            hits_mid = snap
                .counters
                .get(metric::SURROGATE_CACHE_HITS)
                .copied()
                .unwrap_or(0);
        }
    }

    let snap = telemetry.snapshot().unwrap();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    // The history only grows, so each of the two generator caches misses
    // exactly once (its very first fit) and hits on every later iteration.
    assert_eq!(counter(metric::SURROGATE_CACHE_MISSES), 2);
    let hits_end = counter(metric::SURROGATE_CACHE_HITS);
    assert!(
        hits_mid > 0 && hits_end > hits_mid,
        "cache hits must keep rising: mid {hits_mid}, end {hits_end}"
    );

    // Most extensions are rank-one factor updates, not refactorizations.
    assert!(
        counter(metric::SURROGATE_INCREMENTAL_UPDATES) >= 20,
        "expected rank-one updates to dominate: {:?}",
        snap.counters
    );

    // Zero unscheduled searches post-warm-up: every GP_HYPER_SEARCHES tick
    // is either one of the 2 initial fits or a scheduled re-search (at most
    // one per cache within 20 iterations at refit_period = 16).
    let searches = counter(metric::GP_HYPER_SEARCHES);
    assert!(
        (2..=4).contains(&searches),
        "only initial + scheduled searches allowed: {searches}"
    );
}
