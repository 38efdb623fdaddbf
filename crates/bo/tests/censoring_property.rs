//! Property tests for failure censoring: a configuration with repeated
//! recorded failures must never re-enter the feasible set — neither
//! through [`Observation::is_feasible`] nor through the safe-region GP
//! fitted on the censored runhistory — and the fit must be
//! bitwise-identical across worker-pool widths (`OTUNE_THREADS` 1 vs 4).

use otune_bo::{Observation, SafeRegion};
use otune_gp::{FeatureKind, GaussianProcess, GpConfig};
use otune_pool::Pool;
use otune_space::{Configuration, ParamValue};
use otune_telemetry::Telemetry;
use proptest::prelude::*;

/// The constraint threshold the scenarios tune under.
const T_MAX: f64 = 100.0;
/// The tuner's censoring multiplier: failed runs are recorded at
/// `PENALTY × T_MAX`.
const PENALTY: f64 = 2.0;

fn obs(x: f64, runtime: f64, failed: bool) -> Observation {
    Observation {
        failed,
        config: Configuration::new(vec![ParamValue::Float(x)]),
        objective: runtime,
        runtime,
        resource: 1.0,
        context: vec![],
    }
}

/// A censored runhistory: `n_clean` feasible runs on a grid with
/// runtimes rising from `clean_lo × T_MAX` to `0.9 × T_MAX`, plus two
/// censored failures recorded at `fail_x`.
fn censored_history(n_clean: usize, clean_lo: f64, fail_x: f64) -> Vec<Observation> {
    let mut history: Vec<Observation> = (0..n_clean)
        .map(|i| {
            let x = i as f64 / (n_clean - 1) as f64;
            let ratio = clean_lo + (0.9 - clean_lo) * x;
            obs(x, ratio * T_MAX, false)
        })
        .collect();
    for _ in 0..2 {
        history.push(obs(fail_x, PENALTY * T_MAX, true));
    }
    history
}

/// Fit the runtime surrogate the way the tuner does: log-space runtimes
/// normalized by the threshold, so the safe bound is `u(x) ≤ 0`.
fn fit_runtime_gp(history: &[Observation], seed: u64, threads: usize) -> GaussianProcess {
    let x: Vec<Vec<f64>> = history
        .iter()
        .map(|o| vec![o.config[0].as_float().unwrap()])
        .collect();
    let y: Vec<f64> = history.iter().map(|o| (o.runtime / T_MAX).ln()).collect();
    GaussianProcess::fit(
        vec![FeatureKind::Numeric],
        x,
        &y,
        GpConfig {
            seed,
            ..GpConfig::default()
        },
        &Pool::new(threads),
        &Telemetry::disabled(),
    )
    .expect("valid history")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A failed observation is infeasible no matter how attractive its
    /// censored numbers look or how loose the constraints are.
    #[test]
    fn failed_observations_are_never_feasible(
        runtime in 0.01f64..1e6,
        resource in 0.01f64..1e6,
        t_max in proptest::option::of(1.0f64..1e7),
        r_max in proptest::option::of(1.0f64..1e7),
    ) {
        let o = obs(0.5, runtime, true);
        let o = Observation { resource, ..o };
        prop_assert!(!o.is_feasible(t_max, r_max));
    }

    /// The safe-region GP fitted on a censored history excludes any
    /// configuration with two recorded failures: the censored runtimes
    /// pull `μ(x) + γσ(x)` above the threshold there.
    #[test]
    fn two_recorded_failures_exclude_a_config_from_the_safe_region(
        seed in 0u64..512,
        fail_x in 0.1f64..0.9,
        n_clean in 4usize..9,
        clean_lo in 0.35f64..0.6,
    ) {
        let history = censored_history(n_clean, clean_lo, fail_x);
        for o in history.iter().filter(|o| o.failed) {
            prop_assert!(!o.is_feasible(Some(T_MAX), None));
        }
        let gp = fit_runtime_gp(&history, seed, 1);
        // Threshold ln(T_MAX / T_MAX) = 0 in the normalized log space.
        let region = SafeRegion::new(&gp, 0.0, 1.0);
        prop_assert!(
            !region.is_safe(&[fail_x]),
            "twice-failed x = {fail_x} re-entered the safe region \
             (u = {})",
            region.upper_bound(&[fail_x]),
        );
    }

    /// The fitted surrogate — hyperparameter search included — is
    /// bitwise-identical for 1 and 4 worker threads, so feasibility
    /// decisions cannot depend on `OTUNE_THREADS`.
    #[test]
    fn censored_fit_is_bitwise_identical_across_pool_widths(
        seed in 0u64..512,
        fail_x in 0.1f64..0.9,
        n_clean in 4usize..9,
    ) {
        let history = censored_history(n_clean, 0.5, fail_x);
        let gp1 = fit_runtime_gp(&history, seed, 1);
        let gp4 = fit_runtime_gp(&history, seed, 4);
        for i in 0..=20 {
            let x = [i as f64 / 20.0];
            let (m1, v1) = gp1.predict(&x);
            let (m4, v4) = gp4.predict(&x);
            prop_assert_eq!(m1.to_bits(), m4.to_bits(), "mean at {:?}", x);
            prop_assert_eq!(v1.to_bits(), v4.to_bits(), "var at {:?}", x);
        }
        // Identical models ⇒ identical safe regions.
        let r1 = SafeRegion::new(&gp1, 0.0, 1.0);
        let r4 = SafeRegion::new(&gp4, 0.0, 1.0);
        for i in 0..=20 {
            let x = [i as f64 / 20.0];
            prop_assert_eq!(r1.is_safe(&x), r4.is_safe(&x));
        }
    }
}
