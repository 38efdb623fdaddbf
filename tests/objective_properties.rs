//! Property-based tests for the generalized objective (Eq. 1) and its
//! interaction with the analytic resource function and AGD's gradient
//! formula (Eq. 9).

use otune_core::objective::{resource_fn_for, Objective};
use otune_core::prelude::*;
use proptest::prelude::*;

proptest! {
    /// f(x) = T^β R^(1-β) interpolates monotonically between T and R.
    #[test]
    fn objective_is_between_t_and_r(
        t in 1.0f64..1e5,
        r in 1.0f64..1e4,
        beta in 0.0f64..=1.0,
    ) {
        let f = Objective::new(beta).eval(t, r);
        let (lo, hi) = (t.min(r), t.max(r));
        prop_assert!(f >= lo - 1e-9 && f <= hi + 1e-9, "f = {f} outside [{lo}, {hi}]");
    }

    /// The objective is monotone in both arguments for any β.
    #[test]
    fn objective_monotone(
        t in 1.0f64..1e5,
        r in 1.0f64..1e4,
        beta in 0.01f64..=0.99,
        bump in 1.01f64..3.0,
    ) {
        let o = Objective::new(beta);
        prop_assert!(o.eval(t * bump, r) > o.eval(t, r));
        prop_assert!(o.eval(t, r * bump) > o.eval(t, r));
    }

    /// Eq. 9's analytic partial derivative matches a numerical derivative
    /// of f = T^β R^(1-β) when T and R vary along a coordinate.
    #[test]
    fn eq9_gradient_matches_numerical(
        beta in 0.05f64..=0.95,
        t0 in 10.0f64..1000.0,
        r0 in 5.0f64..500.0,
        dt in -5.0f64..5.0,
        dr in -2.0f64..2.0,
    ) {
        // T(x) = t0 + dt·x, R(x) = r0 + dr·x around x = 0.
        let f = |x: f64| (t0 + dt * x).powf(beta) * (r0 + dr * x).powf(1.0 - beta);
        let h = 1e-5;
        let numerical = (f(h) - f(-h)) / (2.0 * h);
        let ratio: f64 = t0 / r0;
        let analytic = beta * ratio.powf(beta - 1.0) * dt + (1.0 - beta) * ratio.powf(beta) * dr;
        let scale = numerical.abs().max(analytic.abs()).max(1e-6);
        prop_assert!(
            (numerical - analytic).abs() / scale < 1e-3,
            "numerical {numerical} vs Eq.9 {analytic}"
        );
    }

    /// The Spark resource function is monotone in every resource parameter
    /// and strictly positive.
    #[test]
    fn resource_fn_monotone_in_resources(u in proptest::collection::vec(0.0f64..1.0, 30)) {
        let space = spark_space(ClusterScale::hibench());
        let f = resource_fn_for(&space);
        let cfg = space.decode(&u);
        let base = f(&cfg);
        prop_assert!(base > 0.0);
        for p in [
            SparkParam::ExecutorInstances,
            SparkParam::ExecutorCores,
            SparkParam::ExecutorMemory,
        ] {
            let mut up = u.clone();
            up[p.index()] = 1.0;
            let bumped = f(&space.decode(&up));
            prop_assert!(bumped >= base - 1e-9, "{p:?}: {bumped} < {base}");
        }
    }
}
