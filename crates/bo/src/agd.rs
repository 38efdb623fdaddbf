//! Approximate gradient descent (§4.3, Eqs. 9–11).
//!
//! Every `N_AGD` iterations the next configuration is produced not by
//! acquisition maximization but by a gradient step from the incumbent:
//! `∂f/∂xⁱ = β(T/R)^{β−1} ∂T/∂xⁱ + (1−β)(T/R)^β ∂R/∂xⁱ` where `∂T/∂xⁱ` is
//! a central difference on the *runtime surrogate* (Eq. 10) and `∂R/∂xⁱ`
//! is exact because `R` is white-box.
//!
//! We take the step in the encoded unit cube rather than raw parameter
//! units: raw-space steps (the paper's η = 0.001) depend on each
//! parameter's scale, which the encoding already normalizes away. The
//! gradient is ∞-norm-normalized so the largest coordinate moves by
//! exactly `eta` encoded units; only numeric dimensions move (categorical
//! dimensions have no derivative).

use otune_gp::{GaussianProcess, GpScratch};
use otune_space::{ConfigSpace, Configuration, DimKind};
use std::cell::RefCell;

/// AGD settings.
#[derive(Debug, Clone, Copy)]
pub struct Agd {
    /// Objective exponent β from Eq. 1.
    pub beta: f64,
    /// Maximum per-coordinate step in encoded units.
    pub eta: f64,
    /// Central-difference half-width in encoded units (Eq. 10's ε).
    pub epsilon: f64,
    /// Whether the runtime surrogate predicts `ln T` instead of `T`
    /// (log-warped surrogates are better conditioned for metrics spanning
    /// orders of magnitude).
    pub log_runtime: bool,
}

impl Default for Agd {
    fn default() -> Self {
        Agd {
            beta: 0.5,
            eta: 0.08,
            epsilon: 0.05,
            log_runtime: false,
        }
    }
}

impl Agd {
    /// Propose the next configuration by one gradient step from `best`.
    ///
    /// `runtime_gp` predicts `T` from `encode(config) ++ context`;
    /// `resource_fn` is the analytic `R(x)`.
    pub fn propose(
        &self,
        space: &ConfigSpace,
        best: &Configuration,
        context: &[f64],
        runtime_gp: &GaussianProcess,
        resource_fn: &dyn Fn(&Configuration) -> f64,
    ) -> Configuration {
        let kinds = space.dim_kinds();
        let u0 = space.encode(best);
        let log_runtime = self.log_runtime;
        // The central-difference loop calls the surrogate 2·dims + 1
        // times; one scratch + one input buffer serve them all, so the
        // loop allocates nothing per probe.
        let buffers = RefCell::new((GpScratch::default(), Vec::<f64>::new()));
        let predict_t = |u: &[f64]| -> f64 {
            let (scratch, x) = &mut *buffers.borrow_mut();
            x.clear();
            x.extend_from_slice(u);
            x.extend_from_slice(context);
            let m = runtime_gp.predict_with_scratch(x, scratch).0;
            if log_runtime {
                m.clamp(-20.0, 25.0).exp()
            } else {
                m.max(1e-6)
            }
        };
        let resource_at = |u: &[f64]| -> f64 { resource_fn(&space.decode(u)).max(1e-6) };

        let t0 = predict_t(&u0);
        let r0 = resource_at(&u0);
        let ratio = t0 / r0;

        let mut grad = vec![0.0; u0.len()];
        for (i, kind) in kinds.iter().enumerate() {
            if *kind != DimKind::Numeric {
                continue;
            }
            let lo = (u0[i] - self.epsilon).max(0.0);
            let hi = (u0[i] + self.epsilon).min(1.0);
            let width = hi - lo;
            if width < 1e-9 {
                continue;
            }
            let (mut up, mut down) = (u0.clone(), u0.clone());
            up[i] = hi;
            down[i] = lo;
            let dt = (predict_t(&up) - predict_t(&down)) / width;
            let dr = (resource_at(&up) - resource_at(&down)) / width;
            grad[i] = self.beta * ratio.powf(self.beta - 1.0) * dt
                + (1.0 - self.beta) * ratio.powf(self.beta) * dr;
        }

        let max_abs = grad.iter().fold(0.0_f64, |m, g| m.max(g.abs()));
        if max_abs < 1e-12 {
            return best.clone();
        }
        let scale = self.eta / max_abs;
        let u1: Vec<f64> = u0
            .iter()
            .zip(&grad)
            .map(|(&u, &g)| (u - scale * g).clamp(0.0, 1.0))
            .collect();
        space.decode(&u1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_gp::{FeatureKind, GaussianProcess, GpConfig};
    use otune_pool::Pool;
    use otune_space::{ConfigSpace, ParamValue, Parameter};
    use otune_telemetry::Telemetry;

    /// 2-parameter space: `n` (instances-like) and `m` (memory-like).
    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("n", 1, 100, 50),
            Parameter::int("m", 1, 32, 16),
        ])
    }

    /// Runtime model: T decreases linearly with instances, flat in memory.
    fn runtime_gp(space: &ConfigSpace) -> GaussianProcess {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let configs: Vec<_> = (0..40).map(|_| space.sample(&mut rng)).collect();
        let x: Vec<Vec<f64>> = configs.iter().map(|c| space.encode(c)).collect();
        let y: Vec<f64> = x.iter().map(|u| 200.0 - 100.0 * u[0]).collect();
        GaussianProcess::fit(
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap()
    }

    fn resource(c: &Configuration) -> f64 {
        c[0].as_int().unwrap() as f64 * (1.0 + 0.5 * c[1].as_int().unwrap() as f64)
    }

    #[test]
    fn beta_zero_descends_resource() {
        let s = space();
        let gp = runtime_gp(&s);
        let agd = Agd {
            beta: 0.0,
            ..Agd::default()
        };
        let best = s.default_configuration();
        let next = agd.propose(&s, &best, &[], &gp, &resource);
        assert!(resource(&next) < resource(&best), "resource must drop");
    }

    #[test]
    fn beta_one_descends_runtime() {
        let s = space();
        let gp = runtime_gp(&s);
        let agd = Agd {
            beta: 1.0,
            ..Agd::default()
        };
        let best = s.default_configuration();
        let next = agd.propose(&s, &best, &[], &gp, &resource);
        // Faster runtime needs more instances in this model.
        assert!(
            next[0].as_int().unwrap() > best[0].as_int().unwrap(),
            "instances should increase: {:?}",
            next[0]
        );
    }

    #[test]
    fn cost_objective_reduces_predicted_cost() {
        let s = space();
        let gp = runtime_gp(&s);
        let agd = Agd {
            beta: 0.5,
            ..Agd::default()
        };
        // Start from an over-provisioned corner.
        let best = s
            .configuration(vec![ParamValue::Int(90), ParamValue::Int(30)])
            .unwrap();
        let cost = |c: &Configuration| {
            let t = 1000.0 / c[0].as_int().unwrap() as f64 + 50.0;
            (t * resource(c)).sqrt()
        };
        let next = agd.propose(&s, &best, &[], &gp, &resource);
        assert!(
            cost(&next) < cost(&best),
            "{} !< {}",
            cost(&next),
            cost(&best)
        );
    }

    #[test]
    fn step_is_bounded_by_eta() {
        let s = space();
        let gp = runtime_gp(&s);
        let agd = Agd {
            beta: 0.5,
            eta: 0.05,
            epsilon: 0.03,
            log_runtime: false,
        };
        let best = s.default_configuration();
        let next = agd.propose(&s, &best, &[], &gp, &resource);
        let u0 = s.encode(&best);
        let u1 = s.encode(&next);
        for (a, b) in u0.iter().zip(&u1) {
            // Decode/encode rounding can add up to one integer notch.
            assert!((a - b).abs() < 0.05 + 0.02, "step too large: {a} -> {b}");
        }
    }

    #[test]
    fn zero_gradient_returns_incumbent() {
        // Flat runtime + flat resource → no movement.
        let s = space();
        let x: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64 / 9.0, (i % 3) as f64 / 2.0])
            .collect();
        let y = vec![100.0; 10];
        let gp = GaussianProcess::fit(
            vec![FeatureKind::Numeric, FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let agd = Agd::default();
        let best = s.default_configuration();
        let next = agd.propose(&s, &best, &[], &gp, &|_| 5.0);
        assert_eq!(next, best);
    }
}
