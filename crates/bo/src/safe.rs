//! The GP safe region of §4.2.
//!
//! A configuration is *safe* at iteration `t` when the runtime surrogate's
//! upper bound `u_t(x) = μ_t(x) + γ·σ_t(x)` (Eq. 8) does not exceed the
//! constraint threshold — i.e. the configuration is expected to satisfy the
//! constraint even in the pessimistic case. The final safe region is the
//! intersection of per-constraint regions; intersection is just `all()`
//! over [`SafeRegion::is_safe`] checks.

use otune_gp::GaussianProcess;

/// One constraint's safe region.
#[derive(Debug)]
pub struct SafeRegion<'a> {
    surrogate: &'a GaussianProcess,
    threshold: f64,
    gamma: f64,
}

impl<'a> SafeRegion<'a> {
    /// Build a safe region from a constraint-metric surrogate, the metric's
    /// upper bound, and the pessimism factor `γ ∈ (0, 1]`.
    pub fn new(surrogate: &'a GaussianProcess, threshold: f64, gamma: f64) -> Self {
        debug_assert!(gamma > 0.0 && gamma <= 1.0, "paper uses γ ∈ (0, 1]");
        SafeRegion {
            surrogate,
            threshold,
            gamma,
        }
    }

    /// Upper confidence bound `u(x) = μ(x) + γσ(x)`.
    pub fn upper_bound(&self, x: &[f64]) -> f64 {
        let (mean, var) = self.surrogate.predict(x);
        self.upper_bound_from(mean, var)
    }

    /// [`SafeRegion::upper_bound`] from an already computed posterior.
    fn upper_bound_from(&self, mean: f64, var: f64) -> f64 {
        mean + self.gamma * var.max(0.0).sqrt()
    }

    /// Whether `x` lies in the safe region.
    pub fn is_safe(&self, x: &[f64]) -> bool {
        self.upper_bound(x) <= self.threshold
    }

    /// How far `x` exceeds the safe bound (0 when safe) — used to pick the
    /// least-unsafe candidate when the safe region is empty.
    pub fn violation(&self, x: &[f64]) -> f64 {
        (self.upper_bound(x) - self.threshold).max(0.0)
    }

    /// [`SafeRegion::violation`] from an already computed posterior —
    /// lets callers that computed the surrogate's posterior themselves
    /// apply the same bound arithmetic. Nondecreasing in `var` (IEEE
    /// rounding is monotone), so a variance bound decides the sign of the
    /// violation whenever the bound's violation does: zero at an upper
    /// bound means safe, positive at a lower bound means unsafe.
    pub fn violation_from(&self, mean: f64, var: f64) -> f64 {
        (self.upper_bound_from(mean, var) - self.threshold).max(0.0)
    }

    /// The constraint surrogate backing this region.
    pub fn surrogate(&self) -> &'a GaussianProcess {
        self.surrogate
    }

    /// The constraint threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_gp::{FeatureKind, GpConfig};
    use otune_pool::Pool;
    use otune_telemetry::Telemetry;

    fn runtime_gp() -> GaussianProcess {
        // Runtime rises steeply with x: observations along a line.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| 100.0 + 400.0 * v[0]).collect();
        GaussianProcess::fit(
            vec![FeatureKind::Numeric],
            x,
            &y,
            GpConfig::default(),
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn low_runtime_zone_is_safe_high_is_not() {
        let gp = runtime_gp();
        let region = SafeRegion::new(&gp, 300.0, 1.0);
        assert!(region.is_safe(&[0.1]));
        assert!(!region.is_safe(&[0.9]));
    }

    #[test]
    fn upper_bound_exceeds_mean() {
        let gp = runtime_gp();
        let region = SafeRegion::new(&gp, 300.0, 1.0);
        let (mean, _) = gp.predict(&[0.5]);
        assert!(region.upper_bound(&[0.5]) >= mean);
    }

    #[test]
    fn smaller_gamma_is_less_conservative() {
        let gp = runtime_gp();
        let bold = SafeRegion::new(&gp, 300.0, 0.2);
        let cautious = SafeRegion::new(&gp, 300.0, 1.0);
        // Everywhere, the cautious bound dominates the bold one.
        for i in 0..20 {
            let x = [i as f64 / 19.0];
            assert!(cautious.upper_bound(&x) >= bold.upper_bound(&x));
        }
    }

    #[test]
    fn violation_is_zero_inside() {
        let gp = runtime_gp();
        let region = SafeRegion::new(&gp, 300.0, 1.0);
        assert_eq!(region.violation(&[0.05]), 0.0);
        assert!(region.violation(&[0.95]) > 0.0);
        assert_eq!(region.threshold(), 300.0);
    }
}
