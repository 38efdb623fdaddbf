//! The generalized tuning formulation (Eq. 1).

/// The generalized objective `f(x) = T(x)^β · R(x)^{1−β}`, `β ∈ [0, 1]`.
///
/// * `β = 1` — minimize runtime (the "fastest configuration").
/// * `β = 0` — minimize the resource amount.
/// * `β = 0.5` — minimize execution cost (√(T·R); the square root is a
///   monotone transform, so the optimizer is unchanged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// The runtime/resource trade-off exponent.
    pub beta: f64,
}

impl Objective {
    /// Construct, validating `β ∈ [0, 1]`.
    pub fn new(beta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&beta),
            "β must lie in [0, 1], got {beta}"
        );
        Objective { beta }
    }

    /// Pure runtime objective (`β = 1`).
    pub fn runtime() -> Self {
        Objective { beta: 1.0 }
    }

    /// Execution-cost objective (`β = 0.5`), the production default (§6.2).
    pub fn cost() -> Self {
        Objective { beta: 0.5 }
    }

    /// Pure resource objective (`β = 0`).
    pub fn resource() -> Self {
        Objective { beta: 0.0 }
    }

    /// Evaluate `f` from an observed runtime and the analytic resource.
    pub fn eval(&self, runtime_s: f64, resource: f64) -> f64 {
        runtime_s.max(0.0).powf(self.beta) * resource.max(0.0).powf(1.0 - self.beta)
    }
}

impl Default for Objective {
    fn default() -> Self {
        Objective::cost()
    }
}

/// The analytic resource function `R(x)` for a configuration space
/// (§4.3: white-box, read directly off resource parameters).
///
/// When the space contains the well-known Spark resource parameters the
/// returned closure computes `#vcores + 0.5·#mem_GB` over executors and the
/// driver; otherwise it falls back to a constant `1.0`, which reduces every
/// objective to runtime-only tuning — correct for non-Spark toy spaces.
pub fn resource_fn_for(
    space: &otune_space::ConfigSpace,
) -> std::sync::Arc<dyn Fn(&otune_space::Configuration) -> f64 + Send + Sync> {
    use otune_space::SparkParam as P;
    let idx: Option<[usize; 5]> = (|| {
        Some([
            space.index_of(P::ExecutorInstances.name()).ok()?,
            space.index_of(P::ExecutorCores.name()).ok()?,
            space.index_of(P::ExecutorMemory.name()).ok()?,
            space.index_of(P::DriverCores.name()).ok()?,
            space.index_of(P::DriverMemory.name()).ok()?,
        ])
    })();
    match idx {
        Some([inst, cores, mem, dc, dm]) => std::sync::Arc::new(move |c| {
            let instances = c[inst].as_f64();
            let vcores = instances * c[cores].as_f64() + c[dc].as_f64();
            let mem_gb = instances * c[mem].as_f64() + c[dm].as_f64();
            vcores + 0.5 * mem_gb
        }),
        None => std::sync::Arc::new(|_| 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_fn_matches_simulator() {
        use otune_space::{spark_space, ClusterScale};
        let space = spark_space(ClusterScale::hibench());
        let f = resource_fn_for(&space);
        let c = space.default_configuration();
        // default: 8 inst × 2 cores + 1 driver core = 17 vcores;
        // 8 × 4 GB + 2 GB driver = 34 GB → R = 17 + 17 = 34.
        assert!((f(&c) - 34.0).abs() < 1e-9, "{}", f(&c));
    }

    #[test]
    fn resource_fn_falls_back_for_toy_spaces() {
        use otune_space::{ConfigSpace, Parameter};
        let space = ConfigSpace::new(vec![Parameter::int("x", 0, 9, 1)]);
        let f = resource_fn_for(&space);
        assert_eq!(f(&space.default_configuration()), 1.0);
    }

    #[test]
    fn endpoints_match_paper_semantics() {
        assert_eq!(Objective::runtime().eval(120.0, 40.0), 120.0);
        assert_eq!(Objective::resource().eval(120.0, 40.0), 40.0);
        let cost = Objective::cost().eval(120.0, 40.0);
        assert!((cost - (120.0f64 * 40.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn intermediate_beta_weights_runtime() {
        // β = 0.7 "pays more attention to the decrease in runtime".
        let o = Objective::new(0.7);
        let base = o.eval(100.0, 100.0);
        let faster = o.eval(50.0, 100.0);
        let cheaper = o.eval(100.0, 50.0);
        assert!(faster < cheaper, "{faster} vs {cheaper}");
        assert!(faster < base && cheaper < base);
    }

    #[test]
    #[should_panic(expected = "β must lie in")]
    fn beta_out_of_range_panics() {
        let _ = Objective::new(1.2);
    }
}
