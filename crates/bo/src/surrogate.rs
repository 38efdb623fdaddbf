//! Fitting mixed-kernel GPs on configuration runhistory.

use crate::observation::Observation;
use otune_gp::{FeatureKind, GaussianProcess, GpConfig, GpError, Rows};
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration, DimKind};
use otune_telemetry::{metric, Telemetry};

/// Anything that yields a posterior `(mean, variance)` at an encoded
/// point — a plain GP or the meta-learning ensemble surrogate.
pub trait Predictor {
    /// Posterior predictive mean and variance at `x`.
    fn predict(&self, x: &[f64]) -> (f64, f64);

    /// Posterior predictions at many points, free to use `pool`.
    ///
    /// Implementations must return exactly what per-point
    /// [`Predictor::predict`] calls would — batching and parallelism are
    /// layout optimizations, never semantic ones — so results cannot
    /// depend on the pool width.
    fn predict_many(&self, xs: Rows<'_>, pool: &Pool) -> Vec<(f64, f64)> {
        let _ = pool;
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

impl Predictor for GaussianProcess {
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        GaussianProcess::predict(self, x)
    }

    fn predict_many(&self, xs: Rows<'_>, pool: &Pool) -> Vec<(f64, f64)> {
        self.predict_batch_pooled(xs, pool)
    }
}

/// Which metric of an [`Observation`] a surrogate models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateInput {
    /// The generalized objective `f(x)`.
    Objective,
    /// The runtime `T(x)` (the safety/constraint metric).
    Runtime,
}

/// Feature kinds for the surrogate input: one per configuration dimension
/// (from the space) plus one `DataSize` kind per context feature.
pub fn surrogate_kinds(space: &ConfigSpace, n_context: usize) -> Vec<FeatureKind> {
    let mut kinds: Vec<FeatureKind> = space
        .dim_kinds()
        .into_iter()
        .map(|k| match k {
            DimKind::Numeric => FeatureKind::Numeric,
            DimKind::Categorical => FeatureKind::Categorical,
        })
        .collect();
    kinds.extend(std::iter::repeat_n(FeatureKind::DataSize, n_context));
    kinds
}

/// Encode a configuration with its context features appended.
pub fn encode_with_context(
    space: &ConfigSpace,
    config: &Configuration,
    context: &[f64],
) -> Vec<f64> {
    let mut v = space.encode(config);
    v.extend_from_slice(context);
    v
}

/// Fit a GP on the runhistory for the chosen metric.
///
/// Context widths must be consistent across observations; the context of
/// the first observation defines the expected width.
pub fn fit_surrogate(
    space: &ConfigSpace,
    obs: &[Observation],
    input: SurrogateInput,
    seed: u64,
) -> Result<GaussianProcess, GpError> {
    fit_surrogate_with(space, obs, input, seed, &Telemetry::disabled())
}

/// [`fit_surrogate`] with instrumentation: the fit is wrapped in a
/// `gp_fit_s` timing span and the selected factor's jitter retries are
/// counted. Uses the process-wide [`Pool::global`] for the
/// hyperparameter search.
pub fn fit_surrogate_with(
    space: &ConfigSpace,
    obs: &[Observation],
    input: SurrogateInput,
    seed: u64,
    telemetry: &Telemetry,
) -> Result<GaussianProcess, GpError> {
    fit_surrogate_pooled(space, obs, input, seed, telemetry, Pool::global())
}

/// [`fit_surrogate_with`] on an explicit worker pool.
pub fn fit_surrogate_pooled(
    space: &ConfigSpace,
    obs: &[Observation],
    input: SurrogateInput,
    seed: u64,
    telemetry: &Telemetry,
    pool: &Pool,
) -> Result<GaussianProcess, GpError> {
    let _span = telemetry.span(metric::GP_FIT_S);
    let _trace = telemetry.trace_span("gp_full_fit");
    if obs.is_empty() {
        return Err(GpError::Empty);
    }
    let n_context = obs[0].context.len();
    let kinds = surrogate_kinds(space, n_context);
    let x: Vec<Vec<f64>> = obs
        .iter()
        .map(|o| encode_with_context(space, &o.config, &o.context))
        .collect();
    let y: Vec<f64> = obs
        .iter()
        .map(|o| match input {
            SurrogateInput::Objective => o.objective,
            SurrogateInput::Runtime => o.runtime,
        })
        .collect();
    let gp = GaussianProcess::fit_traced(
        kinds,
        x,
        &y,
        GpConfig {
            seed,
            ..GpConfig::default()
        },
        pool,
        telemetry,
    )?;
    telemetry.add(metric::CHOL_JITTER_RETRIES, u64::from(gp.jitter_retries()));
    Ok(gp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{ConfigSpace, Parameter};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("a", 0, 10, 5),
            Parameter::categorical("c", &["x", "y"], 0),
        ])
    }

    fn make_obs(space: &ConfigSpace, n: usize) -> Vec<Observation> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| {
                let config = space.sample(&mut rng);
                let a = config[0].as_int().unwrap() as f64;
                Observation {
                    failed: false,
                    objective: a * 2.0,
                    runtime: 100.0 - a,
                    resource: 5.0,
                    context: vec![i as f64 / n as f64],
                    config,
                }
            })
            .collect()
    }

    #[test]
    fn kinds_cover_space_and_context() {
        let s = space();
        let kinds = surrogate_kinds(&s, 2);
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], FeatureKind::Numeric);
        assert_eq!(kinds[1], FeatureKind::Categorical);
        assert_eq!(kinds[2], FeatureKind::DataSize);
        assert_eq!(kinds[3], FeatureKind::DataSize);
    }

    #[test]
    fn encoding_appends_context() {
        let s = space();
        let cfg = s.default_configuration();
        let v = encode_with_context(&s, &cfg, &[0.7]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], 0.7);
    }

    #[test]
    fn objective_and_runtime_surrogates_differ() {
        let s = space();
        let obs = make_obs(&s, 20);
        let f = fit_surrogate(&s, &obs, SurrogateInput::Objective, 0).unwrap();
        let t = fit_surrogate(&s, &obs, SurrogateInput::Runtime, 0).unwrap();
        let x = encode_with_context(&s, &obs[0].config, &obs[0].context);
        // Objective increases with `a`, runtime decreases — the two
        // surrogates must disagree in direction.
        let x_hi = {
            let mut v = x.clone();
            v[0] = 1.0;
            v
        };
        let x_lo = {
            let mut v = x;
            v[0] = 0.0;
            v
        };
        assert!(f.predict_mean(&x_hi) > f.predict_mean(&x_lo));
        assert!(t.predict_mean(&x_hi) < t.predict_mean(&x_lo));
    }

    #[test]
    fn empty_history_errors() {
        let s = space();
        assert!(matches!(
            fit_surrogate(&s, &[], SurrogateInput::Objective, 0),
            Err(GpError::Empty)
        ));
    }
}
