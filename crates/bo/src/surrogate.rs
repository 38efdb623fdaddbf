//! Fitting mixed-kernel GPs on configuration runhistory.

use crate::observation::Observation;
use otune_gp::{FeatureKind, GaussianProcess, GpConfig, GpError};
use otune_space::{ConfigSpace, Configuration, DimKind};

/// Anything that yields a posterior `(mean, variance)` at an encoded
/// point — a plain GP or the meta-learning ensemble surrogate — as a
/// mixture of GP members.
///
/// The tiled screen-and-score pass in
/// [`maximize_eic_with`](crate::maximize_eic_with) reads the members'
/// posteriors off shared distance tiles and mixes them through
/// [`Predictor::combine`]. It relies on two properties of `combine`: the
/// mean does not depend on the member variances, and the variance is
/// nondecreasing in every member variance under IEEE rounding — so
/// mixing member variance upper bounds bounds the mixture's computed
/// variance. Members are shared across the pass's worker threads, hence
/// `Sync`.
pub trait Predictor: Sync {
    /// The GP members, in mixing order. Member `i` reads the leading
    /// `kernel().dim()` columns of an input row.
    fn members(&self) -> Vec<&GaussianProcess>;

    /// Mix member posteriors, given in [`Predictor::members`] order.
    fn combine(&self, member_preds: &[(f64, f64)]) -> (f64, f64);

    /// Posterior predictive mean and variance at `x`: each member's
    /// posterior at its leading columns of `x`, mixed.
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let preds: Vec<(f64, f64)> = self
            .members()
            .iter()
            .map(|gp| gp.predict(&x[..gp.kernel().dim()]))
            .collect();
        self.combine(&preds)
    }
}

impl Predictor for GaussianProcess {
    fn members(&self) -> Vec<&GaussianProcess> {
        vec![self]
    }

    fn combine(&self, member_preds: &[(f64, f64)]) -> (f64, f64) {
        member_preds[0]
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

/// Fit a GP on the runhistory for the chosen metric, searching the
/// hyperparameters on the process-wide [`otune_pool::Pool::global`].
///
/// Context widths must be consistent across observations; the context of
/// the first observation defines the expected width.
pub fn fit_surrogate(
    space: &ConfigSpace,
    obs: &[Observation],
    input: SurrogateInput,
    seed: u64,
) -> Result<GaussianProcess, GpError> {
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
    GaussianProcess::fit(
        kinds,
        x,
        &y,
        GpConfig {
            seed,
            ..GpConfig::default()
        },
    )
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
