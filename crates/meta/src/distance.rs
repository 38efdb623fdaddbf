//! Kendall-τ task distance (§5.1).
//!
//! The distance between tasks `i` and `j` is computed from their surrogate
//! models: sample a shared set of random configurations `D_rand`, predict
//! with both surrogates, and count discordant prediction pairs.
//! `Dist(Mⁱ, Mʲ) = (1 − τ(Mⁱ, Mʲ)) / 2 ∈ [0, 1]` — 0 for identical
//! orderings, 1 for fully reversed ones.
//!
//! The computation comes in two steps so callers can memoize the first:
//! [`DistanceSample`] draws and encodes `D_rand` and predicts a surrogate
//! at it, and [`prediction_distance`] turns two prediction vectors into
//! `(1 − τ)/2`. A frozen surrogate's vector is a pure function of the
//! surrogate and the sample, so [`crate::SharedMetaStore`] computes it
//! once. [`surrogate_distance`] composes the two steps from scratch.

use otune_bo::fnv_mix;
use otune_gp::GaussianProcess;
use otune_space::ConfigSpace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Kendall rank-correlation coefficient of two equal-length vectors
/// (τ-a: ties count as discordant-neutral with denominator `n(n−1)/2`).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must be the same length");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            let s = da * db;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// The random configurations `D_rand` of one `(space, n_sample, seed)`,
/// encoded, with a fingerprint of their bits that keys memoized
/// predictions: two spaces draw different samples, so they never share a
/// prediction entry.
#[derive(Debug)]
pub struct DistanceSample {
    xs: Vec<Vec<f64>>,
    fingerprint: u64,
}

impl DistanceSample {
    /// `n_sample` (at least 2) configurations drawn from `space` by an RNG
    /// seeded with `seed`, encoded.
    pub fn new(space: &ConfigSpace, n_sample: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = space
            .sample_n(n_sample.max(2), &mut rng)
            .iter()
            .map(|c| space.encode(c))
            .collect();
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        fnv_mix(&mut fingerprint, xs.len() as u64);
        fnv_mix(&mut fingerprint, space.len() as u64);
        for v in xs.iter().flatten() {
            fnv_mix(&mut fingerprint, v.to_bits());
        }
        DistanceSample { xs, fingerprint }
    }

    /// Fingerprint of the encoded sample (count, width and every value's
    /// bits).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A surrogate's posterior means at every sample point, in sample
    /// order — the one prediction path behind every task distance.
    pub fn predict(&self, gp: &GaussianProcess) -> Vec<f64> {
        self.xs.iter().map(|x| gp.predict_mean(x)).collect()
    }
}

/// Distance between two surrogates from their predictions at the same
/// [`DistanceSample`]: `(1 − τ)/2`, clamped to `[0, 1]`.
pub fn prediction_distance(a: &[f64], b: &[f64]) -> f64 {
    ((1.0 - kendall_tau(a, b)) / 2.0).clamp(0.0, 1.0)
}

/// Distance between two fitted surrogates over a shared random sample of
/// `n_sample` configurations: `(1 − τ)/2`, clamped to `[0, 1]`.
///
/// Both surrogates must be fitted on configuration-only encodings of the
/// same space (no context dims) so their inputs align.
pub fn surrogate_distance(
    space: &ConfigSpace,
    a: &GaussianProcess,
    b: &GaussianProcess,
    n_sample: usize,
    seed: u64,
) -> f64 {
    let sample = DistanceSample::new(space, n_sample, seed);
    prediction_distance(&sample.predict(a), &sample.predict(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_bo::{fit_surrogate, Observation, SurrogateInput};
    use otune_space::{ConfigSpace, Parameter};

    #[test]
    fn tau_perfect_agreement() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        let b = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(kendall_tau(&a, &b), 1.0);
    }

    #[test]
    fn tau_perfect_reversal() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &b), -1.0);
    }

    #[test]
    fn tau_partial() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 3.0, 2.0, 4.0];
        // One discordant pair of six.
        assert!((kendall_tau(&a, &b) - (5.0 - 1.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn tau_degenerate() {
        assert_eq!(kendall_tau(&[], &[]), 1.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 1.0);
        // All ties → τ = 0.
        assert_eq!(kendall_tau(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]), 0.0);
    }

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![Parameter::float("a", 0.0, 1.0, 0.5)])
    }

    fn surrogate_for<F: Fn(f64) -> f64>(space: &ConfigSpace, f: F) -> GaussianProcess {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let obs: Vec<Observation> = space
            .sample_n(20, &mut rng)
            .into_iter()
            .map(|config| {
                let v = f(config[0].as_float().unwrap());
                Observation {
                    failed: false,
                    config,
                    objective: v,
                    runtime: v,
                    resource: 1.0,
                    context: vec![],
                }
            })
            .collect();
        fit_surrogate(space, &obs, SurrogateInput::Objective, 0).unwrap()
    }

    #[test]
    fn similar_tasks_have_small_distance() {
        let s = space();
        let a = surrogate_for(&s, |x| x * 10.0);
        let b = surrogate_for(&s, |x| x * 12.0 + 1.0); // same ordering
        let c = surrogate_for(&s, |x| -x * 10.0); // reversed ordering
        let d_ab = surrogate_distance(&s, &a, &b, 50, 7);
        let d_ac = surrogate_distance(&s, &a, &c, 50, 7);
        assert!(d_ab < 0.15, "aligned surrogates: {d_ab}");
        assert!(d_ac > 0.85, "reversed surrogates: {d_ac}");
    }

    #[test]
    fn sample_fingerprint_separates_spaces_seeds_and_sizes() {
        let s = space();
        let two = ConfigSpace::new(vec![
            Parameter::float("a", 0.0, 1.0, 0.5),
            Parameter::float("b", 0.0, 1.0, 0.5),
        ]);
        let fp = |space: &ConfigSpace, n, seed| DistanceSample::new(space, n, seed).fingerprint();
        assert_eq!(fp(&s, 30, 1), fp(&s, 30, 1));
        assert_ne!(fp(&s, 30, 1), fp(&s, 30, 2));
        assert_ne!(fp(&s, 30, 1), fp(&s, 31, 1));
        assert_ne!(fp(&s, 30, 1), fp(&two, 30, 1));
        // Too-small samples are widened to two points.
        assert_eq!(fp(&s, 0, 1), fp(&s, 2, 1));
    }

    #[test]
    fn distance_is_deterministic_given_seed() {
        let s = space();
        let a = surrogate_for(&s, |x| x);
        let b = surrogate_for(&s, |x| x * x);
        assert_eq!(
            surrogate_distance(&s, &a, &b, 40, 3),
            surrogate_distance(&s, &a, &b, 40, 3)
        );
    }
}
