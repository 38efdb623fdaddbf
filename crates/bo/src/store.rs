//! Cross-iteration surrogate cache keyed on a history fingerprint.
//!
//! The online paradigm appends one observation per periodic execution, so
//! the runhistory a `suggest` call sees is almost always the previous
//! history plus one row. [`SurrogateStore`] exploits that: each fitted GP
//! is kept across calls together with a per-observation fingerprint of
//! the encoded inputs and the (already transformed) targets. When the new
//! history is a strict extension, the cached model absorbs only the new
//! rows through [`GaussianProcess::update`] — O(n²) instead of a full
//! O(C·n³) hyperparameter search. When fingerprints diverge — the history
//! was edited, truncated, or an upstream transform rewrote an old target —
//! the cache falls back to a full fit, warm-started from the previous
//! hyperparameter winner.

use crate::observation::Observation;
use crate::surrogate::{encode_with_context, fit_surrogate, SurrogateInput};
use otune_gp::{GaussianProcess, GpConfig, GpError, IncrementalPolicy, UpdateOutcome};
use otune_pool::Pool;
use otune_space::ConfigSpace;
use otune_telemetry::{metric, Telemetry};
use std::sync::Arc;

/// Fold the eight bytes of `bits` into the FNV-1a state `h` (start from
/// the offset basis `0xcbf2_9ce4_8422_2325`).
pub fn fnv_mix(h: &mut u64, bits: u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        *h ^= (bits >> shift) & 0xff;
        *h = h.wrapping_mul(PRIME);
    }
}

/// FNV-1a over one observation exactly as the surrogate sees it: the
/// encoded configuration + context vector, then the modeled target. Any
/// change to an old observation — including a transform change upstream
/// that rewrites its target — changes its fingerprint and invalidates
/// the cached fit.
pub fn observation_fingerprint(space: &ConfigSpace, o: &Observation, input: SurrogateInput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in encode_with_context(space, &o.config, &o.context) {
        fnv_mix(&mut h, v.to_bits());
    }
    fnv_mix(&mut h, input.target(o).to_bits());
    h
}

/// Order-sensitive fingerprint of a whole history: folds the per-observation
/// fingerprints, so any edit, reorder, or truncation changes the result.
pub fn history_fingerprint(space: &ConfigSpace, obs: &[Observation], input: SurrogateInput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in obs {
        fnv_mix(&mut h, observation_fingerprint(space, o, input));
    }
    h
}

/// A persistent fitted surrogate for one metric, reused across
/// `suggest`/`observe` cycles while the history only grows.
#[derive(Debug, Clone)]
pub struct SurrogateCache {
    input: SurrogateInput,
    policy: IncrementalPolicy,
    gp: Option<Arc<GaussianProcess>>,
    /// Per-observation fingerprints of the history the cached model was
    /// fitted on, in history order.
    fps: Vec<u64>,
}

impl SurrogateCache {
    /// An empty cache for the chosen metric.
    pub fn new(input: SurrogateInput, policy: IncrementalPolicy) -> Self {
        SurrogateCache {
            input,
            policy,
            gp: None,
            fps: Vec::new(),
        }
    }

    /// Drop all cached state (the next `prepare` runs a full fit).
    pub fn clear(&mut self) {
        self.gp = None;
        self.fps.clear();
    }

    /// Return a surrogate fitted on exactly `obs`, reusing cached state
    /// whenever `obs` extends the previously seen history.
    pub fn prepare(
        &mut self,
        space: &ConfigSpace,
        obs: &[Observation],
        seed: u64,
        telemetry: &Telemetry,
        pool: &Pool,
    ) -> Result<Arc<GaussianProcess>, GpError> {
        if obs.is_empty() {
            return Err(GpError::Empty);
        }
        let fps: Vec<u64> = obs
            .iter()
            .map(|o| observation_fingerprint(space, o, self.input))
            .collect();

        let input = self.input;
        let policy = self.policy;
        if let Some(gp) = &mut self.gp {
            let n_cached = self.fps.len();
            if fps.len() >= n_cached && fps[..n_cached] == self.fps[..] {
                if fps.len() == n_cached {
                    telemetry.incr(metric::SURROGATE_CACHE_HITS);
                    return Ok(Arc::clone(gp));
                }
                // Append-only extension: absorb the new rows one by one.
                let _span = telemetry.span(metric::GP_FIT_S);
                let _trace = telemetry.trace_span("gp_update");
                let model = Arc::make_mut(gp);
                let cfg = GpConfig {
                    seed,
                    ..GpConfig::default()
                };
                let mut extended = true;
                for (o, &fp) in obs[n_cached..].iter().zip(&fps[n_cached..]) {
                    let x = encode_with_context(space, &o.config, &o.context);
                    match model.update(x, input.target(o), &policy, cfg, pool, telemetry) {
                        Ok(outcome) => {
                            telemetry.incr(match outcome {
                                UpdateOutcome::Incremental => metric::SURROGATE_INCREMENTAL_UPDATES,
                                UpdateOutcome::JitterInvalidated => metric::SURROGATE_FULL_REFITS,
                                UpdateOutcome::HyperSearch(_) => metric::GP_HYPER_SEARCHES,
                            });
                            self.fps.push(fp);
                        }
                        Err(_) => {
                            // Roll everything into a full fit below.
                            extended = false;
                            break;
                        }
                    }
                }
                if extended {
                    telemetry.incr(metric::SURROGATE_CACHE_HITS);
                    return Ok(Arc::clone(gp));
                }
            }
        }

        // Cache miss: the history was edited (or never seen). Run a full
        // fit, warm-started from the previous hyperparameter winner.
        telemetry.incr(metric::SURROGATE_CACHE_MISSES);
        let warm_hyper = self.gp.as_ref().map(|g| g.kernel().hyper);
        self.clear();
        let _span = telemetry.span(metric::GP_FIT_S);
        let _trace = telemetry.trace_span("gp_full_fit");
        let cfg = GpConfig {
            seed,
            warm_hyper,
            ..GpConfig::default()
        };
        let gp = fit_surrogate(space, obs, self.input, cfg, pool, telemetry)?;
        telemetry.incr(metric::GP_HYPER_SEARCHES);
        telemetry.add(metric::CHOL_JITTER_RETRIES, u64::from(gp.jitter_retries()));
        let gp = Arc::new(gp);
        self.gp = Some(Arc::clone(&gp));
        self.fps = fps;
        Ok(gp)
    }
}

/// The pair of persistent surrogates the generator needs each iteration:
/// runtime (safety/constraint) and generalized objective.
#[derive(Debug, Clone)]
pub struct SurrogateStore {
    runtime: SurrogateCache,
    objective: SurrogateCache,
}

impl SurrogateStore {
    /// Empty caches under the given maintenance policy.
    pub fn new(policy: IncrementalPolicy) -> Self {
        SurrogateStore {
            runtime: SurrogateCache::new(SurrogateInput::Runtime, policy),
            objective: SurrogateCache::new(SurrogateInput::Objective, policy),
        }
    }

    /// Drop all cached state.
    pub fn clear(&mut self) {
        self.runtime.clear();
        self.objective.clear();
    }

    /// Fitted `(runtime, objective)` surrogates for exactly `obs`.
    pub fn prepare(
        &mut self,
        space: &ConfigSpace,
        obs: &[Observation],
        seed: u64,
        telemetry: &Telemetry,
        pool: &Pool,
    ) -> Result<(Arc<GaussianProcess>, Arc<GaussianProcess>), GpError> {
        let runtime = self.runtime.prepare(space, obs, seed, telemetry, pool)?;
        let objective = self.objective.prepare(space, obs, seed, telemetry, pool)?;
        Ok((runtime, objective))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{ConfigSpace, Parameter};
    use rand::{rngs::StdRng, SeedableRng};

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("a", 0, 10, 5),
            Parameter::float("b", 0.0, 1.0, 0.5),
        ])
    }

    fn make_obs(space: &ConfigSpace, n: usize) -> Vec<Observation> {
        let mut rng = StdRng::seed_from_u64(3);
        (0..n)
            .map(|i| {
                let config = space.sample(&mut rng);
                let a = config[0].as_int().unwrap() as f64;
                let b = config[1].as_float().unwrap();
                Observation {
                    failed: false,
                    objective: (a - 4.0).powi(2) + b,
                    runtime: 50.0 + a * 3.0 - b,
                    resource: 1.0,
                    context: vec![i as f64 / n as f64],
                    config,
                }
            })
            .collect()
    }

    fn registryd() -> Telemetry {
        Telemetry::new(Box::new(otune_telemetry::NullSink))
    }

    #[test]
    fn identical_history_is_a_pure_hit() {
        let s = space();
        let obs = make_obs(&s, 8);
        let telemetry = registryd();
        let mut cache =
            SurrogateCache::new(SurrogateInput::Objective, IncrementalPolicy::default());
        let a = cache
            .prepare(&s, &obs, 0, &telemetry, &Pool::from_env())
            .unwrap();
        let b = cache
            .prepare(&s, &obs, 0, &telemetry, &Pool::from_env())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SURROGATE_CACHE_HITS], 1);
        assert_eq!(snap.counters[metric::SURROGATE_CACHE_MISSES], 1);
    }

    #[test]
    fn appended_history_extends_incrementally_and_matches_full_refit() {
        let s = space();
        let obs = make_obs(&s, 12);
        let telemetry = registryd();
        // Disable re-searches so the extension path is pure.
        let policy = IncrementalPolicy::never_research();
        let mut cache = SurrogateCache::new(SurrogateInput::Runtime, policy);
        cache
            .prepare(&s, &obs[..10], 0, &telemetry, &Pool::from_env())
            .unwrap();
        let extended = cache
            .prepare(&s, &obs, 0, &telemetry, &Pool::from_env())
            .unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SURROGATE_INCREMENTAL_UPDATES], 2);

        // Same-hyper full refit must agree bitwise on the append-only path.
        let full = fit_surrogate(
            &s,
            &obs,
            SurrogateInput::Runtime,
            GpConfig {
                optimize_hypers: false,
                warm_hyper: Some(extended.kernel().hyper),
                ..GpConfig::default()
            },
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let probe = encode_with_context(&s, &obs[3].config, &[0.5]);
        let (m_inc, v_inc) = extended.predict(&probe);
        let (m_full, v_full) = full.predict(&probe);
        assert_eq!(m_inc.to_bits(), m_full.to_bits());
        assert_eq!(v_inc.to_bits(), v_full.to_bits());
    }

    #[test]
    fn edited_history_invalidates() {
        let s = space();
        let mut obs = make_obs(&s, 9);
        let telemetry = registryd();
        let mut cache =
            SurrogateCache::new(SurrogateInput::Objective, IncrementalPolicy::default());
        cache
            .prepare(&s, &obs, 0, &telemetry, &Pool::from_env())
            .unwrap();
        // Rewrite an old target — e.g. a transform change upstream.
        obs[2].objective += 1.0;
        cache
            .prepare(&s, &obs, 0, &telemetry, &Pool::from_env())
            .unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SURROGATE_CACHE_MISSES], 2);
        assert!(!snap.counters.contains_key(metric::SURROGATE_CACHE_HITS));
    }

    #[test]
    fn truncated_history_invalidates() {
        let s = space();
        let obs = make_obs(&s, 9);
        let telemetry = registryd();
        let mut cache = SurrogateCache::new(SurrogateInput::Runtime, IncrementalPolicy::default());
        cache
            .prepare(&s, &obs, 0, &telemetry, &Pool::from_env())
            .unwrap();
        cache
            .prepare(&s, &obs[..5], 0, &telemetry, &Pool::from_env())
            .unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::SURROGATE_CACHE_MISSES], 2);
    }

    /// The two ways to maintain a surrogate — point-by-point under the
    /// default policy, or one same-hyper full refit of the whole history
    /// (the test-only oracle) — build bitwise-identical models.
    #[test]
    fn both_modes_build_identical_models() {
        let s = space();
        let obs = make_obs(&s, 14);
        let telemetry = Telemetry::disabled();
        let mut cache =
            SurrogateCache::new(SurrogateInput::Objective, IncrementalPolicy::default());
        cache
            .prepare(&s, &obs[..3], 0, &telemetry, &Pool::from_env())
            .unwrap();
        let mut gp = None;
        for n in 4..=obs.len() {
            gp = Some(
                cache
                    .prepare(&s, &obs[..n], 0, &telemetry, &Pool::from_env())
                    .unwrap(),
            );
        }
        let gp = gp.unwrap();
        let full = fit_surrogate(
            &s,
            &obs,
            SurrogateInput::Objective,
            GpConfig {
                optimize_hypers: false,
                warm_hyper: Some(gp.kernel().hyper),
                ..GpConfig::default()
            },
            &Pool::from_env(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let probe = encode_with_context(&s, &obs[0].config, &[0.3]);
        let (m_inc, v_inc) = gp.predict(&probe);
        let (m_full, v_full) = full.predict(&probe);
        assert_eq!(m_inc.to_bits(), m_full.to_bits());
        assert_eq!(v_inc.to_bits(), v_full.to_bits());
    }
}
