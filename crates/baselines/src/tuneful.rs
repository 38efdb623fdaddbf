//! Tuneful (Fekry et al., KDD'20): online GP-BO with incremental
//! significance-driven dimensionality reduction — after an exploration
//! phase of ~10 executions the search space shrinks to the most important
//! parameters (a *fixed* sub-space, unlike §4.1's adaptive one).

use crate::Tuner;
use otune_bo::{
    best_observation, expected_improvement, fit_surrogate, Observation, SurrogateInput,
};
use otune_forest::Fanova;
use otune_gp::GpConfig;
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration, Subspace};
use otune_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Tuneful strategy.
pub struct Tuneful {
    space: ConfigSpace,
    rng: StdRng,
    /// Exploration executions before the space shrinks.
    exploration: usize,
    /// Size of the fixed reduced space after exploration.
    k: usize,
    /// Cached important-parameter set once computed.
    important: Option<Vec<usize>>,
    n_candidates: usize,
    seed: u64,
    /// Worker pool for its model fits, sized from the environment.
    pool: Pool,
}

impl Tuneful {
    /// Create a Tuneful tuner (paper-ish defaults: 10 exploration runs,
    /// 8 retained parameters).
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        Tuneful {
            space,
            rng: StdRng::seed_from_u64(seed ^ 0x70BE),
            exploration: 10,
            k: 8,
            important: None,
            n_candidates: 400,
            seed,
            pool: Pool::from_env(),
        }
    }
}

impl Tuner for Tuneful {
    fn suggest(&mut self, history: &[Observation], _context: &[f64]) -> Configuration {
        if history.len() < self.exploration {
            // Significance-analysis phase: space-filling probes.
            let probes = self
                .space
                .low_discrepancy(history.len() + 1, self.seed ^ 0x7F);
            return probes[history.len()].clone();
        }
        // One-shot importance analysis (Tuneful fixes the space afterwards).
        if self.important.is_none() {
            let x: Vec<Vec<f64>> = history
                .iter()
                .map(|o| self.space.encode(&o.config))
                .collect();
            let y: Vec<f64> = history.iter().map(|o| o.objective).collect();
            let ranking = match Fanova::fit(&x, &y, self.seed, &self.pool) {
                Ok(f) => f.ranking(),
                Err(_) => (0..self.space.len()).collect(),
            };
            self.important = Some(
                ranking
                    .into_iter()
                    .take(self.k.min(self.space.len()))
                    .collect(),
            );
        }
        let incumbent = best_observation(history, None, None).expect("history non-empty");
        let free = self.important.clone().expect("set above");
        let sub = Subspace::new(&self.space, free, incumbent.config.clone())
            .expect("importance indices are valid");

        let stripped: Vec<Observation> = history
            .iter()
            .map(|o| Observation {
                context: vec![],
                objective: o.objective.max(1e-9).ln(),
                ..o.clone()
            })
            .collect();
        let cfg = GpConfig {
            seed: self.seed,
            ..GpConfig::default()
        };
        let tm = Telemetry::disabled();
        let Ok(gp) = fit_surrogate(
            &self.space,
            &stripped,
            SurrogateInput::Objective,
            cfg,
            &self.pool,
            &tm,
        ) else {
            return sub.sample(&mut self.rng);
        };
        let mut best: Option<(Configuration, f64)> = None;
        for cand in sub.sample_n(self.n_candidates, &mut self.rng) {
            let x = self.space.encode(&cand);
            let (m, v) = gp.predict(&x);
            let acq = expected_improvement(m, v, incumbent.objective.max(1e-9).ln());
            if best.as_ref().is_none_or(|(_, b)| acq > *b) {
                best = Some((cand, acq));
            }
        }
        best.map(|(c, _)| c)
            .unwrap_or_else(|| sub.sample(&mut self.rng))
    }

    fn name(&self) -> &'static str {
        "Tuneful"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::Parameter;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::float("important", 0.0, 1.0, 0.5),
            Parameter::float("noise1", 0.0, 1.0, 0.5),
            Parameter::float("noise2", 0.0, 1.0, 0.5),
            Parameter::float("noise3", 0.0, 1.0, 0.5),
        ])
    }

    fn eval(c: &Configuration) -> Observation {
        let a = c[0].as_float().unwrap();
        let obj = (a - 0.6) * (a - 0.6) * 50.0;
        Observation {
            failed: false,
            config: c.clone(),
            objective: obj,
            runtime: obj,
            resource: 1.0,
            context: vec![],
        }
    }

    #[test]
    fn shrinks_space_after_exploration() {
        let s = space();
        let mut t = Tuneful::new(s.clone(), 1);
        t.k = 1;
        let mut history = Vec::new();
        for i in 0..15 {
            let c = t.suggest(&history, &[]);
            s.validate(&c).unwrap();
            if i < 10 {
                assert!(t.important.is_none(), "still exploring at iter {i}");
            }
            history.push(eval(&c));
        }
        let important = t.important.as_ref().unwrap();
        assert_eq!(important.len(), 1);
        assert_eq!(important[0], 0, "identified the influential parameter");
    }

    #[test]
    fn converges_in_reduced_space() {
        let s = space();
        let mut t = Tuneful::new(s.clone(), 5);
        t.k = 2;
        let mut history = Vec::new();
        for _ in 0..25 {
            let c = t.suggest(&history, &[]);
            history.push(eval(&c));
        }
        let best = history
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 2.0, "converged: {best}");
        assert_eq!(t.name(), "Tuneful");
    }
}
