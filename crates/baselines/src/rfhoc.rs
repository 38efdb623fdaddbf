//! RFHOC (Bei et al., TPDS'15): random-forest performance models explored
//! with a genetic algorithm. Originally an offline method needing many
//! training executions; under the online budget it trains on whatever
//! history exists, which is why Figure 4 shows it lagging the BO methods.

use crate::ga::{GaParams, GeneticAlgorithm};
use crate::Tuner;
use otune_bo::Observation;
use otune_forest::{ForestConfig, RandomForest};
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RFHOC strategy.
pub struct Rfhoc {
    space: ConfigSpace,
    ga: GeneticAlgorithm,
    rng: StdRng,
    /// Observations required before the model is trusted.
    min_history: usize,
    /// Worker pool for its model fits, sized from the environment.
    pool: Pool,
}

impl Rfhoc {
    /// Create an RFHOC tuner.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        Rfhoc {
            space,
            ga: GeneticAlgorithm::new(GaParams::default()),
            rng: StdRng::seed_from_u64(seed),
            min_history: 8,
            pool: Pool::from_env(),
        }
    }
}

impl Tuner for Rfhoc {
    fn suggest(&mut self, history: &[Observation], _context: &[f64]) -> Configuration {
        if history.len() < self.min_history {
            return self.space.sample(&mut self.rng);
        }
        let x: Vec<Vec<f64>> = history
            .iter()
            .map(|o| self.space.encode(&o.config))
            .collect();
        let y: Vec<f64> = history.iter().map(|o| o.objective).collect();
        let Ok(forest) = RandomForest::fit(&x, &y, ForestConfig::default(), &self.pool) else {
            return self.space.sample(&mut self.rng);
        };
        let space = self.space.clone();
        let fitness = move |c: &Configuration| forest.predict(&space.encode(c));
        // Seed the GA with the best configurations observed so far.
        let mut sorted: Vec<&Observation> = history.iter().collect();
        sorted.sort_by(|a, b| {
            a.objective
                .partial_cmp(&b.objective)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let seeds: Vec<Configuration> = sorted.iter().take(3).map(|o| o.config.clone()).collect();
        self.ga
            .minimize(&self.space, &seeds, &fitness, &mut self.rng)
    }

    fn name(&self) -> &'static str {
        "RFHOC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::Parameter;

    fn space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("n", 1, 50, 10),
            Parameter::int("m", 1, 32, 8),
        ])
    }

    fn eval(c: &Configuration) -> Observation {
        let n = c[0].as_int().unwrap() as f64;
        let m = c[1].as_int().unwrap() as f64;
        let obj = (n - 30.0).powi(2) + (m - 4.0).powi(2);
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
    fn random_phase_then_model_phase() {
        let s = space();
        let mut t = Rfhoc::new(s.clone(), 1);
        let mut history = Vec::new();
        for _ in 0..20 {
            let c = t.suggest(&history, &[]);
            s.validate(&c).unwrap();
            history.push(eval(&c));
        }
        // The model phase should find a better point than pure chance:
        // the best of the last 10 beats the best of the first 8 usually.
        let best_late = history[8..]
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best_late.is_finite());
        assert_eq!(t.name(), "RFHOC");
    }

    #[test]
    fn converges_on_toy_quadratic() {
        let s = space();
        let mut t = Rfhoc::new(s.clone(), 3);
        let mut history = Vec::new();
        for _ in 0..25 {
            let c = t.suggest(&history, &[]);
            history.push(eval(&c));
        }
        let best = history
            .iter()
            .map(|o| o.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 350.0, "approached the optimum: {best}");
    }
}
