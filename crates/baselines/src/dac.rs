//! DAC (Yu et al., ASPLOS'18): datasize-aware auto-tuning with
//! hierarchical regression-tree models and a genetic algorithm.
//!
//! The hierarchy is modelled as two stacked forests: a first-level forest
//! predicts the objective from `(configuration, data size)`; a second
//! level forest is trained on the first level's residuals, refining the
//! regions the coarse model gets wrong (the paper's hierarchical-modelling
//! trick at reduced scale). GA explores the combined model, with the
//! current data size pinned.

use crate::ga::{GaParams, GeneticAlgorithm};
use crate::Tuner;
use otune_bo::Observation;
use otune_forest::{ForestConfig, RandomForest, TreeConfig};
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DAC strategy.
pub struct Dac {
    space: ConfigSpace,
    ga: GeneticAlgorithm,
    rng: StdRng,
    min_history: usize,
    /// Worker pool for its model fits, sized from the environment.
    pool: Pool,
}

impl Dac {
    /// Create a DAC tuner.
    pub fn new(space: ConfigSpace, seed: u64) -> Self {
        Dac {
            space,
            ga: GeneticAlgorithm::new(GaParams::default()),
            rng: StdRng::seed_from_u64(seed ^ 0xDAC),
            min_history: 8,
            pool: Pool::from_env(),
        }
    }
}

impl Tuner for Dac {
    fn suggest(&mut self, history: &[Observation], context: &[f64]) -> Configuration {
        if history.len() < self.min_history {
            return self.space.sample(&mut self.rng);
        }
        let x: Vec<Vec<f64>> = history
            .iter()
            .map(|o| {
                let mut v = self.space.encode(&o.config);
                v.extend_from_slice(&o.context);
                // Pad to a consistent width if history contexts vary.
                v.resize(self.space.len() + context.len().max(o.context.len()), 0.0);
                v
            })
            .collect();
        let width = x[0].len();
        let x: Vec<Vec<f64>> = x
            .into_iter()
            .map(|mut v| {
                v.resize(width, 0.0);
                v
            })
            .collect();
        let y: Vec<f64> = history.iter().map(|o| o.objective).collect();

        // Level 1: coarse model.
        let coarse_cfg = ForestConfig {
            n_trees: 16,
            tree: TreeConfig {
                max_depth: 4,
                min_samples_leaf: 3,
                mtry: None,
            },
            ..ForestConfig::default()
        };
        let Ok(level1) = RandomForest::fit(&x, &y, coarse_cfg, &self.pool) else {
            return self.space.sample(&mut self.rng);
        };
        // Level 2: residual model.
        let residuals: Vec<f64> = x
            .iter()
            .zip(&y)
            .map(|(xi, yi)| yi - level1.predict(xi))
            .collect();
        let fine_cfg = ForestConfig {
            n_trees: 16,
            tree: TreeConfig {
                max_depth: 8,
                min_samples_leaf: 2,
                mtry: None,
            },
            seed: 7,
            ..ForestConfig::default()
        };
        let level2 = RandomForest::fit(&x, &residuals, fine_cfg, &self.pool).ok();

        let space = self.space.clone();
        let ctx: Vec<f64> = {
            let mut c = context.to_vec();
            c.resize(width - space.len(), 0.0);
            c
        };
        let fitness = move |c: &Configuration| {
            let mut v = space.encode(c);
            v.extend_from_slice(&ctx);
            level1.predict(&v) + level2.as_ref().map_or(0.0, |l2| l2.predict(&v))
        };
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
        "DAC"
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

    /// Objective depends on datasize: optimum n tracks ds.
    fn eval(c: &Configuration, ds: f64) -> Observation {
        let n = c[0].as_int().unwrap() as f64;
        let obj = (n - ds * 40.0).powi(2);
        Observation {
            failed: false,
            config: c.clone(),
            objective: obj,
            runtime: obj,
            resource: 1.0,
            context: vec![ds],
        }
    }

    #[test]
    fn adapts_to_datasize_context() {
        let s = space();
        let mut t = Dac::new(s.clone(), 1);
        let mut history = Vec::new();
        // History across two data sizes.
        for i in 0..24 {
            let ds = if i % 2 == 0 { 0.25 } else { 0.75 };
            let c = t.suggest(&history, &[ds]);
            s.validate(&c).unwrap();
            history.push(eval(&c, ds));
        }
        // Final suggestion for ds = 0.75 should target n ≈ 30, not n ≈ 10.
        let c = t.suggest(&history, &[0.75]);
        let n = c[0].as_int().unwrap() as f64;
        assert!(
            (n - 30.0).abs() < 15.0,
            "datasize-aware suggestion: n = {n}"
        );
        assert_eq!(t.name(), "DAC");
    }

    #[test]
    fn random_before_enough_history() {
        let s = space();
        let mut t = Dac::new(s.clone(), 2);
        let c = t.suggest(&[], &[0.5]);
        s.validate(&c).unwrap();
    }
}
