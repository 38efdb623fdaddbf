//! Bootstrapped random forests.

use crate::tree::{RegressionTree, TreeConfig};
use crate::ForestError;
use otune_pool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forest-training options.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growing options.
    pub tree: TreeConfig,
    /// Bootstrap-sample the rows for each tree.
    pub bootstrap: bool,
    /// Seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 32,
            tree: TreeConfig::default(),
            bootstrap: true,
            seed: 0,
        }
    }
}

impl ForestConfig {
    /// Standard fANOVA forest: √d feature subsampling, moderate depth.
    pub fn for_fanova(dim: usize, seed: u64) -> Self {
        ForestConfig {
            n_trees: 24,
            tree: TreeConfig {
                max_depth: 8,
                min_samples_leaf: 2,
                mtry: Some(((dim as f64).sqrt().ceil() as usize * 2).clamp(1, dim)),
            },
            bootstrap: true,
            seed,
        }
    }
}

/// A fitted random forest (mean aggregation).
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    dim: usize,
}

impl RandomForest {
    /// Fit a forest on rows `x` and targets `y`, one tree per item of a
    /// map on `pool`.
    ///
    /// Each tree draws its bootstrap sample and split randomness from its
    /// own RNG, seeded from `(cfg.seed, tree index)` — so the forest is a
    /// pure function of the config and data, identical for every pool
    /// width.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        cfg: ForestConfig,
        pool: &Pool,
    ) -> Result<Self, ForestError> {
        if x.is_empty() || y.is_empty() {
            return Err(ForestError::Empty);
        }
        let dim = x[0].len();
        if x.len() != y.len() || x.iter().any(|r| r.len() != dim) || dim == 0 {
            return Err(ForestError::ShapeMismatch);
        }
        let idxs: Vec<u64> = (0..cfg.n_trees.max(1) as u64).collect();
        let results = pool.map(&idxs, |_, &t| {
            // SplitMix64-style mixing decorrelates per-tree streams even
            // for adjacent tree indices and seeds.
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let (bx, by): (Vec<Vec<f64>>, Vec<f64>) = if cfg.bootstrap {
                let n = x.len();
                (0..n)
                    .map(|_| {
                        let i = rng.gen_range(0..n);
                        (x[i].clone(), y[i])
                    })
                    .unzip()
            } else {
                (x.to_vec(), y.to_vec())
            };
            RegressionTree::fit(&bx, &by, cfg.tree, &mut rng)
        });
        let trees = results
            .into_iter()
            .collect::<Result<Vec<RegressionTree>, ForestError>>()?;
        Ok(RandomForest { trees, dim })
    }

    /// Mean prediction across trees.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Mean and empirical variance of the per-tree predictions — a cheap
    /// uncertainty proxy (used by the RFHOC baseline).
    pub fn predict_with_variance(&self, x: &[f64]) -> (f64, f64) {
        let preds: Vec<f64> = self.trees.iter().map(|t| t.predict(x)).collect();
        (otune_mean(&preds), otune_var(&preds))
    }

    /// The individual trees (fANOVA integrates per tree).
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

fn otune_mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn otune_var(v: &[f64]) -> f64 {
    let m = otune_mean(v);
    v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 sin(π x0 x1) + 20 (x2 − 0.5)² , deterministic grid-ish data.
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..4).map(|_| rng.gen::<f64>()).collect();
            let target = 10.0 * (std::f64::consts::PI * row[0] * row[1]).sin()
                + 20.0 * (row[2] - 0.5) * (row[2] - 0.5);
            x.push(row);
            y.push(target);
        }
        (x, y)
    }

    #[test]
    fn fits_nonlinear_function_better_than_mean() {
        let (x, y) = friedman_like(200);
        let f = RandomForest::fit(&x, &y, ForestConfig::default(), &Pool::from_env()).unwrap();
        let mean = otune_mean(&y);
        let (mut sse_forest, mut sse_mean) = (0.0, 0.0);
        for (xi, yi) in x.iter().zip(&y) {
            sse_forest += (f.predict(xi) - yi).powi(2);
            sse_mean += (mean - yi).powi(2);
        }
        assert!(sse_forest < sse_mean * 0.2, "{sse_forest} vs {sse_mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = friedman_like(50);
        let a = RandomForest::fit(&x, &y, ForestConfig::default(), &Pool::from_env()).unwrap();
        let b = RandomForest::fit(&x, &y, ForestConfig::default(), &Pool::from_env()).unwrap();
        assert_eq!(a.predict(&x[0]), b.predict(&x[0]));
        let c = RandomForest::fit(
            &x,
            &y,
            ForestConfig {
                seed: 9,
                ..ForestConfig::default()
            },
            &Pool::from_env(),
        )
        .unwrap();
        assert_ne!(a.predict(&x[7]), c.predict(&x[7]));
    }

    #[test]
    fn fit_is_pool_width_invariant() {
        let (x, y) = friedman_like(60);
        let cfg = ForestConfig::default();
        let seq = RandomForest::fit(&x, &y, cfg, &Pool::sequential()).unwrap();
        for width in [2, 4, 8] {
            let par = RandomForest::fit(&x, &y, cfg, &Pool::new(width)).unwrap();
            for xi in x.iter().take(10) {
                assert_eq!(
                    seq.predict(xi).to_bits(),
                    par.predict(xi).to_bits(),
                    "width {width}"
                );
            }
        }
    }

    #[test]
    fn variance_shrinks_in_dense_regions() {
        let (x, y) = friedman_like(150);
        let f = RandomForest::fit(&x, &y, ForestConfig::default(), &Pool::from_env()).unwrap();
        let (_, var) = f.predict_with_variance(&x[0]);
        assert!(var.is_finite() && var >= 0.0);
    }

    #[test]
    fn errors_propagate() {
        assert!(RandomForest::fit(&[], &[], ForestConfig::default(), &Pool::from_env()).is_err());
        assert!(RandomForest::fit(
            &[vec![1.0]],
            &[1.0, 2.0],
            ForestConfig::default(),
            &Pool::from_env()
        )
        .is_err());
    }

    #[test]
    fn fanova_config_scales_mtry() {
        let cfg = ForestConfig::for_fanova(30, 1);
        assert!(cfg.tree.mtry.unwrap() <= 30);
        assert!(cfg.tree.mtry.unwrap() >= 6);
    }
}
