//! Gradient-boosted regression trees — the LightGBM stand-in.
//!
//! §5.1: the paper trains a LightGBM regressor `M_reg: (v₁, v₂) ↦ d` that
//! predicts the distance between two tuning tasks from their concatenated
//! meta-feature vectors. The data is small (pairs of tasks), so a plain
//! gradient-boosting implementation over the CART trees from
//! [`otune-forest`](../otune_forest/index.html) — least-squares boosting
//! with shrinkage and optional row subsampling — covers the paper's usage.

use otune_forest::{ForestError, RegressionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Boosting options.
#[derive(Debug, Clone, Copy)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage / learning rate in (0, 1].
    pub learning_rate: f64,
    /// Per-tree options (depth-limited weak learners).
    pub tree: TreeConfig,
    /// Row subsampling fraction per round (stochastic gradient boosting).
    pub subsample: f64,
    /// Seed for subsampling and feature subsampling.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_rounds: 120,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 4,
                min_samples_leaf: 3,
                mtry: None,
            },
            subsample: 0.9,
            seed: 0,
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone)]
pub struct GbdtRegressor {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
}

impl GbdtRegressor {
    /// Fit on rows `x` and targets `y` by least-squares boosting.
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: GbdtConfig) -> Result<Self, ForestError> {
        if x.is_empty() || y.is_empty() {
            return Err(ForestError::Empty);
        }
        let dim = x[0].len();
        if x.len() != y.len() || x.iter().any(|r| r.len() != dim) || dim == 0 {
            return Err(ForestError::ShapeMismatch);
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut residuals: Vec<f64> = y.iter().map(|v| v - base).collect();
        let mut trees = Vec::with_capacity(cfg.n_rounds);

        for _ in 0..cfg.n_rounds {
            // Row subsample.
            let (sx, sr): (Vec<Vec<f64>>, Vec<f64>) = if cfg.subsample < 1.0 {
                let keep: Vec<usize> = (0..x.len())
                    .filter(|_| rng.gen::<f64>() < cfg.subsample)
                    .collect();
                if keep.len() < 2 {
                    continue;
                }
                (
                    keep.iter().map(|&i| x[i].clone()).collect(),
                    keep.iter().map(|&i| residuals[i]).collect(),
                )
            } else {
                (x.to_vec(), residuals.clone())
            };
            let tree = RegressionTree::fit(&sx, &sr, cfg.tree, &mut rng)?;
            for (i, r) in residuals.iter_mut().enumerate() {
                *r -= cfg.learning_rate * tree.predict(&x[i]);
            }
            trees.push(tree);
        }
        Ok(GbdtRegressor {
            base,
            learning_rate: cfg.learning_rate,
            trees,
        })
    }

    /// Predict the target at `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Training RMSE over a dataset (diagnostic).
    pub fn rmse(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        let sse: f64 = x
            .iter()
            .zip(y)
            .map(|(xi, yi)| (self.predict(xi) - yi).powi(2))
            .sum();
        (sse / y.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonlinear(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            y.push((4.0 * row[0]).sin() + row[1] * row[1] * 3.0 - row[2]);
            x.push(row);
        }
        (x, y)
    }

    #[test]
    fn boosting_reduces_training_error_substantially() {
        let (x, y) = nonlinear(300, 1);
        let model = GbdtRegressor::fit(&x, &y, GbdtConfig::default()).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let base_rmse = (y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / y.len() as f64).sqrt();
        assert!(
            model.rmse(&x, &y) < base_rmse * 0.25,
            "{} vs {base_rmse}",
            model.rmse(&x, &y)
        );
    }

    #[test]
    fn generalizes_to_held_out_points() {
        let (x, y) = nonlinear(400, 2);
        let (train_x, test_x) = x.split_at(300);
        let (train_y, test_y) = y.split_at(300);
        let model = GbdtRegressor::fit(train_x, train_y, GbdtConfig::default()).unwrap();
        let mean = train_y.iter().sum::<f64>() / train_y.len() as f64;
        let base_rmse =
            (test_y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / test_y.len() as f64).sqrt();
        let rmse = model.rmse(test_x, test_y);
        assert!(rmse < base_rmse * 0.5, "{rmse} vs {base_rmse}");
    }

    #[test]
    fn more_rounds_fit_tighter() {
        let (x, y) = nonlinear(200, 3);
        let few = GbdtRegressor::fit(
            &x,
            &y,
            GbdtConfig {
                n_rounds: 10,
                ..GbdtConfig::default()
            },
        )
        .unwrap();
        let many = GbdtRegressor::fit(
            &x,
            &y,
            GbdtConfig {
                n_rounds: 200,
                ..GbdtConfig::default()
            },
        )
        .unwrap();
        assert!(many.rmse(&x, &y) < few.rmse(&x, &y));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = nonlinear(100, 4);
        let a = GbdtRegressor::fit(&x, &y, GbdtConfig::default()).unwrap();
        let b = GbdtRegressor::fit(&x, &y, GbdtConfig::default()).unwrap();
        assert_eq!(a.predict(&x[5]), b.predict(&x[5]));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y = vec![7.5; 20];
        let model = GbdtRegressor::fit(&x, &y, GbdtConfig::default()).unwrap();
        assert!((model.predict(&[0.42]) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(GbdtRegressor::fit(&[], &[], GbdtConfig::default()).is_err());
        assert!(GbdtRegressor::fit(&[vec![1.0]], &[1.0, 2.0], GbdtConfig::default()).is_err());
        assert!(GbdtRegressor::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            GbdtConfig::default()
        )
        .is_err());
    }
}
