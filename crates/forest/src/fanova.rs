//! Functional ANOVA over random-forest partitions (Hutter et al., ICML'14).
//!
//! Each regression tree partitions the unit cube into axis-aligned leaf
//! boxes, so marginal means over any subset of dimensions are exact,
//! linear-time integrals. The variance of the single-dimension marginal,
//! divided by the total variance, is the parameter's *main-effect
//! importance*; subtracting main effects from a two-dimensional marginal's
//! variance gives the *pairwise-interaction importance* (§4.1 uses both).

use crate::forest::{ForestConfig, RandomForest};
use crate::tree::LeafBox;
use crate::ForestError;
use otune_pool::Pool;

/// A fitted fANOVA decomposition.
#[derive(Debug, Clone)]
pub struct Fanova {
    /// Per-tree leaf partitions of the unit cube.
    partitions: Vec<Vec<LeafBox>>,
    dim: usize,
}

impl Fanova {
    /// Fit on encoded observations in the unit cube, growing one tree per
    /// item of a map on `pool`; the result is the same for every pool
    /// width.
    pub fn fit(x: &[Vec<f64>], y: &[f64], seed: u64, pool: &Pool) -> Result<Self, ForestError> {
        if x.is_empty() {
            return Err(ForestError::Empty);
        }
        let dim = x[0].len();
        let forest = RandomForest::fit(x, y, ForestConfig::for_fanova(dim, seed), pool)?;
        let root: Vec<(f64, f64)> = vec![(0.0, 1.0); dim];
        let partitions = forest.trees().iter().map(|t| t.leaf_boxes(&root)).collect();
        Ok(Fanova { partitions, dim })
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Main-effect importance of every dimension: the fraction of each
    /// tree's total variance explained by the dimension's marginal,
    /// averaged over trees. Values are non-negative; they sum to ≤ 1 plus
    /// interaction terms.
    pub fn importance(&self) -> Vec<f64> {
        let mut scores = vec![0.0; self.dim];
        let mut active_trees = 0.0;
        for part in &self.partitions {
            let (mean, total_var) = tree_moments(part);
            if total_var <= 1e-15 {
                continue;
            }
            active_trees += 1.0;
            for (d, score) in scores.iter_mut().enumerate() {
                let v = marginal_variance_1d(part, d, mean);
                *score += (v / total_var).max(0.0);
            }
        }
        if active_trees > 0.0 {
            for s in &mut scores {
                *s /= active_trees;
            }
        }
        scores
    }

    /// Pairwise-interaction importance of dimensions `(a, b)`: the variance
    /// of the 2-D marginal beyond both main effects, as a fraction of total
    /// variance, averaged over trees.
    pub fn pairwise_importance(&self, a: usize, b: usize) -> f64 {
        assert!(
            a < self.dim && b < self.dim && a != b,
            "invalid pair ({a}, {b})"
        );
        let mut score = 0.0;
        let mut active = 0.0;
        for part in &self.partitions {
            let (mean, total_var) = tree_moments(part);
            if total_var <= 1e-15 {
                continue;
            }
            active += 1.0;
            let va = marginal_variance_1d(part, a, mean);
            let vb = marginal_variance_1d(part, b, mean);
            let vab = marginal_variance_2d(part, a, b, mean);
            score += ((vab - va - vb) / total_var).max(0.0);
        }
        if active > 0.0 {
            score / active
        } else {
            0.0
        }
    }

    /// Rank dimensions by main-effect importance, descending.
    pub fn ranking(&self) -> Vec<usize> {
        let imp = self.importance();
        let mut order: Vec<usize> = (0..self.dim).collect();
        order.sort_by(|&i, &j| {
            imp[j]
                .partial_cmp(&imp[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }
}

fn box_volume(b: &LeafBox) -> f64 {
    b.bounds.iter().map(|(lo, hi)| (hi - lo).max(0.0)).product()
}

/// Mean and variance of the tree function under the uniform measure.
fn tree_moments(part: &[LeafBox]) -> (f64, f64) {
    let mut mean = 0.0;
    let mut sq = 0.0;
    for b in part {
        let vol = box_volume(b);
        mean += vol * b.value;
        sq += vol * b.value * b.value;
    }
    let var = sq - mean * mean;
    // Scale-aware degeneracy cutoff: rounding in box volumes leaves O(ε)
    // residual variance for constant trees.
    if var < 1e-10 * sq.abs().max(1e-300) {
        (mean, 0.0)
    } else {
        (mean, var)
    }
}

/// Variance of the one-dimensional marginal `a_d(t) = E[f | x_d = t]`.
fn marginal_variance_1d(part: &[LeafBox], d: usize, mean: f64) -> f64 {
    // Breakpoints along dimension d.
    let mut cuts: Vec<f64> = part
        .iter()
        .flat_map(|b| [b.bounds[d].0, b.bounds[d].1])
        .collect();
    cuts.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);

    let mut var = 0.0;
    for w in cuts.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        let width = t1 - t0;
        if width <= 0.0 {
            continue;
        }
        let mid = 0.5 * (t0 + t1);
        // Marginal value on this interval: sum over boxes containing `mid`
        // in dim d of value × volume of the box in the other dims.
        let mut a = 0.0;
        for b in part {
            let (lo, hi) = b.bounds[d];
            if mid >= lo && mid < hi {
                let len_d = (hi - lo).max(1e-300);
                a += b.value * box_volume(b) / len_d;
            }
        }
        var += width * (a - mean) * (a - mean);
    }
    var
}

/// Variance of the two-dimensional marginal over dims `(a, b)`.
fn marginal_variance_2d(part: &[LeafBox], da: usize, db: usize, mean: f64) -> f64 {
    let mut cuts_a: Vec<f64> = part
        .iter()
        .flat_map(|b| [b.bounds[da].0, b.bounds[da].1])
        .collect();
    cuts_a.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    cuts_a.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    let mut cuts_b: Vec<f64> = part
        .iter()
        .flat_map(|b| [b.bounds[db].0, b.bounds[db].1])
        .collect();
    cuts_b.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    cuts_b.dedup_by(|x, y| (*x - *y).abs() < 1e-12);

    let mut var = 0.0;
    for wa in cuts_a.windows(2) {
        let width_a = wa[1] - wa[0];
        if width_a <= 0.0 {
            continue;
        }
        let mid_a = 0.5 * (wa[0] + wa[1]);
        for wb in cuts_b.windows(2) {
            let width_b = wb[1] - wb[0];
            if width_b <= 0.0 {
                continue;
            }
            let mid_b = 0.5 * (wb[0] + wb[1]);
            let mut a = 0.0;
            for bx in part {
                let (lo_a, hi_a) = bx.bounds[da];
                let (lo_b, hi_b) = bx.bounds[db];
                if mid_a >= lo_a && mid_a < hi_a && mid_b >= lo_b && mid_b < hi_b {
                    let len = (hi_a - lo_a).max(1e-300) * (hi_b - lo_b).max(1e-300);
                    a += bx.value * box_volume(bx) / len;
                }
            }
            var += width_a * width_b * (a - mean) * (a - mean);
        }
    }
    var
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data<F: Fn(&[f64]) -> f64>(n: usize, dim: usize, f: F) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            y.push(f(&row));
            x.push(row);
        }
        (x, y)
    }

    #[test]
    fn dominant_dimension_ranks_first() {
        let (x, y) = data(250, 4, |r| 10.0 * r[2] + 0.5 * r[0]);
        let f = Fanova::fit(&x, &y, 1, &Pool::from_env()).unwrap();
        let imp = f.importance();
        assert_eq!(f.ranking()[0], 2, "importances: {imp:?}");
        assert!(imp[2] > 0.7, "{imp:?}");
        assert!(imp[1] < 0.1 && imp[3] < 0.1, "{imp:?}");
    }

    #[test]
    fn irrelevant_dimensions_score_near_zero() {
        let (x, y) = data(250, 5, |r| (6.0 * r[0]).sin());
        let f = Fanova::fit(&x, &y, 2, &Pool::from_env()).unwrap();
        let imp = f.importance();
        for d in 1..5 {
            assert!(imp[d] < 0.12, "dim {d}: {imp:?}");
        }
        assert!(imp[0] > 0.5, "{imp:?}");
    }

    #[test]
    fn pure_interaction_shows_in_pairwise_not_main() {
        // XOR-like target: main effects ~0, interaction carries everything.
        let (x, y) = data(400, 3, |r| {
            if (r[0] > 0.5) ^ (r[1] > 0.5) {
                1.0
            } else {
                0.0
            }
        });
        let f = Fanova::fit(&x, &y, 3, &Pool::from_env()).unwrap();
        let imp = f.importance();
        let inter = f.pairwise_importance(0, 1);
        assert!(inter > 0.25, "interaction visible: {inter}, main {imp:?}");
        assert!(inter > imp[0] && inter > imp[1], "{inter} vs {imp:?}");
        let unrelated = f.pairwise_importance(0, 2);
        assert!(unrelated < inter / 2.0, "{unrelated} vs {inter}");
    }

    #[test]
    fn importances_are_fractions() {
        let (x, y) = data(150, 6, |r| r[0] * 2.0 + r[1] * r[2]);
        let f = Fanova::fit(&x, &y, 4, &Pool::from_env()).unwrap();
        for v in f.importance() {
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn constant_target_yields_zero_importance() {
        let (x, _) = data(60, 3, |_| 0.0);
        let y = vec![5.0; 60];
        let f = Fanova::fit(&x, &y, 5, &Pool::from_env()).unwrap();
        assert!(f.importance().iter().all(|&v| v == 0.0));
        assert_eq!(f.pairwise_importance(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn pairwise_rejects_same_dim() {
        let (x, y) = data(50, 3, |r| r[0]);
        let f = Fanova::fit(&x, &y, 6, &Pool::from_env()).unwrap();
        let _ = f.pairwise_importance(1, 1);
    }
}
