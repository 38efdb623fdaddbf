//! CART regression trees with leaf-box extraction.

use crate::ForestError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Tree-growing options.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required in each child after a split.
    pub min_samples_leaf: usize,
    /// Number of candidate features per split (`None` = all).
    pub mtry: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_leaf: 2,
            mtry: None,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    dim: usize,
}

/// An axis-aligned leaf box with its prediction: the partition element
/// fANOVA integrates over.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafBox {
    /// Per-dimension `[lo, hi)` bounds.
    pub bounds: Vec<(f64, f64)>,
    /// The leaf's predicted value.
    pub value: f64,
}

impl RegressionTree {
    /// Fit a tree on rows `x` (consistent width) and targets `y`.
    ///
    /// `rng` drives feature subsampling when `cfg.mtry` is set.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        cfg: TreeConfig,
        rng: &mut StdRng,
    ) -> Result<Self, ForestError> {
        if x.is_empty() || y.is_empty() {
            return Err(ForestError::Empty);
        }
        let dim = x[0].len();
        if x.len() != y.len() || x.iter().any(|r| r.len() != dim) || dim == 0 {
            return Err(ForestError::ShapeMismatch);
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            dim,
        };
        let idx: Vec<usize> = (0..x.len()).collect();
        tree.grow(x, y, idx, 0, cfg, rng);
        Ok(tree)
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: Vec<usize>,
        depth: usize,
        cfg: TreeConfig,
        rng: &mut StdRng,
    ) -> usize {
        let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { value: mean });
            nodes.len() - 1
        };
        if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_samples_leaf {
            return make_leaf(&mut self.nodes);
        }

        // Candidate features.
        let mut feats: Vec<usize> = (0..self.dim).collect();
        if let Some(m) = cfg.mtry {
            feats.shuffle(rng);
            feats.truncate(m.clamp(1, self.dim));
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &f in &feats {
            let mut vals: Vec<(f64, f64)> = idx.iter().map(|&i| (x[i][f], y[i])).collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            // Prefix sums for O(n) split scan.
            let n = vals.len();
            let total_sum: f64 = vals.iter().map(|v| v.1).sum();
            let total_sq: f64 = vals.iter().map(|v| v.1 * v.1).sum();
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            for k in 0..n - 1 {
                lsum += vals[k].1;
                lsq += vals[k].1 * vals[k].1;
                if vals[k].0 == vals[k + 1].0 {
                    continue; // no threshold between equal values
                }
                let nl = (k + 1) as f64;
                let nr = (n - k - 1) as f64;
                if (nl as usize) < cfg.min_samples_leaf || (nr as usize) < cfg.min_samples_leaf {
                    continue;
                }
                let rsum = total_sum - lsum;
                let rsq = total_sq - lsq;
                // Sum of squared errors after the split.
                let sse = (lsq - lsum * lsum / nl) + (rsq - rsum * rsum / nr);
                let threshold = 0.5 * (vals[k].0 + vals[k + 1].0);
                if best.is_none_or(|(_, _, s)| sse < s) {
                    best = Some((f, threshold, sse));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| x[i][feature] < threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(&mut self.nodes);
        }

        // Reserve the split node, grow children, then patch.
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = self.grow(x, y, left_idx, depth + 1, cfg, rng);
        let right = self.grow(x, y, right_idx, depth + 1, cfg, rng);
        self.nodes[node_id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Predict the value at `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        // Root is the first node pushed *after* placeholders are patched —
        // with our construction the root is node 0 when the tree has one
        // node, otherwise the first Split pushed is node 0.
        let mut node = 0;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Enumerate the leaf partition of `root_box` (per-dimension bounds).
    pub fn leaf_boxes(&self, root_box: &[(f64, f64)]) -> Vec<LeafBox> {
        debug_assert_eq!(root_box.len(), self.dim);
        let mut out = Vec::with_capacity(self.n_leaves());
        self.collect_boxes(0, root_box.to_vec(), &mut out);
        out
    }

    fn collect_boxes(&self, node: usize, bounds: Vec<(f64, f64)>, out: &mut Vec<LeafBox>) {
        match &self.nodes[node] {
            Node::Leaf { value } => out.push(LeafBox {
                bounds,
                value: *value,
            }),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let mut lb = bounds.clone();
                lb[*feature].1 = lb[*feature].1.min(*threshold);
                let mut rb = bounds;
                rb[*feature].0 = rb[*feature].0.max(*threshold);
                self.collect_boxes(*left, lb, out);
                self.collect_boxes(*right, rb, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 if x0 < 0.5 else 5, independent of x1.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let v = i as f64 / 19.0;
            x.push(vec![v, (i % 5) as f64 / 4.0]);
            y.push(if v < 0.5 { 1.0 } else { 5.0 });
        }
        (x, y)
    }

    #[test]
    fn learns_a_step_function() {
        let (x, y) = step_data();
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng()).unwrap();
        assert!((t.predict(&[0.2, 0.3]) - 1.0).abs() < 1e-9);
        assert!((t.predict(&[0.8, 0.3]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = step_data();
        let t = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                max_depth: 0,
                ..TreeConfig::default()
            },
            &mut rng(),
        )
        .unwrap();
        assert_eq!(t.n_leaves(), 1);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict(&[0.1, 0.1]) - mean).abs() < 1e-9);
    }

    #[test]
    fn leaf_boxes_partition_the_cube() {
        let (x, y) = step_data();
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng()).unwrap();
        let boxes = t.leaf_boxes(&[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(boxes.len(), t.n_leaves());
        let vol: f64 = boxes
            .iter()
            .map(|b| {
                b.bounds
                    .iter()
                    .map(|(lo, hi)| (hi - lo).max(0.0))
                    .product::<f64>()
            })
            .sum();
        assert!((vol - 1.0).abs() < 1e-9, "boxes tile the cube, got {vol}");
    }

    #[test]
    fn prediction_matches_containing_box() {
        let (x, y) = step_data();
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng()).unwrap();
        let boxes = t.leaf_boxes(&[(0.0, 1.0), (0.0, 1.0)]);
        let probe = [0.31, 0.62];
        let by_tree = t.predict(&probe);
        let by_box = boxes
            .iter()
            .find(|b| {
                b.bounds
                    .iter()
                    .zip(&probe)
                    .all(|((lo, hi), v)| v >= lo && v < hi)
            })
            .map(|b| b.value)
            .unwrap();
        assert_eq!(by_tree, by_box);
    }

    #[test]
    fn min_samples_leaf_limits_granularity() {
        let (x, y) = step_data();
        let coarse = RegressionTree::fit(
            &x,
            &y,
            TreeConfig {
                min_samples_leaf: 8,
                ..TreeConfig::default()
            },
            &mut rng(),
        )
        .unwrap();
        assert!(coarse.n_leaves() <= x.len() / 8 + 1);
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert!(RegressionTree::fit(&[], &[], TreeConfig::default(), &mut rng()).is_err());
        assert!(RegressionTree::fit(
            &[vec![0.0], vec![1.0, 2.0]],
            &[1.0, 2.0],
            TreeConfig::default(),
            &mut rng()
        )
        .is_err());
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 10];
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng()).unwrap();
        // Splits cannot improve SSE 0; best stays None only if all
        // thresholds yield sse >= 0 == current... the first valid split has
        // sse == 0 too, so a split may occur; prediction must still be 3.
        assert_eq!(t.predict(&[4.2]), 3.0);
    }
}
