//! Property-based tests for trees, forests, and fANOVA.

use otune_forest::{Fanova, ForestConfig, RandomForest, RegressionTree, TreeConfig};
use otune_pool::Pool;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn dataset(n: usize, d: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d), n),
        proptest::collection::vec(-10.0f64..10.0, n),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tree predictions never leave the convex hull of the targets.
    #[test]
    fn tree_predictions_bounded_by_targets((x, y) in dataset(20, 3)) {
        let mut rng = StdRng::seed_from_u64(1);
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng).unwrap();
        let (lo, hi) = y.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        for probe in &x {
            let p = t.predict(probe);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
    }

    /// Leaf boxes always tile the unit cube exactly (volume 1).
    #[test]
    fn leaf_boxes_tile_unit_cube((x, y) in dataset(25, 4)) {
        let mut rng = StdRng::seed_from_u64(2);
        let t = RegressionTree::fit(&x, &y, TreeConfig::default(), &mut rng).unwrap();
        let boxes = t.leaf_boxes(&[(0.0, 1.0); 4]);
        let vol: f64 = boxes
            .iter()
            .map(|b| b.bounds.iter().map(|(lo, hi)| (hi - lo).max(0.0)).product::<f64>())
            .sum();
        prop_assert!((vol - 1.0).abs() < 1e-9, "volume {vol}");
    }

    /// Forest predictions are bounded by target extremes too (mean of
    /// bounded trees) and deterministic given the seed.
    #[test]
    fn forest_bounded_and_deterministic((x, y) in dataset(30, 3)) {
        let cfg = ForestConfig { n_trees: 8, ..ForestConfig::default() };
        let f1 = RandomForest::fit(&x, &y, cfg, &Pool::from_env()).unwrap();
        let f2 = RandomForest::fit(&x, &y, cfg, &Pool::from_env()).unwrap();
        let (lo, hi) = y.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        for probe in x.iter().take(5) {
            let p = f1.predict(probe);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            prop_assert_eq!(p, f2.predict(probe));
            let (_, var) = f1.predict_with_variance(probe);
            prop_assert!(var >= 0.0);
        }
    }

    /// fANOVA main-effect importances are valid fractions that sum below
    /// the total variance budget plus interactions (≤ dims is a loose cap).
    #[test]
    fn fanova_importances_are_fractions((x, y) in dataset(40, 4)) {
        let f = Fanova::fit(&x, &y, 3, &Pool::from_env()).unwrap();
        let imp = f.importance();
        prop_assert_eq!(imp.len(), 4);
        for v in &imp {
            prop_assert!((0.0..=1.0).contains(v), "{v}");
        }
        let pair = f.pairwise_importance(0, 1);
        prop_assert!((0.0..=1.0).contains(&pair));
    }
}
