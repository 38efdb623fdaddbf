//! Equivalence and determinism guarantees for the batched/parallel paths:
//! batched prediction must match scalar prediction, and the fitted model
//! must not depend on the worker-pool width.

use otune_gp::{FeatureKind, GaussianProcess, GpBatchScratch, GpConfig, GpScratch, Rows};
use otune_pool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixed_kinds() -> Vec<FeatureKind> {
    vec![
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Categorical,
        FeatureKind::DataSize,
    ]
}

fn training_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row = vec![
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
            rng.gen_range(0.0..1.0),
            f64::from(rng.gen_range(0u32..3)),
            rng.gen_range(0.0..1.0),
        ];
        let target = (row[0] * 4.0).sin() + row[1] * row[2] + row[3] * 0.3 + row[4];
        x.push(row);
        y.push(target);
    }
    (x, y)
}

fn candidates(m: usize, seed: u64) -> Vec<Vec<f64>> {
    training_data(m, seed).0
}

/// The candidate rows as one row-major buffer (the batched paths' input).
fn flat(cands: &[Vec<f64>]) -> Vec<f64> {
    cands.concat()
}

fn rows(flat: &[f64]) -> Rows<'_> {
    Rows::new(flat, mixed_kinds().len())
}

#[test]
fn predict_batch_matches_scalar_sequence() {
    let (x, y) = training_data(25, 7);
    let gp = GaussianProcess::fit(mixed_kinds(), x, &y, GpConfig::default()).unwrap();
    let cands = candidates(100, 99);
    let batch = gp.predict_batch(rows(&flat(&cands)));
    assert_eq!(batch.len(), cands.len());
    for (c, &(bm, bv)) in cands.iter().zip(&batch) {
        let (sm, sv) = gp.predict(c);
        // The batched path performs the identical op sequence per
        // candidate; require far tighter than the 1e-12 contract.
        assert!((bm - sm).abs() <= 1e-12 * sm.abs().max(1.0), "{bm} vs {sm}");
        assert!((bv - sv).abs() <= 1e-12 * sv.abs().max(1.0), "{bv} vs {sv}");
        assert_eq!(bm.to_bits(), sm.to_bits());
        assert_eq!(bv.to_bits(), sv.to_bits());
    }
}

#[test]
fn pooled_prediction_is_width_invariant() {
    let (x, y) = training_data(20, 3);
    let gp = GaussianProcess::fit(mixed_kinds(), x, &y, GpConfig::default()).unwrap();
    let cands = flat(&candidates(257, 11));
    let seq = gp.predict_batch_pooled(rows(&cands), &Pool::sequential());
    for width in [2, 4, 8] {
        let par = gp.predict_batch_pooled(rows(&cands), &Pool::new(width));
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "width {width}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "width {width}");
        }
    }
}

#[test]
fn predict_with_scratch_matches_predict() {
    let (x, y) = training_data(15, 5);
    let gp = GaussianProcess::fit(mixed_kinds(), x, &y, GpConfig::default()).unwrap();
    let mut scratch = GpScratch::default();
    for c in candidates(20, 21) {
        assert_eq!(gp.predict(&c), gp.predict_with_scratch(&c, &mut scratch));
    }
}

#[test]
fn batch_scratch_reuse_across_shapes_is_safe() {
    let (x, y) = training_data(12, 9);
    let gp = GaussianProcess::fit(mixed_kinds(), x, &y, GpConfig::default()).unwrap();
    let mut scratch = GpBatchScratch::default();
    let mut out = Vec::new();
    for m in [40, 3, 0, 17] {
        let cands = candidates(m, 31 + m as u64);
        gp.predict_batch_into(rows(&flat(&cands)), &mut scratch, &mut out);
        assert_eq!(out.len(), m);
        for (c, &(bm, bv)) in cands.iter().zip(&out) {
            let (sm, sv) = gp.predict(c);
            assert_eq!(bm.to_bits(), sm.to_bits());
            assert_eq!(bv.to_bits(), sv.to_bits());
        }
    }
}

#[test]
fn parallel_fit_selects_same_hyperparameters_as_sequential() {
    let (x, y) = training_data(30, 13);
    for seed in [0u64, 1, 42] {
        let cfg = GpConfig {
            seed,
            ..GpConfig::default()
        };
        let seq =
            GaussianProcess::fit_with_pool(mixed_kinds(), x.clone(), &y, cfg, &Pool::sequential())
                .unwrap();
        for width in [2, 4] {
            let par = GaussianProcess::fit_with_pool(
                mixed_kinds(),
                x.clone(),
                &y,
                cfg,
                &Pool::new(width),
            )
            .unwrap();
            assert_eq!(
                seq.kernel().hyper.to_log(),
                par.kernel().hyper.to_log(),
                "seed {seed} width {width}"
            );
            assert_eq!(
                seq.log_marginal_likelihood().to_bits(),
                par.log_marginal_likelihood().to_bits()
            );
            for c in candidates(10, seed + 100) {
                let (sm, sv) = seq.predict(&c);
                let (pm, pv) = par.predict(&c);
                assert_eq!(sm.to_bits(), pm.to_bits());
                assert_eq!(sv.to_bits(), pv.to_bits());
            }
        }
    }
}
