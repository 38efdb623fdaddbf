//! Property-based tests for the linalg substrate.

use otune_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

fn small_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).unwrap())
}

/// The product `a · b` as the naive triple loop, accumulating `k` terms in
/// ascending order from `0.0`: builds the SPD inputs and checks
/// reconstructions.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Build an SPD matrix as B Bᵀ + εI from an arbitrary B.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    small_matrix(n).prop_map(move |b| {
        let mut a = naive_matmul(&b, &b.transpose());
        a.add_diagonal(0.5).unwrap();
        a
    })
}

proptest! {
    #[test]
    fn transpose_involution(m in small_matrix(4)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(5)) {
        let ch = Cholesky::decompose(&a).unwrap();
        let rec = naive_matmul(ch.l(), &ch.l().transpose());
        let scale = a.max_abs().max(1.0);
        for i in 0..5 {
            for j in 0..5 {
                // Reconstruction differs from A only by the jitter on the diagonal.
                let expect = a[(i, j)] + if i == j { ch.jitter() } else { 0.0 };
                prop_assert!((rec[(i, j)] - expect).abs() < 1e-8 * scale);
            }
        }
    }

    #[test]
    fn cholesky_solve_is_inverse_application(a in spd_matrix(4), b in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let ch = Cholesky::decompose(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        // (A + jitter I) x == b
        let mut aj = a.clone();
        aj.add_diagonal(ch.jitter()).unwrap();
        let back = aj.matvec(&x).unwrap();
        let scale = a.max_abs().max(1.0);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6 * scale, "{u} vs {v}");
        }
    }

    #[test]
    fn solve_lower_batch_matches_per_column(
        a in spd_matrix(5),
        b in proptest::collection::vec(-3.0f64..3.0, 5 * 7),
    ) {
        let ch = Cholesky::decompose(&a).unwrap();
        let rhs = Matrix::from_vec(5, 7, b).unwrap();
        let y = ch.solve_lower_batch(&rhs).unwrap();
        for j in 0..7 {
            let col: Vec<f64> = (0..5).map(|i| rhs[(i, j)]).collect();
            let want = ch.solve_lower(&col).unwrap();
            for i in 0..5 {
                // Same op sequence per column ⇒ bitwise agreement.
                prop_assert_eq!(y[(i, j)].to_bits(), want[i].to_bits());
            }
        }
    }

    #[test]
    fn solve_lower_into_matches_allocating(
        a in spd_matrix(4),
        b in proptest::collection::vec(-3.0f64..3.0, 4),
    ) {
        let ch = Cholesky::decompose(&a).unwrap();
        let want = ch.solve_lower(&b).unwrap();
        let mut got = Vec::new();
        ch.solve_lower_into(&b, &mut got).unwrap();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn log_det_positive_for_dominant_diagonal(mut a in spd_matrix(3)) {
        // Make eigenvalues > 1 so log-det must be positive.
        a.add_diagonal(1.0).unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        prop_assert!(ch.log_det() > 0.0);
    }

    #[test]
    fn matvec_linearity(m in small_matrix(3), v in proptest::collection::vec(-2.0f64..2.0, 3), s in -3.0f64..3.0) {
        let scaled: Vec<f64> = v.iter().map(|x| x * s).collect();
        let lhs = m.matvec(&scaled).unwrap();
        let rhs: Vec<f64> = m.matvec(&v).unwrap().iter().map(|x| x * s).collect();
        for (a, b) in lhs.iter().zip(&rhs) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}

/// Deterministic pseudo-random fill so the blocked-vs-scalar sweeps can
/// cover sizes up to 64 without generating 4096-element proptest vectors.
fn splitmix_entries(seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 10.0 - 5.0
        })
        .collect()
}

/// SPD matrix of size `n` from a seed: B Bᵀ + ½I.
fn seeded_spd(seed: u64, n: usize) -> Matrix {
    let b = Matrix::from_vec(n, n, splitmix_entries(seed, n * n)).unwrap();
    let mut a = naive_matmul(&b, &b.transpose());
    a.add_diagonal(0.5).unwrap();
    a
}

proptest! {
    /// The blocked Cholesky panel kernel is bitwise-identical to the scalar
    /// reference loop across sizes 1..64 — including every non-multiple-of-4
    /// tail — at both zero and nonzero jitter.
    #[test]
    fn blocked_factor_matches_scalar_bitwise(n in 1usize..64, seed in any::<u64>(), jitter_on in any::<bool>()) {
        let a = seeded_spd(seed, n);
        let jitter = if jitter_on { 1e-6 * a.max_abs().max(1.0) } else { 0.0 };
        let mut scalar = Matrix::zeros(n, n);
        let mut blocked = Matrix::zeros(n, n);
        let rs = Cholesky::try_factor_into_scalar(&a, jitter, &mut scalar);
        let rb = Cholesky::try_factor_into(&a, jitter, &mut blocked);
        prop_assert_eq!(rs, rb);
        for i in 0..n {
            for j in 0..=i {
                prop_assert_eq!(
                    blocked[(i, j)].to_bits(),
                    scalar[(i, j)].to_bits(),
                    "entry ({}, {}) of n={}", i, j, n
                );
            }
        }
    }

    /// The register-blocked multi-RHS solve is bitwise-identical to the
    /// scalar reference across system sizes 1..64 and odd column counts.
    #[test]
    fn blocked_batch_solve_matches_scalar_bitwise(n in 1usize..64, m in 1usize..11, seed in any::<u64>()) {
        let ch = Cholesky::decompose(&seeded_spd(seed, n)).unwrap();
        let rhs = Matrix::from_vec(n, m, splitmix_entries(seed ^ 0xDEAD, n * m)).unwrap();
        let mut scalar = rhs.clone();
        let mut blocked = rhs;
        ch.solve_lower_batch_in_place_scalar(&mut scalar).unwrap();
        ch.solve_lower_batch_in_place(&mut blocked).unwrap();
        for i in 0..n {
            for j in 0..m {
                prop_assert_eq!(blocked[(i, j)].to_bits(), scalar[(i, j)].to_bits());
            }
        }
    }
}

proptest! {
    /// Rank-one extension replays the exact FP op sequence of a from-scratch
    /// factorization at the same jitter: the shared prefix is bitwise equal
    /// and the new row agrees to tight tolerance.
    #[test]
    fn cholesky_extension_matches_from_scratch(a in spd_matrix(6)) {
        let n = 5;
        let lead = Matrix::from_vec(
            n,
            n,
            (0..n).flat_map(|i| {
                let a = &a;
                (0..n).map(move |j| a[(i, j)])
            }).collect(),
        )
        .unwrap();
        let mut ext = Cholesky::decompose(&lead).unwrap();
        let row: Vec<f64> = (0..=n).map(|j| a[(n, j)]).collect();
        if ext.extend_with_row(&row).is_ok() {
            let full = Cholesky::decompose_with_jitter(&a, ext.jitter()).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    prop_assert_eq!(ext.l()[(i, j)].to_bits(), full.l()[(i, j)].to_bits());
                }
            }
            let scale = a.max_abs().max(1.0);
            for j in 0..=n {
                prop_assert!(
                    (ext.l()[(n, j)] - full.l()[(n, j)]).abs() <= 1e-10 * scale,
                    "row entry {}: {} vs {}", j, ext.l()[(n, j)], full.l()[(n, j)]
                );
            }
        }
    }

    /// An extended factor solves like a from-scratch factor of the larger
    /// system: (A + jitter I) x == b round-trips.
    #[test]
    fn extended_factor_solves_the_grown_system(
        a in spd_matrix(5),
        b in proptest::collection::vec(-3.0f64..3.0, 5),
    ) {
        let n = 4;
        let lead = Matrix::from_vec(
            n,
            n,
            (0..n).flat_map(|i| {
                let a = &a;
                (0..n).map(move |j| a[(i, j)])
            }).collect(),
        )
        .unwrap();
        let mut ch = Cholesky::decompose(&lead).unwrap();
        let row: Vec<f64> = (0..=n).map(|j| a[(n, j)]).collect();
        if ch.extend_with_row(&row).is_ok() {
            let x = ch.solve(&b).unwrap();
            let mut aj = a.clone();
            aj.add_diagonal(ch.jitter()).unwrap();
            let back = aj.matvec(&x).unwrap();
            let scale = a.max_abs().max(1.0);
            for (u, v) in back.iter().zip(&b) {
                prop_assert!((u - v).abs() < 1e-6 * scale, "{u} vs {v}");
            }
        }
    }
}
