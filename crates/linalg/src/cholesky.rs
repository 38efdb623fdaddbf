//! Jittered Cholesky factorization for symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Gaussian-process covariance matrices are PSD by construction but can be
/// numerically indefinite when two configurations nearly coincide, so
/// [`Cholesky::decompose`] retries with exponentially increasing diagonal
/// jitter (starting at `1e-10 · max|A|`) before giving up.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (entries above the diagonal are zero).
    l: Matrix,
    /// Jitter that was added to the diagonal to achieve positive definiteness.
    jitter: f64,
    /// Number of failed factorization attempts before success.
    jitter_retries: u32,
}

impl Cholesky {
    /// Factor `a`, adding diagonal jitter if needed.
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square inputs and
    /// [`LinalgError::NotPositiveDefinite`] if even the maximum jitter
    /// (`1e-2 · max|A|`) does not make the matrix factorizable.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let scale = a.max_abs().max(1.0);
        // Jitter ladder: level 0 is no jitter, levels 1..=9 are
        // scale · 1e-10 … scale · 1e-2.
        let ladder = |level: i32| {
            if level == 0 {
                0.0
            } else {
                scale * 1e-10 * 10f64.powi(level - 1)
            }
        };
        let mut l = Matrix::zeros(a.rows(), a.rows());
        let mut level = 0;
        let mut retries = 0u32;
        loop {
            match Self::try_factor_into(a, ladder(level), &mut l) {
                Ok(()) => {
                    return Ok(Cholesky {
                        l,
                        jitter: ladder(level),
                        jitter_retries: retries,
                    })
                }
                Err((pivot, pivot_sum)) => {
                    retries += 1;
                    level += 1;
                    // The failed pivot satisfied `sum + jitter ≤ 0`; any ladder
                    // level whose jitter still leaves `pivot_sum + jitter ≤ 0`
                    // is guaranteed to fail at least as early, so skip straight
                    // past it instead of paying a doomed O(n³) refactor. (The
                    // skip is conservative: larger jitter also perturbs earlier
                    // rows, but only towards *more* positive pivots for the PSD
                    // matrices this is used on.) Non-finite sums disable the
                    // shortcut.
                    if pivot_sum.is_finite() {
                        while level <= 9 && ladder(level) + pivot_sum <= 0.0 {
                            level += 1;
                        }
                    }
                    if level > 9 {
                        return Err(LinalgError::NotPositiveDefinite { pivot });
                    }
                }
            }
        }
    }

    /// One factorization attempt, writing into `l` (reused across jitter
    /// retries). On failure returns the failing pivot index and its
    /// diagonal sum so the caller can skip jitter levels that cannot fix
    /// it. Each attempt rewrites every lower-triangular entry in order
    /// before reading it, so stale values from a failed attempt are never
    /// observed; the upper triangle stays zero from the initial
    /// allocation.
    ///
    /// Blocked panel kernel: row `i`'s off-diagonal entries are produced
    /// four at a time. For a lane block `j0..j0+4` the shared prefix
    /// `k < j0` runs in lockstep — one load of `l[i][k]` feeds four
    /// independent accumulators — and each lane then finishes its short
    /// tail `k = j0..j` sequentially, because those terms read row-`i`
    /// entries the earlier lanes of the same block just wrote. Every entry
    /// `(i, j)` therefore still subtracts its `k` terms in ascending order
    /// exactly like [`Cholesky::try_factor_into_scalar`], so the factor is
    /// bitwise identical (pinned by proptests); the lockstep prefix is
    /// where the 4-wide ILP (and autovectorization) comes from.
    #[doc(hidden)]
    pub fn try_factor_into(
        a: &Matrix,
        jitter: f64,
        l: &mut Matrix,
    ) -> std::result::Result<(), (usize, f64)> {
        const LANES: usize = crate::simd::LANES;
        let n = a.rows();
        for i in 0..n {
            let arow = a.row(i);
            let (prev, row_i) = l.rows_split_mut(i);
            let mut j0 = 0;
            while j0 + LANES <= i {
                let r0 = &prev[j0 * n..(j0 + 1) * n];
                let r1 = &prev[(j0 + 1) * n..(j0 + 2) * n];
                let r2 = &prev[(j0 + 2) * n..(j0 + 3) * n];
                let r3 = &prev[(j0 + 3) * n..(j0 + 4) * n];
                let mut acc = [arow[j0], arow[j0 + 1], arow[j0 + 2], arow[j0 + 3]];
                for k in 0..j0 {
                    let lik = row_i[k];
                    acc[0] -= lik * r0[k];
                    acc[1] -= lik * r1[k];
                    acc[2] -= lik * r2[k];
                    acc[3] -= lik * r3[k];
                }
                // Lane tails: lane t consumes the entries lanes 0..t of
                // this block wrote into row i, in the same ascending-k
                // order the scalar loop uses.
                let rj = [r0, r1, r2, r3];
                for (t, row_j) in rj.iter().enumerate() {
                    let j = j0 + t;
                    let mut sum = acc[t];
                    for k in j0..j {
                        sum -= row_i[k] * row_j[k];
                    }
                    row_i[j] = sum / row_j[j];
                }
                j0 += LANES;
            }
            // Scalar remainder: fewer than LANES off-diagonals left.
            for j in j0..i {
                let row_j = &prev[j * n..(j + 1) * n];
                let mut sum = arow[j];
                for k in 0..j {
                    sum -= row_i[k] * row_j[k];
                }
                row_i[j] = sum / row_j[j];
            }
            // Diagonal pivot, always scalar.
            let mut sum = arow[i] + jitter;
            for &v in row_i.iter().take(i) {
                sum -= v * v;
            }
            if sum <= 0.0 || !sum.is_finite() {
                return Err((i, sum - jitter));
            }
            row_i[i] = sum.sqrt();
        }
        Ok(())
    }

    /// Scalar reference factorization loop: the test-only bitwise ground
    /// truth for [`Cholesky::try_factor_into`].
    #[doc(hidden)]
    pub fn try_factor_into_scalar(
        a: &Matrix,
        jitter: f64,
        l: &mut Matrix,
    ) -> std::result::Result<(), (usize, f64)> {
        let n = a.rows();
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err((i, sum - jitter));
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// Factor `a` at one *fixed* jitter level, without the retry ladder.
    ///
    /// The test oracle for incremental surrogate maintenance:
    /// refactoring a grown covariance matrix at the jitter the cached
    /// factor already carries performs the exact floating-point
    /// operation sequence of the cached prefix rows plus
    /// [`Cholesky::extend_with_row`] for the appended rows, so the two
    /// agree bitwise. Fails with [`LinalgError::NotPositiveDefinite`]
    /// instead of escalating the jitter.
    #[doc(hidden)]
    pub fn decompose_with_jitter(a: &Matrix, jitter: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let mut l = Matrix::zeros(a.rows(), a.rows());
        match Self::try_factor_into(a, jitter, &mut l) {
            Ok(()) => Ok(Cholesky {
                l,
                jitter,
                jitter_retries: 0,
            }),
            Err((pivot, _)) => Err(LinalgError::NotPositiveDefinite { pivot }),
        }
    }

    /// Rank-one *extension*: grow the factorization of an `n × n` matrix
    /// to cover the `(n+1) × (n+1)` matrix obtained by appending one
    /// symmetric row/column, in O(n²) instead of a fresh O(n³) factor.
    ///
    /// `row` is the appended row of the grown matrix: `row[j] = A[n, j]`
    /// for `j < n` plus the new diagonal entry `row[n] = A[n, n]`
    /// (including any observation noise, but *not* the jitter — the
    /// factor's own jitter level is applied to the new diagonal exactly
    /// as [`Cholesky::decompose`] would).
    ///
    /// The new factor row is `l₂₁ = L⁻¹ row[..n]` (forward substitution)
    /// and `L[n,n] = √(row[n] + jitter − l₂₁ᵀl₂₁)`, which is the same
    /// operation sequence as the last row of a from-scratch
    /// factorization at this jitter level — the extension is therefore
    /// bitwise-identical to [`Cholesky::decompose_with_jitter`] on the
    /// grown matrix.
    ///
    /// Fails with [`LinalgError::NotPositiveDefinite`] (leaving the
    /// factor untouched) when the new pivot is non-positive at the
    /// current jitter level; there is no downdate — the caller must
    /// refactor with a fresh jitter ladder.
    pub fn extend_with_row(&mut self, row: &[f64]) -> Result<()> {
        let n = self.l.rows();
        if row.len() != n + 1 {
            return Err(LinalgError::ShapeMismatch {
                left: (n + 1, n + 1),
                right: (row.len(), 1),
            });
        }
        // l₂₁ via forward substitution against the existing factor. The
        // multiply order (L[j,k] · l₂₁[k]) matches try_factor_into's
        // (l[i,k] · l[j,k]) term-for-term; IEEE multiplication is
        // commutative, so the sums agree bitwise.
        let l21 = self.solve_lower(&row[..n])?;
        let mut pivot = row[n] + self.jitter;
        for v in &l21 {
            pivot -= v * v;
        }
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: n });
        }
        self.l.grow_square()?;
        let new_row = self.l.row_mut(n);
        new_row[..n].copy_from_slice(&l21);
        new_row[n] = pivot.sqrt();
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Jitter added to the diagonal during factorization (0 when none was needed).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Number of failed factorization attempts before this factor
    /// succeeded (0 when the jitter-free attempt worked).
    pub fn jitter_retries(&self) -> u32 {
        self.jitter_retries
    }

    /// Solve `L y = b` (forward substitution).
    #[allow(clippy::needless_range_loop)] // triangular-solve indexing is clearest explicit
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solve `L y = b` into a caller-provided buffer (resized as needed),
    /// avoiding the per-call allocation of [`Cholesky::solve_lower`].
    /// Performs the identical sequence of floating-point operations.
    #[allow(clippy::needless_range_loop)] // triangular-solve indexing is clearest explicit
    pub fn solve_lower_into(&self, b: &[f64], y: &mut Vec<f64>) -> Result<()> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        y.clear();
        y.resize(n, 0.0);
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solve `L Y = B` for every column of `B` at once (multi-RHS forward
    /// substitution), overwriting `b` with `Y`.
    ///
    /// Column `j` of the result is produced by the *same* sequence of
    /// floating-point operations as `solve_lower(column j)` — the row
    /// recurrence `yᵢ = (bᵢ − Σ_{k<i} L[i,k]·y_k) / L[i,i]` applied
    /// element-wise — so batched and per-vector solves agree bitwise.
    /// The batched layout just turns the inner loop into contiguous row
    /// operations.
    ///
    /// The kernel is register-blocked: four `k` terms per pass over row
    /// `i`, applied as four *separate* subtractions in ascending-`k`
    /// order — the identical operation sequence per output element as
    /// [`Cholesky::solve_lower_batch_in_place_scalar`], with 4× less
    /// traffic on the output row. Bitwise-identical results, pinned by
    /// proptests.
    pub fn solve_lower_batch_in_place(&self, b: &mut Matrix) -> Result<()> {
        const LANES: usize = crate::simd::LANES;
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        for i in 0..n {
            let lrow = self.l.row(i);
            let (prev, row_i) = b.rows_split_mut(i);
            let mut k0 = 0;
            while k0 + LANES <= i {
                let l0 = lrow[k0];
                let l1 = lrow[k0 + 1];
                let l2 = lrow[k0 + 2];
                let l3 = lrow[k0 + 3];
                let y0 = &prev[k0 * m..(k0 + 1) * m];
                let y1 = &prev[(k0 + 1) * m..(k0 + 2) * m];
                let y2 = &prev[(k0 + 2) * m..(k0 + 3) * m];
                let y3 = &prev[(k0 + 3) * m..(k0 + 4) * m];
                for (c, o) in row_i.iter_mut().enumerate() {
                    let mut v = *o;
                    v -= l0 * y0[c];
                    v -= l1 * y1[c];
                    v -= l2 * y2[c];
                    v -= l3 * y3[c];
                    *o = v;
                }
                k0 += LANES;
            }
            for k in k0..i {
                let lik = lrow[k];
                let yk = &prev[k * m..(k + 1) * m];
                for (o, &v) in row_i.iter_mut().zip(yk) {
                    *o -= lik * v;
                }
            }
            let d = lrow[i];
            for o in row_i.iter_mut() {
                *o /= d;
            }
        }
        Ok(())
    }

    /// Scalar reference multi-RHS forward substitution: the test-only
    /// bitwise ground truth for [`Cholesky::solve_lower_batch_in_place`].
    #[doc(hidden)]
    pub fn solve_lower_batch_in_place_scalar(&self, b: &mut Matrix) -> Result<()> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        for i in 0..n {
            let (prev, row_i) = b.rows_split_mut(i);
            for k in 0..i {
                let lik = self.l[(i, k)];
                let yk = &prev[k * m..(k + 1) * m];
                for (o, &v) in row_i.iter_mut().zip(yk) {
                    *o -= lik * v;
                }
            }
            let d = self.l[(i, i)];
            for o in row_i.iter_mut() {
                *o /= d;
            }
        }
        Ok(())
    }

    /// Solve `L Y = B` for every column of `B`, returning `Y`.
    pub fn solve_lower_batch(&self, b: &Matrix) -> Result<Matrix> {
        let mut y = b.clone();
        self.solve_lower_batch_in_place(&mut y)?;
        Ok(y)
    }

    /// Solve `Lᵀ x = y` (backward substitution).
    #[allow(clippy::needless_range_loop)] // triangular-solve indexing is clearest explicit
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if y.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (y.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// `log |A| = 2 Σ log L_ii`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B with distinct rows — guaranteed SPD.
        Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 6.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::decompose(&a).unwrap();
        let l = ch.l();
        for i in 0..3 {
            for j in 0..3 {
                let rec: f64 = (0..3).map(|k| l[(i, k)] * l[(j, k)]).sum();
                assert!((rec - a[(i, j)]).abs() < 1e-10, "at ({i},{j})");
            }
        }
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let ch = Cholesky::decompose(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_known() {
        // det(diag(2, 3, 4)) = 24.
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        a[(2, 2)] = 4.0;
        let ch = Cholesky::decompose(&a).unwrap();
        assert!((ch.log_det() - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-1 matrix: vvᵀ with v = (1, 1); singular but jitter fixes it.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        assert!(ch.jitter() > 0.0);
        // Factor must still be usable for solves.
        let x = ch.solve(&[1.0, 1.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -5.0]]).unwrap();
        let err = Cholesky::decompose(&a).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
    }

    #[test]
    fn solve_shape_checked() {
        let ch = Cholesky::decompose(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_lower(&[1.0, 2.0]).is_err());
        assert!(ch.solve_upper(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_lower_into_matches_allocating_solve() {
        let ch = Cholesky::decompose(&spd3()).unwrap();
        let b = [0.3, -1.2, 4.5];
        let want = ch.solve_lower(&b).unwrap();
        let mut got = vec![999.0; 1]; // wrong size on purpose
        ch.solve_lower_into(&b, &mut got).unwrap();
        assert_eq!(got, want);
        assert!(ch.solve_lower_into(&[1.0], &mut got).is_err());
    }

    #[test]
    fn batch_solve_matches_per_column_bitwise() {
        let ch = Cholesky::decompose(&spd3()).unwrap();
        let b = Matrix::from_rows(&[
            vec![1.0, -0.5, 3.0, 0.0],
            vec![2.0, 0.25, -7.0, 1.0],
            vec![-1.0, 8.0, 0.5, -2.0],
        ])
        .unwrap();
        let y = ch.solve_lower_batch(&b).unwrap();
        for j in 0..b.cols() {
            let col: Vec<f64> = (0..b.rows()).map(|i| b[(i, j)]).collect();
            let want = ch.solve_lower(&col).unwrap();
            for i in 0..b.rows() {
                assert_eq!(y[(i, j)].to_bits(), want[i].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn batch_solve_shape_checked() {
        let ch = Cholesky::decompose(&spd3()).unwrap();
        assert!(ch.solve_lower_batch(&Matrix::zeros(2, 4)).is_err());
        // Zero-column batch is fine.
        assert_eq!(
            ch.solve_lower_batch(&Matrix::zeros(3, 0)).unwrap().shape(),
            (3, 0)
        );
    }

    #[test]
    fn jitter_retries_counted() {
        assert_eq!(Cholesky::decompose(&spd3()).unwrap().jitter_retries(), 0);
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        assert!(ch.jitter_retries() >= 1);
        assert!(ch.jitter() > 0.0);
    }

    #[test]
    fn ladder_skip_rejects_indefinite_without_full_sweep() {
        // The failing pivot is -5 at scale 5: even the top of the jitter
        // ladder (5e-2) cannot rescue it, so the skip heuristic must
        // reject after the first attempt rather than nine more refactors.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -5.0]]).unwrap();
        let err = Cholesky::decompose(&a).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { pivot: 1 }));
    }

    #[test]
    fn empty_matrix_factorizes() {
        let a = Matrix::zeros(0, 0);
        let ch = Cholesky::decompose(&a).unwrap();
        assert_eq!(ch.log_det(), 0.0);
        assert_eq!(ch.solve(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn decompose_with_jitter_replays_the_ladder_result() {
        let a = spd3();
        let ladder = Cholesky::decompose(&a).unwrap();
        let fixed = Cholesky::decompose_with_jitter(&a, ladder.jitter()).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                assert_eq!(fixed.l()[(i, j)].to_bits(), ladder.l()[(i, j)].to_bits());
            }
        }
        assert_eq!(fixed.jitter(), ladder.jitter());
        assert_eq!(fixed.jitter_retries(), 0);
    }

    #[test]
    fn decompose_with_jitter_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -5.0]]).unwrap();
        let err = Cholesky::decompose_with_jitter(&a, 1e-10).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { pivot: 1 }));
    }

    #[test]
    fn extend_with_row_grows_the_factor_in_place() {
        // Extend the 2x2 leading block of spd3 to the full 3x3 and compare
        // against the from-scratch factorization at the same jitter.
        let a = spd3();
        let lead = Matrix::from_rows(&[vec![5.0, 2.0], vec![2.0, 6.0]]).unwrap();
        let mut ch = Cholesky::decompose(&lead).unwrap();
        ch.extend_with_row(&[1.0, 2.0, 4.0]).unwrap();
        let full = Cholesky::decompose_with_jitter(&a, ch.jitter()).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                let (got, want) = (ch.l()[(i, j)], full.l()[(i, j)]);
                assert!((got - want).abs() < 1e-12, "at ({i},{j}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn extend_with_row_rejects_wrong_arity() {
        let mut ch = Cholesky::decompose(&spd3()).unwrap();
        assert!(matches!(
            ch.extend_with_row(&[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn extend_with_row_rejects_pivot_loss() {
        // A row identical to an existing one makes the grown matrix
        // singular: the new pivot collapses to ~jitter-scale and the
        // strictly-positive check at the base jitter must fail.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let mut ch = Cholesky::decompose_with_jitter(&a, 0.0).unwrap();
        let err = ch.extend_with_row(&[1.0, 0.0, 1.0]).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { pivot: 2 }));
        // The factor is untouched on failure.
        assert_eq!(ch.l().rows(), 2);
    }
}
