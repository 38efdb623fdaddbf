//! Row-major dense matrix.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// Tile edge of the cache-blocked [`Matrix::matmul`] kernel: a 64×64 `f64`
/// output tile plus the matching A and Bᵀ panels fit comfortably in L2.
const MATMUL_BLOCK: usize = 64;

/// A row-major dense `f64` matrix.
///
/// Covariance matrices in `otune` rarely exceed a few hundred rows, so the
/// storage is a single contiguous `Vec<f64>` with row-major indexing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from nested row slices; all rows must be the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::ShapeMismatch {
                    left: (r, c),
                    right: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Split the storage at row `i`: rows `0..i` as one flat row-major
    /// slice plus row `i` mutably. Lets forward substitution read already
    /// computed rows while writing the current one.
    #[inline]
    pub fn rows_split_mut(&mut self, i: usize) -> (&[f64], &mut [f64]) {
        let cols = self.cols;
        let (head, tail) = self.data.split_at_mut(i * cols);
        (head, &mut tail[..cols])
    }

    /// Grow a square `n × n` matrix in place to `(n+1) × (n+1)`, keeping
    /// the existing block in the top-left corner and zero-filling the new
    /// row and column. The row-major storage is re-laid-out back-to-front
    /// so the O(n²) copy needs no scratch allocation beyond the resize.
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn grow_square(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        let m = n + 1;
        self.data.resize(m * m, 0.0);
        // Move rows from the last to the first; row i shifts from offset
        // i·n to i·m, so back-to-front copies never overwrite unread data.
        for i in (1..n).rev() {
            self.data.copy_within(i * n..(i + 1) * n, i * m);
            // Zero the new trailing column of the row just vacated below.
            self.data[i * m + n] = 0.0;
        }
        if n > 0 {
            self.data[n] = 0.0;
        }
        // The freshly resized tail (row n) is already zero from `resize`,
        // except where old row data lingers after the shift of row n-1.
        for j in 0..m {
            self.data[n * m + j] = 0.0;
        }
        self.rows = m;
        self.cols = m;
        Ok(())
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Uses a transposed-B, cache-blocked kernel: `other` is transposed once
    /// so every inner product streams two contiguous rows, and the output is
    /// walked in `MATMUL_BLOCK`² (64 × 64) tiles so the active A/Bᵀ panels
    /// stay cache resident. Each output element accumulates its `k` terms in ascending
    /// order from `0.0`, so the result is bitwise identical to the naive
    /// triple loop (and to [`Matrix::matmul_into`]).
    ///
    /// Inside each tile a 4-wide microkernel lets four output columns
    /// share one streaming pass over the A row, each accumulating its own
    /// ascending-`k` sum from `0.0` — the same per-output operation order
    /// as [`Matrix::matmul_scalar`], so one A-row load feeds four
    /// independent multiply-add chains without changing a bit.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        const LANES: usize = crate::simd::LANES;
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        let bt = other.transpose();
        let mut blocks = 0u64;
        for i0 in (0..self.rows).step_by(MATMUL_BLOCK) {
            let i_end = (i0 + MATMUL_BLOCK).min(self.rows);
            for j0 in (0..bt.rows).step_by(MATMUL_BLOCK) {
                let j_end = (j0 + MATMUL_BLOCK).min(bt.rows);
                for i in i0..i_end {
                    let arow = &self.data[i * self.cols..(i + 1) * self.cols];
                    let orow = &mut out.data[i * bt.rows..(i + 1) * bt.rows];
                    let mut j = j0;
                    while j + LANES <= j_end {
                        let b0 = bt.row(j);
                        let b1 = bt.row(j + 1);
                        let b2 = bt.row(j + 2);
                        let b3 = bt.row(j + 3);
                        let mut acc = [0.0f64; LANES];
                        for (k, &x) in arow.iter().enumerate() {
                            acc[0] += x * b0[k];
                            acc[1] += x * b1[k];
                            acc[2] += x * b2[k];
                            acc[3] += x * b3[k];
                        }
                        orow[j..j + LANES].copy_from_slice(&acc);
                        blocks += 1;
                        j += LANES;
                    }
                    for (o, j) in orow[j..j_end].iter_mut().zip(j..) {
                        *o = arow
                            .iter()
                            .zip(bt.row(j))
                            .fold(0.0, |acc, (&x, &y)| acc + x * y);
                    }
                }
            }
        }
        crate::simd::record_blocks(blocks);
        Ok(out)
    }

    /// Scalar reference product: transposed-B tiles with one fold per
    /// output. The test-only bitwise ground truth for the 4-wide
    /// microkernel in [`Matrix::matmul`].
    #[doc(hidden)]
    pub fn matmul_scalar(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        let bt = other.transpose();
        for i0 in (0..self.rows).step_by(MATMUL_BLOCK) {
            let i_end = (i0 + MATMUL_BLOCK).min(self.rows);
            for j0 in (0..bt.rows).step_by(MATMUL_BLOCK) {
                let j_end = (j0 + MATMUL_BLOCK).min(bt.rows);
                for i in i0..i_end {
                    let arow = &self.data[i * self.cols..(i + 1) * self.cols];
                    let orow = &mut out.data[i * bt.rows..(i + 1) * bt.rows];
                    for (o, j) in orow[j0..j_end].iter_mut().zip(j0..) {
                        // Explicit 0.0 seed: `Sum<f64>` seeds differently on
                        // signed zeros, which would break bitwise equality
                        // with the accumulate-in-place kernels.
                        *o = arow
                            .iter()
                            .zip(bt.row(j))
                            .fold(0.0, |acc, (&x, &y)| acc + x * y);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * other` written into `out`, reusing its
    /// storage: no scratch allocation, and `out`'s buffer is only grown when
    /// its capacity is too small for `rows × other.cols`. The accumulation
    /// order per output element (ascending `k` from `0.0`) matches
    /// [`Matrix::matmul`] bit for bit.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        out.data.resize(self.rows * other.cols, 0.0);
        // Alloc-free i-k-j sweep: B is streamed row by row (no transposed
        // scratch), and each out[i][j] still receives its k terms in
        // ascending order.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let brow = other.row(k);
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| crate::dot(self.row(i), v)).collect())
    }

    /// Add `value` to every diagonal entry (in place). Used to add observation
    /// noise / jitter to covariance matrices.
    pub fn add_diagonal(&mut self, value: f64) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        for i in 0..self.rows {
            self[(i, i)] += value;
        }
        Ok(())
    }

    /// Maximum absolute entry; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], 6.0);
        assert!(!m.is_square());
    }

    #[test]
    fn from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let id = Matrix::identity(3);
        let v = vec![7.0, -1.0, 0.5];
        assert_eq!(id.matvec(&v).unwrap(), v);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (2, 3));
        assert_eq!(m.transpose()[(1, 2)], 6.0);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample(); // 3x2
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matmul_into_matches_and_reshapes() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        // Start from a stale, wrongly-shaped output to prove it is reshaped.
        let mut out = Matrix::from_rows(&[vec![9.0; 5]]).unwrap();
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        assert!(a.matmul_into(&sample(), &mut out).is_err());
    }

    #[test]
    fn matmul_blocked_matches_naive_beyond_one_tile() {
        // 70×70 exceeds the 64-wide tile, so the blocked kernel crosses
        // tile boundaries in both i and j.
        let n = 70;
        let gen = |i: usize, j: usize| ((i * 31 + j * 17) % 13) as f64 - 6.0;
        let mut a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = gen(i, j);
                b[(i, j)] = gen(j, i + 3);
            }
        }
        let fast = a.matmul(&b).unwrap();
        let mut into = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut into).unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[(i, k)] * b[(k, j)];
                }
                assert_eq!(fast[(i, j)].to_bits(), acc.to_bits());
                assert_eq!(into[(i, j)].to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    fn matvec_known_result() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_diagonal_square_only() {
        let mut m = Matrix::identity(2);
        m.add_diagonal(0.5).unwrap();
        assert_eq!(m[(0, 0)], 1.5);
        assert_eq!(m[(0, 1)], 0.0);
        let mut r = sample();
        assert!(r.add_diagonal(1.0).is_err());
    }

    #[test]
    fn symmetry_check() {
        let mut m = Matrix::identity(3);
        assert!(m.is_symmetric(0.0));
        m[(0, 1)] = 1e-3;
        assert!(!m.is_symmetric(1e-6));
        assert!(m.is_symmetric(1e-2));
        assert!(!sample().is_symmetric(1.0));
    }

    #[test]
    fn max_abs() {
        let m = Matrix::from_rows(&[vec![-9.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 9.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }
}
