//! The mixed Matérn / Hamming / SE product kernel (§3.3).

use otune_linalg::simd::LANES;

/// What kind of feature an input dimension carries — selects the kernel
/// component that handles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Numeric Spark parameter → Matérn-5/2.
    Numeric,
    /// Categorical/boolean Spark parameter → Hamming.
    Categorical,
    /// Workload context (data size, hour-of-day, …) → squared exponential.
    DataSize,
}

/// Kernel hyperparameters: one lengthscale per feature group plus signal
/// variance and observation noise. All strictly positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelHyper {
    /// Matérn lengthscale for numeric dims.
    pub len_numeric: f64,
    /// Hamming decay for categorical dims.
    pub len_categorical: f64,
    /// SE lengthscale for data-size dims.
    pub len_datasize: f64,
    /// Signal variance σ_f².
    pub signal_var: f64,
    /// Observation noise variance τ².
    pub noise_var: f64,
}

impl Default for KernelHyper {
    fn default() -> Self {
        KernelHyper {
            len_numeric: 0.5,
            len_categorical: 1.0,
            len_datasize: 0.5,
            signal_var: 1.0,
            noise_var: 1e-2,
        }
    }
}

impl KernelHyper {
    /// Pack into log-space for optimization.
    pub fn to_log(self) -> [f64; 5] {
        [
            self.len_numeric.ln(),
            self.len_categorical.ln(),
            self.len_datasize.ln(),
            self.signal_var.ln(),
            self.noise_var.ln(),
        ]
    }

    /// Unpack from log-space.
    pub fn from_log(v: [f64; 5]) -> Self {
        KernelHyper {
            len_numeric: v[0].exp(),
            len_categorical: v[1].exp(),
            len_datasize: v[2].exp(),
            signal_var: v[3].exp(),
            noise_var: v[4].exp(),
        }
    }
}

/// The mixed product kernel over encoded configurations:
///
/// `k(x, x') = σ_f² · k_M52(x_num) · k_Ham(x_cat) · k_SE(x_ds)`
#[derive(Debug, Clone)]
pub struct MixedKernel {
    kinds: Vec<FeatureKind>,
    /// Current hyperparameters.
    pub hyper: KernelHyper,
}

impl MixedKernel {
    /// Build a kernel over dimensions of the given kinds.
    pub fn new(kinds: Vec<FeatureKind>, hyper: KernelHyper) -> Self {
        MixedKernel { kinds, hyper }
    }

    /// Number of input dimensions.
    pub fn dim(&self) -> usize {
        self.kinds.len()
    }

    /// Feature kinds per dimension.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Evaluate `k(a, b)` (without observation noise).
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.kinds.len());
        debug_assert_eq!(b.len(), self.kinds.len());
        let mut sq_num = 0.0;
        let mut mismatches = 0.0;
        let mut sq_ds = 0.0;
        for (i, kind) in self.kinds.iter().enumerate() {
            let (x, y) = (a[i], b[i]);
            match kind {
                FeatureKind::Numeric => {
                    let d = x - y;
                    sq_num += d * d;
                }
                FeatureKind::Categorical => {
                    if (x - y).abs() > 1e-9 {
                        mismatches += 1.0;
                    }
                }
                FeatureKind::DataSize => {
                    let d = x - y;
                    sq_ds += d * d;
                }
            }
        }
        let h = &self.hyper;
        let matern = {
            let r = sq_num.sqrt() / h.len_numeric;
            let s5r = 5f64.sqrt() * r;
            (1.0 + s5r + 5.0 * r * r / 3.0) * (-s5r).exp()
        };
        let hamming = (-mismatches / h.len_categorical).exp();
        let se = (-0.5 * sq_ds / (h.len_datasize * h.len_datasize)).exp();
        h.signal_var * matern * hamming * se
    }

    /// `k(x, x)` — the prior variance at any point.
    pub fn diag(&self) -> f64 {
        self.hyper.signal_var
    }

    /// Dimension counts per feature group: `(numeric, categorical, datasize)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let (mut n_num, mut n_cat, mut n_ds) = (0, 0, 0);
        for kind in &self.kinds {
            match kind {
                FeatureKind::Numeric => n_num += 1,
                FeatureKind::Categorical => n_cat += 1,
                FeatureKind::DataSize => n_ds += 1,
            }
        }
        (n_num, n_cat, n_ds)
    }

    /// Group a set of encoded points by feature kind into `set` (reusing
    /// its storage): each point becomes one `[numeric.. | categorical.. |
    /// datasize..]` row, with each group keeping the dimensions' original
    /// relative order. [`MixedKernel::eval`] accumulates each of its three
    /// sums over exactly one group, in dimension order — so evaluating on
    /// the packed layout performs the identical per-accumulator operation
    /// sequence and produces bitwise-identical results, while the blocked
    /// row evaluator gets branch-free contiguous segments to stream.
    pub fn pack_rows<'a, I>(&self, xs: I, set: &mut PackedSet)
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let (n_num, n_cat, n_ds) = self.counts();
        set.n_num = n_num;
        set.n_cat = n_cat;
        set.n_ds = n_ds;
        set.data.clear();
        set.len = 0;
        for x in xs {
            debug_assert_eq!(x.len(), self.kinds.len());
            for (kind, &v) in self.kinds.iter().zip(x) {
                if matches!(kind, FeatureKind::Numeric) {
                    set.data.push(v);
                }
            }
            for (kind, &v) in self.kinds.iter().zip(x) {
                if matches!(kind, FeatureKind::Categorical) {
                    set.data.push(v);
                }
            }
            for (kind, &v) in self.kinds.iter().zip(x) {
                if matches!(kind, FeatureKind::DataSize) {
                    set.data.push(v);
                }
            }
            set.len += 1;
        }
    }

    /// Hamming factors for *exact* mismatch counts: `out[c] =
    /// exp(-c / len_categorical)` for `c = 0..=n_cat`. `eval` accumulates
    /// mismatches by `+= 1.0`, which is exact integer arithmetic in f64,
    /// so indexing this table with the integer count reproduces the exp
    /// call bit for bit while removing it from the inner loop.
    pub fn hamming_table_into(&self, n_cat: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..=n_cat).map(|c| (-(c as f64) / self.hyper.len_categorical).exp()));
    }

    /// Evaluate `k(a, set[j])` for `j < count` into `out[..count]`, four
    /// candidates per pass.
    ///
    /// The four lanes are four *independent* candidates: each lane's
    /// squared-distance and mismatch sums accumulate over the packed
    /// dimensions in the same ascending order as [`MixedKernel::eval`],
    /// and `kernel_lanes` turns them into kernel values in `eval`'s
    /// expression order, so every output is bitwise identical to a scalar
    /// `eval` call. `hamming` must come from
    /// [`MixedKernel::hamming_table_into`] at the current
    /// hyperparameters.
    ///
    /// This row-major evaluator is the reference the tiled distance pass
    /// ([`crate::DistanceTile`]) is pinned against; it backs the
    /// `predict_batch_into` oracle.
    pub fn eval_rows_packed(
        &self,
        a: PackedRow<'_>,
        set: &PackedSet,
        count: usize,
        hamming: &[f64],
        out: &mut [f64],
    ) {
        debug_assert!(count <= set.len);
        debug_assert!(hamming.len() > set.n_cat);
        let h = &self.hyper;
        if count == 0 {
            return;
        }
        let mut j0 = 0;
        while j0 < count {
            let lanes = (count - j0).min(LANES);
            let mut sq = [0.0f64; LANES];
            let mut mm = [0usize; LANES];
            let mut se = [0.0f64; LANES];
            for t in 0..lanes {
                let b = set.row(j0 + t);
                for (x, y) in a.num.iter().zip(b.num) {
                    let d = x - y;
                    sq[t] += d * d;
                }
                for (x, y) in a.cat.iter().zip(b.cat) {
                    mm[t] += ((x - y).abs() > 1e-9) as usize;
                }
                se[t] = Self::se_factor(a.ds, b.ds, h);
            }
            let k = kernel_lanes(h, &sq, &mm, &se, hamming);
            out[j0..j0 + lanes].copy_from_slice(&k[..lanes]);
            j0 += lanes;
        }
    }

    /// The SE factor over packed datasize segments, in `eval`'s exact
    /// expression order.
    fn se_factor(ads: &[f64], bds: &[f64], h: &KernelHyper) -> f64 {
        let mut sq_ds = 0.0;
        for (x, y) in ads.iter().zip(bds) {
            let d = x - y;
            sq_ds += d * d;
        }
        se_from(sq_ds, h)
    }
}

/// The SE factor from a squared data-size distance, in
/// [`MixedKernel::eval`]'s expression order.
#[inline]
pub(crate) fn se_from(sq_ds: f64, h: &KernelHyper) -> f64 {
    (-0.5 * sq_ds / (h.len_datasize * h.len_datasize)).exp()
}

/// Kernel values of [`LANES`] pairs from their distance sums — squared
/// numeric distance `sq`, categorical mismatch count `mm` and SE factor
/// `se` — in [`MixedKernel::eval`]'s expression order:
/// `σ_f² · matern · hamming[mm] · se`.
///
/// The Matérn factor runs on 4-lane arrays: `sqrt`, the two divisions and
/// the polynomial are correctly rounded IEEE operations (and Rust never
/// contracts a multiply and an add into an FMA), so whichever
/// instructions the compiler picks for the arrays produce the scalar
/// bits; `exp` is called per lane. This is the one kernel transform:
/// [`MixedKernel::eval_rows_packed`], covariance assembly and the tiled
/// candidate pass all call it. `hamming` is
/// [`MixedKernel::hamming_table_into`] at `h`.
#[inline]
pub(crate) fn kernel_lanes(
    h: &KernelHyper,
    sq: &[f64; LANES],
    mm: &[usize; LANES],
    se: &[f64; LANES],
    hamming: &[f64],
) -> [f64; LANES] {
    let s5 = 5f64.sqrt();
    let mut r = [0.0f64; LANES];
    for t in 0..LANES {
        r[t] = sq[t].sqrt() / h.len_numeric;
    }
    let mut s5r = [0.0f64; LANES];
    let mut poly = [0.0f64; LANES];
    for t in 0..LANES {
        s5r[t] = s5 * r[t];
        poly[t] = 1.0 + s5r[t] + 5.0 * r[t] * r[t] / 3.0;
    }
    let mut k = [0.0f64; LANES];
    for t in 0..LANES {
        let matern = poly[t] * (-s5r[t]).exp();
        k[t] = h.signal_var * matern * hamming[mm[t]] * se[t];
    }
    k
}

/// One point's kind-grouped segments inside a [`PackedSet`].
#[derive(Debug, Clone, Copy)]
pub struct PackedRow<'a> {
    /// Numeric dimensions, original relative order.
    pub num: &'a [f64],
    /// Categorical dimensions, original relative order.
    pub cat: &'a [f64],
    /// Data-size dimensions, original relative order.
    pub ds: &'a [f64],
}

/// A set of encoded points re-laid-out by feature kind (see
/// [`MixedKernel::pack_rows`]): one contiguous `[num | cat | ds]` row per
/// point, so the blocked kernel evaluator streams homogeneous segments
/// instead of branching on [`FeatureKind`] per dimension. Reused across
/// calls as scratch — packing never allocates once warm.
#[derive(Debug, Clone, Default)]
pub struct PackedSet {
    n_num: usize,
    n_cat: usize,
    n_ds: usize,
    len: usize,
    data: Vec<f64>,
}

impl PackedSet {
    /// Number of packed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of categorical dimensions per row.
    pub fn n_cat(&self) -> usize {
        self.n_cat
    }

    /// Borrow row `i` as its three kind segments.
    #[inline]
    pub fn row(&self, i: usize) -> PackedRow<'_> {
        let stride = self.n_num + self.n_cat + self.n_ds;
        let base = i * stride;
        PackedRow {
            num: &self.data[base..base + self.n_num],
            cat: &self.data[base + self.n_num..base + self.n_num + self.n_cat],
            ds: &self.data[base + self.n_num + self.n_cat..base + stride],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(kinds: Vec<FeatureKind>) -> MixedKernel {
        MixedKernel::new(kinds, KernelHyper::default())
    }

    #[test]
    fn identical_points_have_prior_variance() {
        let k = kernel(vec![
            FeatureKind::Numeric,
            FeatureKind::Categorical,
            FeatureKind::DataSize,
        ]);
        let x = [0.3, 1.0, 0.7];
        assert!((k.eval(&x, &x) - k.diag()).abs() < 1e-12);
    }

    #[test]
    fn covariance_decays_with_numeric_distance() {
        let k = kernel(vec![FeatureKind::Numeric]);
        let base = [0.0];
        let near = k.eval(&base, &[0.1]);
        let far = k.eval(&base, &[0.9]);
        assert!(near > far);
        assert!(near < k.diag());
        assert!(far > 0.0);
    }

    #[test]
    fn hamming_ignores_magnitude_of_disagreement() {
        let k = kernel(vec![FeatureKind::Categorical]);
        // Any disagreement counts the same, regardless of encoded distance.
        let a = k.eval(&[0.0], &[0.5]);
        let b = k.eval(&[0.0], &[1.0]);
        assert!((a - b).abs() < 1e-12);
        assert!(a < k.eval(&[0.0], &[0.0]));
    }

    #[test]
    fn product_structure_multiplies_components() {
        let knum = kernel(vec![FeatureKind::Numeric]);
        let kcat = kernel(vec![FeatureKind::Categorical]);
        let kmix = kernel(vec![FeatureKind::Numeric, FeatureKind::Categorical]);
        let mix = kmix.eval(&[0.2, 0.0], &[0.7, 1.0]);
        let expect = knum.eval(&[0.2], &[0.7]) * kcat.eval(&[0.0], &[1.0])
            / KernelHyper::default().signal_var;
        assert!((mix - expect).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let k = kernel(vec![
            FeatureKind::Numeric,
            FeatureKind::Numeric,
            FeatureKind::DataSize,
        ]);
        let a = [0.1, 0.9, 0.4];
        let b = [0.6, 0.2, 0.8];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn shorter_lengthscale_decays_faster() {
        let mut short = kernel(vec![FeatureKind::Numeric]);
        short.hyper.len_numeric = 0.1;
        let long = kernel(vec![FeatureKind::Numeric]);
        assert!(short.eval(&[0.0], &[0.5]) < long.eval(&[0.0], &[0.5]));
    }

    #[test]
    fn log_round_trip() {
        let h = KernelHyper {
            len_numeric: 0.3,
            len_categorical: 2.0,
            len_datasize: 0.9,
            signal_var: 1.7,
            noise_var: 1e-4,
        };
        let back = KernelHyper::from_log(h.to_log());
        assert!((back.len_numeric - 0.3).abs() < 1e-12);
        assert!((back.noise_var - 1e-4).abs() < 1e-16);
    }
}
