//! Sub-space projection (§4.1).
//!
//! A [`Subspace`] freezes every parameter outside the `K` most important
//! ones at the values of a *base configuration* (in the tuner: the best
//! configuration found so far) and exposes sampling/encoding over the
//! remaining `K` free dimensions. `Λ_sub = Λ¹ × … × Λᴷ` with the indices
//! chosen by fANOVA importance ranking.

use crate::param::Scale;
use crate::{ConfigSpace, Configuration, HaltonSequence, Result, SpaceError};
use rand::Rng;

/// A view of a [`ConfigSpace`] restricted to a subset of free parameters.
#[derive(Debug, Clone)]
pub struct Subspace {
    space: ConfigSpace,
    /// Indices (into the full space) of the free parameters.
    free: Vec<usize>,
    /// Values for all parameters; frozen dims are read from here.
    base: Configuration,
}

impl Subspace {
    /// Create a sub-space over the given free parameter indices, freezing
    /// all other parameters at `base`'s values.
    ///
    /// Duplicate or out-of-range indices are rejected.
    pub fn new(space: &ConfigSpace, free: Vec<usize>, base: Configuration) -> Result<Self> {
        space.validate(&base)?;
        let mut seen = vec![false; space.len()];
        for &i in &free {
            if i >= space.len() {
                return Err(SpaceError::ArityMismatch {
                    expected: space.len(),
                    actual: i + 1,
                });
            }
            if seen[i] {
                return Err(SpaceError::UnknownParameter(format!(
                    "duplicate free index {i}"
                )));
            }
            seen[i] = true;
        }
        Ok(Subspace {
            space: space.clone(),
            free,
            base,
        })
    }

    /// The full sub-space: every parameter free. Equivalent to searching
    /// `Λ_cs` directly.
    pub fn full(space: &ConfigSpace, base: Configuration) -> Result<Self> {
        let free = (0..space.len()).collect();
        Subspace::new(space, free, base)
    }

    /// Number of free dimensions `K`.
    pub fn k(&self) -> usize {
        self.free.len()
    }

    /// Indices of the free parameters in the full space.
    pub fn free_indices(&self) -> &[usize] {
        &self.free
    }

    /// The base configuration holding frozen values.
    pub fn base(&self) -> &Configuration {
        &self.base
    }

    /// The underlying full space.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Replace the base configuration (e.g. when a new incumbent is found).
    pub fn set_base(&mut self, base: Configuration) -> Result<()> {
        self.space.validate(&base)?;
        self.base = base;
        Ok(())
    }

    /// Lift a point of the reduced unit cube `[0,1]^K` into a full
    /// configuration: free dims decoded from `u`, frozen dims from the base.
    pub fn lift(&self, u: &[f64]) -> Configuration {
        debug_assert_eq!(u.len(), self.free.len());
        let mut full_u = self.space.encode(&self.base);
        for (&dim, &coord) in self.free.iter().zip(u) {
            full_u[dim] = coord;
        }
        self.space.decode(&full_u)
    }

    /// Project a full configuration onto the reduced unit cube (encoded
    /// values of the free dims only).
    pub fn project(&self, config: &Configuration) -> Vec<f64> {
        let full_u = self.space.encode(config);
        self.free.iter().map(|&i| full_u[i]).collect()
    }

    /// Uniform random configuration within the sub-space.
    pub fn sample(&self, rng: &mut impl Rng) -> Configuration {
        self.sample_n(1, rng).remove(0)
    }

    /// `n` uniform random configurations within the sub-space: the
    /// decoded rows of [`Subspace::push_samples`].
    pub fn sample_n(&self, n: usize, rng: &mut impl Rng) -> Vec<Configuration> {
        let mut rows = CandidateRows::new(self.space.len(), &[]);
        self.push_samples(n, rng, &mut rows);
        (0..n)
            .map(|i| self.space.decode_words(rows.words(i)))
            .collect()
    }

    /// `n` low-discrepancy configurations within the sub-space.
    pub fn low_discrepancy(&self, n: usize, seed: u64) -> Vec<Configuration> {
        let mut h = HaltonSequence::new(self.free.len(), seed);
        h.take_points(n).iter().map(|u| self.lift(u)).collect()
    }

    /// A local perturbation of `config` moving only free dimensions: each
    /// numeric dimension moves by a Gaussian step of standard deviation
    /// `scale` in encoded space, each discrete one resamples with
    /// probability `scale`. The decoded row of
    /// [`Subspace::push_neighbors`].
    pub fn neighbor(
        &self,
        config: &Configuration,
        scale: f64,
        rng: &mut impl Rng,
    ) -> Configuration {
        let mut rows = CandidateRows::new(self.space.len(), &[]);
        self.push_neighbors(config, [scale], rng, &mut rows);
        self.space.decode_words(rows.words(0))
    }

    /// Append `n` uniform random rows to `rows`.
    ///
    /// Row for row this is a decode of `u ~ U[0,1)^K` on the free dims
    /// with the base's encoding on frozen dims, then an encode — so every
    /// coordinate is one [`Domain::snap`](crate::Domain::snap): `snap(u)`
    /// on free dims, `snap(encode(base))` on frozen ones. The RNG draws
    /// one `f64` per free dim per row, in free-index order.
    pub fn push_samples(&self, n: usize, rng: &mut impl Rng, rows: &mut CandidateRows) {
        let prepared = self.prepared_scales();
        let (enc, words) = self.snapped(&prepared, &self.base);
        rows.reserve(n);
        for _ in 0..n {
            let (row_enc, row_words) = rows.push(&enc, &words);
            for &d in &self.free {
                let domain = &self.space.param(d).domain;
                (row_enc[d], row_words[d]) = domain.snap_with(prepared[d], rng.gen::<f64>());
            }
        }
    }

    /// Append one local perturbation of `center` per scale to `rows`.
    ///
    /// Each row perturbs the full encoding of `center`, decodes it, and
    /// keeps the free dims' re-encoding over `center`'s encoding before
    /// decoding again, so free coordinates take two snaps,
    /// `snap(snap(u'))`, and frozen ones `snap(encode(center))`. The RNG
    /// draws for every dimension in space order (two uniforms per numeric
    /// dim, one or two per discrete dim); frozen dims only skip the step
    /// arithmetic.
    pub fn push_neighbors(
        &self,
        center: &Configuration,
        scales: impl IntoIterator<Item = f64>,
        rng: &mut impl Rng,
        rows: &mut CandidateRows,
    ) {
        let prepared = self.prepared_scales();
        let origin = self.space.encode(center);
        let (enc, words) = self.snapped(&prepared, center);
        let mut free = vec![false; self.space.len()];
        for &d in &self.free {
            free[d] = true;
        }
        let scales = scales.into_iter();
        rows.reserve(scales.size_hint().0);
        for scale in scales {
            let (row_enc, row_words) = rows.push(&enc, &words);
            for (d, p) in self.space.params().iter().enumerate() {
                if free[d] {
                    let u = p.domain.perturb(origin[d], scale, rng);
                    let once = p.domain.snap_with(prepared[d], u).0;
                    (row_enc[d], row_words[d]) = p.domain.snap_with(prepared[d], once);
                } else {
                    p.domain.skip_perturb(scale, rng);
                }
            }
        }
    }

    /// Every dimension's prepared scale (see `Domain::scale`).
    fn prepared_scales(&self) -> Vec<Option<Scale>> {
        self.space
            .params()
            .iter()
            .map(|p| p.domain.scale())
            .collect()
    }

    /// Every dimension of `config` snapped: `snap(encode(value))`.
    fn snapped(&self, prepared: &[Option<Scale>], config: &Configuration) -> (Vec<f64>, Vec<u64>) {
        self.space
            .params()
            .iter()
            .zip(prepared)
            .zip(config.values())
            .map(|((p, &scale), v)| p.domain.snap_with(scale, p.domain.encode_with(scale, v)))
            .unzip()
    }
}

/// Candidate configurations as a flat matrix, filled by
/// [`Subspace::push_samples`] and [`Subspace::push_neighbors`].
///
/// Row `i` is stored twice, both row-major: its unit-cube encoding
/// followed by the fixed context columns ([`CandidateRows::encoded`],
/// the surrogate input), and its decoded values as one
/// [word](crate::ParamValue::to_word) per dimension
/// ([`CandidateRows::words`], exact identity for deduplication and
/// decoding). Reusing one `CandidateRows` across fills reuses its
/// buffers.
#[derive(Debug, Clone, Default)]
pub struct CandidateRows {
    dims: usize,
    context: Vec<f64>,
    len: usize,
    encoded: Vec<f64>,
    words: Vec<u64>,
}

impl CandidateRows {
    /// An empty matrix for a space of `dims` parameters, every row
    /// followed by `context`.
    pub fn new(dims: usize, context: &[f64]) -> Self {
        let mut rows = CandidateRows::default();
        rows.reset(dims, context);
        rows
    }

    /// Drop every row and start over with new dimensions and context,
    /// keeping the allocations.
    pub fn reset(&mut self, dims: usize, context: &[f64]) {
        self.dims = dims;
        self.context.clear();
        self.context.extend_from_slice(context);
        self.len = 0;
        self.encoded.clear();
        self.words.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per encoded row: the dimensions plus the context columns.
    pub fn width(&self) -> usize {
        self.dims + self.context.len()
    }

    /// Every encoded row, row-major, [`width`](Self::width) values each.
    pub fn encoded(&self) -> &[f64] {
        &self.encoded
    }

    /// The value words of row `i`.
    pub fn words(&self, i: usize) -> &[u64] {
        &self.words[i * self.dims..(i + 1) * self.dims]
    }

    fn reserve(&mut self, rows: usize) {
        self.encoded.reserve(rows * self.width());
        self.words.reserve(rows * self.dims);
    }

    /// Append a row initialised to `enc`/`words` and return its
    /// configuration part for the caller to overwrite.
    fn push(&mut self, enc: &[f64], words: &[u64]) -> (&mut [f64], &mut [u64]) {
        debug_assert_eq!(enc.len(), self.dims);
        debug_assert_eq!(words.len(), self.dims);
        let start = self.encoded.len();
        self.encoded.extend_from_slice(enc);
        self.encoded.extend_from_slice(&self.context);
        self.words.extend_from_slice(words);
        self.len += 1;
        let w0 = self.words.len() - self.dims;
        (
            &mut self.encoded[start..start + self.dims],
            &mut self.words[w0..],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParamValue, Parameter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_space() -> ConfigSpace {
        ConfigSpace::new(vec![
            Parameter::int("a", 0, 10, 5),
            Parameter::float("b", 0.0, 1.0, 0.5),
            Parameter::categorical("c", &["x", "y", "z"], 1),
            Parameter::boolean("d", false),
        ])
    }

    #[test]
    fn lift_freezes_non_free_dims() {
        let s = toy_space();
        let sub = Subspace::new(&s, vec![0, 2], s.default_configuration()).unwrap();
        let cfg = sub.lift(&[1.0, 0.0]);
        assert_eq!(cfg[0], ParamValue::Int(10)); // free, moved
        assert_eq!(cfg[2], ParamValue::Categorical(0)); // free, moved
        assert_eq!(cfg[1], ParamValue::Float(0.5)); // frozen at default
        assert_eq!(cfg[3], ParamValue::Bool(false)); // frozen at default
    }

    #[test]
    fn project_then_lift_preserves_free_dims() {
        let s = toy_space();
        let mut rng = StdRng::seed_from_u64(3);
        let sub = Subspace::new(&s, vec![1, 3], s.default_configuration()).unwrap();
        for _ in 0..20 {
            let c = sub.sample(&mut rng);
            let u = sub.project(&c);
            let back = sub.lift(&u);
            assert_eq!(back, c);
        }
    }

    #[test]
    fn duplicate_or_out_of_range_indices_rejected() {
        let s = toy_space();
        assert!(Subspace::new(&s, vec![0, 0], s.default_configuration()).is_err());
        assert!(Subspace::new(&s, vec![7], s.default_configuration()).is_err());
    }

    #[test]
    fn full_subspace_behaves_like_space() {
        let s = toy_space();
        let sub = Subspace::full(&s, s.default_configuration()).unwrap();
        assert_eq!(sub.k(), 4);
        let c = sub.lift(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(c[0], ParamValue::Int(0));
    }

    #[test]
    fn sampling_respects_frozen_dims() {
        let s = toy_space();
        let mut rng = StdRng::seed_from_u64(11);
        let mut base = s.default_configuration();
        base.set(3, ParamValue::Bool(true));
        let sub = Subspace::new(&s, vec![0], base).unwrap();
        for c in sub.sample_n(30, &mut rng) {
            assert_eq!(c[3], ParamValue::Bool(true));
            assert_eq!(c[1], ParamValue::Float(0.5));
        }
    }

    #[test]
    fn low_discrepancy_within_subspace() {
        let s = toy_space();
        let sub = Subspace::new(&s, vec![0, 1], s.default_configuration()).unwrap();
        let pts = sub.low_discrepancy(8, 2);
        assert_eq!(pts.len(), 8);
        for c in &pts {
            s.validate(c).unwrap();
            assert_eq!(c[2], ParamValue::Categorical(1));
        }
    }

    #[test]
    fn neighbor_moves_only_free_dims() {
        let s = toy_space();
        let mut rng = StdRng::seed_from_u64(17);
        let sub = Subspace::new(&s, vec![1], s.default_configuration()).unwrap();
        let start = sub.lift(&[0.5]);
        for _ in 0..50 {
            let n = sub.neighbor(&start, 0.5, &mut rng);
            assert_eq!(n[0], start[0]);
            assert_eq!(n[2], start[2]);
            assert_eq!(n[3], start[3]);
        }
    }

    #[test]
    fn set_base_validates() {
        let s = toy_space();
        let mut sub = Subspace::new(&s, vec![0], s.default_configuration()).unwrap();
        let bad = Configuration::new(vec![ParamValue::Int(99); 4]);
        assert!(sub.set_base(bad).is_err());
        let good = s.default_configuration();
        assert!(sub.set_base(good).is_ok());
    }
}
