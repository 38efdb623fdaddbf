//! The tiled distance pass: per-pair distance sums between a GP's packed
//! training rows and one tile of candidates.
//!
//! Every GP fitted on the same training rows shares one distance pass per
//! tile; each then turns the sums into kernel rows at its own
//! hyperparameters ([`crate::GaussianProcess::kernel_tile`]). The
//! hyperparameter search shares one training × training pass the same
//! way.

use crate::kernel::{kernel_lanes, se_from, FeatureKind, KernelHyper, PackedSet};
use otune_linalg::simd::LANES;

/// Candidates per lane block of a [`CandidateTile`]: each dimension of a
/// block is one contiguous run of 8 values (four 128-bit registers on a
/// baseline x86-64 build), feeding 8 independent per-candidate
/// accumulators.
const BLOCK: usize = 8;

/// A tile of candidates packed dim-major by feature kind, in blocks of
/// `BLOCK` = 8 lanes: block `b` holds, for each numeric dimension in
/// order, the values of candidates `8b..8b+8`, then the same for the
/// categorical and data-size dimensions. A partial last block is padded
/// with zeros, whose outputs are never read. Reused as scratch.
#[derive(Debug, Clone, Default)]
pub struct CandidateTile {
    len: usize,
    blocks: usize,
    n_num: usize,
    n_cat: usize,
    n_ds: usize,
    num: Vec<f64>,
    cat: Vec<f64>,
    ds: Vec<f64>,
    uniform_ds: bool,
}

impl CandidateTile {
    /// Pack the rows of `xs`, each holding one value per entry of `kinds`.
    pub fn pack<'a>(
        &mut self,
        kinds: &[FeatureKind],
        xs: impl ExactSizeIterator<Item = &'a [f64]>,
    ) {
        let count = |k| kinds.iter().filter(|&&kind| kind == k).count();
        self.len = xs.len();
        self.blocks = self.len.div_ceil(BLOCK);
        self.n_num = count(FeatureKind::Numeric);
        self.n_cat = count(FeatureKind::Categorical);
        self.n_ds = count(FeatureKind::DataSize);
        for (buf, dims) in [
            (&mut self.num, self.n_num),
            (&mut self.cat, self.n_cat),
            (&mut self.ds, self.n_ds),
        ] {
            buf.clear();
            buf.resize(self.blocks * dims * BLOCK, 0.0);
        }
        for (j, x) in xs.enumerate() {
            debug_assert_eq!(x.len(), kinds.len());
            let (b, lane) = (j / BLOCK, j % BLOCK);
            let (mut num, mut cat, mut ds) = (0, 0, 0);
            for (kind, &v) in kinds.iter().zip(x) {
                let (buf, dims, d) = match kind {
                    FeatureKind::Numeric => (&mut self.num, self.n_num, &mut num),
                    FeatureKind::Categorical => (&mut self.cat, self.n_cat, &mut cat),
                    FeatureKind::DataSize => (&mut self.ds, self.n_ds, &mut ds),
                };
                buf[(b * dims + *d) * BLOCK + lane] = v;
                *d += 1;
            }
        }
        self.uniform_ds = (1..self.len).all(|j| {
            (0..self.n_ds).all(|d| self.ds_at(j, d).to_bits() == self.ds_at(0, d).to_bits())
        });
    }

    fn ds_at(&self, j: usize, d: usize) -> f64 {
        self.ds[((j / BLOCK) * self.n_ds + d) * BLOCK + j % BLOCK]
    }

    #[inline]
    fn lane_block(buf: &[f64], dims: usize, b: usize, d: usize) -> &[f64; BLOCK] {
        let at = (b * dims + d) * BLOCK;
        buf[at..at + BLOCK].try_into().expect("block is BLOCK wide")
    }
}

/// Per-pair distance sums between packed training rows and a
/// [`CandidateTile`]: for every (training row `i`, candidate `j`) pair,
/// `Σ` numeric `d²`, the categorical mismatch count and `Σ` data-size
/// `d²`, each summed in [`crate::MixedKernel::eval`]'s dimension order —
/// so a kernel value read off them is bitwise `eval`'s. Rows are
/// `width` = `blocks · BLOCK` entries long. Reused as scratch: the
/// buffers are `O(training rows × tile)`.
#[derive(Debug, Clone, Default)]
pub struct DistanceTile {
    rows: usize,
    width: usize,
    n_cat: usize,
    sq_num: Vec<f64>,
    /// Mismatch counts; a count never exceeds the number of categorical
    /// dimensions, so `usize` cannot overflow for any space.
    mismatches: Vec<usize>,
    /// One entry per training row when the tile's data-size segments are
    /// bit-identical (always so within one BO step: every candidate
    /// carries the same context), one per pair otherwise.
    sq_ds: Vec<f64>,
    uniform_ds: bool,
}

impl DistanceTile {
    /// Fill the distance sums of every (row of `train`, candidate of
    /// `tile`) pair. `train` and `tile` must be packed over the same
    /// feature kinds.
    ///
    /// Each dimension loads one contiguous lane block of 8 candidates
    /// into 8 independent accumulators; per pair, the terms are added in
    /// ascending dimension order exactly as `eval` adds them.
    pub fn compute(&mut self, train: &PackedSet, tile: &CandidateTile) {
        debug_assert_eq!(train.n_cat(), tile.n_cat);
        let (rows, width) = (train.len(), tile.blocks * BLOCK);
        self.rows = rows;
        self.width = width;
        self.n_cat = tile.n_cat;
        self.uniform_ds = tile.uniform_ds;
        self.sq_num.clear();
        self.sq_num.resize(rows * width, 0.0);
        self.mismatches.clear();
        self.mismatches.resize(rows * width, 0);
        self.sq_ds.clear();
        self.sq_ds
            .resize(if tile.uniform_ds { rows } else { rows * width }, 0.0);
        for i in 0..rows {
            let a = train.row(i);
            for b in 0..tile.blocks {
                let at = i * width + b * BLOCK;
                let mut sq = [0.0f64; BLOCK];
                for (d, &x) in a.num.iter().enumerate() {
                    let c = CandidateTile::lane_block(&tile.num, tile.n_num, b, d);
                    for l in 0..BLOCK {
                        let diff = x - c[l];
                        sq[l] += diff * diff;
                    }
                }
                self.sq_num[at..at + BLOCK].copy_from_slice(&sq);
                let mut mm = [0usize; BLOCK];
                for (d, &x) in a.cat.iter().enumerate() {
                    let c = CandidateTile::lane_block(&tile.cat, tile.n_cat, b, d);
                    for l in 0..BLOCK {
                        mm[l] += ((x - c[l]).abs() > 1e-9) as usize;
                    }
                }
                self.mismatches[at..at + BLOCK].copy_from_slice(&mm);
                if !tile.uniform_ds {
                    let mut sq = [0.0f64; BLOCK];
                    for (d, &x) in a.ds.iter().enumerate() {
                        let c = CandidateTile::lane_block(&tile.ds, tile.n_ds, b, d);
                        for l in 0..BLOCK {
                            let diff = x - c[l];
                            sq[l] += diff * diff;
                        }
                    }
                    self.sq_ds[at..at + BLOCK].copy_from_slice(&sq);
                }
            }
            if tile.uniform_ds && tile.len > 0 {
                let mut sq = 0.0;
                for (d, &x) in a.ds.iter().enumerate() {
                    let diff = x - tile.ds_at(0, d);
                    sq += diff * diff;
                }
                self.sq_ds[i] = sq;
            }
        }
    }

    /// Number of training rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Row length: the tile's candidate count rounded up to [`BLOCK`].
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of categorical dimensions (the largest mismatch count).
    pub(crate) fn n_cat(&self) -> usize {
        self.n_cat
    }

    /// Kernel values of row `i` at hyperparameters `h`, over columns
    /// `0..count`, handed to `emit(j0, k)` one 4-lane group `j0..j0+4`
    /// at a time. A group may run past `count` into padding; callers
    /// write only the columns they own. `hamming` is
    /// [`crate::MixedKernel::hamming_table_into`] at `h`.
    #[inline]
    pub(crate) fn kernel_row(
        &self,
        i: usize,
        count: usize,
        h: &KernelHyper,
        hamming: &[f64],
        mut emit: impl FnMut(usize, &[f64; LANES]),
    ) {
        debug_assert!(count <= self.width && hamming.len() > self.n_cat);
        let base = i * self.width;
        let row_se = self.uniform_ds.then(|| se_from(self.sq_ds[i], h));
        let mut j0 = 0;
        while j0 < count {
            let at = base + j0;
            let sq = self.sq_num[at..at + LANES].try_into().expect("4 lanes");
            let mm = self.mismatches[at..at + LANES].try_into().expect("4 lanes");
            let se = match row_se {
                Some(se) => [se; LANES],
                None => std::array::from_fn(|t| se_from(self.sq_ds[at + t], h)),
            };
            emit(j0, &kernel_lanes(h, sq, mm, &se, hamming));
            j0 += LANES;
        }
    }
}
