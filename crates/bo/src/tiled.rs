//! The tiled screen-and-score pass behind
//! [`maximize_eic`](crate::maximize_eic).
//!
//! The candidates are cut into fixed tiles of [`TILE`]. Per tile, every
//! distinct training set gets one distance pass, which every GP fitted on
//! it (the runtime and objective GPs share one) turns into kernel rows at
//! its own hyperparameters. The safe screen and the EIC ranking are then
//! decided from variance bounds read off those rows, and the `O(n²)`
//! forward solve runs only where the bounds cannot decide:
//!
//! * **Screen.** A candidate is safe for a region when its violation at
//!   the variance upper bound is zero, unsafe when its violation at the
//!   lower bound is positive (`SafeRegion::violation_from` is monotone in
//!   the variance); only the rest get the exact variance.
//! * **Score.** Each safe candidate gets an EIC upper bound from the
//!   objective's exact mean and a variance upper bound. Exact EIC is then
//!   computed in descending-bound order until the next bound falls below
//!   the best exact EIC, so the first-max winner and its EIC bits are the
//!   unpruned path's.
//! * **Fallback.** When no candidate is safe, every candidate's exact
//!   violation is computed and the first minimum wins.
//!
//! Means are always exact; every decision the bounds make is the one the
//! exact posterior makes, so suggestions, EIC bits and the
//! `safe_region_rejections` count are bitwise those of scoring every
//! candidate exactly (pinned by the `tiled_pass` oracle proptest).

use crate::acquisition::{eic, expected_improvement, expected_improvement_bound, prob_below};
use crate::optimizer::EicObjective;
use crate::safe::SafeRegion;
use otune_gp::{
    CandidateTile, DistanceTile, FeatureKind, GaussianProcess, KernelTile, PackedSet, Rows,
};
use otune_pool::Pool;
use std::cell::RefCell;

/// Candidates per tile: scratch stays `O(training rows × TILE)` per GP,
/// never `O(training rows × candidates)`.
const TILE: usize = 64;

/// Candidates per round of exact EIC scoring in descending-bound order.
const EXACT_CHUNK: usize = 16;

/// One GP the pass reads, and the index of its training set.
struct Slot<'p> {
    gp: &'p GaussianProcess,
    set: usize,
}

/// A distinct training set: its feature-kinds group, its rows (compared
/// bitwise to find GPs that can share a distance pass) and their packing.
struct TrainSet<'p> {
    kinds: usize,
    rows: &'p [Vec<f64>],
    packed: PackedSet,
}

/// Per-thread scratch, reused across tiles: one candidate tile per kinds
/// group, one distance tile per training set, one kernel tile per slot.
#[derive(Default)]
struct Scratch {
    tiles: Vec<CandidateTile>,
    dists: Vec<DistanceTile>,
    dist_ready: Vec<bool>,
    kernels: Vec<KernelTile>,
    cols: Vec<usize>,
    vars: Vec<f64>,
    preds: Vec<(f64, f64)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The screen-and-score pass over one BO step's candidates.
pub(crate) struct TilePass<'p> {
    kinds: Vec<&'p [FeatureKind]>,
    sets: Vec<TrainSet<'p>>,
    slots: Vec<Slot<'p>>,
    regions: Vec<(&'p SafeRegion<'p>, usize)>,
    members: Vec<usize>,
    constraints: Vec<(usize, f64)>,
    objective: &'p EicObjective<'p>,
}

impl<'p> TilePass<'p> {
    /// Plan the pass: one slot per region surrogate, objective member and
    /// constraint surrogate, grouped into training sets by bitwise-equal
    /// training rows over the same feature kinds.
    pub(crate) fn new(objective: &'p EicObjective<'p>, regions: &'p [SafeRegion<'p>]) -> Self {
        let mut pass = TilePass {
            kinds: Vec::new(),
            sets: Vec::new(),
            slots: Vec::new(),
            regions: Vec::new(),
            members: Vec::new(),
            constraints: Vec::new(),
            objective,
        };
        for region in regions {
            let slot = pass.slot(region.surrogate());
            pass.regions.push((region, slot));
        }
        for gp in objective.objective_gp.members() {
            let slot = pass.slot(gp);
            pass.members.push(slot);
        }
        for &(gp, threshold) in &objective.constraints {
            let slot = pass.slot(gp);
            pass.constraints.push((slot, threshold));
        }
        pass
    }

    fn slot(&mut self, gp: &'p GaussianProcess) -> usize {
        let kinds = gp.kernel().kinds();
        let k = match self.kinds.iter().position(|&k| k == kinds) {
            Some(k) => k,
            None => {
                self.kinds.push(kinds);
                self.kinds.len() - 1
            }
        };
        let rows = gp.train_x();
        let set = match self
            .sets
            .iter()
            .position(|s| s.kinds == k && same_bits(s.rows, rows))
        {
            Some(set) => set,
            None => {
                let mut packed = PackedSet::default();
                gp.kernel()
                    .pack_rows(rows.iter().map(Vec::as_slice), &mut packed);
                self.sets.push(TrainSet {
                    kinds: k,
                    rows,
                    packed,
                });
                self.sets.len() - 1
            }
        };
        self.slots.push(Slot { gp, set });
        self.slots.len() - 1
    }

    /// Rough nanoseconds per tile of the screen: the distance passes plus
    /// the region and objective kernel transforms. Only gates whether the
    /// pool dispatches workers, never a result.
    fn tile_cost_ns(&self) -> u64 {
        let rows = |s: usize| self.slots[s].gp.n() as u64;
        let dist: u64 = self
            .sets
            .iter()
            .map(|s| s.packed.len() as u64 * (self.kinds[s.kinds].len() as u64 / 3 + 1))
            .sum();
        let transform: u64 = self
            .regions
            .iter()
            .map(|&(_, s)| s)
            .chain(self.members.iter().copied())
            .map(|s| rows(s) * 10)
            .sum();
        TILE as u64 * (dist + transform)
    }

    /// Pack `xs` (at most [`TILE`] candidates) for every kinds group and
    /// invalidate the previous tile's distances.
    fn load(&self, xs: Rows<'_>, sc: &mut Scratch) {
        sc.tiles.resize_with(self.kinds.len(), Default::default);
        sc.dists.resize_with(self.sets.len(), Default::default);
        sc.kernels.resize_with(self.slots.len(), Default::default);
        for (tile, kinds) in sc.tiles.iter_mut().zip(&self.kinds) {
            tile.pack(kinds, xs.prefix(kinds.len()).iter());
        }
        sc.dist_ready.clear();
        sc.dist_ready.resize(self.sets.len(), false);
    }

    /// Slot `s`'s kernel rows over the loaded tile into `sc.kernels[s]`,
    /// running its training set's distance pass first if this tile has
    /// not needed it yet.
    fn kernel_rows(&self, s: usize, sc: &mut Scratch) {
        let Slot { gp, set } = self.slots[s];
        let train = &self.sets[set];
        if !sc.dist_ready[set] {
            sc.dists[set].compute(&train.packed, &sc.tiles[train.kinds]);
            sc.dist_ready[set] = true;
        }
        gp.kernel_tile(&sc.dists[set], &mut sc.kernels[s]);
    }

    /// Slot `s`'s exact `(mean, variance)` at the loaded tile's first
    /// `len` candidates.
    fn exact(&self, s: usize, len: usize, sc: &mut Scratch, out: &mut Vec<(f64, f64)>) {
        self.kernel_rows(s, sc);
        let gp = self.slots[s].gp;
        let kt = &sc.kernels[s];
        sc.cols.clear();
        sc.cols.extend(0..len);
        gp.tile_vars(kt, &sc.cols, &mut sc.vars);
        out.clear();
        out.extend((0..len).map(|j| (gp.tile_mean(kt, j), sc.vars[j])));
    }

    /// Screen the loaded tile's `len` candidates against every region and
    /// bound the EIC of the safe ones: the bound of each safe candidate,
    /// `None` for unsafe ones.
    fn screen_tile(&self, len: usize, sc: &mut Scratch) -> Vec<Option<f64>> {
        let mut safe = vec![true; len];
        for &(region, s) in &self.regions {
            self.kernel_rows(s, sc);
            let gp = self.slots[s].gp;
            let kt = &sc.kernels[s];
            sc.cols.clear();
            for (j, safe_j) in safe.iter_mut().enumerate() {
                if !*safe_j {
                    continue;
                }
                let mean = gp.tile_mean(kt, j);
                let (lb, ub) = gp.tile_var_bounds(kt, j);
                if region.violation_from(mean, ub) <= 0.0 {
                    continue;
                }
                if region.violation_from(mean, lb) > 0.0 {
                    *safe_j = false;
                } else {
                    sc.cols.push(j);
                }
            }
            gp.tile_vars(kt, &sc.cols, &mut sc.vars);
            for (&j, &var) in sc.cols.iter().zip(&sc.vars) {
                if region.violation_from(gp.tile_mean(kt, j), var) > 0.0 {
                    safe[j] = false;
                }
            }
        }

        let mut bounds = vec![None; len];
        if safe.iter().any(|&s| s) {
            for &s in &self.members {
                self.kernel_rows(s, sc);
            }
            let y_best = self.objective.y_best;
            for (j, bound) in bounds.iter_mut().enumerate().filter(|&(j, _)| safe[j]) {
                sc.preds.clear();
                for &s in &self.members {
                    let gp = self.slots[s].gp;
                    let kt = &sc.kernels[s];
                    sc.preds
                        .push((gp.tile_mean(kt, j), gp.tile_var_bounds(kt, j).1));
                }
                let (mean, var_ub) = self.objective.objective_gp.combine(&sc.preds);
                *bound = Some(expected_improvement_bound(mean, var_ub, y_best));
            }
        }
        bounds
    }

    /// Exact EIC of the loaded tile's `len` candidates — per candidate
    /// the same predictions and arithmetic as [`EicObjective::eval`].
    fn exact_eic(&self, len: usize, sc: &mut Scratch, out: &mut Vec<f64>) {
        let mut member_preds = vec![Vec::new(); self.members.len()];
        for (&s, preds) in self.members.iter().zip(&mut member_preds) {
            self.exact(s, len, sc, preds);
        }
        let mut constraint_preds = vec![Vec::new(); self.constraints.len()];
        for (&(s, _), preds) in self.constraints.iter().zip(&mut constraint_preds) {
            self.exact(s, len, sc, preds);
        }
        let mut probs = Vec::with_capacity(self.constraints.len());
        out.clear();
        for j in 0..len {
            sc.preds.clear();
            sc.preds.extend(member_preds.iter().map(|p| p[j]));
            let (mean, var) = self.objective.objective_gp.combine(&sc.preds);
            let ei = expected_improvement(mean, var, self.objective.y_best);
            probs.clear();
            for (preds, &(_, threshold)) in constraint_preds.iter().zip(&self.constraints) {
                let (m, v) = preds[j];
                probs.push(prob_below(m, v, threshold));
            }
            out.push(eic(ei, &probs));
        }
    }

    /// Exact total violation of the loaded tile's `len` candidates,
    /// accumulated in region order as [`SafeRegion::violation`] calls
    /// would be.
    fn exact_violations(&self, len: usize, sc: &mut Scratch) -> Vec<f64> {
        let mut total = vec![0.0; len];
        let mut preds = Vec::with_capacity(len);
        for &(region, s) in &self.regions {
            self.exact(s, len, sc, &mut preds);
            for (acc, &(mean, var)) in total.iter_mut().zip(&preds) {
                *acc += region.violation_from(mean, var);
            }
        }
        total
    }

    /// Screen every candidate of `xs`, tile by tile on `pool`: the EIC
    /// upper bound of each safe candidate, `None` for unsafe ones. Tiles
    /// are independent and their results are concatenated in order, so
    /// the output does not depend on the pool width.
    pub(crate) fn screen(&self, xs: Rows<'_>, pool: &Pool) -> Vec<Option<f64>> {
        let tiles = xs.chunks(TILE);
        let screened = pool.map_adaptive(&tiles, self.tile_cost_ns(), |_, &tile| {
            SCRATCH.with(|sc| {
                let sc = &mut *sc.borrow_mut();
                self.load(tile, sc);
                self.screen_tile(tile.len(), sc)
            })
        });
        screened.into_iter().flatten().collect()
    }

    /// The first-max exact EIC among the safe candidates, as `(position
    /// in bounds, EIC)`: exact scores are computed in descending-bound
    /// order (ties by position), [`EXACT_CHUNK`] at a time, until the
    /// next bound is below the best exact EIC. `rows` maps a position to
    /// its row of `matrix`.
    pub(crate) fn best_exact(
        &self,
        matrix: Rows<'_>,
        rows: &[usize],
        bounds: &[Option<f64>],
    ) -> Option<(usize, f64)> {
        let mut order: Vec<(usize, f64)> = bounds
            .iter()
            .enumerate()
            .filter_map(|(j, b)| b.map(|b| (j, b)))
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut best: Option<(usize, f64)> = None;
        let mut picked = Vec::with_capacity(EXACT_CHUNK);
        let mut scores = Vec::with_capacity(EXACT_CHUNK);
        for chunk in order.chunks(EXACT_CHUNK) {
            if best.is_some_and(|(_, b)| chunk[0].1 < b) {
                break;
            }
            picked.clear();
            picked.extend(chunk.iter().map(|&(j, _)| rows[j]));
            SCRATCH.with(|sc| {
                let sc = &mut *sc.borrow_mut();
                self.load(matrix.select(&picked), sc);
                self.exact_eic(picked.len(), sc, &mut scores);
            });
            for (&(j, _), &v) in chunk.iter().zip(&scores) {
                if best.is_none_or(|(bj, bv)| v > bv || (v == bv && j < bj)) {
                    best = Some((j, v));
                }
            }
        }
        best
    }

    /// The first candidate of `xs` with the least exact total violation
    /// — the fallback when no candidate is safe.
    pub(crate) fn least_violation(&self, xs: Rows<'_>, pool: &Pool) -> usize {
        let tiles = xs.chunks(TILE);
        let violations = pool.map_adaptive(&tiles, self.tile_cost_ns(), |_, &tile| {
            SCRATCH.with(|sc| {
                let sc = &mut *sc.borrow_mut();
                self.load(tile, sc);
                self.exact_violations(tile.len(), sc)
            })
        });
        let mut least: Option<(usize, f64)> = None;
        for (j, violation) in violations.into_iter().flatten().enumerate() {
            if least.is_none_or(|(_, b)| violation < b) {
                least = Some((j, violation));
            }
        }
        least.expect("candidates is non-empty").0
    }
}

/// Whether two training sets hold the same rows, bit for bit.
fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}
