//! Adaptive sub-space generation (§4.1).
//!
//! Parameters are ranked by fANOVA importance over the runhistory (starting
//! from an expert prior ranking when there is no history). The sub-space
//! size `K` starts at `K_init` and evolves TuRBO-style: after `τ_succ`
//! consecutive improvements it grows by 2 (up to `K_max`), after `τ_fail`
//! consecutive non-improvements it shrinks by 2 (down to `K_min`).

use otune_forest::Fanova;
use otune_pool::Pool;
use otune_space::{ConfigSpace, Configuration, Subspace};

/// Sub-space evolution parameters (paper defaults: `τ_succ = 3`,
/// `τ_fail = 5`, `K_min = 4`, `K_init = 10`, step ±2).
#[derive(Debug, Clone, Copy)]
pub struct SubspaceParams {
    /// Initial size `K_init`.
    pub k_init: usize,
    /// Minimum size `K_min`.
    pub k_min: usize,
    /// Maximum size `K_max` (the full parameter count).
    pub k_max: usize,
    /// Consecutive successes before growing.
    pub tau_success: usize,
    /// Consecutive failures before shrinking.
    pub tau_failure: usize,
    /// Size step on grow/shrink.
    pub step: usize,
}

impl SubspaceParams {
    /// Paper defaults for a space of `k_max` parameters.
    pub fn paper_defaults(k_max: usize) -> Self {
        SubspaceParams {
            k_init: 10.min(k_max),
            k_min: 4.min(k_max),
            k_max,
            tau_success: 3,
            tau_failure: 5,
            step: 2,
        }
    }
}

/// Tracks the sub-space size and parameter ranking across iterations.
#[derive(Debug, Clone)]
pub struct AdaptiveSubspace {
    params: SubspaceParams,
    k: usize,
    successes: usize,
    failures: usize,
    /// Current importance ranking (most important first). Starts from an
    /// expert prior and is refreshed from fANOVA as history accumulates.
    ranking: Vec<usize>,
}

impl AdaptiveSubspace {
    /// Start with an expert prior ranking (§4.1: "we start with an initial
    /// parameter ranking suggested by experts").
    pub fn new(params: SubspaceParams, expert_ranking: Vec<usize>) -> Self {
        assert!(
            expert_ranking.len() >= params.k_max,
            "ranking must cover at least K_max parameters ({} < {})",
            expert_ranking.len(),
            params.k_max
        );
        AdaptiveSubspace {
            k: params.k_init.clamp(params.k_min, params.k_max),
            params,
            successes: 0,
            failures: 0,
            ranking: expert_ranking,
        }
    }

    /// Current sub-space size `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current ranking (most important first).
    pub fn ranking(&self) -> &[usize] {
        &self.ranking
    }

    /// Record whether the latest evaluation improved on the incumbent and
    /// evolve `K` accordingly. Returns the (possibly new) `K`.
    pub fn record(&mut self, success: bool) -> usize {
        if success {
            self.successes += 1;
            self.failures = 0;
        } else {
            self.failures += 1;
            self.successes = 0;
        }
        if self.successes >= self.params.tau_success {
            self.k = (self.k + self.params.step).min(self.params.k_max);
            self.successes = 0;
            self.failures = 0;
        } else if self.failures >= self.params.tau_failure {
            self.k = self
                .k
                .saturating_sub(self.params.step)
                .max(self.params.k_min);
            self.successes = 0;
            self.failures = 0;
        }
        self.k
    }

    /// Refresh the importance ranking from the runhistory via fANOVA,
    /// growing the forest on `pool`. Encoded rows `x` must span the full
    /// space; `y` is the objective. Keeps the previous ranking if the
    /// forest cannot be fitted (e.g. too little history).
    pub fn refresh_ranking(&mut self, x: &[Vec<f64>], y: &[f64], seed: u64, pool: &Pool) {
        if x.len() < 4 {
            return;
        }
        if let Ok(f) = Fanova::fit(x, y, seed, pool) {
            let ranking = f.ranking();
            if ranking.len() == self.ranking.len() {
                self.ranking = ranking;
            }
        }
    }

    /// Materialize the current sub-space: the top-`K` ranked parameters
    /// free, everything else frozen at `base` (the incumbent).
    pub fn build(&self, space: &ConfigSpace, base: Configuration) -> Subspace {
        let free: Vec<usize> = self.ranking.iter().copied().take(self.k).collect();
        Subspace::new(space, free, base).expect("ranking indices are valid by construction")
    }
}

/// The expert prior ranking for the 30-parameter Spark space: resource
/// parameters first (they dominate Table 5), then memory management,
/// parallelism, shuffle and serialization, then the long tail.
pub fn spark_expert_ranking() -> Vec<usize> {
    use otune_space::SparkParam as P;
    let head = [
        P::ExecutorInstances,
        P::ExecutorMemory,
        P::MemoryStorageFraction,
        P::DefaultParallelism,
        P::MemoryFraction,
        P::ExecutorCores,
        P::IoCompressionCodec,
        P::ShuffleFileBuffer,
        P::ShuffleCompress,
        P::Serializer,
        P::SqlShufflePartitions,
        P::ShuffleSpillCompress,
        P::ReducerMaxSizeInFlight,
        P::RddCompress,
        P::ExecutorMemoryOverhead,
        P::DriverMemory,
        P::DriverCores,
        P::Speculation,
        P::LocalityWait,
        P::BroadcastCompress,
        P::BroadcastBlockSize,
        P::KryoserializerBufferMax,
        P::ShuffleSortBypassMergeThreshold,
        P::SpeculationMultiplier,
        P::ShuffleIoNumConnectionsPerPeer,
        P::StorageMemoryMapThreshold,
        P::SchedulerMode,
        P::TaskMaxFailures,
        P::NetworkTimeout,
        P::ExecutorHeartbeatInterval,
    ];
    head.iter().map(|p| p.index()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otune_space::{spark_space, ClusterScale};

    fn manager() -> AdaptiveSubspace {
        AdaptiveSubspace::new(SubspaceParams::paper_defaults(30), spark_expert_ranking())
    }

    #[test]
    fn starts_at_k_init() {
        assert_eq!(manager().k(), 10);
    }

    #[test]
    fn grows_after_tau_successes() {
        let mut m = manager();
        m.record(true);
        m.record(true);
        assert_eq!(m.k(), 10);
        m.record(true);
        assert_eq!(m.k(), 12);
    }

    #[test]
    fn shrinks_after_tau_failures() {
        let mut m = manager();
        for _ in 0..4 {
            m.record(false);
        }
        assert_eq!(m.k(), 10);
        m.record(false);
        assert_eq!(m.k(), 8);
    }

    #[test]
    fn counters_reset_on_opposite_event() {
        let mut m = manager();
        m.record(true);
        m.record(true);
        m.record(false); // resets the success streak
        m.record(true);
        m.record(true);
        assert_eq!(m.k(), 10);
        m.record(true);
        assert_eq!(m.k(), 12);
    }

    #[test]
    fn respects_bounds() {
        let mut m = manager();
        for _ in 0..200 {
            m.record(false);
        }
        assert_eq!(m.k(), 4, "never below K_min");
        for _ in 0..200 {
            m.record(true);
        }
        assert_eq!(m.k(), 30, "never above K_max");
    }

    #[test]
    fn builds_subspace_over_top_ranked() {
        let space = spark_space(ClusterScale::hibench());
        let m = manager();
        let sub = m.build(&space, space.default_configuration());
        assert_eq!(sub.k(), 10);
        let ranking = spark_expert_ranking();
        assert_eq!(sub.free_indices(), &ranking[..10]);
    }

    #[test]
    fn refresh_ranking_reorders_by_importance() {
        let mut m = manager();
        // Synthetic history where dim 7 dominates the objective.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..120 {
            let row: Vec<f64> = (0..30).map(|_| rng.gen::<f64>()).collect();
            y.push(50.0 * row[7] + row[3]);
            x.push(row);
        }
        m.refresh_ranking(&x, &y, 1, &Pool::sequential());
        assert_eq!(
            m.ranking()[0],
            7,
            "dominant dim promoted: {:?}",
            &m.ranking()[..5]
        );
    }

    #[test]
    fn refresh_with_tiny_history_is_noop() {
        let mut m = manager();
        let before = m.ranking().to_vec();
        m.refresh_ranking(&[vec![0.0; 30]], &[1.0], 0, &Pool::sequential());
        assert_eq!(m.ranking(), &before[..]);
    }

    #[test]
    fn refresh_ranking_grows_its_forest_on_the_given_pool() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let x: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..30).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 9.0 * r[4] + 3.0 * r[11] * r[2]).collect();
        let rankings: Vec<Vec<usize>> = [1, 4]
            .into_iter()
            .map(|width| {
                let pool = Pool::new(width);
                let mut m = manager();
                m.refresh_ranking(&x, &y, 3, &pool);
                // The forest is one map, recorded on this pool alone.
                let s = pool.stats();
                let maps = (s.sequential_maps, s.parallel_maps);
                assert_eq!(maps, if width == 1 { (1, 0) } else { (0, 1) });
                m.ranking().to_vec()
            })
            .collect();
        assert_eq!(rankings[0], rankings[1]);
        assert_ne!(rankings[0], spark_expert_ranking(), "the refresh reranked");
    }

    #[test]
    fn expert_ranking_is_a_permutation() {
        let mut r = spark_expert_ranking();
        r.sort_unstable();
        assert_eq!(r, (0..30).collect::<Vec<_>>());
    }
}
