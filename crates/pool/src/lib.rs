//! Deterministic scoped worker pool for the otune hot paths.
//!
//! The tuning service has three embarrassingly parallel inner loops — LML
//! hyperparameter candidates during [`GaussianProcess::fit`], candidate
//! chunks during acquisition maximization, and trees during forest fits —
//! and all of them must stay *bitwise deterministic* regardless of thread
//! count so that `deterministic_fit`-style contracts keep holding.
//!
//! [`Pool::map`] provides exactly that: every item is evaluated by a pure
//! function of `(index, item)` and its result is written into a
//! pre-allocated slot at that index. Threads only affect *which worker*
//! computes a slot, never the value stored in it or the order of the
//! returned vector, so `OTUNE_THREADS=1` and `OTUNE_THREADS=64` produce
//! identical output.
//!
//! Workers are spawned per call with `std::thread::scope` (via the
//! vendored `crossbeam` shim). Scoped spawning costs a few tens of
//! microseconds per map, which is negligible against the multi-millisecond
//! Cholesky/kernel work the pool exists to parallelize, and keeps the pool
//! free of lifetime gymnastics: closures may borrow the caller's stack.
//!
//! [`GaussianProcess::fit`]: https://docs.rs/otune-gp

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "OTUNE_THREADS";

/// Upper bound on workers; guards against absurd env values.
const MAX_THREADS: usize = 256;

/// Adaptive serial cutoff: estimated nanoseconds of total map work below
/// which [`Pool::map_adaptive`] stays on the caller thread. Scoped
/// spawning costs a few tens of microseconds per map, so maps estimated
/// under ~400µs of total work lose more to dispatch than they gain from
/// width.
const SERIAL_CUTOFF_NS: u64 = 400_000;

/// Monotonic usage counters, shared by all clones of a [`Pool`].
#[derive(Debug, Default)]
struct PoolStats {
    /// Parallel `map` invocations (sequential fallbacks excluded).
    parallel_maps: AtomicU64,
    /// Items processed by parallel maps.
    parallel_tasks: AtomicU64,
    /// `map` invocations served on the caller thread.
    sequential_maps: AtomicU64,
    /// `map_adaptive` invocations inlined by the work-estimate cutoff
    /// (maps that would otherwise have dispatched workers).
    serial_cutoff_maps: AtomicU64,
}

/// Snapshot of a pool's usage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStatsSnapshot {
    /// Parallel `map` invocations (sequential fallbacks excluded).
    pub parallel_maps: u64,
    /// Items processed by parallel maps.
    pub parallel_tasks: u64,
    /// `map` invocations served on the caller thread.
    pub sequential_maps: u64,
    /// `map_adaptive` invocations inlined by the work-estimate cutoff.
    pub serial_cutoff_maps: u64,
}

/// A deterministic scoped worker pool.
///
/// Cheap to clone (clones share usage counters) and cheap to store: the
/// pool holds no threads between calls, only a target width.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    stats: Arc<PoolStats>,
}

impl Default for Pool {
    /// Same as [`Pool::from_env`].
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Pool {
    /// A pool targeting `threads` workers (clamped to `1..=256`).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.clamp(1, MAX_THREADS),
            stats: Arc::new(PoolStats::default()),
        }
    }

    /// A pool that always runs on the caller thread.
    pub fn sequential() -> Self {
        Pool::new(1)
    }

    /// A pool sized from the `OTUNE_THREADS` environment variable, falling
    /// back to the machine's available parallelism (and to 1 if even that
    /// is unknown). Invalid values fall through to the machine default.
    pub fn from_env() -> Self {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads =
            from_env.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Pool::new(threads)
    }

    /// A process-wide shared pool, sized once from the environment on
    /// first use. Entry points that are not reached by an explicitly
    /// plumbed pool handle use this.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::from_env)
    }

    /// Target worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current usage counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            parallel_maps: self.stats.parallel_maps.load(Ordering::Relaxed),
            parallel_tasks: self.stats.parallel_tasks.load(Ordering::Relaxed),
            sequential_maps: self.stats.sequential_maps.load(Ordering::Relaxed),
            serial_cutoff_maps: self.stats.serial_cutoff_maps.load(Ordering::Relaxed),
        }
    }

    /// [`Pool::map`] with an adaptive serial cutoff: when the estimated
    /// total work (`per_item_cost_ns × items`) is below the 400µs
    /// cutoff, run inline on the caller
    /// thread instead of dispatching workers — at that scale the scoped
    /// spawn costs more than the parallelism recovers, which is why
    /// width-4 pools historically *lost* to width-1 on small GP fits.
    ///
    /// The inline path evaluates the same pure `f(i, &items[i])` in index
    /// order, so results are bitwise-identical to the dispatched path and
    /// the width-invariance contract is untouched; only wall-clock
    /// changes. The cost estimate only gates dispatch — it never alters
    /// values.
    pub fn map_adaptive<T, R, F>(&self, items: &[T], per_item_cost_ns: u64, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let total = per_item_cost_ns.saturating_mul(items.len() as u64);
        if self.threads > 1 && items.len() > 1 && total < SERIAL_CUTOFF_NS {
            self.stats
                .serial_cutoff_maps
                .fetch_add(1, Ordering::Relaxed);
            self.stats.sequential_maps.fetch_add(1, Ordering::Relaxed);
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.map(items, f)
    }

    /// Apply `f` to every item and return the results in item order.
    ///
    /// `f(i, &items[i])` must be a pure function of its arguments; under
    /// that contract the output is bitwise-identical for every thread
    /// count, because each result is written into the slot at its own
    /// index and threads only change the assignment of slots to workers.
    ///
    /// Falls back to a plain sequential loop when the pool is width-1 or
    /// there are fewer than two items.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            self.stats.sequential_maps.fetch_add(1, Ordering::Relaxed);
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.stats.parallel_maps.fetch_add(1, Ordering::Relaxed);
        self.stats
            .parallel_tasks
            .fetch_add(n as u64, Ordering::Relaxed);

        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        // A few chunks per worker so a slow item doesn't serialize the map,
        // without paying queue contention per item.
        let chunk = n.div_ceil(workers * 4).max(1);
        let jobs: Vec<(usize, &mut [Option<R>])> = out
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| (ci * chunk, slice))
            .collect();
        let queue = Mutex::new(jobs.into_iter());
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| loop {
                    let job = queue.lock().next();
                    let Some((base, slice)) = job else { break };
                    for (off, slot) in slice.iter_mut().enumerate() {
                        let i = base + off;
                        *slot = Some(f(i, &items[i]));
                    }
                });
            }
        })
        .expect("pool worker panicked");
        out.into_iter()
            .map(|r| r.expect("every slot is filled before scope exit"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_values() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..103).collect();
        let got = pool.map(&items, |i, &v| v * 2 + i as u64);
        let want: Vec<u64> = items.iter().map(|&v| v * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_matches_sequential_for_any_width() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let f = |i: usize, v: &f64| (v.sin() * 1e6 + i as f64).cos();
        let seq = Pool::sequential().map(&items, f);
        for width in [2, 3, 4, 8, 32] {
            let par = Pool::new(width).map(&items, f);
            // Bitwise equality, not approximate: same ops, same slots.
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "width {width}");
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = vec![];
        assert!(pool.map(&empty, |_, &v| v).is_empty());
        assert_eq!(pool.map(&[7u32], |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn stats_count_parallel_and_sequential_maps() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..10).collect();
        pool.map(&items, |_, &v| v);
        pool.map(&[1u32], |_, &v| v); // sequential fallback: one item
        let clone = pool.clone();
        clone.map(&items, |_, &v| v); // clones share counters
        let s = pool.stats();
        assert_eq!(s.parallel_maps, 2);
        assert_eq!(s.parallel_tasks, 20);
        assert_eq!(s.sequential_maps, 1);
    }

    #[test]
    fn map_adaptive_inlines_small_work_and_dispatches_large() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..32).collect();
        // Tiny per-item cost: inlined, counted as a cutoff map.
        let small = pool.map_adaptive(&items, 10, |i, &v| v + i as u64);
        // Huge per-item cost: dispatched to workers.
        let large = pool.map_adaptive(&items, 10_000_000, |i, &v| v + i as u64);
        assert_eq!(small, large);
        let s = pool.stats();
        assert_eq!(s.serial_cutoff_maps, 1);
        assert_eq!(s.parallel_maps, 1);
    }

    #[test]
    fn map_adaptive_matches_map_bitwise() {
        let items: Vec<f64> = (0..57).map(|i| i as f64 * 0.73).collect();
        let f = |i: usize, v: &f64| (v.cos() * 1e5 + i as f64).sin();
        let want = Pool::sequential().map(&items, f);
        for width in [1, 2, 4, 8] {
            for cost in [1u64, 1_000_000_000] {
                let got = Pool::new(width).map_adaptive(&items, cost, f);
                for (a, b) in want.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits(), "width {width} cost {cost}");
                }
            }
        }
    }

    #[test]
    fn width_is_clamped() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(100_000).threads(), 256);
        assert_eq!(Pool::sequential().threads(), 1);
    }

    #[test]
    fn workers_can_borrow_caller_state() {
        let base = vec![10.0f64; 64];
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..64).collect();
        let got = pool.map(&items, |_, &i| base[i] + i as f64);
        assert_eq!(got[5], 15.0);
    }
}
