//! Deterministic scoped worker pool for the otune hot paths.
//!
//! The tuning service has a few embarrassingly parallel loops — tasks of a
//! fleet wave, LML hyperparameter candidates during
//! [`GaussianProcess::fit`], candidate tiles during acquisition
//! maximization, and trees during forest fits — and all of them must stay
//! *bitwise deterministic* regardless of thread count so that
//! `deterministic_fit`-style contracts keep holding.
//!
//! [`Pool::map`] provides exactly that: every item is evaluated by a pure
//! function of `(index, item)` and its result is written into a
//! pre-allocated slot at that index. Threads only affect *which worker*
//! computes a slot, never the value stored in it or the order of the
//! returned vector, so `OTUNE_THREADS=1` and `OTUNE_THREADS=64` produce
//! identical output. Workers claim one item at a time: every production
//! map's items take tens of microseconds or more, so an uneven item never
//! strands a chunk of others behind it.
//!
//! Workers are spawned per call with `std::thread::scope` (via the
//! vendored `crossbeam` shim), which keeps the pool free of lifetime
//! gymnastics: closures may borrow the caller's stack.
//!
//! **One pool per caller.** There is no process-wide pool. Every compute
//! entry point (a GP fit or update, a forest or fANOVA fit, an acquisition
//! maximization, a base-task fit) takes the pool it runs on, so a tuner's
//! width bounds every map its suggestions run and its usage counters
//! record all of them.
//!
//! **One level of parallelism.** A map issued on a worker of a *saturated*
//! map — a parallel map with at least as many items as its pool has
//! threads — runs inline on that worker and counts as a sequential map:
//! every core already has an item, so nested workers would only add
//! spawns and oversubscription. The pool reads this from the thread it is
//! called on; it is not an option, and it changes no bits, because every
//! map is width-invariant. A fleet wave of at least as many tasks as
//! threads therefore spawns one set of workers, and the tile passes, hyper
//! searches and forest fits inside each task run on the worker that holds
//! the task. Under a map with fewer items than threads nested maps still
//! fan out, to the cores the outer map leaves idle.
//!
//! [`GaussianProcess::fit`]: https://docs.rs/otune-gp

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

thread_local! {
    /// Whether this thread is a worker of a saturated parallel map, so
    /// maps issued on it run inline.
    static ON_SATURATED_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Monotonic usage counters, shared by all clones of a [`Pool`].
#[derive(Debug, Default)]
struct PoolStats {
    /// Parallel `map` invocations (sequential fallbacks excluded).
    parallel_maps: AtomicU64,
    /// Items processed by parallel maps.
    parallel_tasks: AtomicU64,
    /// `map` invocations served on the caller thread (width 1, one item,
    /// or nested on a saturated map's worker).
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
    /// `map` invocations served on the caller thread (width 1, one item,
    /// or nested on a saturated map's worker).
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
        let would_dispatch = self.threads > 1 && items.len() > 1 && !ON_SATURATED_WORKER.get();
        if would_dispatch && total < SERIAL_CUTOFF_NS {
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
    /// Runs as a plain sequential loop on the caller thread when the pool
    /// is width-1, there are fewer than two items, or the caller is a
    /// worker of a saturated map (see the crate docs).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.dispatch(items.iter(), f)
    }

    /// [`Pool::map`] over mutable items: `f(i, &mut items[i])` may update
    /// its own item, and each item is handed to exactly one worker, so
    /// disjoint state (a fleet wave's task entries) needs no lock. The
    /// same purity contract makes the results and the items' final state
    /// width-invariant.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        self.dispatch(items.iter_mut(), f)
    }

    /// The one map implementation: `f(i, item)` for every item of `items`,
    /// results in item order.
    fn dispatch<I, R, F>(&self, items: I, f: F) -> Vec<R>
    where
        I: ExactSizeIterator + Send,
        R: Send,
        F: Fn(usize, I::Item) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || ON_SATURATED_WORKER.get() {
            self.stats.sequential_maps.fetch_add(1, Ordering::Relaxed);
            return items.enumerate().map(|(i, t)| f(i, t)).collect();
        }
        self.stats.parallel_maps.fetch_add(1, Ordering::Relaxed);
        self.stats
            .parallel_tasks
            .fetch_add(n as u64, Ordering::Relaxed);
        let saturated = n >= self.threads;

        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let queue = Mutex::new(items.enumerate().zip(out.iter_mut()));
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| {
                    ON_SATURATED_WORKER.set(saturated);
                    loop {
                        let claimed = queue.lock().next();
                        let Some(((i, item), slot)) = claimed else {
                            break;
                        };
                        *slot = Some(f(i, item));
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
    fn map_mut_updates_each_item_once_at_any_width() {
        let want: Vec<u64> = (0..41).map(|v| v * 3 + 1).collect();
        for width in [1, 2, 4, 8] {
            let mut items: Vec<u64> = (0..41).collect();
            let got = Pool::new(width).map_mut(&mut items, |i, v| {
                *v = *v * 3 + 1;
                *v + i as u64
            });
            assert_eq!(items, want, "width {width}");
            let sums: Vec<u64> = want.iter().enumerate().map(|(i, v)| v + i as u64).collect();
            assert_eq!(got, sums, "width {width}");
        }
    }

    /// `f` evaluated by `inner` from inside every item of an `outer` map
    /// of `n_outer` items: per outer item, whether each inner item ran on
    /// the outer worker's own thread, and the inner results.
    fn nested(outer: &Pool, inner: &Pool, n_outer: usize, items: &[f64]) -> Vec<(bool, Vec<f64>)> {
        let f = |i: usize, v: &f64| (v.sin() * 1e6 + i as f64).cos();
        let outer_items: Vec<usize> = (0..n_outer).collect();
        outer.map(&outer_items, |_, _| {
            let worker = std::thread::current().id();
            let got = inner.map(items, |i, v| {
                (std::thread::current().id() == worker, f(i, v))
            });
            let on_worker = got.iter().all(|(same, _)| *same);
            (on_worker, got.into_iter().map(|(_, v)| v).collect())
        })
    }

    #[test]
    fn nested_maps_run_inline_on_a_saturated_maps_workers() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 * 0.37).collect();
        let want = Pool::sequential().map(&items, |i, v| (v.sin() * 1e6 + i as f64).cos());
        // Two outer items on two threads: every core holds an item.
        let (outer, inner) = (Pool::new(2), Pool::new(4));
        for (on_worker, got) in nested(&outer, &inner, 2, &items) {
            assert!(on_worker, "a nested map left its worker's thread");
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert_eq!(outer.stats().parallel_maps, 1);
        let s = inner.stats();
        assert_eq!((s.parallel_maps, s.sequential_maps), (0, 2));
        // The adaptive map inlines too, as a sequential map: the cutoff
        // did not decide it.
        let adaptive = Pool::new(4);
        outer.map(&[0u8, 1, 2], |_, _| {
            adaptive.map_adaptive(&items, 1_000_000_000, |_, v| v.to_bits())
        });
        let s = adaptive.stats();
        assert_eq!(
            (s.parallel_maps, s.sequential_maps, s.serial_cutoff_maps),
            (0, 3, 0)
        );
    }

    #[test]
    fn nested_maps_fan_out_under_a_map_with_fewer_items_than_threads() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 * 0.37).collect();
        let want = Pool::sequential().map(&items, |i, v| (v.sin() * 1e6 + i as f64).cos());
        // Two outer items on four threads leave two cores idle.
        let (outer, inner) = (Pool::new(4), Pool::new(4));
        for (_, got) in nested(&outer, &inner, 2, &items) {
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert_eq!(outer.stats().parallel_maps, 1);
        let s = inner.stats();
        assert_eq!((s.parallel_maps, s.sequential_maps), (2, 0));
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
