//! Hierarchical tracing: replayable span trees over the tuning request
//! path, plus latency attribution.
//!
//! A *trace* is one top-level operation — a fleet wave, a standalone
//! `suggest`, an `observe` — decomposed into a tree of named spans
//! (wave → task → tuner step → generator phase → surrogate fit →
//! Cholesky/EIC kernels). Design constraints, in order:
//!
//! * **Deterministic identity.** Trace, span, and parent IDs are derived
//!   from a seed, the span's name, and its position in the tree — never
//!   from the wall clock or allocation addresses — so the *structure* of a
//!   trace is bitwise-identical across runs, pool widths, and shard
//!   counts. Only the timing fields (`start_ns`/`dur_ns`) and the worker
//!   id vary; [`structural_key`] strips exactly those.
//! * **Zero overhead when off.** A handle without tracing returns an
//!   inert guard: no clock read, no allocation, no thread-local touch
//!   beyond one branch.
//! * **Thread-safe parenting.** Within a thread, parentage follows the
//!   call stack via a thread-local span stack. Across threads (pool
//!   workers), the caller captures a [`TraceCtx`] and the worker adopts
//!   it; parallel siblings must use [`Telemetry::trace_span_keyed`] with a
//!   caller-chosen key (task hash, candidate index) so their
//!   IDs do not depend on scheduling order.
//!
//! Closed spans are buffered in-memory (bounded, with a dropped-span
//! counter) and also emitted as [`EventKind::SpanClosed`] events through
//! the sink, so a JSONL event stream written by `tune --events` carries
//! the full trace for `otune trace` / `otune top`.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default bound on buffered spans per pipeline.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One closed span. Identity fields (`trace_id`, `span_id`, `parent_id`,
/// `name`, `task`) are deterministic; `worker`, `start_ns`, and `dur_ns`
/// are measurements and vary run to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace the span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the trace).
    pub span_id: u64,
    /// Parent span id; 0 for trace roots.
    pub parent_id: u64,
    /// Phase name (e.g. `suggest`, `gp_fit`, `chol_factor`).
    pub name: String,
    /// Task label of the emitting handle ("" for fleet-level spans).
    pub task: String,
    /// Dense id of the OS thread that ran the span (excluded from
    /// structural identity).
    pub worker: u64,
    /// Start, in nanoseconds since the pipeline's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A captured span context, for handing parentage across threads.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    pub(crate) pipeline: u64,
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
}

/// Per-pipeline tracing state, attached to an enabled `Telemetry` handle
/// on request.
pub(crate) struct TraceState {
    /// Seed folded into every derived id.
    seed: u64,
    /// Identity of the owning pipeline (disambiguates thread-local stack
    /// entries when several pipelines coexist in one process).
    pipeline: u64,
    /// Monotonic origin for `start_ns` (read only while tracing).
    epoch: Instant,
    /// Root counter: sequential roots get deterministic trace ids.
    roots: AtomicU64,
    buf: Mutex<Vec<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Process-wide source of pipeline identities (small and collision-free,
/// unlike pointer reuse after drops).
static NEXT_PIPELINE: AtomicU64 = AtomicU64::new(1);

/// Dense per-thread worker ids for the `worker` field.
static NEXT_WORKER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static WORKER_ID: u64 = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
    /// The active span stack of this thread: innermost last.
    static SPAN_STACK: RefCell<Vec<TraceCtx>> = const { RefCell::new(Vec::new()) };
}

fn worker_id() -> u64 {
    WORKER_ID.with(|w| *w)
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a string (span names).
fn fnv_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derive a child span id from its deterministic coordinates. Ids are
/// never 0 (0 is the "no parent" sentinel).
fn span_id(trace_id: u64, parent_id: u64, name: &str, key: u64) -> u64 {
    mix(trace_id ^ parent_id.rotate_left(17) ^ fnv_str(name) ^ mix(key)).max(1)
}

impl TraceState {
    pub(crate) fn new(seed: u64, capacity: usize) -> Self {
        TraceState {
            seed,
            pipeline: NEXT_PIPELINE.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            roots: AtomicU64::new(0),
            buf: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        self.buf.lock().clone()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Current thread's innermost span of *this* pipeline, if any.
    pub(crate) fn current(&self) -> Option<TraceCtx> {
        SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|c| c.pipeline == self.pipeline)
                .cloned()
        })
    }

    /// Open a span: child of the thread's current span when one exists,
    /// else a new trace root. `key` pins the id for parallel siblings;
    /// `None` uses a per-root sequence derived from the root counter (an
    /// opened root) or, for nested spans, the child's birth order is
    /// irrelevant because same-thread nesting is sequential — we fold a
    /// per-thread sibling counter kept on the stack entry instead.
    pub(crate) fn open(&self, name: &'static str, key: Option<u64>) -> OpenSpan {
        let (trace_id, parent_id, id) = match self.current() {
            Some(parent) => {
                let k = key.unwrap_or_else(|| next_sibling(self.pipeline, parent.span_id));
                (
                    parent.trace_id,
                    parent.span_id,
                    span_id(parent.trace_id, parent.span_id, name, k),
                )
            }
            None => {
                let k = key.unwrap_or_else(|| self.roots.fetch_add(1, Ordering::Relaxed));
                let trace_id = mix(self.seed ^ fnv_str(name) ^ mix(k)).max(1);
                (trace_id, 0, span_id(trace_id, 0, name, k))
            }
        };
        SPAN_STACK.with(|s| {
            s.borrow_mut().push(TraceCtx {
                pipeline: self.pipeline,
                trace_id,
                span_id: id,
            })
        });
        OpenSpan {
            trace_id,
            span_id: id,
            parent_id,
            start: self.epoch.elapsed().as_nanos() as u64,
            begun: Instant::now(),
        }
    }

    /// Close a span opened by [`TraceState::open`]: pop the stack entry
    /// and buffer the record.
    pub(crate) fn close(&self, open: &OpenSpan, name: &'static str, task: &str) -> SpanRecord {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // The span being closed is this thread's innermost entry of
            // the pipeline (guards are strictly nested within a thread).
            if let Some(pos) = stack
                .iter()
                .rposition(|c| c.pipeline == self.pipeline && c.span_id == open.span_id)
            {
                stack.remove(pos);
            }
        });
        clear_siblings(self.pipeline, open.span_id);
        let record = SpanRecord {
            trace_id: open.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
            name: name.to_string(),
            task: task.to_string(),
            worker: worker_id(),
            start_ns: open.start,
            dur_ns: open.begun.elapsed().as_nanos() as u64,
        };
        let mut buf = self.buf.lock();
        if buf.len() < self.capacity {
            buf.push(record.clone());
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        record
    }

    /// Push an adopted context (cross-thread parentage).
    pub(crate) fn adopt(&self, ctx: &TraceCtx) {
        SPAN_STACK.with(|s| s.borrow_mut().push(ctx.clone()));
    }

    /// Pop an adopted context.
    pub(crate) fn unadopt(&self, ctx: &TraceCtx) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|c| c.pipeline == ctx.pipeline && c.span_id == ctx.span_id)
            {
                stack.remove(pos);
            }
        });
    }
}

// Sibling counters for *unkeyed* child spans, per (pipeline, parent).
//
// Kept thread-local: unkeyed children are only deterministic when opened
// sequentially on one thread (the common nested-call case). Parallel
// siblings must pass an explicit key. Cleared when the parent closes so
// repeated parents (same keyed id in a later trace) restart at 0.
thread_local! {
    static SIBLINGS: RefCell<BTreeMap<(u64, u64), u64>> = const { RefCell::new(BTreeMap::new()) };
}

fn next_sibling(pipeline: u64, parent: u64) -> u64 {
    SIBLINGS.with(|s| {
        let mut map = s.borrow_mut();
        let c = map.entry((pipeline, parent)).or_insert(0);
        let v = *c;
        *c += 1;
        v
    })
}

fn clear_siblings(pipeline: u64, parent: u64) {
    SIBLINGS.with(|s| {
        s.borrow_mut().remove(&(pipeline, parent));
    });
}

/// Book-keeping for an open span (held by the RAII guard in `lib.rs`).
pub(crate) struct OpenSpan {
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    pub(crate) parent_id: u64,
    start: u64,
    begun: Instant,
}

// ---------------------------------------------------------------------------
// Attribution
// ---------------------------------------------------------------------------

/// Aggregated timing of one phase (span name) across a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total (inclusive) nanoseconds.
    pub total_ns: u64,
    /// Exclusive nanoseconds: inclusive minus time spent in child spans.
    pub exclusive_ns: u64,
}

/// Latency attribution over a set of spans: exclusive time per phase.
///
/// The exclusive times of all phases sum exactly to the root spans' total
/// wall-clock (`wall_ns`), modulo untraced gaps — this is what turns
/// "suggest = 110 ms" into "62 ms kernel assembly, 31 ms hyper search, …".
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Distinct traces in the span set.
    pub traces: u64,
    /// Total nanoseconds across root spans (spans with no parent in the
    /// set).
    pub wall_ns: u64,
    /// Per-phase rows, largest exclusive time first.
    pub rows: Vec<PhaseRow>,
}

impl AttributionReport {
    /// Sum of exclusive nanoseconds across all phases.
    pub fn exclusive_sum_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.exclusive_ns).sum()
    }
}

/// Roll a span set up into exclusive time per phase.
///
/// A span's exclusive time is its duration minus the duration of its
/// direct children (clamped at 0 against timer jitter). Spans whose
/// parent is missing from the set (dropped by the buffer bound, or
/// filtered upstream) are treated as roots.
pub fn attribute(spans: &[SpanRecord]) -> AttributionReport {
    use std::collections::{HashMap, HashSet};
    let ids: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace_id, s.span_id)).collect();
    let mut child_ns: HashMap<(u64, u64), u64> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 && ids.contains(&(s.trace_id, s.parent_id)) {
            *child_ns.entry((s.trace_id, s.parent_id)).or_insert(0) += s.dur_ns;
        }
    }
    let mut rows: BTreeMap<&str, PhaseRow> = BTreeMap::new();
    let mut traces: HashSet<u64> = HashSet::new();
    let mut wall_ns = 0u64;
    for s in spans {
        traces.insert(s.trace_id);
        let is_root = s.parent_id == 0 || !ids.contains(&(s.trace_id, s.parent_id));
        if is_root {
            wall_ns += s.dur_ns;
        }
        let children = child_ns.get(&(s.trace_id, s.span_id)).copied().unwrap_or(0);
        let row = rows.entry(s.name.as_str()).or_insert_with(|| PhaseRow {
            name: s.name.clone(),
            count: 0,
            total_ns: 0,
            exclusive_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.dur_ns;
        row.exclusive_ns += s.dur_ns.saturating_sub(children);
    }
    let mut rows: Vec<PhaseRow> = rows.into_values().collect();
    rows.sort_by(|a, b| {
        b.exclusive_ns
            .cmp(&a.exclusive_ns)
            .then(a.name.cmp(&b.name))
    });
    AttributionReport {
        traces: traces.len() as u64,
        wall_ns,
        rows,
    }
}

/// Derive a deterministic span key from a string — the canonical way to
/// pin ids for parallel siblings keyed by name (task labels, model
/// names) rather than by index.
pub fn trace_key(s: &str) -> u64 {
    fnv_str(s)
}

/// Extract span records from an event stream: every
/// [`EventKind::SpanClosed`](crate::EventKind::SpanClosed) event,
/// stamped with its event's task label. This is how `otune trace`
/// reconstructs a trace from a recorded JSONL file.
pub fn spans_from_events(events: &[crate::Event]) -> Vec<SpanRecord> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            crate::EventKind::SpanClosed {
                trace_id,
                span_id,
                parent_id,
                name,
                worker,
                start_ns,
                dur_ns,
            } => Some(SpanRecord {
                trace_id: *trace_id,
                span_id: *span_id,
                parent_id: *parent_id,
                name: name.clone(),
                task: e.task.clone(),
                worker: *worker,
                start_ns: *start_ns,
                dur_ns: *dur_ns,
            }),
            _ => None,
        })
        .collect()
}

/// The deterministic identity of a span set: every field except the
/// measurements (`worker`, `start_ns`, `dur_ns`), sorted canonically.
/// Two runs of the same seeded workload produce equal structural keys at
/// any pool width (`OTUNE_THREADS`) and any shard count (`OTUNE_SHARDS`).
pub fn structural_key(spans: &[SpanRecord]) -> Vec<(u64, u64, u64, String, String)> {
    let mut key: Vec<_> = spans
        .iter()
        .map(|s| {
            (
                s.trace_id,
                s.span_id,
                s.parent_id,
                s.name.clone(),
                s.task.clone(),
            )
        })
        .collect();
    key.sort();
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u64, id: u64, parent: u64, name: &str, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: name.into(),
            task: String::new(),
            worker: 0,
            start_ns: 0,
            dur_ns: dur,
        }
    }

    #[test]
    fn span_ids_are_deterministic_and_nonzero() {
        let a = span_id(7, 0, "suggest", 0);
        let b = span_id(7, 0, "suggest", 0);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(span_id(7, 0, "suggest", 1), a, "key distinguishes");
        assert_ne!(span_id(7, 0, "observe", 0), a, "name distinguishes");
        assert_ne!(span_id(8, 0, "suggest", 0), a, "trace distinguishes");
    }

    #[test]
    fn attribution_decomposes_exclusive_time() {
        // root(100) -> fit(60) -> chol(25); root -> eic(30)
        let spans = vec![
            rec(1, 10, 0, "suggest", 100),
            rec(1, 11, 10, "gp_fit", 60),
            rec(1, 12, 11, "chol_factor", 25),
            rec(1, 13, 10, "eic", 30),
        ];
        let report = attribute(&spans);
        assert_eq!(report.traces, 1);
        assert_eq!(report.wall_ns, 100);
        let by_name: BTreeMap<&str, &PhaseRow> =
            report.rows.iter().map(|r| (r.name.as_str(), r)).collect();
        assert_eq!(by_name["suggest"].exclusive_ns, 10); // 100 - 60 - 30
        assert_eq!(by_name["gp_fit"].exclusive_ns, 35); // 60 - 25
        assert_eq!(by_name["chol_factor"].exclusive_ns, 25);
        assert_eq!(by_name["eic"].exclusive_ns, 30);
        // Exclusive times sum exactly to the root wall-clock.
        assert_eq!(report.exclusive_sum_ns(), report.wall_ns);
        // Sorted by exclusive descending.
        assert_eq!(report.rows[0].name, "gp_fit");
    }

    #[test]
    fn orphaned_spans_count_as_roots() {
        let spans = vec![rec(1, 11, 10, "gp_fit", 60)]; // parent 10 missing
        let report = attribute(&spans);
        assert_eq!(report.wall_ns, 60);
        assert_eq!(report.rows[0].exclusive_ns, 60);
    }

    #[test]
    fn structural_key_ignores_measurements() {
        let mut a = rec(1, 10, 0, "suggest", 100);
        let mut b = rec(1, 10, 0, "suggest", 999);
        a.worker = 3;
        b.worker = 7;
        b.start_ns = 12345;
        assert_eq!(structural_key(&[a]), structural_key(&[b]));
    }
}
