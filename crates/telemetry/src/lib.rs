//! Observability for the tuning service: a structured event log, a
//! lightweight metrics registry, and timing spans.
//!
//! The crate is deliberately free of tuning logic — it sits below
//! `otune-bo`, `otune-meta`, and `otune-core` in the dependency graph so
//! every layer can emit events through a shared [`Telemetry`] handle.
//!
//! Design goals:
//!
//! * **Zero overhead when off.** [`Telemetry::disabled`] carries no
//!   allocation; every emit/observe call is a single `Option` branch and
//!   spans never read the clock.
//! * **Typed events.** [`Event`] and [`EventKind`] serialize with serde,
//!   one JSON object per line in the file sink, so external tooling can
//!   replay a tuning session (`otune events`).
//! * **Shared across tasks.** Sinks and the registry are lock-guarded
//!   (`parking_lot`); the controller clones one handle per task via
//!   [`Telemetry::for_task`], which relabels events without duplicating
//!   state.

mod durable;
mod event;
mod export;
mod metrics;
mod sink;
mod span;
mod trace;

pub use durable::{
    read_healed, BatchedWriter, Healed, SyncPolicy, WriterMetrics, CRASH_FSYNC_PREFIX, SYNC_ENV,
};
pub use event::{Event, EventKind, ResizeDirection, StopReason, SuggestionKind};
pub use export::{chrome_trace_json, prometheus_text};
pub use metrics::{metric, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{EventSink, JsonlSink, NullSink, RingBufferSink};
pub use span::Span;
pub use trace::{
    attribute, spans_from_events, structural_key, trace_key, AttributionReport, PhaseRow,
    SpanRecord, TraceCtx, DEFAULT_TRACE_CAPACITY,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trace::{OpenSpan, TraceState};

struct Inner {
    sink: Box<dyn EventSink>,
    metrics: MetricsRegistry,
    /// Monotonic sequence stamped on every event, across all tasks
    /// sharing this handle.
    seq: AtomicU64,
    /// Hierarchical tracing state; present only on traced handles.
    trace: Option<TraceState>,
}

/// A cloneable handle to the telemetry pipeline.
///
/// The default handle is [`Telemetry::disabled`]: all operations are
/// no-ops and spans never touch the clock, so instrumented hot paths pay
/// only an `Option` check (see the `table3_overhead` bench).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Task label stamped on emitted events.
    task: Option<Arc<str>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("task", &self.task)
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// An enabled handle writing events to `sink`.
    pub fn new(sink: Box<dyn EventSink>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink,
                metrics: MetricsRegistry::new(),
                seq: AtomicU64::new(0),
                trace: None,
            })),
            task: None,
        }
    }

    /// An enabled handle with hierarchical tracing on. `trace_seed` is
    /// folded into every derived trace/span id, so the same seeded
    /// workload replays to a structurally identical trace.
    pub fn new_traced(sink: Box<dyn EventSink>, trace_seed: u64) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                sink,
                metrics: MetricsRegistry::new(),
                seq: AtomicU64::new(0),
                trace: Some(TraceState::new(trace_seed, DEFAULT_TRACE_CAPACITY)),
            })),
            task: None,
        }
    }

    /// Convenience: an enabled handle over an in-memory ring buffer.
    /// Returns the handle and the sink for later inspection.
    pub fn ring(capacity: usize) -> (Self, Arc<RingBufferSink>) {
        let sink = Arc::new(RingBufferSink::new(capacity));
        (Telemetry::new(Box::new(Arc::clone(&sink))), sink)
    }

    /// Convenience: a traced handle over an in-memory ring buffer.
    pub fn ring_traced(capacity: usize, trace_seed: u64) -> (Self, Arc<RingBufferSink>) {
        let sink = Arc::new(RingBufferSink::new(capacity));
        (
            Telemetry::new_traced(Box::new(Arc::clone(&sink)), trace_seed),
            sink,
        )
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle records hierarchical trace spans.
    pub fn is_tracing(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.trace.is_some())
    }

    /// A handle sharing this pipeline but stamping `task` on its events.
    pub fn for_task(&self, task: &str) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            task: Some(Arc::from(task)),
        }
    }

    /// The task label stamped on events emitted through this handle.
    pub fn task(&self) -> &str {
        self.task.as_deref().unwrap_or("")
    }

    /// Emit an event at the given tuning iteration.
    pub fn emit(&self, iteration: u64, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let event = Event {
                task: self.task().to_string(),
                seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                iteration,
                kind,
            };
            inner.sink.record(&event);
        }
    }

    /// Increment a counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add to a counter.
    pub fn add(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.add(name, by);
        }
    }

    /// Set a gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.set_gauge(name, value);
        }
    }

    /// Record a value into a histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// Start a timing span; the elapsed seconds are recorded into the
    /// `name` histogram when the returned guard drops. Disabled handles
    /// return an inert guard that never reads the clock.
    pub fn span(&self, name: &'static str) -> Span {
        Span::start(self.clone(), name, self.is_enabled())
    }

    /// Open a hierarchical trace span: child of the thread's current
    /// span, or a new trace root when none is active. Non-tracing
    /// handles return an inert guard — no clock read, no allocation.
    ///
    /// Sibling spans opened sequentially on one thread get sequential
    /// deterministic ids; *parallel* siblings must use
    /// [`Telemetry::trace_span_keyed`] so their ids do not depend on
    /// scheduling order.
    pub fn trace_span(&self, name: &'static str) -> TraceSpan {
        self.trace_open(name, None)
    }

    /// Open a trace span whose id is pinned by a caller-chosen key
    /// (task hash, candidate index) — required for spans
    /// opened concurrently under one parent.
    pub fn trace_span_keyed(&self, name: &'static str, key: u64) -> TraceSpan {
        self.trace_open(name, Some(key))
    }

    fn trace_open(&self, name: &'static str, key: Option<u64>) -> TraceSpan {
        let open = self
            .inner
            .as_ref()
            .and_then(|inner| inner.trace.as_ref())
            .map(|trace| trace.open(name, key));
        TraceSpan {
            telemetry: self.clone(),
            name,
            open,
        }
    }

    /// Capture the current span context for adoption on another thread
    /// (pool workers). None when not tracing or no span is active.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.trace.as_ref())
            .and_then(|trace| trace.current())
    }

    /// Adopt a captured context as this thread's current span; spans
    /// opened while the guard lives parent under it. Pass the ctx from
    /// [`Telemetry::trace_ctx`] across the thread boundary by value.
    pub fn trace_adopt(&self, ctx: Option<TraceCtx>) -> TraceGuard {
        let ctx = match (&self.inner, ctx) {
            (Some(inner), Some(ctx)) if inner.trace.is_some() => {
                inner.trace.as_ref().unwrap().adopt(&ctx);
                Some(ctx)
            }
            _ => None,
        };
        TraceGuard {
            telemetry: self.clone(),
            ctx,
        }
    }

    /// All buffered span records (empty when not tracing).
    pub fn traces(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.trace.as_ref())
            .map(|trace| trace.spans())
            .unwrap_or_default()
    }

    /// Spans lost to the bounded trace buffer.
    pub fn traces_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .and_then(|inner| inner.trace.as_ref())
            .map(|trace| trace.dropped())
            .unwrap_or(0)
    }

    /// Snapshot the metrics registry (None when disabled). Dropped-event
    /// and dropped-span counts are folded in as counters so losses are
    /// always reported, never silently swallowed.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| {
            let mut snap = inner.metrics.snapshot();
            snap.counters
                .insert(metric::EVENTS_DROPPED.to_string(), inner.sink.dropped());
            snap.counters.insert(
                metric::SPANS_DROPPED.to_string(),
                inner.trace.as_ref().map(|t| t.dropped()).unwrap_or(0),
            );
            snap
        })
    }

    /// Flush the underlying sink (e.g. the JSONL file buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// RAII guard for a hierarchical trace span. On drop the span closes:
/// its record lands in the trace buffer and a [`EventKind::SpanClosed`]
/// event flows through the sink, so JSONL streams carry the full trace.
///
/// A guard from a non-tracing handle is inert: it holds no timestamps
/// and never reads the clock.
#[must_use = "a trace span closes when dropped; binding it to `_` drops it immediately"]
pub struct TraceSpan {
    telemetry: Telemetry,
    name: &'static str,
    open: Option<OpenSpan>,
}

impl TraceSpan {
    /// Whether this guard will record a span (false on non-tracing
    /// handles) — the zero-overhead contract hook for benches.
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }

    /// This span's deterministic id (0 when not recording).
    pub fn span_id(&self) -> u64 {
        self.open.as_ref().map(|o| o.span_id).unwrap_or(0)
    }

    /// End the span explicitly (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            if let Some(inner) = &self.telemetry.inner {
                if let Some(trace) = &inner.trace {
                    let rec = trace.close(&open, self.name, self.telemetry.task());
                    self.telemetry.emit(
                        0,
                        EventKind::SpanClosed {
                            trace_id: rec.trace_id,
                            span_id: rec.span_id,
                            parent_id: rec.parent_id,
                            name: rec.name,
                            worker: rec.worker,
                            start_ns: rec.start_ns,
                            dur_ns: rec.dur_ns,
                        },
                    );
                }
            }
        }
    }
}

/// RAII guard for an adopted cross-thread span context; un-adopts on
/// drop. Returned by [`Telemetry::trace_adopt`].
pub struct TraceGuard {
    telemetry: Telemetry,
    ctx: Option<TraceCtx>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            if let Some(inner) = &self.telemetry.inner {
                if let Some(trace) = &inner.trace {
                    trace.unadopt(&ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.emit(0, EventKind::TaskRegistered { n_params: 3 });
        t.incr("x");
        t.observe("y", 1.0);
        {
            let _span = t.span("z");
        }
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn events_carry_task_and_monotonic_seq() {
        let (t, sink) = Telemetry::ring(16);
        let a = t.for_task("job-a");
        let b = t.for_task("job-b");
        a.emit(0, EventKind::TaskRegistered { n_params: 2 });
        b.emit(0, EventKind::TaskRegistered { n_params: 4 });
        a.emit(
            1,
            EventKind::SuggestionMade {
                source: SuggestionKind::Bo,
                eic: 0.25,
                in_safe_region: true,
            },
        );
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].task, "job-a");
        assert_eq!(events[1].task, "job-b");
        assert_eq!(events[2].task, "job-a");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "shared handle stamps one sequence");
    }

    #[test]
    fn trace_spans_nest_into_a_hierarchy() {
        let (t, sink) = Telemetry::ring_traced(64, 42);
        {
            let root = t.trace_span("suggest");
            assert!(root.is_recording());
            {
                let _fit = t.trace_span("gp_fit");
                let _chol = t.trace_span("chol_factor");
                // Scope end drops chol, then fit — proper nesting.
            }
            let _eic = t.trace_span("eic");
        }
        let spans = t.traces();
        assert_eq!(spans.len(), 4);
        let by_name: std::collections::BTreeMap<&str, &SpanRecord> =
            spans.iter().map(|s| (s.name.as_str(), s)).collect();
        let root = by_name["suggest"];
        assert_eq!(root.parent_id, 0, "root has no parent");
        assert_eq!(by_name["gp_fit"].parent_id, root.span_id);
        assert_eq!(by_name["chol_factor"].parent_id, by_name["gp_fit"].span_id);
        assert_eq!(by_name["eic"].parent_id, root.span_id);
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id));
        // Every span also flowed through the sink as a SpanClosed event.
        let closed = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SpanClosed { .. }))
            .count();
        assert_eq!(closed, 4);
        assert_eq!(spans_from_events(&sink.events()).len(), 4);
    }

    #[test]
    fn traces_are_structurally_deterministic() {
        let run = || {
            let (t, _sink) = Telemetry::ring_traced(64, 7);
            {
                let _root = t.trace_span("suggest");
                let _fit = t.trace_span_keyed("hyper_candidate", 3);
            }
            {
                let _root = t.trace_span("suggest");
            }
            t.traces()
        };
        let a = run();
        let b = run();
        assert_eq!(structural_key(&a), structural_key(&b));
        // The two roots are distinct traces.
        assert_eq!(
            a.iter()
                .map(|s| s.trace_id)
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            2
        );
    }

    #[test]
    fn adopted_context_parents_across_threads() {
        let (t, _sink) = Telemetry::ring_traced(64, 9);
        let root = t.trace_span("fleet_wave");
        let root_id = root.span_id();
        let ctx = t.trace_ctx();
        assert!(ctx.is_some());
        let handle = {
            let t = t.clone();
            std::thread::spawn(move || {
                let _guard = t.trace_adopt(ctx);
                let _task = t.trace_span_keyed("task", 5);
            })
        };
        handle.join().unwrap();
        drop(root);
        let spans = t.traces();
        let task = spans.iter().find(|s| s.name == "task").unwrap();
        assert_eq!(task.parent_id, root_id);
    }

    #[test]
    fn untraced_and_disabled_handles_record_no_spans() {
        let (enabled, _sink) = Telemetry::ring(4);
        let disabled = Telemetry::disabled();
        for t in [&enabled, &disabled] {
            assert!(!t.is_tracing());
            let span = t.trace_span("suggest");
            assert!(!span.is_recording(), "no clock, no record");
            assert!(t.trace_ctx().is_none());
            drop(span);
            assert!(t.traces().is_empty());
        }
    }

    #[test]
    fn snapshot_reports_dropped_events_and_spans() {
        let (t, _sink) = Telemetry::ring(2);
        for i in 0..5 {
            t.emit(i, EventKind::AgdStep { accepted: true });
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters[metric::EVENTS_DROPPED], 3);
        assert_eq!(snap.counters[metric::SPANS_DROPPED], 0);
    }

    #[test]
    fn metrics_flow_through_handle() {
        let (t, _sink) = Telemetry::ring(4);
        t.incr("fallback_suggestions");
        t.add("fallback_suggestions", 2);
        t.gauge("subspace_k", 7.0);
        t.observe("suggest_latency_s", 0.5);
        {
            let _span = t.span("gp_fit_s");
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters["fallback_suggestions"], 3);
        assert_eq!(snap.gauges["subspace_k"], 7.0);
        assert_eq!(snap.histograms["suggest_latency_s"].count, 1);
        assert_eq!(snap.histograms["gp_fit_s"].count, 1);
    }
}
