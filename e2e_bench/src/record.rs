//! The benchmark's own spans. Every public call into the service is timed
//! from outside, so the numbers come from this package alone and the
//! product code stays untouched.

use serde::Serialize;
use std::fmt::Display;
use std::ops::Range;
use std::time::Instant;

/// One timed interval: a public call, or a wave grouping several calls.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSpan {
    pub name: &'static str,
    /// Request id: the wave for wave-level calls, the attempt for resumes.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl BenchSpan {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
    /// Public calls made.
    pub attempted: u64,
    /// Public calls that returned `Err`.
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "bench spans close in order");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Time an infallible public call.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        self.attempted += 1;
        out
    }

    /// Time a fallible public call; an `Err` is counted and returned as a
    /// message naming the call.
    pub fn call<T, E: Display>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        self.time(name, request, f).map_err(|e| {
            let msg = format!("{name} (request {request}): {e}");
            self.failed += 1;
            self.errors.push(msg.clone());
            msg
        })
    }

    /// Index the next span will get; two marks delimit one unit's spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name` within `range`.
    pub fn secs(&self, range: &Range<usize>, name: &'static str) -> Vec<f64> {
        self.spans[range.clone()]
            .iter()
            .filter(|s| s.name == name)
            .map(BenchSpan::secs)
            .collect()
    }
}
