//! Event sinks: where emitted [`Event`]s go.

use crate::event::Event;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Destination for emitted events. Implementations must be safe to
/// share across tasks; the [`Telemetry`](crate::Telemetry) handle calls
/// `record` behind a shared `Arc`.
pub trait EventSink: Send + Sync {
    /// Record one event.
    fn record(&self, event: &Event);

    /// Flush any buffered events (no-op by default).
    fn flush(&self) {}

    /// Events this sink has lost — overwritten by a full ring, or
    /// swallowed on I/O failure. Telemetry never takes down the tuning
    /// path, so losses are counted instead of raised; the handle folds
    /// this into its metrics snapshot as `events_dropped`.
    fn dropped(&self) -> u64 {
        0
    }
}

impl<S: EventSink + ?Sized> EventSink for Arc<S> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }

    fn flush(&self) {
        (**self).flush();
    }

    fn dropped(&self) -> u64 {
        (**self).dropped()
    }
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Capacity-bounded in-memory sink; once full, the oldest events are
/// dropped. Useful for tests and for keeping a recent-history window
/// in long-running services.
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferSink {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Buffered JSONL file sink: one JSON object per line, flushed on
/// [`flush`](EventSink::flush) and on drop. Replay with [`read_jsonl`],
/// [`read_healed`](crate::read_healed) (tolerates a crash-torn tail), or
/// `otune events`.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    dropped: AtomicU64,
}

impl JsonlSink {
    /// Create (truncate) `path` and write events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            dropped: AtomicU64::new(0),
        })
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &Event) {
        // Serialization of the event model cannot fail; I/O errors are
        // deliberately swallowed — telemetry must never take down the
        // tuning path — but every swallowed event is counted.
        match serde_json::to_string(event) {
            Ok(line) => {
                let mut w = self.writer.lock();
                if writeln!(w, "{line}").is_err() {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.lock().flush();
    }
}

/// Read an event stream written by [`JsonlSink`], oldest first.
/// Blank lines are skipped; malformed lines are an error.
pub fn read_jsonl<P: AsRef<Path>>(path: P) -> io::Result<Vec<Event>> {
    let reader = BufReader::new(File::open(path)?);
    let mut events = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event: Event = serde_json::from_str(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e:?}", lineno + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            task: "t".into(),
            seq,
            iteration: seq,
            kind: EventKind::AgdStep {
                accepted: seq.is_multiple_of(2),
            },
        }
    }

    #[test]
    fn ring_buffer_wraps_dropping_oldest() {
        let sink = RingBufferSink::new(3);
        assert!(sink.is_empty());
        for seq in 0..5 {
            sink.record(&ev(seq));
        }
        assert_eq!(sink.len(), 3);
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest two were dropped");
    }

    #[test]
    fn zero_capacity_ring_still_holds_latest() {
        let sink = RingBufferSink::new(0);
        sink.record(&ev(0));
        sink.record(&ev(1));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.events()[0].seq, 1);
    }

    #[test]
    fn jsonl_round_trips_through_a_file() {
        let path = std::env::temp_dir().join("otune-telemetry-sink-test.jsonl");
        let written: Vec<Event> = (0..4).map(ev).collect();
        {
            let sink = JsonlSink::create(&path).unwrap();
            for e in &written {
                sink.record(e);
            }
            // Dropping the sink flushes the buffer.
        }
        let back = read_jsonl(&path).unwrap();
        assert_eq!(back, written);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_buffer_counts_overwrites_as_dropped() {
        let sink = RingBufferSink::new(3);
        for seq in 0..5 {
            sink.record(&ev(seq));
        }
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn lossy_reader_skips_torn_lines_and_counts_them() {
        let path = std::env::temp_dir().join("otune-telemetry-torn.jsonl");
        let good = serde_json::to_string(&ev(0)).unwrap();
        let torn = &good[..good.len() / 2]; // crash mid-write
        std::fs::write(&path, format!("{good}\nnot json\n{good}\n{torn}")).unwrap();
        let healed = crate::read_healed::<Event>(&path).unwrap();
        assert_eq!(healed.items.len(), 2);
        assert_eq!(healed.torn_lines, 2, "garbage line + torn tail");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_jsonl_rejects_malformed_lines() {
        let path = std::env::temp_dir().join("otune-telemetry-bad.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = read_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
