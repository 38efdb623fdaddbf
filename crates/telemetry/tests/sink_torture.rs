//! Sink torture tests: the JSONL and ring sinks under torn writes and
//! concurrent emitters. The observability contract is that capture never
//! takes down (or blocks) the tuning path and losses are *counted*, never
//! silent — these tests drive the sinks to their failure edges and check
//! the dropped counters and the healing reader against them.

use otune_telemetry::{
    metric, read_healed, Event, EventKind, Healed, JsonlSink, RingBufferSink, Telemetry,
};
use std::io::Write;
use std::sync::Arc;

fn event(seq: u64) -> Event {
    Event {
        task: format!("task-{}", seq % 7),
        seq,
        iteration: seq / 7,
        kind: EventKind::AgdStep {
            accepted: seq.is_multiple_of(2),
        },
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("otune_sink_torture");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn lossy_reader_survives_torn_tail_and_mid_stream_corruption() {
    let path = temp_path("torn.jsonl");
    {
        let telemetry = Telemetry::new(Box::new(JsonlSink::create(&path).unwrap()));
        for i in 0..20u64 {
            telemetry.emit(i, EventKind::AgdStep { accepted: true });
        }
        telemetry.flush();
    }
    // Corrupt one line in the middle and tear the tail mid-record, as a
    // crash between `write` and `flush` would.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 20);
    lines[7] = "{\"task\":\"x\",\"seq\":7,".into(); // truncated JSON
    lines[13] = "not json at all".into();
    let mut rewritten = lines.join("\n");
    rewritten.push_str("\n{\"task\":\"y\""); // torn final record, no newline
    std::fs::write(&path, rewritten).unwrap();

    let Healed {
        items: events,
        torn_lines,
    } = read_healed::<Event>(&path).unwrap();
    assert_eq!(events.len(), 18, "both corrupt lines and the tail skipped");
    assert_eq!(torn_lines, 3, "every unreadable line is counted");
    // The surviving events are intact and still ordered.
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    assert!(!seqs.contains(&7) && !seqs.contains(&13));

    // Byte-level damage costs exactly one line each: a 0xFF byte inside
    // one event's task string, or a tail torn inside a multi-byte task
    // id, never rejects the rest of the stream.
    let line = |task: &str| {
        let mut e = event(1);
        e.task = task.to_string();
        serde_json::to_vec(&e).unwrap()
    };
    let mut bad_byte = line("task-x");
    let at = bad_byte.windows(6).position(|w| w == b"task-x").unwrap();
    bad_byte[at + 5] = 0xFF;
    let mut torn_tail = line("täsk");
    torn_tail.truncate(torn_tail.iter().position(|&b| b == 0xC3).unwrap() + 1);
    let (a, b) = (line("a"), line("b"));
    for lines in [[&a, &bad_byte, &b], [&a, &b, &torn_tail]] {
        std::fs::write(&path, lines.map(Vec::as_slice).join(&b'\n')).unwrap();
        let healed = read_healed::<Event>(&path).unwrap();
        let tasks: Vec<&str> = healed.items.iter().map(|e| e.task.as_str()).collect();
        assert_eq!(tasks, ["a", "b"]);
        assert_eq!(healed.torn_lines, 1);
    }
}

#[test]
fn jsonl_sink_under_concurrent_fleet_waves_loses_nothing() {
    let path = temp_path("concurrent.jsonl");
    let telemetry = Telemetry::new(Box::new(JsonlSink::create(&path).unwrap()));
    // Eight "shard workers" interleave whole waves of emissions through
    // clones of one handle, as the fleet controller does.
    let waves = 50u64;
    let workers = 8u64;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let telemetry = telemetry.for_task(&format!("shard-{w}"));
            scope.spawn(move || {
                for i in 0..waves {
                    telemetry.emit(i, EventKind::AgdStep { accepted: true });
                    telemetry.incr(metric::FLEET_REQUESTS);
                }
            });
        }
    });
    telemetry.flush();
    let Healed {
        items: events,
        torn_lines,
    } = read_healed::<Event>(&path).unwrap();
    assert_eq!(torn_lines, 0, "interleaved writers must not tear lines");
    assert_eq!(events.len(), (waves * workers) as usize);
    // The shared sequence is a total order: every seq appears exactly once.
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert!(seqs.iter().enumerate().all(|(i, &s)| s == i as u64));
    // Nothing was dropped, and the snapshot says so.
    let snap = telemetry.snapshot().unwrap();
    assert_eq!(snap.counters.get("events_dropped").copied().unwrap_or(0), 0);
    assert_eq!(
        snap.counters[metric::FLEET_REQUESTS],
        waves * workers,
        "metrics survive concurrent increments"
    );
}

#[test]
fn ring_sink_counts_concurrent_overwrites_instead_of_hiding_them() {
    let sink = Arc::new(RingBufferSink::new(64));
    let total = 8 * 200u64;
    std::thread::scope(|scope| {
        for w in 0..8u64 {
            let sink = Arc::clone(&sink);
            scope.spawn(move || {
                for i in 0..200u64 {
                    otune_telemetry::EventSink::record(&*sink, &event(w * 200 + i));
                }
            });
        }
    });
    assert_eq!(sink.len(), 64, "ring stays at capacity");
    assert_eq!(
        otune_telemetry::EventSink::dropped(&*sink),
        total - 64,
        "every overwritten event is counted"
    );
}

#[test]
fn snapshot_surfaces_ring_losses_as_events_dropped() {
    let (telemetry, sink) = Telemetry::ring(4);
    for i in 0..10u64 {
        telemetry.emit(i, EventKind::AgdStep { accepted: false });
    }
    assert_eq!(sink.events().len(), 4);
    let snap = telemetry.snapshot().unwrap();
    assert_eq!(snap.counters["events_dropped"], 6);
}

#[test]
fn reader_reports_unreadable_empty_segments() {
    // A file that is all noise: everything is counted, nothing parses,
    // and the call still succeeds — capture corruption is diagnosable
    // from the counts alone.
    let path = temp_path("noise.jsonl");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "garbage").unwrap();
    writeln!(f).unwrap();
    write!(f, "{{\"task\"").unwrap();
    drop(f);
    let healed = read_healed::<Event>(&path).unwrap();
    assert!(healed.items.is_empty());
    // The blank line is skipped silently (not data), the two torn lines
    // are counted.
    assert_eq!(healed.torn_lines, 2);
}
