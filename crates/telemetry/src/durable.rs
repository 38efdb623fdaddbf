//! Shared group-commit writer and torn-tail-tolerant reader for
//! append-only JSONL durability surfaces.
//!
//! Two surfaces persist line-oriented JSON with crash tolerance: the job
//! journal (`otune-jobs`) and the tuning corpus (`otune-meta`). Paying
//! one `write` + `sync_data` per line makes the fsync, not the tuning
//! math, bound wave throughput at fleet scale. [`BatchedWriter`] gives
//! both one code path: appends land in an in-memory batch buffer and a
//! single `sync_data` covers the whole batch when it flushes.
//! [`read_healed`] is the one reader for these files and for telemetry
//! event streams: it keeps every line that decodes and counts the rest.
//!
//! The [`SyncPolicy`] decides when a flush happens:
//!
//! | policy      | flush on append          | survives `kill -9`            |
//! |-------------|--------------------------|-------------------------------|
//! | `Every`     | every line (legacy)      | every acked append            |
//! | `Batch(n)`  | every `n` buffered lines | last flushed batch boundary   |
//! | `Barrier`   | never — barriers only    | last explicit [`barrier`]     |
//!
//! Under every policy an explicit [`BatchedWriter::barrier`] drains the
//! buffer and fsyncs, so callers can guarantee "this entry is durable
//! now" at semantic boundaries (checkpoints, pause, completion)
//! regardless of how lazy the steady-state policy is. Buffered-but-
//! unflushed lines live in user space: a crash (`abort`, `kill -9`)
//! loses exactly the unacked suffix and nothing before it.
//!
//! [`barrier`]: BatchedWriter::barrier

use crate::Telemetry;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Environment variable selecting the journal sync policy:
/// `every` | `batch:N` | `barrier`.
pub const SYNC_ENV: &str = "OTUNE_JOURNAL_SYNC";

/// Environment variable arming a crash (`std::process::abort`) right
/// after the N-th completed `sync_data` of a [`BatchedWriter`] — kill -9
/// semantics at an exact fsync boundary. Value: `fsync:N`. Parsed by the
/// job engine, armed via [`BatchedWriter::arm_crash_at_fsync`].
pub const CRASH_FSYNC_PREFIX: &str = "fsync:";

/// When a group-commit writer pays a `sync_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// One fsync per appended line — the legacy cadence and the default.
    #[default]
    Every,
    /// Fsync once every `n` buffered lines (and at barriers).
    Batch(usize),
    /// Fsync only at explicit barriers.
    Barrier,
}

impl SyncPolicy {
    /// Parse `every` | `batch:N` | `barrier` (N ≥ 1). `None` on anything
    /// else.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s.trim() {
            "every" => Some(SyncPolicy::Every),
            "barrier" => Some(SyncPolicy::Barrier),
            other => {
                let n = other.strip_prefix("batch:")?.parse::<usize>().ok()?;
                if n == 0 {
                    None
                } else {
                    Some(SyncPolicy::Batch(n))
                }
            }
        }
    }

    /// The policy selected by `OTUNE_JOURNAL_SYNC`, defaulting to
    /// [`SyncPolicy::Every`]; unparseable values also fall back to
    /// `Every` (fail safe: never weaker durability by accident).
    pub fn from_env() -> SyncPolicy {
        std::env::var(SYNC_ENV)
            .ok()
            .and_then(|s| SyncPolicy::parse(&s))
            .unwrap_or(SyncPolicy::Every)
    }

    /// Canonical string form (round-trips through [`SyncPolicy::parse`]).
    pub fn as_string(&self) -> String {
        match self {
            SyncPolicy::Every => "every".to_string(),
            SyncPolicy::Batch(n) => format!("batch:{n}"),
            SyncPolicy::Barrier => "barrier".to_string(),
        }
    }
}

/// Counter names a writer bumps when it flushes; each is optional so
/// surfaces expose only the metrics they own.
#[derive(Debug, Clone, Default)]
pub struct WriterMetrics {
    /// Handle the counters flow through (disabled → no-ops).
    pub telemetry: Telemetry,
    /// Counter incremented once per non-empty flushed batch.
    pub batches: Option<&'static str>,
    /// Counter incremented once per `sync_data`.
    pub fsyncs: Option<&'static str>,
    /// Counter incremented by the payload bytes of each flush.
    pub bytes: Option<&'static str>,
}

/// Group-commit append handle over one JSONL file.
///
/// Lines are staged in an in-memory buffer; [`flush`] writes the whole
/// buffer and pays one `sync_data` for it. The [`SyncPolicy`] decides
/// whether [`append_line`] flushes eagerly (per line, per batch) or
/// leaves everything to explicit [`barrier`]s. Dropping the writer
/// flushes best-effort — but `std::process::abort()` skips destructors,
/// so crash semantics are exactly "unacked suffix lost".
///
/// [`flush`]: BatchedWriter::flush
/// [`append_line`]: BatchedWriter::append_line
/// [`barrier`]: BatchedWriter::barrier
#[derive(Debug)]
pub struct BatchedWriter {
    path: PathBuf,
    file: File,
    policy: SyncPolicy,
    /// Staged payload not yet written to the file.
    buf: Vec<u8>,
    /// Lines staged in `buf`.
    pending: usize,
    /// Lines flushed *and* fsynced — the durable prefix.
    acked: u64,
    /// The file ended without a trailing newline at open (torn tail);
    /// healed lazily before the first write, or eagerly by `heal_now`.
    needs_newline: bool,
    metrics: WriterMetrics,
    /// Abort after this many completed fsyncs (1-based), if armed.
    crash_at_fsync: Option<u64>,
    /// Completed `sync_data` calls on this writer.
    fsyncs: u64,
}

impl BatchedWriter {
    /// Open (or create) `path` for appending under `policy`. A torn tail
    /// (no trailing newline) is detected here and healed lazily before
    /// the first write — call [`BatchedWriter::heal_now`] to heal
    /// eagerly.
    pub fn open(path: &Path, policy: SyncPolicy) -> io::Result<BatchedWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut needs_newline = false;
        if file.metadata()?.len() > 0 {
            let mut reader = File::open(path)?;
            reader.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            reader.read_exact(&mut last)?;
            needs_newline = last[0] != b'\n';
        }
        Ok(BatchedWriter {
            path: path.to_path_buf(),
            file,
            policy,
            buf: Vec::new(),
            pending: 0,
            acked: 0,
            needs_newline,
            metrics: WriterMetrics::default(),
            crash_at_fsync: None,
            fsyncs: 0,
        })
    }

    /// Attach flush counters.
    pub fn with_metrics(mut self, metrics: WriterMetrics) -> BatchedWriter {
        self.metrics = metrics;
        self
    }

    /// Replace the flush counters on an existing writer.
    pub fn set_metrics(&mut self, metrics: WriterMetrics) {
        self.metrics = metrics;
    }

    /// The file being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The active sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Lines staged but not yet flushed.
    pub fn pending_lines(&self) -> usize {
        self.pending
    }

    /// Lines made durable so far (flushed and fsynced) by this writer.
    pub fn acked_lines(&self) -> u64 {
        self.acked
    }

    /// Completed `sync_data` calls on this writer.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Arm a crash right after the N-th completed `sync_data` (1-based).
    pub fn arm_crash_at_fsync(&mut self, n: u64) {
        self.crash_at_fsync = Some(n);
    }

    /// Heal a torn tail now: append the missing newline and fsync it, so
    /// the next entry starts on a fresh line even if nothing else is
    /// ever appended.
    pub fn heal_now(&mut self) -> io::Result<()> {
        if self.needs_newline {
            self.needs_newline = false;
            self.file.write_all(b"\n")?;
            self.sync()?;
        }
        Ok(())
    }

    /// Stage one line (without trailing newline) and flush if the policy
    /// calls for it. Returns whether the line is already durable.
    pub fn append_line(&mut self, line: &str) -> io::Result<bool> {
        if self.needs_newline {
            // Lazy torn-tail heal: start the new entry on a fresh line.
            self.needs_newline = false;
            self.buf.push(b'\n');
        }
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.pending += 1;
        let flush_now = match self.policy {
            SyncPolicy::Every => true,
            SyncPolicy::Batch(n) => self.pending >= n,
            SyncPolicy::Barrier => false,
        };
        if flush_now {
            self.flush()?;
        }
        Ok(flush_now)
    }

    /// Write the staged buffer and pay one `sync_data` for it. No-op
    /// when nothing is staged.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        let bytes = self.buf.len() as u64;
        let lines = self.pending as u64;
        self.buf.clear();
        self.pending = 0;
        let m = &self.metrics;
        if let Some(name) = m.batches {
            m.telemetry.incr(name);
        }
        if let Some(name) = m.bytes {
            m.telemetry.add(name, bytes);
        }
        self.sync()?;
        self.acked += lines;
        Ok(())
    }

    /// Sync barrier: after this returns, every line ever appended is
    /// durable. Pure no-op when nothing is pending (so the `Every`
    /// policy pays no extra fsyncs at barriers).
    pub fn barrier(&mut self) -> io::Result<()> {
        self.flush()
    }

    /// Drop the staged (unflushed, unsynced) suffix — the in-process
    /// equivalent of crashing before the next flush. Test hook for
    /// crash-boundary proptests.
    pub fn discard_unsynced(&mut self) {
        self.buf.clear();
        self.pending = 0;
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        if let Some(name) = self.metrics.fsyncs {
            self.metrics.telemetry.incr(name);
        }
        if self.crash_at_fsync == Some(self.fsyncs) {
            // Kill -9 semantics: no destructors, no unwinding — the
            // staged suffix (if any) dies with the process.
            std::process::abort();
        }
        Ok(())
    }
}

impl Drop for BatchedWriter {
    fn drop(&mut self) {
        // Best-effort: clean shutdown loses nothing. abort() skips this.
        let _ = self.flush();
    }
}

/// What [`read_healed`] recovered from one JSONL file.
#[derive(Debug, Clone, PartialEq)]
pub struct Healed<T> {
    /// Every line that decoded, in file order.
    pub items: Vec<T>,
    /// Non-blank lines that were not valid UTF-8 or did not decode as
    /// `T`: a torn tail from a crashed append, or interior corruption.
    pub torn_lines: u64,
}

/// Read a JSONL file, keeping every line that decodes as `T` and
/// counting every other non-blank line as torn. Each line is checked on
/// its own with strict UTF-8, so one bad byte costs exactly its line:
/// never the whole file, and never a silently rewritten value. I/O
/// errors, `NotFound` included, are returned unchanged so each caller
/// decides what a missing file means.
pub fn read_healed<T: serde::Deserialize>(path: impl AsRef<Path>) -> io::Result<Healed<T>> {
    let reader = BufReader::new(File::open(path)?);
    let mut healed = Healed {
        items: Vec::new(),
        torn_lines: 0,
    };
    for line in reader.split(b'\n') {
        let line = line?;
        if line.trim_ascii().is_empty() {
            continue;
        }
        match serde_json::from_slice(&line) {
            Ok(item) => healed.items.push(item),
            Err(_) => healed.torn_lines += 1,
        }
    }
    Ok(healed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otune-durable-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log.jsonl")
    }

    #[test]
    fn parses_sync_policies() {
        assert_eq!(SyncPolicy::parse("every"), Some(SyncPolicy::Every));
        assert_eq!(SyncPolicy::parse("barrier"), Some(SyncPolicy::Barrier));
        assert_eq!(SyncPolicy::parse("batch:8"), Some(SyncPolicy::Batch(8)));
        assert_eq!(SyncPolicy::parse(" batch:1 "), Some(SyncPolicy::Batch(1)));
        assert_eq!(SyncPolicy::parse("batch:0"), None);
        assert_eq!(SyncPolicy::parse("batch:"), None);
        assert_eq!(SyncPolicy::parse("sometimes"), None);
        for p in [SyncPolicy::Every, SyncPolicy::Batch(5), SyncPolicy::Barrier] {
            assert_eq!(SyncPolicy::parse(&p.as_string()), Some(p));
        }
    }

    #[test]
    fn every_policy_flushes_each_line() {
        let path = tmp("every");
        let _ = std::fs::remove_file(&path);
        let mut w = BatchedWriter::open(&path, SyncPolicy::Every).unwrap();
        assert!(w.append_line("{\"a\":1}").unwrap());
        assert!(w.append_line("{\"a\":2}").unwrap());
        assert_eq!(w.acked_lines(), 2);
        assert_eq!(w.fsyncs(), 2);
        assert_eq!(w.pending_lines(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
    }

    #[test]
    fn batch_policy_groups_lines_under_one_fsync() {
        let path = tmp("batch");
        let _ = std::fs::remove_file(&path);
        let mut w = BatchedWriter::open(&path, SyncPolicy::Batch(3)).unwrap();
        assert!(!w.append_line("1").unwrap());
        assert!(!w.append_line("2").unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        assert!(w.append_line("3").unwrap(), "third line fills the batch");
        assert_eq!(w.fsyncs(), 1, "one sync_data covered the whole batch");
        assert_eq!(w.acked_lines(), 3);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "1\n2\n3\n");
    }

    #[test]
    fn barrier_policy_defers_everything_to_barriers() {
        let path = tmp("barrier");
        let _ = std::fs::remove_file(&path);
        let mut w = BatchedWriter::open(&path, SyncPolicy::Barrier).unwrap();
        for i in 0..10 {
            assert!(!w.append_line(&format!("{i}")).unwrap());
        }
        assert_eq!(w.fsyncs(), 0);
        w.barrier().unwrap();
        assert_eq!(w.fsyncs(), 1);
        assert_eq!(w.acked_lines(), 10);
        // An empty barrier is free.
        w.barrier().unwrap();
        assert_eq!(w.fsyncs(), 1);
    }

    #[test]
    fn discard_unsynced_loses_only_the_staged_suffix() {
        let path = tmp("discard");
        let _ = std::fs::remove_file(&path);
        let mut w = BatchedWriter::open(&path, SyncPolicy::Batch(2)).unwrap();
        w.append_line("a").unwrap();
        w.append_line("b").unwrap(); // flushed batch
        w.append_line("c").unwrap(); // staged only
        w.discard_unsynced();
        w.barrier().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
        assert_eq!(w.acked_lines(), 2);
    }

    #[test]
    fn torn_tail_heals_lazily_on_next_append() {
        let path = tmp("lazyheal");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "complete\npart").unwrap();
        let mut w = BatchedWriter::open(&path, SyncPolicy::Every).unwrap();
        w.append_line("next").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "complete\npart\nnext\n"
        );
    }

    #[test]
    fn heal_now_repairs_the_tail_without_an_append() {
        let path = tmp("eagerheal");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "part").unwrap();
        let mut w = BatchedWriter::open(&path, SyncPolicy::Barrier).unwrap();
        w.heal_now().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "part\n");
        // Already healed: a second call is free.
        let fsyncs = w.fsyncs();
        w.heal_now().unwrap();
        assert_eq!(w.fsyncs(), fsyncs);
    }

    #[test]
    fn drop_flushes_best_effort() {
        let path = tmp("dropflush");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = BatchedWriter::open(&path, SyncPolicy::Barrier).unwrap();
            w.append_line("staged").unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "staged\n");
    }

    #[test]
    fn read_healed_costs_one_bad_byte_exactly_its_line() {
        let path = tmp("healed");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            read_healed::<String>(&path).unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "a missing file is left to the caller"
        );
        // Line 2 carries a 0xFF byte inside its string; the tail is torn
        // in the middle of a two-byte character (é = 0xC3 0xA9).
        let mut bytes = b"\"a\"\n\n\"b\xFFc\"\n  \n\"d\"\n\"\xC3".to_vec();
        std::fs::write(&path, &bytes).unwrap();
        let healed = read_healed::<String>(&path).unwrap();
        assert_eq!(healed.items, vec!["a".to_string(), "d".to_string()]);
        assert_eq!(healed.torn_lines, 2, "bad byte + torn tail");
        // Healed tail: the complete character decodes again.
        bytes.extend_from_slice(b"\xA9\"\n");
        std::fs::write(&path, &bytes).unwrap();
        let healed = read_healed::<String>(&path).unwrap();
        assert_eq!(healed.items.last().map(String::as_str), Some("é"));
        assert_eq!(healed.torn_lines, 1);
    }

    #[test]
    fn flush_counters_reach_the_registry() {
        let path = tmp("counters");
        let _ = std::fs::remove_file(&path);
        let (telemetry, _sink) = crate::Telemetry::ring(16);
        let metrics = WriterMetrics {
            telemetry: telemetry.clone(),
            batches: Some(metric::JOURNAL_BATCHES),
            fsyncs: Some(metric::JOURNAL_FSYNCS),
            bytes: Some(metric::JOURNAL_BYTES),
        };
        let mut w = BatchedWriter::open(&path, SyncPolicy::Batch(2))
            .unwrap()
            .with_metrics(metrics);
        w.append_line("xy").unwrap();
        w.append_line("zw").unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters[metric::JOURNAL_BATCHES], 1);
        assert_eq!(snap.counters[metric::JOURNAL_FSYNCS], 1);
        assert_eq!(snap.counters[metric::JOURNAL_BYTES], 6);
    }
}
