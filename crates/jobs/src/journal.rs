//! Torn-write-tolerant, group-committed JSONL journal.
//!
//! One `JournalEntry` per line. Appends flow through the shared
//! [`BatchedWriter`] (`otune-telemetry`), so the `sync_data` cadence is
//! a [`SyncPolicy`]: `every` (the default — one fsync per append, the
//! legacy behavior, byte- and fsync-identical to pre-batching journals),
//! `batch:N` (group commit every N appends), or `barrier` (fsync only at
//! semantic barriers: checkpoints, pause, completion). The engine places
//! a [`Journal::barrier`] after every durability-critical append, so "an
//! acked checkpoint survives `kill -9`" holds under every policy.
//!
//! ## One file, older segments
//!
//! This build writes a journal as one file, whatever its size, and never
//! rewrites it: the journal holds one `WaveCompleted` outcome per
//! evaluation, and resume replays all of them. Older builds rotated a
//! journal into siblings `<base>.0001`, `<base>.0002`, … past 8 MiB;
//! those still load. Loads read every segment, order entries by `seq`,
//! and drop duplicate seqs (first occurrence wins), and a reopened
//! segmented journal appends to its last segment.
//!
//! ## Failure modes
//!
//! * **Torn tail** (crash mid-append): `open` heals it by appending a
//!   newline, and `load` skips any unparseable line, counting it.
//! * **Interior corruption**: skipped and counted the same way — loss
//!   is surfaced via [`JournalLoad::torn_lines`], never silent.
//! * **Lost unsynced suffix** (crash between group commits): bounded by
//!   the sync policy; everything since the last fsync is gone, which
//!   resume repairs by re-driving the lost waves deterministically.

use crate::event::JournalEntry;
use otune_telemetry::{metric, read_healed, BatchedWriter, SyncPolicy, Telemetry, WriterMetrics};
use std::io;
use std::path::{Path, PathBuf};

/// Append handle over a journal: its base file, or the last segment of
/// a journal an older build segmented.
pub struct Journal {
    base: PathBuf,
    writer: BatchedWriter,
}

/// The result of loading a journal: every parseable entry in seq order,
/// plus the count of torn/corrupt lines that had to be skipped.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Parseable entries, ordered by seq, duplicate seqs dropped.
    pub entries: Vec<JournalEntry>,
    /// Torn or corrupt lines skipped (0 for a clean journal).
    pub torn_lines: u64,
}

impl Journal {
    /// Open (or create) a journal for appending under the environment's
    /// sync policy (`OTUNE_JOURNAL_SYNC`, default `every`), healing a
    /// torn tail eagerly: if the file appended to does not end in a
    /// newline, one is appended and fsynced so the next entry starts
    /// fresh.
    pub fn open(path: &Path) -> io::Result<Journal> {
        Self::open_with(path, SyncPolicy::from_env())
    }

    /// Open with an explicit sync policy. A journal segmented by an older
    /// build is appended to in its last segment.
    pub fn open_with(path: &Path, policy: SyncPolicy) -> io::Result<Journal> {
        let last = Self::segments(path)?
            .pop()
            .unwrap_or_else(|| path.to_path_buf());
        let mut writer = BatchedWriter::open(&last, policy)?;
        writer.heal_now()?;
        Ok(Journal {
            base: path.to_path_buf(),
            writer,
        })
    }

    /// Attach the telemetry handle the writer's flush counters
    /// (`journal_batches`, `journal_fsyncs`, `journal_bytes`) flow
    /// through.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.writer.set_metrics(WriterMetrics {
            telemetry,
            batches: Some(metric::JOURNAL_BATCHES),
            fsyncs: Some(metric::JOURNAL_FSYNCS),
            bytes: Some(metric::JOURNAL_BYTES),
        });
    }

    /// The journal's base path.
    pub fn path(&self) -> &Path {
        &self.base
    }

    /// The active sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.writer.policy()
    }

    /// Total `sync_data` calls paid by this journal handle.
    pub fn fsyncs(&self) -> u64 {
        self.writer.fsyncs()
    }

    /// Arm a crash (`abort`, kill -9 semantics) right after this
    /// handle's N-th completed `sync_data` (1-based) — the fsync-boundary
    /// analogue of the engine's `wave:`/`checkpoint:`/`append:` hooks.
    pub fn arm_crash_at_fsync(&mut self, n: u64) {
        self.writer.arm_crash_at_fsync(n);
    }

    /// Append one entry as a JSON line. Under the `every` policy the
    /// line is fsynced before this returns (the legacy contract); under
    /// `batch:N`/`barrier` it may sit in the group-commit buffer until
    /// the next flush or [`Journal::barrier`]. Returns the serialized
    /// line length in bytes.
    pub fn append(&mut self, entry: &JournalEntry) -> io::Result<usize> {
        let line = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.writer.append_line(&line)?;
        Ok(line.len() + 1)
    }

    /// Sync barrier: after this returns every appended entry is durable,
    /// whatever the policy. Free when nothing is pending.
    pub fn barrier(&mut self) -> io::Result<()> {
        self.writer.barrier()
    }

    /// Every existing segment file of the journal at `path`, base first,
    /// then the segments an older build rotated into, in ascending index
    /// order.
    pub fn segments(path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut found = Vec::new();
        if path.exists() {
            found.push(path.to_path_buf());
        }
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let base_name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => return Ok(found),
        };
        let mut rotated: Vec<(u32, PathBuf)> = Vec::new();
        match std::fs::read_dir(&parent) {
            Ok(dir) => {
                for entry in dir.flatten() {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    let Some(suffix) = name
                        .strip_prefix(&base_name)
                        .and_then(|rest| rest.strip_prefix('.'))
                    else {
                        continue;
                    };
                    if suffix.len() == 4 && suffix.bytes().all(|b| b.is_ascii_digit()) {
                        if let Ok(idx) = suffix.parse::<u32>() {
                            rotated.push((idx, entry.path()));
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        rotated.sort_by_key(|(idx, _)| *idx);
        found.extend(rotated.into_iter().map(|(_, p)| p));
        Ok(found)
    }

    /// Load every parseable entry across all segments, ordered by seq
    /// with duplicate seqs dropped (first occurrence wins). A missing
    /// journal is an empty load; torn or corrupt lines (including
    /// invalid UTF-8 from a torn write) are skipped and counted, never a
    /// panic and never decoded with a byte silently replaced.
    pub fn load(path: &Path) -> io::Result<JournalLoad> {
        let mut load = JournalLoad::default();
        for segment in Self::segments(path)? {
            let healed = match read_healed::<JournalEntry>(&segment) {
                Ok(h) => h,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            load.entries.extend(healed.items);
            load.torn_lines += healed.torn_lines;
        }
        load.entries.sort_by_key(|e| e.seq);
        load.entries.dedup_by_key(|e| e.seq);
        Ok(load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::JobEvent;

    fn entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            event: JobEvent::JobPaused { wave_cursor: seq },
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("otune-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn append_then_load_round_trips() {
        // Pinned to `every`: this test reads back mid-handle, which the
        // lazy policies only guarantee after a barrier.
        let path = tmp("roundtrip");
        let mut j = Journal::open_with(&path, SyncPolicy::Every).unwrap();
        for seq in 1..=5 {
            j.append(&entry(seq)).unwrap();
        }
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.torn_lines, 0);
        assert_eq!(load.entries, (1..=5).map(entry).collect::<Vec<_>>());
    }

    #[test]
    fn missing_file_is_empty_load() {
        let path = tmp("missing");
        let load = Journal::load(&path).unwrap();
        assert!(load.entries.is_empty());
        assert_eq!(load.torn_lines, 0);
    }

    #[test]
    fn torn_tail_is_skipped_counted_and_healed() {
        // Pinned to `every`: the torn-byte arithmetic below assumes each
        // append reached the disk on its own.
        let path = tmp("torn");
        let mut j = Journal::open_with(&path, SyncPolicy::Every).unwrap();
        j.append(&entry(1)).unwrap();
        j.append(&entry(2)).unwrap();
        drop(j);
        // Simulate a crash mid-append: truncate to tear the last line.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.entries, vec![entry(1)]);
        assert_eq!(load.torn_lines, 1);
        // Re-open heals the tail: the next append lands on a fresh line.
        let mut j = Journal::open_with(&path, SyncPolicy::Every).unwrap();
        j.append(&entry(3)).unwrap();
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.entries, vec![entry(1), entry(3)]);
        assert_eq!(load.torn_lines, 1);
    }

    #[test]
    fn bad_bytes_cost_their_line_and_are_never_rewritten() {
        let failed = |seq: u64, status: &str| JournalEntry {
            seq,
            event: JobEvent::TaskFailed {
                task: 0,
                wave: seq,
                attempt: 1,
                status: status.to_string(),
            },
        };
        let line = |e: &JournalEntry| serde_json::to_vec(e).unwrap();
        // A 0xFF byte inside a string field mid-file: decoding it lossily
        // would accept seq 2 with a U+FFFD in its status.
        let mut bad = line(&failed(2, "oom"));
        let at = bad.windows(3).position(|w| w == b"oom").unwrap();
        bad[at + 1] = 0xFF;
        // A tail torn inside a multi-byte character.
        let mut torn = line(&failed(4, "ö"));
        torn.truncate(torn.iter().position(|&b| b == 0xC3).unwrap() + 1);
        let (one, three) = (line(&entry(1)), line(&entry(3)));
        for lines in [[&one, &bad, &three], [&one, &three, &torn]] {
            let path = tmp("badbytes");
            std::fs::write(&path, lines.map(Vec::as_slice).join(&b'\n')).unwrap();
            let load = Journal::load(&path).unwrap();
            assert_eq!(load.entries, vec![entry(1), entry(3)]);
            assert_eq!(load.torn_lines, 1);
        }
    }

    #[test]
    fn batch_policy_defers_until_barrier() {
        let path = tmp("batchpolicy");
        let mut j = Journal::open_with(&path, SyncPolicy::Batch(3)).unwrap();
        j.append(&entry(1)).unwrap();
        j.append(&entry(2)).unwrap();
        assert_eq!(Journal::load(&path).unwrap().entries.len(), 0);
        j.barrier().unwrap();
        assert_eq!(Journal::load(&path).unwrap().entries.len(), 2);
        assert_eq!(j.fsyncs(), 1, "one group commit covered both appends");
    }

    /// The journal lines of `seqs`.
    fn lines(seqs: &[u64]) -> String {
        seqs.iter()
            .map(|&seq| serde_json::to_string(&entry(seq)).unwrap() + "\n")
            .collect()
    }

    /// Write `seqs` as segment `n` of the journal at `base`, in the
    /// layout older builds rotated into (`n == 0` is the base file).
    fn write_segment(base: &Path, n: u32, seqs: &[u64]) -> PathBuf {
        let path = match n {
            0 => base.to_path_buf(),
            n => PathBuf::from(format!("{}.{n:04}", base.display())),
        };
        std::fs::write(&path, lines(seqs)).unwrap();
        path
    }

    #[test]
    fn older_segments_load_merged_in_seq_order() {
        let path = tmp("segments");
        // Created out of index order, with a sibling that is not a segment.
        let two = write_segment(&path, 2, &[7, 8, 9]);
        let one = write_segment(&path, 1, &[4, 5, 6]);
        write_segment(&path, 0, &[1, 2, 3]);
        std::fs::write(format!("{}.bak", path.display()), "junk\n").unwrap();
        assert_eq!(
            Journal::segments(&path).unwrap(),
            vec![path.clone(), one, two]
        );
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.entries, (1..=9).map(entry).collect::<Vec<_>>());
        assert_eq!(load.torn_lines, 0);
    }

    #[test]
    fn reopen_appends_to_the_last_segment() {
        let path = tmp("reopen");
        write_segment(&path, 0, &[1, 2]);
        let one = write_segment(&path, 1, &[3, 4]);
        let two = write_segment(&path, 2, &[5]);
        let mut j = Journal::open(&path).unwrap();
        j.append(&entry(6)).unwrap();
        j.append(&entry(7)).unwrap();
        drop(j);
        let read = |p: &Path| std::fs::read_to_string(p).unwrap();
        assert_eq!(Journal::segments(&path).unwrap().len(), 3, "no new segment");
        assert_eq!(read(&path), lines(&[1, 2]));
        assert_eq!(read(&one), lines(&[3, 4]));
        assert_eq!(
            read(&two),
            lines(&[5, 6, 7]),
            "appends land in the last segment"
        );
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.entries, (1..=7).map(entry).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_seqs_across_segments_keep_first_occurrence() {
        let path = tmp("dedup");
        let mut j = Journal::open(&path).unwrap();
        j.append(&entry(1)).unwrap();
        j.append(&entry(2)).unwrap();
        drop(j);
        // A stale rotated segment re-supplying seq 2 plus an old seq 3.
        write_segment(&path, 1, &[2, 3]);
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.entries, vec![entry(1), entry(2), entry(3)]);
    }
}
