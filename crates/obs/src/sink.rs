//! Append-only, size-rotated JSONL sinks.
//!
//! The audit subsystem (and any other long-running producer) persists
//! one JSON object per line through a [`JsonlSink`]. The sink appends —
//! never rewrites — and rotates the live file to `<path>.1`,
//! `<path>.2`, … when it would grow past a byte budget, dropping the
//! oldest rotation. All I/O errors are surfaced as `io::Result`; the
//! sink never panics on the write path.
//!
//! Producers on the query path (the audit log, the SLO log) go through a
//! [`LazySink`] instead: it opens the file on its first line and turns
//! every I/O error into a counter, so a bad path disables the log and
//! never fails a query.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::metrics::{Counter, MetricsRegistry};

/// An append-only JSONL file with size-based rotation.
///
/// `append` writes one line per call (a trailing newline is added when
/// missing). When the live file would exceed `max_bytes`, it is rotated
/// to `<path>.1` first (existing rotations shift up, the oldest beyond
/// `max_rotations` is dropped), so a line is never split across files.
/// Destroyed lines are not silently lost: attach a counter with
/// [`JsonlSink::with_dropped_lines_counter`]
/// (`aqp.obs.sink_dropped_lines`) and every rotation counts the lines
/// of the file it is about to drop or truncate.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    max_bytes: u64,
    max_rotations: usize,
    file: File,
    written: u64,
    dropped: Option<Counter>,
}

impl JsonlSink {
    /// Open (or create) the sink at `path`, appending to any existing
    /// content. `max_bytes` bounds the live file (at least 1);
    /// `max_rotations` is how many rotated files to keep (0 truncates in
    /// place on overflow).
    pub fn open(
        path: impl Into<PathBuf>,
        max_bytes: u64,
        max_rotations: usize,
    ) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(JsonlSink {
            path,
            max_bytes: max_bytes.max(1),
            max_rotations,
            file,
            written,
            dropped: None,
        })
    }

    /// Count lines destroyed by rotation (oldest rotation dropped, or
    /// the live file truncated in place when `max_rotations == 0`) into
    /// `counter` instead of discarding them silently.
    pub fn with_dropped_lines_counter(mut self, counter: Counter) -> Self {
        self.dropped = Some(counter);
        self
    }

    /// The live file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes currently in the live file.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Append one JSONL line, rotating first if it would overflow the
    /// live file. A non-empty live file always accepts at least one
    /// line after rotation, so oversized lines are written, not lost.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        let extra = u64::from(!line.ends_with('\n'));
        let n = line.len() as u64 + extra;
        if self.written > 0 && self.written + n > self.max_bytes {
            self.rotate()?;
        }
        self.file.write_all(line.as_bytes())?;
        if extra == 1 {
            self.file.write_all(b"\n")?;
        }
        self.written += n;
        Ok(())
    }

    /// Flush buffered bytes to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if self.max_rotations == 0 {
            self.count_destroyed_lines(&self.path);
            self.file = File::create(&self.path)?;
        } else {
            self.count_destroyed_lines(&rotated(&self.path, self.max_rotations));
            for i in (1..self.max_rotations).rev() {
                let from = rotated(&self.path, i);
                if from.exists() {
                    std::fs::rename(&from, rotated(&self.path, i + 1))?;
                }
            }
            std::fs::rename(&self.path, rotated(&self.path, 1))?;
            self.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        }
        self.written = 0;
        Ok(())
    }

    /// Count the lines of a file rotation is about to destroy into the
    /// dropped-lines counter. A missing file (nothing to destroy) or an
    /// unreadable one counts nothing; the write path never fails on
    /// accounting.
    fn count_destroyed_lines(&self, path: &Path) {
        let Some(counter) = &self.dropped else {
            return;
        };
        let Ok(bytes) = std::fs::read(path) else {
            return;
        };
        let newlines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        // A trailing partial line (no final newline) is still a lost line.
        let partial = u64::from(bytes.last().is_some_and(|&b| b != b'\n'));
        let lost = newlines + partial;
        if lost > 0 {
            counter.add(lost);
        }
    }
}

/// Where (and how large) a rotating JSONL log is.
#[derive(Debug, Clone)]
pub struct JsonlLogConfig {
    /// Live log file path (rotations get `.1`, `.2`, … suffixes).
    pub path: PathBuf,
    /// Byte budget of the live file before rotation.
    pub max_bytes: u64,
    /// Rotated files to keep (0 truncates in place).
    pub max_rotations: usize,
}

impl JsonlLogConfig {
    /// A log at `path` with the default 4 MiB budget and 3 rotations.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        JsonlLogConfig { path: path.into(), max_bytes: 4 << 20, max_rotations: 3 }
    }
}

#[derive(Debug)]
enum LazyState {
    Unopened(JsonlLogConfig),
    Open(JsonlSink),
    /// No log was configured, or it failed once and stays off.
    Off,
}

/// A [`JsonlSink`] that opens on its first line and never fails its
/// caller: an open or write error counts once on the producer's error
/// counter and switches the log off for good (no retries on the query
/// path); a failed flush only counts. Lines destroyed by rotation count on
/// `aqp.obs.sink_dropped_lines`, which is registered only when a log is
/// configured, so log-less producers keep their metric surface.
#[derive(Debug)]
pub struct LazySink {
    state: LazyState,
    errors: Counter,
    dropped: Option<Counter>,
}

impl LazySink {
    /// A sink for `log` (`None` drops every line), counting I/O
    /// failures on the counter named `errors`.
    pub fn new(log: Option<JsonlLogConfig>, metrics: &MetricsRegistry, errors: &str) -> Self {
        let dropped = log.as_ref().map(|_| metrics.counter(crate::name::OBS_SINK_DROPPED_LINES));
        LazySink {
            state: log.map_or(LazyState::Off, LazyState::Unopened),
            errors: metrics.counter(errors),
            dropped,
        }
    }

    /// Append the line `line` renders, opening the file first if this is
    /// the first. `line` runs only when the log is (still) on, so a
    /// producer without a log never formats one.
    pub fn write_line(&mut self, line: impl FnOnce() -> String) {
        if let LazyState::Unopened(cfg) = &self.state {
            self.state = match JsonlSink::open(&cfg.path, cfg.max_bytes, cfg.max_rotations) {
                Ok(sink) => LazyState::Open(match &self.dropped {
                    Some(c) => sink.with_dropped_lines_counter(c.clone()),
                    None => sink,
                }),
                Err(_) => self.fail(),
            };
        }
        if let LazyState::Open(sink) = &mut self.state {
            if sink.append(&line()).is_err() {
                self.state = self.fail();
            }
        }
    }

    /// Flush an open log; a failure only counts.
    pub fn flush(&mut self) {
        if let LazyState::Open(sink) = &mut self.state {
            if sink.flush().is_err() {
                self.errors.inc();
            }
        }
    }

    fn fail(&self) -> LazyState {
        self.errors.inc();
        LazyState::Off
    }
}

/// `foo.jsonl` → `foo.jsonl.<i>`.
fn rotated(path: &Path, i: usize) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{i}"));
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aqp-obs-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn appends_lines_with_newlines() {
        let p = tmp("append.jsonl");
        let _ = std::fs::remove_file(&p);
        let mut s = JsonlSink::open(&p, 1 << 20, 2).unwrap();
        s.append("{\"a\":1}").unwrap();
        s.append("{\"b\":2}\n").unwrap();
        s.flush().unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, "{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(s.written(), body.len() as u64);
    }

    #[test]
    fn reopen_appends_to_existing_content() {
        let p = tmp("reopen.jsonl");
        let _ = std::fs::remove_file(&p);
        {
            let mut s = JsonlSink::open(&p, 1 << 20, 2).unwrap();
            s.append("one").unwrap();
        }
        let mut s = JsonlSink::open(&p, 1 << 20, 2).unwrap();
        s.append("two").unwrap();
        s.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "one\ntwo\n");
    }

    #[test]
    fn rotates_at_the_byte_budget_and_drops_oldest() {
        let p = tmp("rotate.jsonl");
        for i in 0..4 {
            let _ = std::fs::remove_file(rotated(&p, i));
        }
        let _ = std::fs::remove_file(&p);
        // Each line is 8 bytes with newline; budget fits exactly one.
        let mut s = JsonlSink::open(&p, 8, 2).unwrap();
        for line in ["line001", "line002", "line003", "line004"] {
            s.append(line).unwrap();
        }
        s.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "line004\n");
        assert_eq!(std::fs::read_to_string(rotated(&p, 1)).unwrap(), "line003\n");
        assert_eq!(std::fs::read_to_string(rotated(&p, 2)).unwrap(), "line002\n");
        // line001's rotation fell off the end.
        assert!(!rotated(&p, 3).exists());
    }

    #[test]
    fn zero_rotations_truncates_in_place() {
        let p = tmp("truncate.jsonl");
        let _ = std::fs::remove_file(&p);
        let mut s = JsonlSink::open(&p, 8, 0).unwrap();
        s.append("line001").unwrap();
        s.append("line002").unwrap();
        s.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "line002\n");
        assert!(!rotated(&p, 1).exists());
    }

    #[test]
    fn rotation_counts_destroyed_lines() {
        let p = tmp("dropped.jsonl");
        for i in 1..4 {
            let _ = std::fs::remove_file(rotated(&p, i));
        }
        let _ = std::fs::remove_file(&p);
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter(crate::name::OBS_SINK_DROPPED_LINES);
        // Budget fits exactly one 8-byte line; one rotation kept.
        let mut s = JsonlSink::open(&p, 8, 1).unwrap().with_dropped_lines_counter(c.clone());
        s.append("line001").unwrap(); // live
        s.append("line002").unwrap(); // rotates; .1 empty before → 0 dropped
        assert_eq!(c.get(), 0);
        s.append("line003").unwrap(); // rotates; old .1 (line001) destroyed
        assert_eq!(c.get(), 1);
        s.append("line004").unwrap();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn truncation_in_place_counts_destroyed_lines() {
        let p = tmp("dropped_trunc.jsonl");
        let _ = std::fs::remove_file(&p);
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter(crate::name::OBS_SINK_DROPPED_LINES);
        let mut s = JsonlSink::open(&p, 16, 0).unwrap().with_dropped_lines_counter(c.clone());
        s.append("line001").unwrap();
        s.append("line002").unwrap(); // both fit (16 bytes)
        s.append("line003").unwrap(); // truncates in place: 2 lines lost
        assert_eq!(c.get(), 2);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "line003\n");
    }

    #[test]
    fn rotation_counts_every_line_of_multiline_files() {
        let p = tmp("dropped_multi.jsonl");
        for i in 1..4 {
            let _ = std::fs::remove_file(rotated(&p, i));
        }
        let _ = std::fs::remove_file(&p);
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter(crate::name::OBS_SINK_DROPPED_LINES);
        // Budget fits exactly two 8-byte lines per file; one rotation
        // kept, so each destroyed .1 carries TWO lines.
        let mut s = JsonlSink::open(&p, 16, 1).unwrap().with_dropped_lines_counter(c.clone());
        for i in 0..4 {
            s.append(&format!("line00{i}")).unwrap();
        }
        // Files: live = {2,3}, .1 = {0,1}; nothing destroyed yet.
        assert_eq!(c.get(), 0);
        s.append("line004").unwrap(); // rotation destroys .1's two lines
        assert_eq!(c.get(), 2);
        for i in 5..7 {
            s.append(&format!("line00{i}")).unwrap();
        }
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn partial_trailing_line_counts_as_lost() {
        let p = tmp("dropped_partial.jsonl");
        for i in 1..3 {
            let _ = std::fs::remove_file(rotated(&p, i));
        }
        let _ = std::fs::remove_file(&p);
        // A pre-existing oldest rotation holding one full line plus a
        // trailing partial (interrupted write): both are real data the
        // next rotation destroys.
        std::fs::write(rotated(&p, 1), "full-line\npartial-without-newline").unwrap();
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter(crate::name::OBS_SINK_DROPPED_LINES);
        let mut s = JsonlSink::open(&p, 8, 1).unwrap().with_dropped_lines_counter(c.clone());
        s.append("line001").unwrap(); // live
        s.append("line002").unwrap(); // rotates: destroys the stale .1
        assert_eq!(c.get(), 2, "one full + one partial line destroyed");
    }

    #[test]
    fn oversized_line_accounting_under_truncation() {
        let p = tmp("dropped_oversize.jsonl");
        let _ = std::fs::remove_file(&p);
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter(crate::name::OBS_SINK_DROPPED_LINES);
        let mut s = JsonlSink::open(&p, 8, 0).unwrap().with_dropped_lines_counter(c.clone());
        // The oversized line is written whole (never split, never lost
        // on the way in)...
        s.append("a-very-long-line-beyond-budget").unwrap();
        s.flush().unwrap();
        assert_eq!(c.get(), 0);
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "a-very-long-line-beyond-budget\n"
        );
        // ...and counts exactly once when truncation later destroys it.
        s.append("next").unwrap();
        assert_eq!(c.get(), 1);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "next\n");
    }

    #[test]
    fn no_counter_configured_means_silent_rotation() {
        let p = tmp("dropped_unwired.jsonl");
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(rotated(&p, 1));
        let reg = crate::MetricsRegistry::new();
        let mut s = JsonlSink::open(&p, 8, 0).unwrap();
        s.append("line001").unwrap();
        s.append("line002").unwrap(); // truncates; no counter attached
        drop(s);
        // Absence-is-data: the registry never saw the metric at all.
        let snap = reg.snapshot();
        assert!(snap.counter(crate::name::OBS_SINK_DROPPED_LINES).is_none());
    }

    #[test]
    fn lazy_sink_renders_a_line_only_when_the_log_is_on() {
        let reg = crate::MetricsRegistry::new();
        let calls = std::cell::Cell::new(0);
        let line = || {
            calls.set(calls.get() + 1);
            "line".to_string()
        };
        // No log configured: the closure must never run.
        let mut off = LazySink::new(None, &reg, "aqp.test.lazy_sink_errors");
        off.write_line(line);
        // A failed open switches the log off before the first render.
        let bad = JsonlLogConfig::at("/dev/null/nope/lazy.jsonl");
        let mut failed = LazySink::new(Some(bad), &reg, "aqp.test.lazy_sink_errors");
        failed.write_line(line);
        failed.write_line(line);
        assert_eq!(calls.get(), 0, "a line was rendered with the sink off");
        assert_eq!(reg.snapshot().counter("aqp.test.lazy_sink_errors"), Some(1));
        // Open: exactly one render per line, and the bytes land.
        let p = tmp("lazy.jsonl");
        let _ = std::fs::remove_file(&p);
        let mut open = LazySink::new(Some(JsonlLogConfig::at(&p)), &reg, "aqp.test.lazy_sink_errors");
        open.write_line(line);
        open.flush();
        assert_eq!(calls.get(), 1);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "line\n");
    }

    #[test]
    fn oversized_line_is_still_written() {
        let p = tmp("oversize.jsonl");
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(rotated(&p, 1));
        let mut s = JsonlSink::open(&p, 4, 1).unwrap();
        s.append("a-very-long-line-beyond-budget").unwrap();
        s.flush().unwrap();
        assert_eq!(
            std::fs::read_to_string(&p).unwrap(),
            "a-very-long-line-beyond-budget\n"
        );
    }
}
