//! Streaming telemetry sinks: where per-period aggregates, trace lines
//! and flight-recorder windows *go* instead of accumulating in memory.
//!
//! A [`Sink`] consumes one JSONL line at a time and is flushed at every
//! control/stats period, so a run's peak telemetry memory is the sink's
//! own bound (a `BufWriter` page, a ring capacity) rather than
//! O(events). Implementations:
//!
//! * [`JsonlSink`] — buffered file writer, one JSON object per line.
//! * [`RingSink`] — bounded in-memory ring of the most recent lines
//!   (for tests and live consoles).
//! * [`TeeSink`] — fan-out to several sinks in declaration order.
//! * [`DatasetSink`] — CSV or JSONL flow-record exporter (format chosen
//!   from the file extension), fed once at end of run from the
//!   reservoir sampler.

use crate::sample::FlowRecord;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

/// A consumer of JSONL telemetry lines.
///
/// `emit` receives one complete line *without* a trailing newline;
/// `flush` is called at period boundaries and at end of run. Sinks must
/// hold bounded memory between flushes.
pub trait Sink {
    /// Consumes one JSONL line (no trailing newline).
    fn emit(&mut self, line: &str);

    /// Pushes buffered lines to their destination (period boundary).
    fn flush(&mut self);

    /// The first I/O error the sink hit, if any. Sinks keep running
    /// past one rather than panicking mid-simulation, so a run checks
    /// this at its end. The default (an in-memory sink) never fails.
    fn io_error(&self) -> Option<&std::io::Error> {
        None
    }
}

/// A buffered JSONL file writer.
///
/// I/O errors are captured rather than panicking mid-simulation; check
/// [`Sink::io_error`] after the run.
pub struct JsonlSink {
    w: BufWriter<File>,
    lines: u64,
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            w: BufWriter::new(File::create(path)?),
            lines: 0,
            error: None,
        })
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.w, "{line}") {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.w.flush() {
                self.error = Some(e);
            }
        }
    }

    fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }
}

/// A bounded in-memory ring of the most recent lines.
///
/// Older lines are evicted silently but counted in
/// [`RingSink::total_emitted`], mirroring [`crate::RingTracer`].
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<String>,
    capacity: usize,
    total: u64,
}

impl RingSink {
    /// Creates a ring keeping the most recent `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            total: 0,
        }
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total lines ever emitted, including evicted ones.
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Iterates over the buffered lines, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.buf.iter().map(String::as_str)
    }

    /// The buffered lines joined as JSONL (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.buf {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl Sink for RingSink {
    fn emit(&mut self, line: &str) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(line.to_string());
        self.total += 1;
    }

    fn flush(&mut self) {}
}

/// Fan-out: forwards every line (and flush) to each inner sink, in the
/// order they were added.
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl TeeSink {
    /// Creates an empty tee.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink; lines are delivered in addition order.
    pub fn push(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// Number of inner sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the tee has no inner sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Sink for TeeSink {
    fn emit(&mut self, line: &str) {
        for s in &mut self.sinks {
            s.emit(line);
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }

    fn io_error(&self) -> Option<&std::io::Error> {
        self.sinks.iter().find_map(|s| s.io_error())
    }
}

/// Output format for [`DatasetSink`], derived from the file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFormat {
    /// Comma-separated values with a header row.
    Csv,
    /// One JSON object per line.
    Jsonl,
}

impl DatasetFormat {
    /// `.jsonl`/`.json` → [`DatasetFormat::Jsonl`]; anything else
    /// (including `.csv` and no extension) → [`DatasetFormat::Csv`].
    pub fn from_path(path: impl AsRef<Path>) -> Self {
        match path.as_ref().extension().and_then(|e| e.to_str()) {
            Some("jsonl") | Some("json") => DatasetFormat::Jsonl,
            _ => DatasetFormat::Csv,
        }
    }
}

/// Writes reservoir-sampled flow records as a labeled dataset (CSV with
/// header, or JSONL), for use as DDoS-detection training data.
pub struct DatasetSink {
    w: BufWriter<File>,
    format: DatasetFormat,
    rows: u64,
    error: Option<std::io::Error>,
}

impl DatasetSink {
    /// Creates (truncating) the dataset file at `path`; the format is
    /// chosen from the extension via [`DatasetFormat::from_path`].
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let format = DatasetFormat::from_path(&path);
        Ok(DatasetSink {
            w: BufWriter::new(File::create(path)?),
            format,
            rows: 0,
            error: None,
        })
    }

    /// The chosen output format.
    pub fn format(&self) -> DatasetFormat {
        self.format
    }

    /// Data rows written so far (excludes the CSV header).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The first I/O error encountered, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Writes all `records` (header first for CSV) and flushes.
    pub fn export<'r>(&mut self, records: impl IntoIterator<Item = &'r FlowRecord>) {
        let mut line = String::with_capacity(128);
        if self.format == DatasetFormat::Csv && self.rows == 0 {
            self.write_line(FlowRecord::CSV_HEADER);
        }
        for rec in records {
            line.clear();
            match self.format {
                DatasetFormat::Csv => rec.write_csv(&mut line),
                DatasetFormat::Jsonl => rec.write_jsonl(&mut line),
            }
            self.write_line(&line);
            self.rows += 1;
        }
        if self.error.is_none() {
            if let Err(e) = self.w.flush() {
                self.error = Some(e);
            }
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.w, "{line}") {
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sink_keeps_most_recent_and_counts_total() {
        let mut s = RingSink::new(3);
        for i in 0..5 {
            s.emit(&format!("{{\"n\":{i}}}"));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_emitted(), 5);
        let lines: Vec<&str> = s.iter().collect();
        assert_eq!(lines, vec!["{\"n\":2}", "{\"n\":3}", "{\"n\":4}"]);
        assert_eq!(s.to_jsonl(), "{\"n\":2}\n{\"n\":3}\n{\"n\":4}\n");
    }

    #[test]
    fn tee_delivers_to_all_sinks_in_order() {
        let mut tee = TeeSink::new();
        tee.push(Box::new(RingSink::new(8)));
        tee.push(Box::new(RingSink::new(2)));
        tee.emit("a");
        tee.emit("b");
        tee.emit("c");
        tee.flush();
        assert_eq!(tee.len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_lines_to_disk() {
        let path = std::env::temp_dir().join("accturbo_obs_sink_test.jsonl");
        let mut s = JsonlSink::create(&path).unwrap();
        s.emit("{\"a\":1}");
        s.emit("{\"b\":2}");
        s.flush();
        assert_eq!(s.lines(), 2);
        assert!(s.io_error().is_none());
        drop(s);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_full_device_is_reported_through_the_tee() {
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let mut tee = TeeSink::new();
        tee.push(Box::new(RingSink::new(4)));
        tee.push(Box::new(JsonlSink::create(full).unwrap()));
        tee.emit("{\"a\":1}");
        assert!(tee.io_error().is_none(), "the line is still buffered");
        tee.flush();
        let err = tee.io_error().expect("flushing to a full device fails");
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
    }

    #[test]
    fn dataset_format_follows_extension() {
        assert_eq!(DatasetFormat::from_path("out.csv"), DatasetFormat::Csv);
        assert_eq!(DatasetFormat::from_path("out.jsonl"), DatasetFormat::Jsonl);
        assert_eq!(DatasetFormat::from_path("out.json"), DatasetFormat::Jsonl);
        assert_eq!(DatasetFormat::from_path("out"), DatasetFormat::Csv);
    }
}
