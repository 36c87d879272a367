//! The global event recorder and its sinks.
//!
//! Span guards emit [`Event`]s here. Two sinks ship with the crate:
//!
//! - a stderr sink, installed automatically when the `MLAM_LOG`
//!   environment variable names a level at or above `info`;
//! - [`JsonlSink`], which writes one JSON object per event to a file
//!   it truncates on open, and is installed explicitly (the bench
//!   binaries do this under `--json` and `--resume`).
//!
//! Nothing in this module ever writes to stdout.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Verbosity levels for the `MLAM_LOG` stderr sink, coarsest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No stderr logging at all.
    Off,
    /// Failures only.
    Error,
    /// Progress notes.
    Info,
    /// Per-span detail.
    Debug,
    /// Everything, including span attributes.
    Trace,
}

impl Level {
    fn parse(raw: &str) -> Level {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "none" => Level::Off,
            "error" => Level::Error,
            "info" => Level::Info,
            "debug" => Level::Debug,
            "trace" => Level::Trace,
            other => {
                eprintln!("mlam-telemetry: unknown MLAM_LOG level '{other}', using info");
                Level::Info
            }
        }
    }
}

/// The stderr verbosity selected by `MLAM_LOG`, read once per process.
pub fn stderr_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        std::env::var("MLAM_LOG")
            .map(|v| Level::parse(&v))
            .unwrap_or(Level::Off)
    })
}

/// What happened, as recorded by a span guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A span guard was created.
    SpanStart,
    /// A span guard was dropped.
    SpanEnd,
}

/// One telemetry event. `elapsed_ns` is present on `SpanEnd` only;
/// `ts_ns` is nanoseconds since the recorder was first touched in this
/// process (a monotonic clock, not wall time).
///
/// `id` is process-unique per span, and `parent_id` names the
/// enclosing span on the same thread (if any), so post-hoc tools can
/// reconstruct the full span tree from an `events.jsonl` stream.
/// `tid` is a small process-unique id of the thread the span started
/// on (not the OS thread id).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Start or end.
    pub kind: EventKind,
    /// The span's name.
    pub name: String,
    /// Process-unique id of the span this event belongs to (never 0).
    pub id: u64,
    /// Id of the enclosing span on the starting thread, if any.
    pub parent_id: Option<u64>,
    /// Process-unique id of the thread the span started on.
    pub tid: u64,
    /// Nesting depth of the span on its starting thread.
    pub depth: usize,
    /// Nanoseconds since the recorder was first touched (monotonic).
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `SpanEnd` only.
    pub elapsed_ns: Option<u64>,
    /// Key/value attributes attached to the span.
    pub attrs: Vec<(String, String)>,
}

/// A destination for telemetry events. Implementations must be
/// thread-safe; `record` is called under the recorder lock.
pub trait Sink: Send {
    /// Receives one event.
    fn record(&mut self, event: &Event);
}

struct StderrSink;

impl Sink for StderrSink {
    fn record(&mut self, event: &Event) {
        let indent = "  ".repeat(event.depth);
        let attrs = if event.attrs.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = event
                .attrs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!(" [{}]", parts.join(" "))
        };
        match event.kind {
            EventKind::SpanStart => {
                eprintln!("mlam: {indent}> {}{attrs}", event.name);
            }
            EventKind::SpanEnd => {
                let secs = event.elapsed_ns.unwrap_or(0) as f64 / 1e9;
                eprintln!("mlam: {indent}< {} ({secs:.3}s){attrs}", event.name);
            }
        }
    }
}

/// Writes one compact JSON object per event, a line each, to a file
/// it truncates on open.
pub struct JsonlSink {
    file: std::fs::File,
}

impl JsonlSink {
    /// Opens (truncating) `path` for event output.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            file: std::fs::File::create(path)?,
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        if let Ok(json) = serde_json::to_string(event) {
            // Telemetry must never take the pipeline down: IO errors
            // are dropped, not propagated.
            let _ = writeln!(self.file, "{json}");
        }
    }
}

struct Recorder {
    epoch: Instant,
    sinks: Mutex<Vec<Box<dyn Sink>>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| {
        let sinks: Vec<Box<dyn Sink>> = if stderr_level() >= Level::Info {
            vec![Box::new(StderrSink)]
        } else {
            Vec::new()
        };
        Recorder {
            epoch: Instant::now(),
            sinks: Mutex::new(sinks),
        }
    })
}

/// Installs an additional sink (e.g. a [`JsonlSink`]) for the rest of
/// the process lifetime.
pub fn add_sink(sink: Box<dyn Sink>) {
    recorder()
        .sinks
        .lock()
        .expect("recorder poisoned")
        .push(sink);
}

/// Nanoseconds since the recorder epoch (first telemetry touch).
pub(crate) fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

pub(crate) fn dispatch(event: &Event) {
    let mut sinks = recorder().sinks.lock().expect("recorder poisoned");
    for sink in sinks.iter_mut() {
        sink.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    struct ChannelSink(mpsc::Sender<Event>);

    impl Sink for ChannelSink {
        fn record(&mut self, event: &Event) {
            let _ = self.0.send(event.clone());
        }
    }

    #[test]
    fn installed_sinks_receive_span_events() {
        let (tx, rx) = mpsc::channel();
        add_sink(Box::new(ChannelSink(tx)));
        {
            let _span = crate::span("recorder-test");
        }
        let events: Vec<Event> = rx.try_iter().collect();
        let start = events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.name == "recorder-test")
            .expect("start event");
        let end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd && e.name == "recorder-test")
            .expect("end event");
        assert!(end.elapsed_ns.is_some());
        assert!(start.elapsed_ns.is_none());
        assert!(end.ts_ns >= start.ts_ns, "recorder clock is monotonic");
        assert_ne!(start.id, 0, "spans have non-zero ids");
        assert_eq!(start.id, end.id, "start/end share the span id");
        assert_eq!(start.tid, end.tid, "start/end share the thread id");
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("INFO"), Level::Info);
        assert_eq!(Level::parse(" debug "), Level::Debug);
        assert_eq!(Level::parse("trace"), Level::Trace);
        assert!(Level::Debug > Level::Info);
    }
}
