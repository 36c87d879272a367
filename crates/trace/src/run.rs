//! Loading run directories: `events.jsonl`, `metrics.jsonl`,
//! `manifest.json`, with every error carrying the offending path (and
//! line number for JSONL streams).

use mlam_telemetry::{Event, HistogramSnapshot, MetricLine, RunManifest};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The span stream of a run directory, and its histograms when the
/// run wrote a `metrics.jsonl`.
pub struct RunData {
    /// The run directory the data came from.
    pub dir: PathBuf,
    /// Parsed `events.jsonl` span stream.
    pub events: Vec<Event>,
    /// Histogram lines from `metrics.jsonl` (empty when it is absent).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RunData {
    /// Loads a run directory (or, for convenience, a bare
    /// `events.jsonl` file, in which case `metrics.jsonl` is looked up
    /// next to it). A missing `events.jsonl` is an error naming it.
    pub fn load(path: impl Into<PathBuf>) -> io::Result<RunData> {
        let path = path.into();
        let (dir, events_path) = if path.is_file() {
            let dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
            (dir, path)
        } else {
            (path.clone(), path.join("events.jsonl"))
        };
        let events = load_events(&events_path)?;
        let metrics_path = dir.join("metrics.jsonl");
        let histograms = if metrics_path.is_file() {
            load_metrics(&metrics_path)?.1
        } else {
            BTreeMap::new()
        };
        Ok(RunData {
            dir,
            events,
            histograms,
        })
    }
}

/// Parses an `events.jsonl` stream (one [`Event`] per line).
pub fn load_events(path: &Path) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| mlam_telemetry::rundir::annotate(e, "cannot read", path))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Event = serde_json::from_str(line).map_err(|e| bad_line(path, lineno, &e))?;
        events.push(event);
    }
    Ok(events)
}

/// Parses a `manifest.json`.
pub fn load_manifest(path: &Path) -> io::Result<RunManifest> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| mlam_telemetry::rundir::annotate(e, "cannot read", path))?;
    serde_json::from_str(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Parses a `metrics.jsonl` stream into counter and histogram maps.
pub fn load_metrics(
    path: &Path,
) -> io::Result<(BTreeMap<String, u64>, BTreeMap<String, HistogramSnapshot>)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| mlam_telemetry::rundir::annotate(e, "cannot read", path))?;
    let mut counters = BTreeMap::new();
    let mut histograms = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed: MetricLine =
            serde_json::from_str(line).map_err(|e| bad_line(path, lineno, &e))?;
        match parsed {
            MetricLine::Counter { name, value } => {
                counters.insert(name, value);
            }
            MetricLine::Histogram {
                name,
                count,
                sum,
                buckets,
            } => {
                histograms.insert(
                    name,
                    HistogramSnapshot {
                        count,
                        sum,
                        buckets,
                    },
                );
            }
        }
    }
    Ok((counters, histograms))
}

fn bad_line(path: &Path, lineno: usize, error: &dyn std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}:{}: {error}", path.display(), lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlam_trace_run_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bad_jsonl_lines_report_path_and_line() {
        let dir = scratch("badline");
        let path = dir.join("events.jsonl");
        std::fs::write(&path, "{\"not\": \"an event\"}\n").unwrap();
        let err = load_events(&path).expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains("events.jsonl:1"), "got: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_events_file_is_an_error_naming_it() {
        let dir = scratch("empty");
        let err = RunData::load(&dir).err().expect("no events.jsonl");
        let msg = err.to_string();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{msg}");
        assert!(
            msg.contains(&dir.join("events.jsonl").display().to_string()),
            "{msg}"
        );
        // metrics.jsonl stays optional.
        std::fs::write(dir.join("events.jsonl"), "").unwrap();
        let run = RunData::load(&dir).unwrap();
        assert!(run.events.is_empty());
        assert!(run.histograms.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_round_trip_through_loader() {
        let dir = scratch("metrics");
        mlam_telemetry::counter_handle("trace.run.test_counter").add(7);
        mlam_telemetry::histogram_handle("trace.run.test_histogram").observe(100);
        let snap = mlam_telemetry::snapshot();
        let mut buf = Vec::new();
        mlam_telemetry::write_metrics_jsonl(&mut buf, &snap).unwrap();
        let path = dir.join("metrics.jsonl");
        std::fs::write(&path, &buf).unwrap();
        let (counters, histograms) = load_metrics(&path).unwrap();
        assert!(counters["trace.run.test_counter"] >= 7);
        assert!(histograms["trace.run.test_histogram"].count >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
