//! Prometheus text exposition (format version 0.0.4) rendering.
//!
//! Telemetry counters become `counter` series and the log₂-bucketed
//! histograms become native Prometheus `histogram` series with
//! cumulative `le` buckets. Monitor-internal state — progress,
//! in-flight spans, scrape counts — and the process's resident memory
//! are rendered alongside under `mlam_monitor_*` / `mlam_process_*` /
//! `mlam_progress_*` names that exist only in the exposition, never in
//! the registry.
//!
//! Metric names: the registry's dotted names (`oracle.example_queries`)
//! are mapped to `mlam_oracle_example_queries` — `mlam_` prefix, every
//! character outside `[a-zA-Z0-9_:]` replaced by `_`. Registration-time
//! validation (`mlam_telemetry::metrics`) already rejects whitespace,
//! newlines and non-ASCII, so the mapping cannot produce a malformed
//! exposition line.

use crate::progress::ProgressSnapshot;
use mlam_telemetry::metrics::{bucket_upper_bound, HISTOGRAM_BUCKETS};
use mlam_telemetry::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a registry name onto a valid Prometheus metric name.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("mlam_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value (backslash, quote, newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn write_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let prom = metric_name(name);
    let _ = writeln!(out, "# TYPE {prom} histogram");
    let by_index: BTreeMap<u32, u64> = h.buckets.iter().copied().collect();
    let mut cumulative = 0u64;
    for index in 0..HISTOGRAM_BUCKETS as u32 {
        let count = by_index.get(&index).copied().unwrap_or(0);
        if count == 0 {
            continue;
        }
        cumulative += count;
        // The registry bucket `i` holds values < 2^i, i.e. ≤ 2^i − 1,
        // which is exactly Prometheus's inclusive `le` bound.
        match bucket_upper_bound(index as usize) {
            Some(bound) => {
                let _ = writeln!(out, "{prom}_bucket{{le=\"{}\"}} {cumulative}", bound - 1);
            }
            None => {
                // The top bucket has no finite bound; +Inf covers it.
                let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
    }
    if by_index
        .keys()
        .all(|&i| i != (HISTOGRAM_BUCKETS as u32 - 1))
    {
        let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {cumulative}");
    }
    let _ = writeln!(out, "{prom}_sum {}", h.sum);
    let _ = writeln!(out, "{prom}_count {}", h.count);
}

/// The process's resident memory as the OS reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidentMemory {
    /// Resident set size now (`VmRSS`), in bytes.
    pub current_bytes: u64,
    /// Peak resident set size so far (`VmHWM`), in bytes.
    pub peak_bytes: u64,
}

impl ResidentMemory {
    /// Reads `/proc/self/status`; `None` where that file cannot be read
    /// or lacks either field.
    pub(crate) fn read() -> Option<ResidentMemory> {
        ResidentMemory::parse(&std::fs::read_to_string("/proc/self/status").ok()?)
    }

    /// The `VmRSS` and `VmHWM` lines (`VmRSS:    1234 kB`) of a
    /// `/proc/<pid>/status` text, in bytes.
    fn parse(status: &str) -> Option<ResidentMemory> {
        let bytes = |field: &str| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix(field)?.strip_suffix("kB")?;
                kib.trim().parse::<u64>().ok()?.checked_mul(1024)
            })
        };
        Some(ResidentMemory {
            current_bytes: bytes("VmRSS:")?,
            peak_bytes: bytes("VmHWM:")?,
        })
    }
}

/// Everything one `/metrics` response needs, gathered by the server.
#[derive(Default)]
pub struct Exposition {
    /// The registry snapshot taken for this scrape.
    pub metrics: MetricsSnapshot,
    /// Resident memory, where the OS reports it.
    pub resident: Option<ResidentMemory>,
    /// Run progress, when a session is feeding one.
    pub progress: Option<ProgressSnapshot>,
    /// In-flight span counts by name.
    pub inflight_spans: BTreeMap<String, u64>,
    /// `/metrics` scrapes served so far (including this one).
    pub scrapes: u64,
}

/// Renders the full Prometheus text exposition.
pub fn render(e: &Exposition) -> String {
    let mut out = String::new();
    // Build attribution first, so every scrape is traceable to an
    // exact binary even when the registry is still empty. The git hash
    // is baked in by build.rs ("unknown" outside a checkout).
    let _ = writeln!(out, "# TYPE mlam_build_info gauge");
    let _ = writeln!(
        out,
        "mlam_build_info{{version=\"{}\",git=\"{}\",features=\"default\"}} 1",
        escape_label(env!("CARGO_PKG_VERSION")),
        escape_label(option_env!("MLAM_GIT_HASH").unwrap_or("unknown")),
    );
    for (name, &value) in &e.metrics.counters {
        let prom = metric_name(name);
        let _ = writeln!(out, "# TYPE {prom} counter");
        let _ = writeln!(out, "{prom} {value}");
    }
    for (name, h) in &e.metrics.histograms {
        write_histogram(&mut out, name, h);
    }
    if !e.inflight_spans.is_empty() {
        let _ = writeln!(out, "# TYPE mlam_spans_inflight gauge");
        for (name, count) in &e.inflight_spans {
            let _ = writeln!(
                out,
                "mlam_spans_inflight{{span=\"{}\"}} {count}",
                escape_label(name)
            );
        }
    }
    if let Some(resident) = &e.resident {
        for (name, value) in [
            ("mlam_process_resident_bytes", resident.current_bytes),
            ("mlam_process_resident_peak_bytes", resident.peak_bytes),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
    }
    if let Some(p) = &e.progress {
        let _ = writeln!(out, "# TYPE mlam_progress_completed gauge");
        let _ = writeln!(out, "mlam_progress_completed {}", p.completed);
        let _ = writeln!(out, "# TYPE mlam_progress_total gauge");
        let _ = writeln!(out, "mlam_progress_total {}", p.total);
        let _ = writeln!(out, "# TYPE mlam_progress_rate_per_s gauge");
        let _ = writeln!(out, "mlam_progress_rate_per_s {}", p.rate_per_s);
        if let Some(eta) = p.eta_s {
            let _ = writeln!(out, "# TYPE mlam_progress_eta_seconds gauge");
            let _ = writeln!(out, "mlam_progress_eta_seconds {eta}");
        }
    }
    let _ = writeln!(out, "# TYPE mlam_monitor_scrapes_total counter");
    let _ = writeln!(out, "mlam_monitor_scrapes_total {}", e.scrapes);
    out
}

/// Structurally validates exposition text: every line is a comment or
/// `name{labels} value` with a valid metric name and a numeric value.
/// Used by the endpoint tests and the CI monitor-smoke leg.
pub fn validate(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let name = series.split('{').next().unwrap_or(series);
        if !valid_name(name) {
            return Err(format!("line {}: bad metric name: {name:?}", lineno + 1));
        }
        if value != "+Inf" && value != "-Inf" && value != "NaN" && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value: {value:?}", lineno + 1));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!(
                "line {}: unterminated labels: {series:?}",
                lineno + 1
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            metric_name("oracle.example_queries"),
            "mlam_oracle_example_queries"
        );
        assert_eq!(
            metric_name("span.bench.run_all.micros"),
            "mlam_span_bench_run_all_micros"
        );
        assert_eq!(metric_name("a-b"), "mlam_a_b");
    }

    #[test]
    fn counters_and_histograms_render_and_validate() {
        let mut e = Exposition::default();
        e.metrics
            .counters
            .insert("oracle.example_queries".into(), 2000);
        e.metrics.histograms.insert(
            "span.attack.micros".into(),
            HistogramSnapshot {
                count: 3,
                sum: 70,
                buckets: vec![(3, 2), (5, 1)],
            },
        );
        e.resident = Some(ResidentMemory {
            current_bytes: 4096,
            peak_bytes: 8192,
        });
        e.inflight_spans.insert("bench.run_all".into(), 1);
        e.progress = Some(ProgressSnapshot {
            completed: 2,
            total: 13,
            elapsed_s: 1.0,
            rate_per_s: 2.0,
            eta_s: Some(5.5),
        });
        let text = render(&e);
        validate(&text).expect("exposition must validate");
        assert!(text.contains("# TYPE mlam_build_info gauge"));
        assert!(text.contains(&format!(
            "mlam_build_info{{version=\"{}\",git=",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("# TYPE mlam_oracle_example_queries counter"));
        assert!(text.contains("mlam_oracle_example_queries 2000"));
        // Bucket 3 holds values ≤ 7; bucket 5 values ≤ 31; cumulative.
        assert!(text.contains("mlam_span_attack_micros_bucket{le=\"7\"} 2"));
        assert!(text.contains("mlam_span_attack_micros_bucket{le=\"31\"} 3"));
        assert!(text.contains("mlam_span_attack_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mlam_span_attack_micros_sum 70"));
        assert!(text.contains("mlam_span_attack_micros_count 3"));
        assert!(text.contains("mlam_process_resident_bytes 4096"));
        assert!(text.contains("mlam_process_resident_peak_bytes 8192"));
        assert!(text.contains("mlam_spans_inflight{span=\"bench.run_all\"} 1"));
        assert!(text.contains("mlam_progress_completed 2"));
        assert!(text.contains("mlam_progress_eta_seconds 5.5"));
    }

    #[test]
    fn top_bucket_renders_as_inf() {
        let mut e = Exposition::default();
        e.metrics.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 1,
                sum: u64::MAX,
                buckets: vec![(64, 1)],
            },
        );
        let text = render(&e);
        validate(&text).unwrap();
        assert!(text.contains("mlam_h_bucket{le=\"+Inf\"} 1"));
        // No duplicated +Inf line.
        assert_eq!(text.matches("mlam_h_bucket{le=\"+Inf\"}").count(), 1);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("ok_metric 1\n").is_ok());
        assert!(validate("bad metric name 1 2 3\n").is_err());
        assert!(validate("no_value\n").is_err());
        assert!(validate("1leading_digit 5\n").is_err());
        assert!(validate("name{le=\"7\" 3\n").is_err());
    }

    #[test]
    fn resident_memory_parses_proc_status() {
        let status = "Name:\trepro_all\nVmHWM:\t   20480 kB\nVmRSS:\t   12288 kB\nThreads:\t3\n";
        assert_eq!(
            ResidentMemory::parse(status),
            Some(ResidentMemory {
                current_bytes: 12288 * 1024,
                peak_bytes: 20480 * 1024,
            })
        );
        assert_eq!(ResidentMemory::parse("VmRSS:\t   12288 kB\n"), None);
        assert_eq!(
            ResidentMemory::parse("VmRSS:\tlots kB\nVmHWM:\t1 kB\n"),
            None
        );
        // Without the gauges the exposition still renders and validates.
        let text = render(&Exposition::default());
        validate(&text).unwrap();
        assert!(!text.contains("mlam_process_resident"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c"), "a\\\"b\\\\c");
    }
}
