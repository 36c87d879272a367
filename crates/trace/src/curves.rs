//! Learning-curve analysis: summaries and CSV export for
//! `curves.jsonl` artifacts.

use mlam_telemetry::curves::{read_curves_jsonl, CurvePoint, CURVES_FILE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A loaded curves artifact: series name → checkpoints in emission
/// order.
pub type CurveSeries = BTreeMap<String, Vec<CurvePoint>>;

/// Loads `curves.jsonl` from a run directory (or the file itself).
pub fn load(input: &Path) -> std::io::Result<CurveSeries> {
    let path = if input.is_dir() {
        input.join(CURVES_FILE)
    } else {
        PathBuf::from(input)
    };
    read_curves_jsonl(&path)
}

/// Renders the per-series summary table: checkpoint count, final
/// queries/raw reads, and the accuracy trajectory endpoints.
pub fn summarize(series: &CurveSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "series", "points", "queries", "raw_reads", "first_acc", "final_acc"
    );
    for (name, points) in series {
        let Some(last) = points.last() else { continue };
        let first = &points[0];
        let _ = writeln!(
            out,
            "{:<24} {:>6} {:>12} {:>12} {:>10.4} {:>10.4}",
            name,
            points.len(),
            last.queries,
            last.raw_reads,
            first.train_acc,
            last.train_acc
        );
    }
    out
}

/// Renders the artifact as CSV for plotting (one row per checkpoint;
/// `holdout_acc` empty when the loop measured none).
pub fn to_csv(series: &CurveSeries) -> String {
    let mut out = String::from("series,label,iteration,queries,raw_reads,train_acc,holdout_acc\n");
    for (name, points) in series {
        for p in points {
            let holdout = p.holdout_acc.map(|a| a.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                name, p.label, p.iteration, p.queries, p.raw_reads, p.train_acc, holdout
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, iteration: u64, queries: u64, acc: f64) -> CurvePoint {
        CurvePoint {
            label: label.to_string(),
            iteration,
            queries,
            raw_reads: queries,
            train_acc: acc,
            holdout_acc: None,
            counters: BTreeMap::new(),
        }
    }

    fn series_of(points: Vec<CurvePoint>) -> CurveSeries {
        [("table1".to_string(), points)].into_iter().collect()
    }

    #[test]
    fn csv_and_summary_cover_every_point() {
        let mut series = series_of(vec![point("p", 1, 10, 0.5), point("p", 2, 20, 0.875)]);
        series.insert(
            "locking".to_string(),
            vec![CurvePoint {
                holdout_acc: Some(0.75),
                ..point("sat_attack", 1, 3, 1.0)
            }],
        );
        let csv = to_csv(&series);
        assert_eq!(csv.lines().count(), 4, "header + 3 rows");
        assert!(csv.starts_with("series,label,iteration,"));
        assert!(csv.contains("locking,sat_attack,1,3,3,1,0.75"));
        assert!(csv.contains("table1,p,2,20,20,0.875,\n"));
        let summary = summarize(&series);
        assert!(summary.contains("table1"));
        assert!(summary.contains("locking"));
    }
}
