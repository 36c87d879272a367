//! `mlam-trace bench-history` — every checked-in `BENCH_<n>.json`,
//! index-ordered, with every metric.
//!
//! All the files share one schema: a JSON array of rows, each the
//! layered benchmark's `metrics` object plus what ran and from which
//! seed — the line `repro_ab` prints:
//!
//! ```text
//! [{"workload": "repro_all --quick --json <dir>", "seed": 3665698848,
//!   "metrics": {"wall_median_s": {"value": 2.6846, "unit": "s"}, ...}}, ...]
//! ```
//!
//! A file whose rows lack a field, or hold one of the wrong type, is an
//! error naming it, so it fails loudly instead of vanishing from the
//! listing. The `<n>` in the name orders the files in time; they carry
//! no other time axis.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::Path;

/// One measured quantity.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct Metric {
    /// Its value.
    pub value: f64,
    /// Its unit, e.g. `s`, `%` or `count`.
    pub unit: String,
}

/// One result line: what ran, from which seed, and what it measured.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct BenchRow {
    /// What ran: a workload name or a command line.
    pub workload: String,
    /// The root seed of the run.
    pub seed: u64,
    /// The metrics by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// One `BENCH_<n>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// The `<n>` in the file name.
    pub index: u64,
    /// The file's name (no directory).
    pub file: String,
    /// Its rows, in file order.
    pub rows: Vec<BenchRow>,
}

/// Parses the text of one `BENCH_<n>.json`: a non-empty array of rows,
/// each with at least one metric.
pub fn parse(text: &str) -> Result<Vec<BenchRow>, String> {
    let rows: Vec<BenchRow> = serde_json::from_str(text).map_err(|e| e.to_string())?;
    if rows.is_empty() || rows.iter().any(|row| row.metrics.is_empty()) {
        return Err("expected rows with metrics".to_string());
    }
    Ok(rows)
}

/// Reads every `BENCH_<n>.json` under `dir`, index-ordered. Files that
/// do not match the name pattern are ignored; a matching file that
/// does not parse is an error naming it.
pub fn collect(dir: &Path) -> Result<Vec<BenchFile>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let file = entry.file_name().to_string_lossy().into_owned();
        let Some(index) = file
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {file}: {e}"))?;
        let rows = parse(&text).map_err(|e| format!("cannot parse {file}: {e}"))?;
        files.push(BenchFile { index, file, rows });
    }
    files.sort_by_key(|f| f.index);
    Ok(files)
}

/// Renders the files as the listing the CLI prints: per file its rows,
/// per row its workload and seed, then one line per metric.
pub fn render(files: &[BenchFile]) -> String {
    let mut out = String::new();
    for file in files {
        out.push_str(&format!("{}\n", file.file));
        for row in &file.rows {
            out.push_str(&format!("  {} (seed {})\n", row.workload, row.seed));
            for (name, m) in &row.metrics {
                out.push_str(&format!("    {name:<28} {} {}\n", m.value, m.unit));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mlam_hist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const ROW: &str = r#"{"workload": "repro_all --quick", "seed": 7,
        "metrics": {"wall_median_s": {"value": 2.5, "unit": "s"},
                    "trials": {"value": 3, "unit": "count"}}}"#;

    #[test]
    fn collect_orders_by_index_and_prints_every_metric() {
        let dir = scratch("order");
        // Index 10 sorts after 2 numerically, before it lexicographically.
        std::fs::write(dir.join("BENCH_10.json"), format!("[{ROW}, {ROW}]")).unwrap();
        std::fs::write(
            dir.join("BENCH_2.json"),
            r#"[{"workload": "w", "seed": 1, "metrics": {"q": {"value": -1, "unit": "count"}}}]"#,
        )
        .unwrap();
        // Not part of the history: ignored.
        std::fs::write(dir.join("BENCH_notes.json"), "{}").unwrap();
        std::fs::write(dir.join("manifest.json"), "{}").unwrap();

        let files = collect(&dir).unwrap();
        let indices: Vec<u64> = files.iter().map(|f| f.index).collect();
        assert_eq!(indices, [2, 10]);
        assert_eq!(files[1].rows.len(), 2);
        let row = &files[1].rows[0];
        assert_eq!((row.workload.as_str(), row.seed), ("repro_all --quick", 7));
        assert_eq!(row.metrics["trials"].value, 3.0);
        assert_eq!(files[0].rows[0].metrics["q"].value, -1.0);

        let table = render(&files);
        assert!(
            table.find("BENCH_2.json").unwrap() < table.find("BENCH_10.json").unwrap(),
            "{table}"
        );
        assert!(table.contains("repro_all --quick (seed 7)"), "{table}");
        assert_eq!(table.matches("wall_median_s").count(), 2, "{table}");
        assert!(
            table.contains("2.5 s") && table.contains("3 count"),
            "{table}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn other_shapes_are_rejected() {
        for text in [
            r#"{"benchmark": "an object, not an array of rows"}"#,
            r#"[{"name": "table1", "wall_ns": 1, "queries": 2, "sat_conflicts": 3}]"#,
            "[]",
            r#"[{"workload": "w", "seed": 1, "metrics": {}}]"#,
            r#"[{"workload": "w", "seed": -1, "metrics": {"a": {"value": 1, "unit": "s"}}}]"#,
            r#"[{"workload": "w", "seed": 1, "metrics": {"a": {"value": "1", "unit": "s"}}}]"#,
            r#"[{"workload": "w", "seed": 1, "metrics": {"a": {"value": 1}}}]"#,
        ] {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn corrupt_benchmark_files_fail_loudly() {
        let dir = scratch("corrupt");
        std::fs::write(dir.join("BENCH_3.json"), "{not json").unwrap();
        let err = collect(&dir).unwrap_err();
        assert!(err.contains("BENCH_3.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every `BENCH_<n>.json` checked in at the repository root is in
    /// the one schema.
    #[test]
    fn checked_in_benchmarks_parse() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect(&root).unwrap_or_else(|e| panic!("{e}"));
        assert!(files.len() >= 8, "{} files", files.len());
        assert_eq!(files[0].file, "BENCH_2.json");
    }
}
