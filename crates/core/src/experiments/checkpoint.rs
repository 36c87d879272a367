//! Experiment checkpoints: the per-experiment JSON records a run
//! writes, and the store that makes them crash-safe and resumable.
//!
//! A reproduction run persists one [`ExperimentJson`] per experiment
//! into its `--json` run directory. The [`CheckpointStore`] owns that
//! contract:
//!
//! - **Atomic saves.** Records are written to a temporary file and
//!   renamed into place, so a killed run leaves either the previous
//!   complete record or none — never a half-written JSON file.
//! - **Tolerant loads.** [`CheckpointStore::load`] distinguishes a
//!   missing record, a corrupt one (truncated/unparsable — the
//!   signature of a run killed mid-write on a non-atomic filesystem),
//!   and a complete one; corrupt records are simply re-run.
//! - **Skip eligibility.** A complete record is only reused by
//!   `--resume` when [`ExperimentJson::resumable`] accepts it: the
//!   seed and `--quick` flag must match and the record must not be
//!   [`degraded`](ExperimentJson::degraded). Everything an experiment
//!   produces is a pure function of `(seed, quick)`, so a matching
//!   record is bit-identical to what a re-run would write.
//!
//! Checkpoint traffic is observable under `harness.checkpoint.*`:
//! `saved`, `loaded`, `corrupt` and `stale` count the store's
//! decisions so `mlam-trace` can audit a resumed run.

use crate::report::Table;
use mlam_telemetry::counter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One table of an experiment, in the machine-readable `--json` form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TableJson {
    /// The table's display title.
    pub title: String,
    /// Column headers, in display order.
    pub header: Vec<String>,
    /// Rows as objects keyed by column header
    /// ([`Table::to_json_rows`]).
    pub rows: serde_json::Value,
    /// Lines printed under the rows ([`Table::notes`]), such as the
    /// table's verdict.
    #[serde(default)]
    pub notes: Vec<String>,
}

impl TableJson {
    /// Serializes a rendered [`Table`].
    pub fn from_table(table: &Table) -> TableJson {
        TableJson {
            title: table.title().to_string(),
            header: table.header().to_vec(),
            rows: table.to_json_rows(),
            notes: table.notes().to_vec(),
        }
    }
}

/// The structured result file written as `<dir>/<experiment>.json` —
/// also the unit of resumption: a complete, non-degraded record lets
/// `--resume` skip the experiment entirely.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentJson {
    /// Manifest name of the experiment.
    pub name: String,
    /// Root seed of the run that produced the record.
    pub seed: u64,
    /// Whether the reduced `--quick` parameter set was used.
    pub quick: bool,
    /// Wall-clock seconds spent in the driver.
    pub seconds: f64,
    /// The experiment failed; this is a partial record (counters and
    /// wall-clock up to the failure, no tables) kept so the rest of
    /// the run survives. Degraded records are re-run on `--resume`.
    #[serde(default)]
    pub degraded: bool,
    /// Telemetry counter increments attributable to this experiment.
    pub counters: BTreeMap<String, u64>,
    /// Rendered result tables (empty when `degraded`).
    pub tables: Vec<TableJson>,
}

impl ExperimentJson {
    /// Whether `--resume` may reuse this record instead of re-running
    /// the experiment: it must come from the same `(seed, quick)`
    /// configuration and must not be degraded.
    pub fn resumable(&self, seed: u64, quick: bool) -> bool {
        !self.degraded && self.seed == seed && self.quick == quick
    }
}

/// What [`CheckpointStore::load`] found for an experiment.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointState {
    /// No record on disk — the experiment has not run yet.
    Missing,
    /// A record exists but cannot be parsed (typically a run killed
    /// mid-write). The experiment must be re-run; the next save
    /// replaces the corrupt file.
    Corrupt,
    /// A complete record. Check [`ExperimentJson::resumable`] before
    /// skipping the experiment on its behalf.
    Complete(ExperimentJson),
}

/// Atomic, crash-safe storage of [`ExperimentJson`] records inside a
/// run directory.
///
/// # Example
///
/// ```
/// use mlam::experiments::checkpoint::{CheckpointState, CheckpointStore, ExperimentJson};
/// use std::collections::BTreeMap;
///
/// let dir = std::env::temp_dir().join(format!("mlam_ckpt_doc_{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// std::fs::create_dir_all(&dir).unwrap();
/// let store = CheckpointStore::new(&dir);
/// let record = ExperimentJson {
///     name: "demo".into(),
///     seed: 42,
///     quick: true,
///     seconds: 0.5,
///     degraded: false,
///     counters: BTreeMap::from([("oracle.example_queries".into(), 100u64)]),
///     tables: Vec::new(),
/// };
/// store.save(&record).unwrap();
/// match store.load("demo") {
///     CheckpointState::Complete(found) => {
///         assert!(found.resumable(42, true), "same seed and quick: skippable");
///         assert!(!found.resumable(43, true), "other seed: must re-run");
///         assert_eq!(found, record);
///     }
///     other => panic!("expected a complete record, got {other:?}"),
/// }
/// assert_eq!(store.load("absent"), CheckpointState::Missing);
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// A store over `dir` (the run directory). The directory must
    /// already exist; creation is the run directory's job.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into() }
    }

    /// The run directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the record for `name` lives (`<dir>/<name>.json`).
    pub fn record_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.json"))
    }

    /// Persists `record` atomically: the JSON is written to a
    /// temporary file in the same directory and renamed over
    /// `<name>.json`, so readers never observe a partial record.
    /// Counts `harness.checkpoint.saved`.
    pub fn save(&self, record: &ExperimentJson) -> io::Result<()> {
        let path = self.record_path(&record.name);
        let tmp = self.dir.join(format!(".{}.json.tmp", record.name));
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::write(&tmp, json + "\n")
            .map_err(|e| mlam_telemetry::rundir::annotate(e, "cannot write checkpoint", &tmp))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| mlam_telemetry::rundir::annotate(e, "cannot commit checkpoint", &path))?;
        counter!("harness.checkpoint.saved", 1);
        Ok(())
    }

    /// Loads the record for `name`, classifying what it finds. Counts
    /// `harness.checkpoint.loaded` for complete records and
    /// `harness.checkpoint.corrupt` for unparsable ones; a mismatched
    /// embedded name also counts as corrupt.
    pub fn load(&self, name: &str) -> CheckpointState {
        let path = self.record_path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CheckpointState::Missing,
            Err(_) => {
                counter!("harness.checkpoint.corrupt", 1);
                return CheckpointState::Corrupt;
            }
        };
        match serde_json::from_str::<ExperimentJson>(&text) {
            Ok(record) if record.name == name => {
                counter!("harness.checkpoint.loaded", 1);
                CheckpointState::Complete(record)
            }
            _ => {
                counter!("harness.checkpoint.corrupt", 1);
                CheckpointState::Corrupt
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlam_ckpt_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(name: &str, seed: u64) -> ExperimentJson {
        ExperimentJson {
            name: name.into(),
            seed,
            quick: true,
            seconds: 1.5,
            degraded: false,
            counters: BTreeMap::from([("oracle.example_queries".into(), 7u64)]),
            tables: Vec::new(),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = scratch("round_trip");
        let store = CheckpointStore::new(&dir);
        let rec = record("table9", 42);
        store.save(&rec).unwrap();
        assert_eq!(store.load("table9"), CheckpointState::Complete(rec));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_are_distinguished() {
        let dir = scratch("states");
        let store = CheckpointStore::new(&dir);
        assert_eq!(store.load("nope"), CheckpointState::Missing);
        // A truncated write — the shape a kill mid-write leaves behind
        // on filesystems without atomic rename semantics.
        std::fs::write(store.record_path("cut"), "{\"name\": \"cut\", \"se").unwrap();
        assert_eq!(store.load("cut"), CheckpointState::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_name_counts_as_corrupt() {
        let dir = scratch("renamed");
        let store = CheckpointStore::new(&dir);
        let rec = record("original", 1);
        store.save(&rec).unwrap();
        std::fs::rename(store.record_path("original"), store.record_path("moved")).unwrap();
        assert_eq!(store.load("moved"), CheckpointState::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let dir = scratch("tmpfiles");
        let store = CheckpointStore::new(&dir);
        store.save(&record("exp", 3)).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["exp.json".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_replaces_previous_record() {
        let dir = scratch("replace");
        let store = CheckpointStore::new(&dir);
        store.save(&record("exp", 1)).unwrap();
        let mut newer = record("exp", 2);
        newer.seconds = 9.0;
        store.save(&newer).unwrap();
        assert_eq!(store.load("exp"), CheckpointState::Complete(newer));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumable_requires_matching_config_and_health() {
        let rec = record("exp", 5);
        assert!(rec.resumable(5, true));
        assert!(!rec.resumable(6, true), "seed mismatch");
        assert!(!rec.resumable(5, false), "quick mismatch");
        let degraded = ExperimentJson {
            degraded: true,
            ..rec
        };
        assert!(!degraded.resumable(5, true), "degraded records re-run");
    }

    #[test]
    fn degraded_flag_defaults_to_false_in_old_records() {
        // Records written before the flag existed deserialize as
        // non-degraded.
        let json = r#"{
            "name": "old", "seed": 1, "quick": true, "seconds": 0.1,
            "counters": {}, "tables": []
        }"#;
        let rec: ExperimentJson = serde_json::from_str(json).unwrap();
        assert!(!rec.degraded);
        assert!(rec.resumable(1, true));
    }

    /// A record with counters, notes and table cells drawn from `seed`:
    /// quotes, backslashes, control characters and non-ASCII text
    /// included, so every escape path of the writer is exercised.
    fn rich_record(name: &str, seed: u64) -> ExperimentJson {
        const PIECES: [&str; 8] = ["0.95", "\"", "\\", "\n\t", "\u{1}", "Φ", "k=4, n=64", ""];
        let mut rng = StdRng::seed_from_u64(seed);
        let text = |rng: &mut StdRng| -> String {
            (0..rng.gen_range(0..4))
                .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                .collect()
        };
        let mut table = Table::new(text(&mut rng), &["model", "accuracy"]);
        for _ in 0..rng.gen_range(0..4) {
            table.row(&[text(&mut rng), text(&mut rng)]);
        }
        table.note(text(&mut rng));
        ExperimentJson {
            name: name.into(),
            seed: rng.gen(),
            quick: rng.gen(),
            seconds: rng.gen_range(0.0..1e4),
            degraded: rng.gen(),
            counters: (0..rng.gen_range(0..5))
                .map(|i| (format!("oracle.c{i}"), rng.gen()))
                .collect(),
            tables: vec![TableJson::from_table(&table)],
        }
    }

    /// Writes `bytes` as the record of `name` and loads it back.
    fn load_bytes(store: &CheckpointStore, name: &str, bytes: &[u8]) -> CheckpointState {
        std::fs::write(store.record_path(name), bytes).unwrap();
        store.load(name)
    }

    /// The saved text of `record`, as `save` writes it.
    fn saved_text(store: &CheckpointStore, record: &ExperimentJson) -> Vec<u8> {
        store.save(record).unwrap();
        std::fs::read(store.record_path(&record.name)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A record saved untouched loads as `Complete` and equal.
        #[test]
        fn untouched_records_load_complete(seed in any::<u64>()) {
            let dir = scratch("prop_untouched");
            let store = CheckpointStore::new(&dir);
            let record = rich_record("exp", seed);
            store.save(&record).unwrap();
            prop_assert_eq!(store.load("exp"), CheckpointState::Complete(record));
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Arbitrary bytes load as `Corrupt` or, if they happen to be a
        /// record of this name, `Complete`; never `Missing`, never a
        /// panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let dir = scratch("prop_bytes");
            let store = CheckpointStore::new(&dir);
            match load_bytes(&store, "exp", &bytes) {
                CheckpointState::Corrupt => {}
                CheckpointState::Complete(record) => prop_assert_eq!(record.name, "exp"),
                CheckpointState::Missing => panic!("an existing file loaded as missing"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Every truncation of a saved record is `Corrupt`, except the
        /// ones that cut only trailing whitespace.
        #[test]
        fn truncated_records_are_corrupt(seed in any::<u64>(), cut in any::<prop::sample::Index>()) {
            let dir = scratch("prop_truncated");
            let store = CheckpointStore::new(&dir);
            let record = rich_record("exp", seed);
            let text = saved_text(&store, &record);
            let body = text.trim_ascii_end().len();
            let cut = cut.index(text.len());
            let expected = if cut >= body {
                CheckpointState::Complete(record)
            } else {
                CheckpointState::Corrupt
            };
            prop_assert_eq!(load_bytes(&store, "exp", &text[..cut]), expected);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// A single-byte edit of a saved record never panics: it loads
        /// as `Corrupt` or as a `Complete` record of this name, and an
        /// edit that writes the same byte back changes nothing.
        #[test]
        fn single_byte_edits_never_panic(
            seed in any::<u64>(),
            at in any::<prop::sample::Index>(),
            byte in any::<u8>(),
        ) {
            let dir = scratch("prop_edit");
            let store = CheckpointStore::new(&dir);
            let record = rich_record("exp", seed);
            let mut text = saved_text(&store, &record);
            let at = at.index(text.len());
            let unchanged = text[at] == byte;
            text[at] = byte;
            match load_bytes(&store, "exp", &text) {
                CheckpointState::Complete(found) if unchanged => prop_assert_eq!(found, record),
                CheckpointState::Complete(found) => prop_assert_eq!(found.name, "exp"),
                CheckpointState::Corrupt => prop_assert!(!unchanged, "an unedited record is complete"),
                CheckpointState::Missing => panic!("an existing file loaded as missing"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Nesting in a record's free-form `rows` value parses up to the
        /// vendored parser's depth cap (128) and is `Corrupt` past it,
        /// whether or not the brackets close.
        #[test]
        fn deep_nesting_is_corrupt_not_a_panic(depth in 0usize..400, closed in any::<bool>()) {
            let dir = scratch("prop_nesting");
            let store = CheckpointStore::new(&dir);
            let text = format!(
                r#"{{"name": "exp", "seed": 1, "quick": true, "seconds": 1.5,
                "counters": {{"oracle.example_queries": 7}},
                "tables": [{{"title": "t", "header": [], "rows": {}null{}, "notes": []}}]}}"#,
                "[".repeat(depth),
                "]".repeat(if closed { depth } else { 0 }),
            );
            let state = load_bytes(&store, "exp", text.as_bytes());
            // The innermost `null` sits at depth `depth + 3`: the
            // record, `tables` and the table enclose the rows value.
            if closed && depth + 3 <= 128 {
                let CheckpointState::Complete(found) = state else {
                    panic!("depth {depth} is within the cap: {state:?}");
                };
                prop_assert_eq!(found.tables.len(), 1);
                prop_assert_eq!(found.counters, record("exp", 1).counters);
            } else {
                prop_assert_eq!(state, CheckpointState::Corrupt);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unbounded_nesting_is_corrupt() {
        // Far past any stack: the parser must stop at its cap.
        let dir = scratch("unbounded_nesting");
        let store = CheckpointStore::new(&dir);
        for open in ["[", "{\"a\":"] {
            let text = open.repeat(1_000_000);
            assert_eq!(
                load_bytes(&store, "exp", text.as_bytes()),
                CheckpointState::Corrupt
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
