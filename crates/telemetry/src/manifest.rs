//! The run manifest: one serde-serializable record of an entire
//! reproduction run, written as `manifest.json` by `repro_all --json`.

use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bumped when the manifest layout changes incompatibly.
///
/// v2: added the `threads` field (worker threads used for the run).
/// v3: added the per-experiment `degraded` flag (experiment failed and
/// was recorded as a partial result instead of aborting the run).
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// Wall-clock and query accounting for one experiment in a run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// The experiment's name (its `--json` file is `<name>.json`).
    pub name: String,
    /// Wall-clock seconds spent inside the experiment driver.
    pub seconds: f64,
    /// Counter increments attributable to this experiment (snapshot
    /// delta around the driver call); zero-delta counters are omitted.
    pub counters: BTreeMap<String, u64>,
    /// The experiment failed and this record holds a partial result
    /// (wall-clock and counters up to the failure, no tables). Absent
    /// in pre-v3 manifests, which defaults to `false`.
    #[serde(default)]
    pub degraded: bool,
}

/// Everything needed to identify and compare reproduction runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// [`MANIFEST_SCHEMA_VERSION`] at the time the run was written.
    pub schema_version: u32,
    /// The binary that produced the run (e.g. `repro_all`).
    pub tool: String,
    /// Root RNG seed for the whole run.
    pub seed: u64,
    /// Whether the reduced `--quick` parameter set was used.
    pub quick: bool,
    /// Worker threads used for the run (`MLAM_THREADS`). Recorded for
    /// performance context only: results are thread-count invariant,
    /// so runs with different `threads` must agree on everything else.
    pub threads: usize,
    /// Wall-clock start of the run, Unix milliseconds.
    pub started_unix_ms: u64,
    /// Total wall-clock seconds for the run.
    pub total_seconds: f64,
    /// `(crate, version)` pairs of the workspace crates involved.
    pub crate_versions: Vec<(String, String)>,
    /// Per-experiment accounting, in execution order.
    pub experiments: Vec<ExperimentRecord>,
    /// Final process-wide metrics at the end of the run.
    pub final_metrics: MetricsSnapshot,
}

impl RunManifest {
    /// A manifest with run identity filled in and no experiments yet.
    pub fn new(tool: impl Into<String>, seed: u64, quick: bool) -> RunManifest {
        let started_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            tool: tool.into(),
            seed,
            quick,
            threads: 1,
            started_unix_ms,
            total_seconds: 0.0,
            crate_versions: Vec::new(),
            experiments: Vec::new(),
            final_metrics: MetricsSnapshot::default(),
        }
    }

    /// The total query-style counters across all experiments — handy
    /// for diffing two manifests for behavioral drift.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for exp in &self.experiments {
            for (name, delta) in &exp.counters {
                *totals.entry(name.clone()).or_insert(0) += delta;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = RunManifest::new("repro_all", 0xDA7E_2020, true);
        manifest.threads = 4;
        manifest
            .crate_versions
            .push(("mlam".into(), "0.1.0".into()));
        manifest.experiments.push(ExperimentRecord {
            name: "table1".into(),
            seconds: 1.25,
            counters: BTreeMap::from([("oracle.example_queries".into(), 2000u64)]),
            degraded: false,
        });
        manifest.total_seconds = 1.5;
        let json = serde_json::to_string_pretty(&manifest).unwrap();
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);
    }

    #[test]
    fn counter_totals_sum_across_experiments() {
        let mut manifest = RunManifest::new("t", 1, false);
        for name in ["a", "b"] {
            manifest.experiments.push(ExperimentRecord {
                name: name.into(),
                seconds: 0.0,
                counters: BTreeMap::from([("q".into(), 10u64)]),
                degraded: false,
            });
        }
        assert_eq!(manifest.counter_totals()["q"], 20);
    }
}
