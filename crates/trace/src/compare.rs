//! Cross-run regression diffing.
//!
//! Two runs from the same seed and parameter set must agree *exactly*
//! on the correctness counters (oracle queries, SAT conflicts, …) —
//! any drift means the attack pipeline's behavior changed, not just
//! its speed, and is always a hard failure. Wall-clock is compared
//! per experiment against a relative threshold (default +20%) with an
//! absolute noise floor, so back-to-back runs of the `--quick` set
//! don't flap on scheduler jitter.

use mlam_telemetry::{HistogramSnapshot, RunManifest};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Tunables for [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompareOptions {
    /// Relative wall-clock regression threshold (0.2 = +20%).
    pub threshold: f64,
    /// Absolute wall-clock noise floor in seconds: smaller deltas are
    /// never flagged, whatever the ratio.
    pub min_wall_s: f64,
}

impl Default for CompareOptions {
    fn default() -> CompareOptions {
        CompareOptions {
            threshold: 0.20,
            min_wall_s: 0.1,
        }
    }
}

/// A counter whose value differs between the runs (0 = absent).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterDrift {
    /// Experiment the counter belongs to.
    pub experiment: String,
    /// The drifting counter's name.
    pub counter: String,
    /// Value in the baseline run.
    pub baseline: u64,
    /// Value in the current run.
    pub current: u64,
}

/// Wall-clock for one experiment in both runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WallDelta {
    /// Experiment name (`"(total)"` for the whole-run row).
    pub name: String,
    /// Wall-clock seconds in the baseline run.
    pub baseline_s: f64,
    /// Wall-clock seconds in the current run.
    pub current_s: f64,
    /// Beyond threshold *and* above the noise floor.
    pub regressed: bool,
    /// At least one side is a partial record from a failed experiment
    /// (`degraded: true` in its manifest). Rendered as a marker; a
    /// degraded/complete *mismatch* is additionally structure drift.
    pub degraded: bool,
}

impl WallDelta {
    /// Relative change, +0.2 = 20% slower.
    pub fn ratio(&self) -> f64 {
        if self.baseline_s <= 0.0 {
            0.0
        } else {
            self.current_s / self.baseline_s - 1.0
        }
    }
}

/// The full diff of two runs.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-experiment wall-clock, in baseline order, then a total row.
    pub wall: Vec<WallDelta>,
    /// Correctness-counter drift (always a hard failure).
    pub drift: Vec<CounterDrift>,
    /// Structural mismatches (seed, parameter set, experiment list) —
    /// these also count as drift: the runs are not comparable.
    pub structure: Vec<String>,
    /// Informational per-span latency movers (never affect the exit
    /// code; timing lives in `wall`).
    pub span_notes: Vec<String>,
}

impl CompareReport {
    /// True when the runs disagree on anything other than timing.
    pub fn has_counter_drift(&self) -> bool {
        !self.drift.is_empty() || !self.structure.is_empty()
    }

    /// True when any experiment (or the total) regressed beyond the
    /// threshold.
    pub fn has_wall_regression(&self) -> bool {
        self.wall.iter().any(|w| w.regressed)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>9}",
            "experiment", "baseline", "current", "delta"
        );
        for w in &self.wall {
            let _ = writeln!(
                out,
                "{:<18} {:>9.3}s {:>9.3}s {:>+8.1}%{}",
                w.name,
                w.baseline_s,
                w.current_s,
                w.ratio() * 100.0,
                match (w.regressed, w.degraded) {
                    (true, true) => "  REGRESSED  [degraded]",
                    (true, false) => "  REGRESSED",
                    (false, true) => "  [degraded]",
                    (false, false) => "",
                },
            );
        }
        for note in &self.structure {
            let _ = writeln!(out, "structure: {note}");
        }
        if self.drift.is_empty() {
            let _ = writeln!(out, "counters: bit-identical across runs");
        } else {
            for d in &self.drift {
                let _ = writeln!(
                    out,
                    "counter drift: {}/{}: {} -> {}",
                    d.experiment, d.counter, d.baseline, d.current
                );
            }
        }
        for note in &self.span_notes {
            let _ = writeln!(out, "span: {note}");
        }
        out
    }
}

/// The `mlam-trace compare --json` payload: everything the text
/// rendering says, machine-readable. `exit_code` mirrors the process
/// exit code (including the `--warn-only` downgrade), so a harness
/// that captured stdout but lost the status can still act on the
/// verdict — and a mismatch between the two is a bug, not a judgment
/// call.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MachineReport {
    /// `"clean"`, `"wall-regression"` or `"counter-drift"` (counter
    /// drift wins when both apply — it is the harder failure).
    pub verdict: String,
    /// The process exit code: 0 clean (or `--warn-only` wall
    /// regression), 1 wall regression, 2 counter drift.
    pub exit_code: i32,
    /// Whether `--warn-only` downgraded a wall regression to exit 0.
    pub warn_only: bool,
    /// Per-experiment wall-clock deltas, baseline order, then a
    /// `"(total)"` row.
    pub wall: Vec<WallDelta>,
    /// Per-counter drift (empty on clean runs).
    pub drift: Vec<CounterDrift>,
    /// Structural mismatches (seed, parameter set, experiment list).
    pub structure: Vec<String>,
    /// Informational span-latency movers.
    pub span_notes: Vec<String>,
}

impl CompareReport {
    /// Builds the machine-readable verdict for this report. The exit
    /// codes match the `mlam-trace` binary's contract: 2 for counter
    /// drift (never suppressed), 1 for a wall regression (0 under
    /// `warn_only`), 0 otherwise.
    pub fn machine(&self, warn_only: bool) -> MachineReport {
        let (verdict, exit_code) = if self.has_counter_drift() {
            ("counter-drift", 2)
        } else if self.has_wall_regression() {
            ("wall-regression", if warn_only { 0 } else { 1 })
        } else {
            ("clean", 0)
        };
        MachineReport {
            verdict: verdict.to_string(),
            exit_code,
            warn_only,
            wall: self.wall.clone(),
            drift: self.drift.clone(),
            structure: self.structure.clone(),
            span_notes: self.span_notes.clone(),
        }
    }
}

fn flag(baseline_s: f64, current_s: f64, opts: &CompareOptions) -> bool {
    current_s > baseline_s * (1.0 + opts.threshold) && current_s - baseline_s > opts.min_wall_s
}

/// Diffs two run manifests. See the module docs for the rules.
///
/// # Example
///
/// ```
/// use mlam_telemetry::{ExperimentRecord, RunManifest};
/// use mlam_trace::compare::{compare, CompareOptions};
///
/// let mut baseline = RunManifest::new("repro_all", 7, true);
/// baseline.experiments.push(ExperimentRecord {
///     name: "table1".into(),
///     seconds: 1.0,
///     degraded: false,
///     counters: [("oracle.example_queries".to_string(), 2000u64)].into(),
/// });
/// // Same seed, same counters, slightly different wall-clock: clean.
/// let mut current = baseline.clone();
/// current.experiments[0].seconds = 1.05;
/// let report = compare(&baseline, &current, &CompareOptions::default());
/// assert!(!report.has_counter_drift());
/// assert!(!report.has_wall_regression());
///
/// // One query fewer is behavioral drift — always a hard failure.
/// *current.experiments[0].counters.get_mut("oracle.example_queries").unwrap() -= 1;
/// assert!(compare(&baseline, &current, &CompareOptions::default()).has_counter_drift());
/// ```
pub fn compare(
    baseline: &RunManifest,
    current: &RunManifest,
    opts: &CompareOptions,
) -> CompareReport {
    let mut report = CompareReport::default();
    if baseline.seed != current.seed {
        report.structure.push(format!(
            "seed mismatch: baseline {} vs current {} (runs are not comparable)",
            baseline.seed, current.seed
        ));
    }
    if baseline.quick != current.quick {
        report.structure.push(format!(
            "parameter-set mismatch: baseline quick={} vs current quick={}",
            baseline.quick, current.quick
        ));
    }
    let current_by_name: BTreeMap<&str, &mlam_telemetry::ExperimentRecord> = current
        .experiments
        .iter()
        .map(|e| (e.name.as_str(), e))
        .collect();
    let baseline_names: BTreeSet<&str> = baseline
        .experiments
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    for exp in &current.experiments {
        if !baseline_names.contains(exp.name.as_str()) {
            report
                .structure
                .push(format!("experiment {} only in current run", exp.name));
        }
    }
    for base_exp in &baseline.experiments {
        let Some(cur_exp) = current_by_name.get(base_exp.name.as_str()) else {
            report.structure.push(format!(
                "experiment {} missing from current run",
                base_exp.name
            ));
            continue;
        };
        if base_exp.degraded != cur_exp.degraded {
            report.structure.push(format!(
                "experiment {} is degraded (partial record) in the {} run only",
                base_exp.name,
                if cur_exp.degraded {
                    "current"
                } else {
                    "baseline"
                }
            ));
        }
        report.wall.push(WallDelta {
            name: base_exp.name.clone(),
            baseline_s: base_exp.seconds,
            current_s: cur_exp.seconds,
            regressed: flag(base_exp.seconds, cur_exp.seconds, opts),
            degraded: base_exp.degraded || cur_exp.degraded,
        });
        let keys: BTreeSet<&String> = base_exp
            .counters
            .keys()
            .chain(cur_exp.counters.keys())
            .collect();
        for key in keys {
            let b = base_exp.counters.get(key).copied().unwrap_or(0);
            let c = cur_exp.counters.get(key).copied().unwrap_or(0);
            if b != c {
                report.drift.push(CounterDrift {
                    experiment: base_exp.name.clone(),
                    counter: key.clone(),
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    report.wall.push(WallDelta {
        name: "(total)".into(),
        baseline_s: baseline.total_seconds,
        current_s: current.total_seconds,
        regressed: flag(baseline.total_seconds, current.total_seconds, opts),
        degraded: false,
    });
    report
}

/// Informational span-latency movers from the two runs'
/// `metrics.jsonl` histograms: mean duration of `span.<name>.micros`
/// shifted beyond the threshold. Never affects the exit code.
pub fn span_movers(
    baseline: &BTreeMap<String, HistogramSnapshot>,
    current: &BTreeMap<String, HistogramSnapshot>,
    opts: &CompareOptions,
) -> Vec<String> {
    let mut notes = Vec::new();
    for (name, base_hist) in baseline {
        let Some(stripped) = name
            .strip_prefix("span.")
            .and_then(|n| n.strip_suffix(".micros"))
        else {
            continue;
        };
        let Some(cur_hist) = current.get(name) else {
            continue;
        };
        let (Some(base_mean), Some(cur_mean)) = (base_hist.mean(), cur_hist.mean()) else {
            continue;
        };
        let floor_us = opts.min_wall_s * 1e6;
        if cur_mean > base_mean * (1.0 + opts.threshold) && cur_mean - base_mean > floor_us {
            notes.push(format!(
                "{stripped}: mean {base_mean:.0}µs -> {cur_mean:.0}µs ({:+.1}%)",
                (cur_mean / base_mean - 1.0) * 100.0
            ));
        }
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_telemetry::ExperimentRecord;

    /// `(experiment name, wall seconds, counters)` rows for a manifest.
    type ExpSpec<'a> = (&'a str, f64, &'a [(&'a str, u64)]);

    fn manifest(seed: u64, experiments: &[ExpSpec]) -> RunManifest {
        let mut m = RunManifest::new("test", seed, true);
        for (name, seconds, counters) in experiments {
            m.experiments.push(ExperimentRecord {
                name: name.to_string(),
                seconds: *seconds,
                degraded: false,
                counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            });
            m.total_seconds += seconds;
        }
        m
    }

    #[test]
    fn identical_runs_are_clean() {
        let exps: &[ExpSpec] = &[
            ("table1", 1.0, &[("oracle.example_queries", 2000)]),
            ("locking", 2.0, &[("sat.conflicts", 333)]),
        ];
        let a = manifest(7, exps);
        let b = manifest(7, exps);
        let report = compare(&a, &b, &CompareOptions::default());
        assert!(!report.has_counter_drift());
        assert!(!report.has_wall_regression());
        assert!(report.render().contains("bit-identical"));
    }

    #[test]
    fn wall_regression_needs_threshold_and_floor() {
        let base = manifest(7, &[("table1", 1.0, &[])]);
        let opts = CompareOptions::default();
        // +50% and above the floor: regressed.
        let slow = manifest(7, &[("table1", 1.5, &[])]);
        let report = compare(&base, &slow, &opts);
        assert!(report.has_wall_regression());
        assert!(report.render().contains("REGRESSED"));
        // +15%: under the 20% threshold.
        let ok = manifest(7, &[("table1", 1.15, &[])]);
        assert!(!compare(&base, &ok, &opts).has_wall_regression());
        // +50% of a tiny experiment: under the absolute floor.
        let tiny_base = manifest(7, &[("table1", 0.010, &[])]);
        let tiny_slow = manifest(7, &[("table1", 0.015, &[])]);
        assert!(!compare(&tiny_base, &tiny_slow, &opts).has_wall_regression());
        // Getting faster is never a regression.
        let fast = manifest(7, &[("table1", 0.1, &[])]);
        assert!(!compare(&base, &fast, &opts).has_wall_regression());
    }

    #[test]
    fn counter_drift_is_detected_in_both_directions() {
        let a = manifest(7, &[("table1", 1.0, &[("oracle.example_queries", 2000)])]);
        let b = manifest(7, &[("table1", 1.0, &[("oracle.example_queries", 1999)])]);
        let report = compare(&a, &b, &CompareOptions::default());
        assert!(report.has_counter_drift());
        assert_eq!(report.drift.len(), 1);
        assert_eq!(report.drift[0].counter, "oracle.example_queries");
        // A counter present on only one side is drift too.
        let c = manifest(7, &[("table1", 1.0, &[])]);
        assert!(compare(&a, &c, &CompareOptions::default()).has_counter_drift());
        assert!(compare(&c, &a, &CompareOptions::default()).has_counter_drift());
    }

    #[test]
    fn structural_mismatches_count_as_drift() {
        let a = manifest(7, &[("table1", 1.0, &[])]);
        let seed_mismatch = manifest(8, &[("table1", 1.0, &[])]);
        assert!(compare(&a, &seed_mismatch, &CompareOptions::default()).has_counter_drift());
        let missing = manifest(7, &[]);
        assert!(compare(&a, &missing, &CompareOptions::default()).has_counter_drift());
        let extra = manifest(7, &[("table1", 1.0, &[]), ("table9", 1.0, &[])]);
        assert!(compare(&a, &extra, &CompareOptions::default()).has_counter_drift());
    }

    #[test]
    fn degraded_mismatch_is_structure_drift() {
        let a = manifest(7, &[("table1", 1.0, &[("oracle.example_queries", 500)])]);
        let mut b = a.clone();
        b.experiments[0].degraded = true;
        // A degraded record vs. a complete one: not comparable.
        let report = compare(&a, &b, &CompareOptions::default());
        assert!(report.has_counter_drift());
        assert!(report.render().contains("degraded"));
        assert!(report.wall[0].degraded);
        // Both degraded the same way (e.g. two runs of a checked-in
        // degraded baseline): comparable, marked in the rendering.
        let mut a2 = a.clone();
        a2.experiments[0].degraded = true;
        let report = compare(&a2, &b, &CompareOptions::default());
        assert!(!report.has_counter_drift());
        assert!(report.render().contains("[degraded]"));
    }

    #[test]
    fn machine_report_mirrors_the_exit_code_contract() {
        let base = manifest(7, &[("table1", 1.0, &[("oracle.example_queries", 2000)])]);

        let clean = compare(&base, &base, &CompareOptions::default()).machine(false);
        assert_eq!((clean.verdict.as_str(), clean.exit_code), ("clean", 0));

        let slow = manifest(7, &[("table1", 3.0, &[("oracle.example_queries", 2000)])]);
        let report = compare(&base, &slow, &CompareOptions::default());
        let wall = report.machine(false);
        assert_eq!(
            (wall.verdict.as_str(), wall.exit_code),
            ("wall-regression", 1)
        );
        // --warn-only changes the exit code but not the verdict.
        let warned = report.machine(true);
        assert_eq!(
            (warned.verdict.as_str(), warned.exit_code),
            ("wall-regression", 0)
        );
        assert!(warned.warn_only);

        // Counter drift wins over a simultaneous wall regression and
        // is never downgraded.
        let drift = manifest(7, &[("table1", 3.0, &[("oracle.example_queries", 1999)])]);
        let machine = compare(&base, &drift, &CompareOptions::default()).machine(true);
        assert_eq!(
            (machine.verdict.as_str(), machine.exit_code),
            ("counter-drift", 2)
        );
        assert_eq!(machine.drift.len(), 1);

        // The payload round-trips through JSON.
        let json = serde_json::to_string_pretty(&machine).unwrap();
        let back: MachineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.verdict, machine.verdict);
        assert_eq!(back.exit_code, machine.exit_code);
        assert_eq!(back.wall.len(), machine.wall.len());
    }

    #[test]
    fn span_movers_flag_mean_shifts() {
        let mut base = BTreeMap::new();
        let mut cur = BTreeMap::new();
        base.insert(
            "span.attack.micros".to_string(),
            HistogramSnapshot {
                count: 10,
                sum: 2_000_000,
                buckets: vec![(18, 10)],
            },
        );
        cur.insert(
            "span.attack.micros".to_string(),
            HistogramSnapshot {
                count: 10,
                sum: 6_000_000,
                buckets: vec![(20, 10)],
            },
        );
        // Not a span histogram: ignored.
        base.insert("other.micros".into(), HistogramSnapshot::default());
        let notes = span_movers(&base, &cur, &CompareOptions::default());
        assert_eq!(notes.len(), 1);
        assert!(notes[0].starts_with("attack:"), "{}", notes[0]);
        // Identical histograms: quiet.
        assert!(span_movers(&base, &base, &CompareOptions::default()).is_empty());
    }
}
