//! Deterministic learning-curve recording: accuracy-vs-queries
//! checkpoints emitted from inside training loops.
//!
//! The paper's three-axis adversary model prices attacks in *queries*,
//! so a learner's trajectory is only meaningful against the exact
//! query budget it has spent. This module provides the recording
//! substrate:
//!
//! - [`CurvePoint`] — one checkpoint: iteration/epoch, exact query
//!   counts (sourced from the `oracle.query.*` budget counters of the
//!   active [`CounterScope`]), training accuracy, optional holdout
//!   accuracy, and the raw counter deltas the queries were derived
//!   from.
//! - [`CurveRecorder`] — the one store of a run's checkpoints. The
//!   session writes it out as the `curves.jsonl` run artifact, and
//!   `mlam-monitor` serves the same lines live at `/curves`.
//! - [`enter_series`] — installs a thread-local recording context
//!   (series name + recorder) around one experiment driver, exactly
//!   like [`CounterScope::enter`] installs counter attribution.
//! - [`checkpoint`] — called from training loops; a no-op costing one
//!   thread-local read when no context is installed, so instrumented
//!   loops are zero-cost in ordinary library use.
//! - [`should_checkpoint`] — the shared log-spaced schedule (powers of
//!   two plus the final iteration) that keeps recording overhead and
//!   artifact size bounded on long runs.
//!
//! Determinism: checkpoints are emitted from the experiment's own
//! thread in loop order, and query counts come from the deterministic
//! counter-scope totals, so `curves.jsonl` is byte-identical across
//! thread counts and monitor on/off — the same firewall contract as
//! `metrics.jsonl`. The curve path registers no counters and never
//! touches the telemetry registry.
//!
//! [`CounterScope`]: crate::CounterScope
//! [`CounterScope::enter`]: crate::CounterScope::enter

use crate::metrics::scope_counter_totals;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// File name of the curves artifact inside a run directory.
pub const CURVES_FILE: &str = "curves.jsonl";

/// Counter-name prefixes captured into each checkpoint's `counters`
/// map (and from which the query budget is derived).
pub const CURVE_COUNTER_PREFIXES: &[&str] = &["oracle.", "locking."];

/// One checkpoint on a learning curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Which instrumented loop emitted the point (`perceptron`,
    /// `sat_attack`, …) — several learners may run inside one series.
    pub label: String,
    /// 1-based iteration / epoch / round / DIP count within the loop.
    pub iteration: u64,
    /// Exact logical queries spent so far in the enclosing counter
    /// scope (see [`query_budget`] for the derivation).
    pub queries: u64,
    /// Exact raw oracle reads so far (≥ `queries` when an unreliable
    /// oracle retries or majority-votes; equal otherwise).
    pub raw_reads: u64,
    /// Training accuracy at this checkpoint, in `[0, 1]`.
    pub train_acc: f64,
    /// Holdout accuracy, when the loop evaluates one (most loops
    /// don't — the per-experiment holdout lives in the tables).
    pub holdout_acc: Option<f64>,
    /// The scope counter deltas (filtered to
    /// [`CURVE_COUNTER_PREFIXES`]) the budget was computed from.
    pub counters: BTreeMap<String, u64>,
}

/// One `curves.jsonl` line: a [`CurvePoint`] tagged with its series
/// name. Kept flat (fields repeated rather than nested) so each line
/// is a plain one-level JSON object.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CurveLine {
    /// The series (experiment) name the point belongs to.
    pub series: String,
    /// See [`CurvePoint::label`].
    pub label: String,
    /// See [`CurvePoint::iteration`].
    pub iteration: u64,
    /// See [`CurvePoint::queries`].
    pub queries: u64,
    /// See [`CurvePoint::raw_reads`].
    pub raw_reads: u64,
    /// See [`CurvePoint::train_acc`].
    pub train_acc: f64,
    /// See [`CurvePoint::holdout_acc`].
    pub holdout_acc: Option<f64>,
    /// See [`CurvePoint::counters`].
    pub counters: BTreeMap<String, u64>,
}

impl CurveLine {
    /// Splits the line into its series name and point.
    pub fn into_parts(self) -> (String, CurvePoint) {
        (
            self.series,
            CurvePoint {
                label: self.label,
                iteration: self.iteration,
                queries: self.queries,
                raw_reads: self.raw_reads,
                train_acc: self.train_acc,
                holdout_acc: self.holdout_acc,
                counters: self.counters,
            },
        )
    }

    /// Builds a line from a series name and a point.
    pub fn from_parts(series: &str, point: &CurvePoint) -> CurveLine {
        CurveLine {
            series: series.to_string(),
            label: point.label.clone(),
            iteration: point.iteration,
            queries: point.queries,
            raw_reads: point.raw_reads,
            train_acc: point.train_acc,
            holdout_acc: point.holdout_acc,
            counters: point.counters.clone(),
        }
    }
}

/// The store behind the `curves.jsonl` artifact: collects every
/// checkpoint per series. Each series is fed from one thread, but
/// distinct series may record in parallel.
#[derive(Default)]
pub struct CurveRecorder {
    series: Mutex<BTreeMap<String, Vec<CurvePoint>>>,
}

impl CurveRecorder {
    /// An empty recorder.
    pub fn new() -> CurveRecorder {
        CurveRecorder::default()
    }

    /// A copy of everything recorded so far, keyed by series name,
    /// points in emission order.
    pub fn series(&self) -> BTreeMap<String, Vec<CurvePoint>> {
        self.series.lock().expect("curve recorder poisoned").clone()
    }

    fn push(&self, series: &str, point: CurvePoint) {
        self.series
            .lock()
            .expect("curve recorder poisoned")
            .entry(series.to_owned())
            .or_default()
            .push(point);
    }
}

/// Writes a series map as JSONL: one [`CurveLine`] per checkpoint,
/// series in name order (the map's), points in emission order.
pub fn write_curves_jsonl<W: io::Write>(
    mut out: W,
    series: &BTreeMap<String, Vec<CurvePoint>>,
) -> io::Result<()> {
    let to_io_err = |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e);
    for (name, points) in series {
        for point in points {
            let line =
                serde_json::to_string(&CurveLine::from_parts(name, point)).map_err(to_io_err)?;
            writeln!(out, "{line}")?;
        }
    }
    Ok(())
}

/// Parses a `curves.jsonl` file back into a series map. Errors carry
/// the path and 1-based line number of the offending line.
pub fn read_curves_jsonl(path: &Path) -> io::Result<BTreeMap<String, Vec<CurvePoint>>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| crate::rundir::annotate(e, "cannot read", path))?;
    let mut series: BTreeMap<String, Vec<CurvePoint>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed: CurveLine = serde_json::from_str(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), lineno + 1),
            )
        })?;
        let (name, point) = parsed.into_parts();
        series.entry(name).or_default().push(point);
    }
    Ok(series)
}

/// The thread-local recording context installed by [`enter_series`].
struct SeriesContext {
    name: Arc<str>,
    recorder: Arc<CurveRecorder>,
}

thread_local! {
    static CURVE_CONTEXT: RefCell<Option<SeriesContext>> = const { RefCell::new(None) };
}

/// RAII guard that keeps a curve-recording context installed on one
/// thread; recording reverts to the previous context (usually none)
/// when it drops.
pub struct CurveSeriesGuard {
    prev: Option<SeriesContext>,
}

impl Drop for CurveSeriesGuard {
    fn drop(&mut self) {
        CURVE_CONTEXT.with(|slot| {
            *slot.borrow_mut() = self.prev.take();
        });
    }
}

/// Installs a recording context on the current thread: checkpoints
/// emitted while the guard lives are tagged with `series` and recorded
/// into `recorder`. Install it on the same thread that runs the
/// experiment driver (next to the [`crate::CounterScope`] guard), so
/// the query totals read at each checkpoint are the experiment's own.
pub fn enter_series(series: &str, recorder: Arc<CurveRecorder>) -> CurveSeriesGuard {
    CURVE_CONTEXT.with(|slot| {
        let prev = slot.borrow_mut().replace(SeriesContext {
            name: Arc::from(series),
            recorder,
        });
        CurveSeriesGuard { prev }
    })
}

/// Whether a recording context is installed on this thread. Training
/// loops gate any checkpoint-only work (extra accuracy scans, margin
/// tracking) behind this — one thread-local read when disabled.
pub fn recording() -> bool {
    CURVE_CONTEXT.with(|slot| slot.borrow().is_some())
}

/// The shared log-spaced checkpoint schedule: record at every
/// power-of-two iteration and at the final one. `iteration` is
/// 1-based; 0 never checkpoints.
pub fn should_checkpoint(iteration: u64, last: u64) -> bool {
    iteration > 0 && (iteration == last || iteration.is_power_of_two())
}

/// Derives `(queries, raw_reads)` from scope counter totals.
///
/// `oracle.query.logical` / `oracle.query.raw_reads` (the unreliable
/// oracle's budget accounting) are authoritative when present; the
/// plain `FunctionOracle` counters (`oracle.example_queries` +
/// `oracle.membership_queries`) are the base otherwise — when both
/// exist the plain counters double-count queries the unreliable
/// wrapper already metered, so they are ignored. SAT/AppSAT oracle
/// traffic (`locking.*.dips`, `locking.appsat.random_queries`) is
/// metered at the attack layer and added on top of either base.
pub fn query_budget(totals: &BTreeMap<String, u64>) -> (u64, u64) {
    let get = |name: &str| totals.get(name).copied().unwrap_or(0);
    let logical = get("oracle.query.logical");
    let raw = get("oracle.query.raw_reads");
    let base = if logical > 0 {
        logical
    } else {
        get("oracle.example_queries") + get("oracle.membership_queries")
    };
    let attack = get("locking.sat_attack.dips")
        + get("locking.appsat.dips")
        + get("locking.appsat.random_queries");
    let queries = base + attack;
    let raw_reads = if raw > 0 { raw + attack } else { queries };
    (queries, raw_reads)
}

/// Records one checkpoint into the recorder of the context installed
/// on this thread. No-op (one thread-local read) when none is
/// installed.
///
/// Query counts are read non-destructively from the active
/// [`crate::CounterScope`] at call time, so they are exact up to the
/// increment preceding the call.
pub fn checkpoint(label: &str, iteration: u64, train_acc: f64, holdout_acc: Option<f64>) {
    CURVE_CONTEXT.with(|slot| {
        let slot = slot.borrow();
        let Some(context) = slot.as_ref() else {
            return;
        };
        let counters = scope_counter_totals(CURVE_COUNTER_PREFIXES).unwrap_or_default();
        let (queries, raw_reads) = query_budget(&counters);
        let point = CurvePoint {
            label: label.to_string(),
            iteration,
            queries,
            raw_reads,
            train_acc,
            holdout_acc,
            counters,
        };
        context.recorder.push(&context.name, point);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CounterScope;

    #[test]
    fn checkpoint_without_context_is_a_no_op() {
        assert!(!recording());
        checkpoint("orphan", 1, 0.5, None);
        // Nothing to assert beyond "did not panic": no context, no recorder.
        assert!(!recording());
    }

    #[test]
    fn checkpoints_carry_exact_scope_query_totals() {
        let recorder = Arc::new(CurveRecorder::new());
        let scope = CounterScope::new();
        {
            let _counters = scope.enter();
            let _curves = enter_series("test_curves.exp_a", Arc::clone(&recorder));
            assert!(recording());
            crate::counter_handle("oracle.example_queries").add(40);
            crate::counter_handle("oracle.membership_queries").add(2);
            crate::counter_handle("learn.perceptron.epochs").add(7); // filtered out
            checkpoint("perceptron", 1, 0.75, None);
            crate::counter_handle("oracle.example_queries").add(60);
            checkpoint("perceptron", 2, 0.9, Some(0.85));
        }
        assert!(!recording());
        let series = recorder.series();
        let points = &series["test_curves.exp_a"];
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].queries, 42);
        assert_eq!(points[0].raw_reads, 42);
        assert_eq!(points[0].train_acc, 0.75);
        assert_eq!(points[0].holdout_acc, None);
        assert!(!points[0].counters.contains_key("learn.perceptron.epochs"));
        assert_eq!(points[1].queries, 102);
        assert_eq!(points[1].iteration, 2);
        assert_eq!(points[1].holdout_acc, Some(0.85));
    }

    #[test]
    fn unreliable_budget_counters_take_precedence() {
        // Under UnreliableOracle wrapping, the inner FunctionOracle
        // still bumps example/membership counters — the logical budget
        // must not double-count them.
        let mut totals = BTreeMap::new();
        totals.insert("oracle.query.logical".to_string(), 100);
        totals.insert("oracle.query.raw_reads".to_string(), 130);
        totals.insert("oracle.example_queries".to_string(), 100);
        assert_eq!(query_budget(&totals), (100, 130));

        let mut plain = BTreeMap::new();
        plain.insert("oracle.example_queries".to_string(), 64);
        plain.insert("oracle.membership_queries".to_string(), 8);
        assert_eq!(query_budget(&plain), (72, 72));

        let mut attack = BTreeMap::new();
        attack.insert("locking.sat_attack.dips".to_string(), 5);
        assert_eq!(query_budget(&attack), (5, 5));

        let mut appsat = BTreeMap::new();
        appsat.insert("oracle.query.logical".to_string(), 10);
        appsat.insert("oracle.query.raw_reads".to_string(), 12);
        appsat.insert("locking.appsat.dips".to_string(), 3);
        appsat.insert("locking.appsat.random_queries".to_string(), 32);
        assert_eq!(query_budget(&appsat), (45, 47));
    }

    #[test]
    fn series_contexts_nest_and_restore() {
        let outer = Arc::new(CurveRecorder::new());
        let inner = Arc::new(CurveRecorder::new());
        let _outer_guard = enter_series("test_curves.outer", Arc::clone(&outer));
        checkpoint("a", 1, 0.1, None);
        {
            let _inner_guard = enter_series("test_curves.inner", Arc::clone(&inner));
            checkpoint("b", 1, 0.2, None);
        }
        checkpoint("c", 2, 0.3, None);
        drop(_outer_guard);
        assert_eq!(outer.series()["test_curves.outer"].len(), 2);
        assert_eq!(inner.series()["test_curves.inner"].len(), 1);
    }

    #[test]
    fn log_spaced_schedule_hits_powers_of_two_and_the_end() {
        let hits: Vec<u64> = (1..=20).filter(|&i| should_checkpoint(i, 20)).collect();
        assert_eq!(hits, vec![1, 2, 4, 8, 16, 20]);
        assert!(!should_checkpoint(0, 20));
        assert!(should_checkpoint(1, 1));
        // A power-of-two final iteration is not duplicated by the
        // schedule itself (callers emit each iteration at most once).
        assert!(should_checkpoint(16, 16));
    }

    #[test]
    fn curves_jsonl_round_trips() {
        let mut series: BTreeMap<String, Vec<CurvePoint>> = BTreeMap::new();
        series.insert(
            "exp_b".to_string(),
            vec![CurvePoint {
                label: "logistic".to_string(),
                iteration: 4,
                queries: 2000,
                raw_reads: 2600,
                train_acc: 0.875,
                holdout_acc: Some(0.75),
                counters: [("oracle.query.logical".to_string(), 2000)]
                    .into_iter()
                    .collect(),
            }],
        );
        series.insert(
            "exp_a".to_string(),
            vec![CurvePoint {
                label: "perceptron".to_string(),
                iteration: 1,
                queries: 64,
                raw_reads: 64,
                train_acc: 0.5,
                holdout_acc: None,
                counters: BTreeMap::new(),
            }],
        );
        let mut buf = Vec::new();
        write_curves_jsonl(&mut buf, &series).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        // Series in name order: exp_a's line first.
        let first = text.lines().next().unwrap();
        assert!(first.contains("exp_a"), "got: {first}");

        let dir = std::env::temp_dir().join(format!("mlam_curves_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CURVES_FILE);
        std::fs::write(&path, &buf).unwrap();
        let loaded = read_curves_jsonl(&path).unwrap();
        assert_eq!(loaded, series);

        // Writing what was read reproduces the bytes exactly.
        let mut again = Vec::new();
        write_curves_jsonl(&mut again, &loaded).unwrap();
        assert_eq!(again, buf);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_curve_lines_report_path_and_line() {
        let dir = std::env::temp_dir().join(format!("mlam_curves_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CURVES_FILE);
        std::fs::write(&path, "{\"not\": \"a curve line\"}\n").unwrap();
        let err = read_curves_jsonl(&path).expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains("curves.jsonl:1"), "got: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
