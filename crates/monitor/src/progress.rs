//! Experiment progress: completed/total, throughput and ETA.
//!
//! A [`Progress`] is shared between the run loop, which reports
//! completions as checkpoints land, and the `/progress` endpoint. Under
//! `--progress` each completion also prints its own stderr line, from
//! the thread that finished the experiment. Counts are plain atomics —
//! progress never touches the telemetry registry, so enabling it
//! cannot perturb `metrics.jsonl` (see the crate-level determinism
//! firewall).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shared progress state for one run: experiments completed out of a
/// known total, with wall-clock kept since construction.
///
/// The completed count is monotone by construction ([`complete_one`]
/// only increments), which is what lets a scraper assert monotonicity
/// across `/progress` samples.
///
/// [`complete_one`]: Progress::complete_one
pub struct Progress {
    total: AtomicU64,
    completed: AtomicU64,
    started: Instant,
    /// Set when completions print: held across each increment and its
    /// stderr line, so the lines come out in count order.
    lines: Option<Mutex<()>>,
}

impl Progress {
    /// Fresh progress over `total` expected experiments (the total can
    /// grow later via [`Progress::add_total`]). With `print_lines`,
    /// every [`complete_one`] prints `mlam: <render>` to **stderr**,
    /// so stdout stays byte-identical with `--progress` on or off.
    ///
    /// [`complete_one`]: Progress::complete_one
    pub fn new(total: u64, print_lines: bool) -> Progress {
        Progress {
            total: AtomicU64::new(total),
            completed: AtomicU64::new(0),
            started: Instant::now(),
            lines: print_lines.then(|| Mutex::new(())),
        }
    }

    /// Raises the expected total by `more` (a session that runs several
    /// batches announces each one as it is scheduled).
    pub fn add_total(&self, more: u64) {
        self.total.fetch_add(more, Ordering::Relaxed);
    }

    /// Records one finished experiment, and prints its progress line
    /// when this progress prints lines. The increment and the line share
    /// one lock, so the `k`-th line printed reads `k/total` whichever
    /// worker finished first.
    pub fn complete_one(&self) {
        let Some(lines) = &self.lines else {
            self.completed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let _in_order = lines.lock().expect("a progress line panicked");
        self.completed.fetch_add(1, Ordering::Relaxed);
        eprintln!("mlam: {}", self.snapshot().render());
    }

    /// Experiments finished so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Experiments expected in total.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Wall-clock since this progress was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// A consistent point-in-time view with derived rate and ETA.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let completed = self.completed();
        let total = self.total();
        let elapsed_s = self.elapsed().as_secs_f64();
        let rate = if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        };
        let eta_s = if completed > 0 && total > completed {
            Some((total - completed) as f64 * elapsed_s / completed as f64)
        } else if total == completed && total > 0 {
            Some(0.0)
        } else {
            None
        };
        ProgressSnapshot {
            completed,
            total,
            elapsed_s,
            rate_per_s: rate,
            eta_s,
        }
    }
}

/// A serializable point-in-time view of a [`Progress`] — the payload
/// of the `/progress` endpoint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// Experiments finished.
    pub completed: u64,
    /// Experiments expected.
    pub total: u64,
    /// Wall-clock seconds since the run started.
    pub elapsed_s: f64,
    /// Completions per second over the whole run so far.
    pub rate_per_s: f64,
    /// Estimated seconds to completion (`None` until the first
    /// completion makes the rate meaningful).
    pub eta_s: Option<f64>,
}

impl ProgressSnapshot {
    /// One-line human rendering, used for the `--progress` stderr
    /// lines.
    pub fn render(&self) -> String {
        let pct = if self.total > 0 {
            self.completed as f64 / self.total as f64 * 100.0
        } else {
            0.0
        };
        let eta = match self.eta_s {
            Some(eta) => format!("ETA {eta:.1}s"),
            None => "ETA --".to_string(),
        };
        format!(
            "progress {}/{} experiments ({pct:.0}%) · {:.2}/s · {eta}",
            self.completed, self.total, self.rate_per_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_are_monotone_and_snapshot_consistent() {
        let p = Progress::new(4, false);
        assert_eq!(p.completed(), 0);
        assert_eq!(p.total(), 4);
        assert_eq!(p.snapshot().eta_s, None, "no rate before a completion");
        p.complete_one();
        p.complete_one();
        let snap = p.snapshot();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.total, 4);
        assert!(snap.rate_per_s > 0.0);
        assert!(snap.eta_s.is_some());
        p.add_total(2);
        assert_eq!(p.total(), 6);
    }

    #[test]
    fn finished_run_reports_zero_eta() {
        let p = Progress::new(2, false);
        p.complete_one();
        p.complete_one();
        assert_eq!(p.snapshot().eta_s, Some(0.0));
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let snap = ProgressSnapshot {
            completed: 3,
            total: 13,
            elapsed_s: 6.0,
            rate_per_s: 0.5,
            eta_s: Some(20.0),
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: ProgressSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let line = snap.render();
        assert!(line.contains("3/13"), "{line}");
        assert!(line.contains("ETA 20.0s"), "{line}");
    }

    #[test]
    fn concurrent_completions_all_land() {
        let p = Arc::new(Progress::new(100, true));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..25 {
                        p.complete_one();
                    }
                });
            }
        });
        assert_eq!(p.completed(), 100);
    }
}
