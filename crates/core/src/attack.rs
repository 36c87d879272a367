//! A uniform attack harness: run any learner against any target under
//! an explicit adversary model and collect a comparable report.

use crate::adversary::AdversaryModel;
use mlam_boolean::{BooleanFunction, LabeledSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// The outcome of one attack run, annotated with the adversary model it
/// operated in — so two reports can be checked for comparability before
/// their numbers are compared (the paper's core discipline).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackReport {
    /// Human-readable learner name.
    pub learner: String,
    /// The setting the attack ran in.
    pub setting: AdversaryModel,
    /// Test accuracy reached.
    pub accuracy: f64,
    /// Oracle interactions consumed (examples and/or queries).
    pub queries: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Telemetry counter increments observed while the learner ran
    /// (e.g. `learn.perceptron.epochs`, `sat.conflicts`). Empty when
    /// the learner touched no instrumented code path.
    pub metrics: BTreeMap<String, u64>,
}

impl AttackReport {
    /// Whether this report's numbers may be compared with `other`'s —
    /// true only when the two settings are mutually comparable.
    pub fn comparable_with(&self, other: &AttackReport) -> bool {
        self.setting.comparability(&other.setting).is_comparable()
            && other.setting.comparability(&self.setting).is_comparable()
    }
}

/// Runs a training-set-based learner against a target and reports in
/// the given setting.
///
/// `learner` maps the training set to a hypothesis; the report's query
/// count is the training-set size.
///
/// # Panics
///
/// Panics if `test` is empty.
pub fn run_example_attack<F, L, H>(
    name: &str,
    setting: AdversaryModel,
    train: &LabeledSet,
    test: &LabeledSet,
    learner: L,
) -> AttackReport
where
    F: ?Sized,
    L: FnOnce(&LabeledSet) -> H,
    H: BooleanFunction + Sync,
{
    let span = mlam_telemetry::span("attack.example")
        .attr("learner", name)
        .attr("train", train.len());
    let before = mlam_telemetry::snapshot();
    let started = Instant::now();
    let hypothesis = learner(train);
    let seconds = started.elapsed().as_secs_f64();
    let metrics = mlam_telemetry::snapshot().counter_deltas_since(&before);
    drop(span);
    AttackReport {
        learner: name.to_string(),
        setting,
        accuracy: test.accuracy_of(&hypothesis),
        queries: train.len() as u64,
        seconds,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryModel;
    use mlam_boolean::LinearThreshold;
    use mlam_learn::perceptron::Perceptron;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn harness_reports_accuracy_and_cost() {
        let mut rng = StdRng::seed_from_u64(1);
        let target = LinearThreshold::random(16, &mut rng);
        let train = LabeledSet::sample_par(&target, 1500, &mut rng);
        let test = LabeledSet::sample_par(&target, 1000, &mut rng);
        let report = run_example_attack::<LinearThreshold, _, _>(
            "perceptron",
            AdversaryModel::uniform_example_attack(),
            &train,
            &test,
            |tr| Perceptron::new(100).train(tr).model,
        );
        assert!(report.accuracy > 0.9, "{report:?}");
        assert_eq!(report.queries, 1500);
        assert!(report.seconds >= 0.0);
        // The perceptron's instrumentation must show up in the report.
        assert!(
            report.metrics.contains_key("learn.perceptron.epochs"),
            "{:?}",
            report.metrics
        );
    }

    #[test]
    fn comparability_gate() {
        let a = AttackReport {
            learner: "x".into(),
            setting: AdversaryModel::uniform_example_attack(),
            accuracy: 0.9,
            queries: 10,
            seconds: 0.0,
            metrics: BTreeMap::new(),
        };
        let mut b = a.clone();
        assert!(a.comparable_with(&b));
        b.setting = AdversaryModel::membership_query_attack();
        assert!(!a.comparable_with(&b));
    }
}
