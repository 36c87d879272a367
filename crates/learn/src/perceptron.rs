//! The Perceptron, with mistake counting.
//!
//! The CRP bound of Table I row 1 (Ganji et al. \[9\]) is derived from the
//! Perceptron's *mistake bound*, so the trainer here reports the number
//! of updates it performed — an experiment can check the measured
//! mistakes against the analytic bound. The pocket variant keeps the
//! best-so-far weights, which is what makes the algorithm usable on the
//! non-separable data of Table II.
//!
//! Every feature is `±1` and every weight starts at `0`, so the update
//! `w += t·φ(x)` moves each weight by exactly `±1`: every weight,
//! partial sum and score is an integer. The trainer keeps its weights as
//! `i32` and scores each example with an integer lane sum
//! ([`FeatureMatrix`]'s `margin`), which is exact in any term order.
//! The result is the one the `f64` loop gives, bit for bit: that loop's
//! sums are exact too (integers far below `2^53`), a weight `x + (−x)`
//! rounds to `+0.0` and never to `−0.0`, and so no score is ever `−0.0`
//! either. The pocket scan counts the rows with `margin · t ≤ 0` over
//! the same integer weights, the `f64` loop's count, and converts the
//! weights to `f64` only when the pocket improves; the returned model
//! holds those `f64` weights. The weights stay fixed for the whole
//! scan, so it reads each margin from byte tables built once per scan
//! ([`FeatureMatrix`]'s `errors`): one 256-entry table per 8-feature
//! tile, entry `b` the tile's signed weight sum under sign byte `b`, so
//! a row of 65 Φ features takes 9 lookups. The lookups add the same
//! integers as `margin` in another order, and each entry and partial
//! sum is a signed sum of a subset of the weights, inside the `i32`
//! bound the trainer checks.
//!
//! [`LinearModel`] counts its agreements with a labelled set on packed
//! rows: it packs 8 examples at a time with
//! [`FeatureMap::sign_words_into`] and scores them with the multi-row
//! kernel the trainers use, so no `f64` feature vector is built. Its
//! decisions are [`LinearModel::score`]'s (see its `count_agreements`).

use crate::dataset::LabeledSet;
use crate::feature_matrix::{for_each_packed_score, FeatureMatrix, SCORE_ROWS};
use crate::features::{FeatureMap, PlusMinusFeatures};
use mlam_boolean::{to_bool, BitVec, BooleanFunction};

/// A linear hypothesis over a feature map: logic 1 iff
/// `w·φ(x) ≤ 0` (matching the `χ(1) = −1` encoding).
#[derive(Clone, Debug)]
pub struct LinearModel<M> {
    map: M,
    weights: Vec<f64>,
}

impl<M: FeatureMap> LinearModel<M> {
    /// Creates a model with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != map.dimension()`.
    pub fn new(map: M, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), map.dimension(), "weight dimension mismatch");
        LinearModel { map, weights }
    }

    /// Zero-initialized model.
    pub fn zeros(map: M) -> Self {
        let d = map.dimension();
        LinearModel {
            map,
            weights: vec![0.0; d],
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The real-valued score `w·φ(x)`.
    pub fn score(&self, x: &BitVec) -> f64 {
        self.map
            .features(x)
            .iter()
            .zip(&self.weights)
            .map(|(f, w)| f * w)
            .sum()
    }
}

impl<M: FeatureMap> BooleanFunction for LinearModel<M> {
    fn num_inputs(&self) -> usize {
        self.map.num_inputs()
    }

    fn eval(&self, x: &BitVec) -> bool {
        to_bool(self.score(x))
    }

    /// Packs 8 examples at a time with [`FeatureMap::sign_words_into`]
    /// and scores them with the multi-row kernel of [`FeatureMatrix`].
    /// Each decision is [`eval`](BooleanFunction::eval)'s: the kernel
    /// adds the same `±w_j` in index order as [`score`](LinearModel::score),
    /// but from `+0.0`, where `f64`'s `Sum` starts from `−0.0`. Adding
    /// a zero to either start gives a zero, and adding `x ≠ 0` to either
    /// gives `x`, so the two sums are equal from their first nonzero
    /// term on; they can differ only in the sign of a zero score, and
    /// [`to_bool`] maps both zeros to logic 1.
    fn count_agreements(&self, data: &[(BitVec, bool)]) -> usize {
        let stride = self.weights.len().div_ceil(64);
        let row = |k: usize| k * stride..(k + 1) * stride;
        let mut words = vec![0u64; SCORE_ROWS * stride];
        let mut agreements = 0;
        for chunk in data.chunks(SCORE_ROWS) {
            for (k, (x, _)) in chunk.iter().enumerate() {
                self.map.sign_words_into(x, &mut words[row(k)]);
            }
            let signs = |k: usize| &words[row(k)];
            for_each_packed_score(chunk.len(), signs, &self.weights, |k, s| {
                agreements += usize::from(to_bool(s) == chunk[k].1);
            });
        }
        agreements
    }
}

/// Outcome of a Perceptron training run.
#[derive(Clone, Debug)]
pub struct PerceptronOutcome<M> {
    /// The trained (pocket-best) model.
    pub model: LinearModel<M>,
    /// Total number of update steps (mistakes) made.
    pub mistakes: usize,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Whether an epoch completed with zero mistakes (data separated).
    pub converged: bool,
    /// Accuracy of the returned model on the training set.
    pub training_accuracy: f64,
}

/// Perceptron trainer over a chosen feature map.
///
/// # Example
///
/// ```
/// use mlam_boolean::LinearThreshold;
/// use mlam_learn::dataset::LabeledSet;
/// use mlam_learn::perceptron::Perceptron;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let target = LinearThreshold::random(12, &mut rng);
/// let train = LabeledSet::sample(&target, 400, &mut rng);
/// let out = Perceptron::new(500).train(&train);
/// assert!(out.training_accuracy > 0.95);
/// ```
#[derive(Clone, Debug)]
pub struct Perceptron {
    max_epochs: usize,
}

impl Perceptron {
    /// Creates a trainer running at most `max_epochs` passes.
    ///
    /// # Panics
    ///
    /// Panics if `max_epochs == 0`.
    pub fn new(max_epochs: usize) -> Self {
        assert!(max_epochs > 0, "need at least one epoch");
        Perceptron { max_epochs }
    }

    /// Trains over the ±1 bit features (hypothesis = LTF over the raw
    /// input — the *proper* representation for halfspace concepts).
    pub fn train(&self, data: &LabeledSet) -> PerceptronOutcome<PlusMinusFeatures> {
        self.train_with(PlusMinusFeatures::new(data.num_inputs()), data)
    }

    /// Trains over an arbitrary feature map.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, the map's arity differs from the
    /// data's, or `dimension × max_epochs × examples` exceeds `i32::MAX`,
    /// the bound that keeps every integer weight and partial sum inside
    /// `i32`.
    pub fn train_with<M: FeatureMap + Clone>(
        &self,
        map: M,
        data: &LabeledSet,
    ) -> PerceptronOutcome<M> {
        assert!(!data.is_empty(), "cannot train on an empty set");
        assert_eq!(map.num_inputs(), data.num_inputs(), "feature map arity");
        let d = map.dimension();
        // A weight moves by at most 1 per example visited, so a partial
        // sum of `d` weights stays within `d × max_epochs × examples`.
        let bound = d
            .checked_mul(self.max_epochs)
            .and_then(|b| b.checked_mul(data.len()));
        assert!(
            bound.is_some_and(|b| i32::try_from(b).is_ok()),
            "dimension {d} × {} epochs × {} examples exceeds i32::MAX",
            self.max_epochs,
            data.len()
        );
        // Compute the feature matrix once, shared by every epoch and by
        // the pocket error scans.
        let fm = FeatureMatrix::build(&map, data);

        let mut w = vec![0i32; fm.padded_dimension()];
        let mut pocket = vec![0.0f64; d];
        let mut pocket_err = usize::MAX;
        let mut mistakes = 0usize;
        let mut epochs_run = 0usize;
        let mut converged = false;

        for _ in 0..self.max_epochs {
            epochs_run += 1;
            let mut epoch_mistakes = 0usize;
            for row in 0..fm.examples() {
                // Labels are exactly ±1.0.
                let t = fm.label(row) as i32;
                if fm.margin(row, &w) * t <= 0 {
                    fm.add_signed(row, t, &mut w);
                    epoch_mistakes += 1;
                }
            }
            mistakes += epoch_mistakes;
            let err = fm.errors(&w);
            if err < pocket_err {
                pocket_err = err;
                for (p, &wi) in pocket.iter_mut().zip(&w) {
                    *p = f64::from(wi);
                }
            }
            // Learning-curve checkpoint: the pocket error is already
            // computed every epoch, so the accuracy here is free and
            // matches the final `training_accuracy` definition.
            if mlam_telemetry::curves::recording()
                && (mlam_telemetry::curves::should_checkpoint(
                    epochs_run as u64,
                    self.max_epochs as u64,
                ) || epoch_mistakes == 0)
            {
                mlam_telemetry::curves::checkpoint(
                    "perceptron",
                    epochs_run as u64,
                    1.0 - pocket_err as f64 / fm.examples() as f64,
                    None,
                );
            }
            if epoch_mistakes == 0 {
                converged = true;
                break;
            }
        }

        mlam_telemetry::counter!("learn.perceptron.epochs", epochs_run);
        mlam_telemetry::counter!("learn.perceptron.mistakes", mistakes);
        let model = LinearModel::new(map, pocket);
        let training_accuracy = 1.0 - pocket_err as f64 / fm.examples() as f64;
        PerceptronOutcome {
            model,
            mistakes,
            epochs_run,
            converged,
            training_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ArbiterPhiFeatures;
    use mlam_boolean::{FnFunction, LinearThreshold};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_separable_ltf_exactly_on_train() {
        let mut rng = StdRng::seed_from_u64(1);
        let target = LinearThreshold::random(16, &mut rng);
        let train = LabeledSet::sample(&target, 1000, &mut rng);
        let out = Perceptron::new(500).train(&train);
        assert!(out.converged, "perceptron must converge on separable data");
        assert_eq!(out.training_accuracy, 1.0);
        assert!(out.mistakes > 0);
    }

    #[test]
    fn generalizes_to_test_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let target = LinearThreshold::random(16, &mut rng);
        let train = LabeledSet::sample(&target, 3000, &mut rng);
        let test = LabeledSet::sample(&target, 2000, &mut rng);
        let out = Perceptron::new(200).train(&train);
        assert!(
            test.accuracy_of(&out.model) > 0.95,
            "test accuracy {}",
            test.accuracy_of(&out.model)
        );
    }

    #[test]
    fn phi_features_learn_arbiter_style_targets() {
        // A target linear in Φ-space is NOT linear in raw bits, so the
        // representation choice decides learnability — Section V in
        // miniature.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 24;
        let weights: Vec<f64> = (0..=n)
            .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
            .collect();
        let w = weights.clone();
        let target = FnFunction::new(n, move |x: &BitVec| {
            let phi = ArbiterPhiFeatures::new(n).features(x);
            phi.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() <= 0.0
        });
        let train = LabeledSet::sample(&target, 4000, &mut rng);
        let test = LabeledSet::sample(&target, 2000, &mut rng);

        let phi_out = Perceptron::new(100).train_with(ArbiterPhiFeatures::new(n), &train);
        let raw_out = Perceptron::new(100).train(&train);

        let phi_acc = test.accuracy_of(&phi_out.model);
        let raw_acc = test.accuracy_of(&raw_out.model);
        assert!(phi_acc > 0.95, "phi accuracy {phi_acc}");
        assert!(
            phi_acc > raw_acc + 0.05,
            "phi {phi_acc} should clearly beat raw {raw_acc}"
        );
    }

    #[test]
    fn pocket_handles_nonseparable_data() {
        // XOR labels are not linearly separable; the pocket model must
        // still beat chance on the training set (skewed classes).
        let mut rng = StdRng::seed_from_u64(8);
        let target = FnFunction::new(6, |x: &BitVec| x.count_ones() % 2 == 1);
        let train = LabeledSet::sample(&target, 500, &mut rng);
        let out = Perceptron::new(50).train(&train);
        assert!(!out.converged);
        assert!(out.training_accuracy >= 0.5);
    }

    #[test]
    fn mistake_count_monotone_in_difficulty() {
        let mut rng = StdRng::seed_from_u64(5);
        let easy_target = LinearThreshold::new(vec![10.0, 0.1, 0.1, 0.1], 0.0);
        let easy = LabeledSet::sample(&easy_target, 500, &mut rng);
        let out_easy = Perceptron::new(100).train(&easy);
        assert!(out_easy.converged);
        // A near-degenerate margin produces more mistakes than a huge one.
        let hard_target = LinearThreshold::random(12, &mut rng);
        let hard = LabeledSet::sample(&hard_target, 500, &mut rng);
        let out_hard = Perceptron::new(100).train(&hard);
        assert!(out_hard.mistakes >= out_easy.mistakes);
    }

    #[test]
    #[should_panic(expected = "exceeds i32::MAX")]
    fn refuses_runs_whose_sums_could_leave_i32() {
        // 5 features × 2^40 epochs × 3 rows is past i32::MAX. The rows
        // are separable, so without the check the run would converge
        // within a few epochs instead of panicking.
        let mut rng = StdRng::seed_from_u64(6);
        let target = LinearThreshold::random(4, &mut rng);
        let train = LabeledSet::sample(&target, 3, &mut rng);
        Perceptron::new(1 << 40).train(&train);
    }

    #[test]
    fn linear_model_score_sign_matches_eval() {
        let map = PlusMinusFeatures::new(3);
        let m = LinearModel::new(map, vec![1.0, -1.0, 0.5, 0.0]);
        let x = BitVec::from_bools(&[false, true, false]);
        // score = 1*1 + (-1)*(-1) + 0.5*1 + 0 = 2.5 > 0 -> logic 0.
        assert_eq!(m.score(&x), 2.5);
        assert!(!m.eval(&x));
    }
}
