//! Logistic regression with Adam — the workhorse of empirical PUF
//! modeling attacks (Rührmair et al. \[8\] attacked Arbiter and XOR
//! Arbiter PUFs with exactly this model class over Φ features).
//!
//! Each minibatch step does what a one-row `f64` loop does, bit for
//! bit, with less repeated work:
//!
//! * the batch is scored 8 rows at a time ([`FeatureMatrix::scores`]);
//! * each row's `c = t·σ` is computed once, beside its `σ`, and the
//!   batch's row words are copied once into one buffer
//!   ([`FeatureMatrix::gather`]), which the gradient kernel walks 16
//!   entries at a time ([`FeatureMatrix::grad_sub_gathered`]). Each
//!   `g[j]` still starts at `0.0` and subtracts `±c` in batch order, and
//!   `(t·±1)·σ` is exactly `±(t·σ)`;
//! * Adam divides by its bias corrections `c1 = 1 − 0.9^step` and
//!   `c2 = 1 − 0.999^step` only while they differ from `1.0`. Both round
//!   to exactly `1.0` for good, `c1` from step 356 and `c2` from step
//!   37,412, and `x / 1.0 == x` for every `x`, so a skipped division
//!   changes no bit. Both are compared at every step, so nothing rests
//!   on `powi` being monotone.

use crate::dataset::LabeledSet;
use crate::feature_matrix::FeatureMatrix;
use crate::features::{ArbiterPhiFeatures, FeatureMap};
use crate::perceptron::LinearModel;
use rand::Rng;

/// Hyperparameters for the logistic-regression trainer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogisticConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Adam step size.
    pub learning_rate: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            epochs: 60,
            learning_rate: 0.05,
            batch_size: 32,
            l2: 1e-5,
        }
    }
}

/// Outcome of a logistic-regression run.
#[derive(Clone, Debug)]
pub struct LogisticOutcome<M> {
    /// The trained model (sign of the logit).
    pub model: LinearModel<M>,
    /// Final mean training loss.
    pub final_loss: f64,
    /// Training accuracy of the final model.
    pub training_accuracy: f64,
}

/// Logistic-regression trainer.
///
/// # Example
///
/// ```
/// use mlam_learn::dataset::LabeledSet;
/// use mlam_learn::logistic::{LogisticConfig, LogisticRegression};
/// use mlam_boolean::LinearThreshold;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let target = LinearThreshold::random(16, &mut rng);
/// let train = LabeledSet::sample(&target, 800, &mut rng);
/// let out = LogisticRegression::new(LogisticConfig::default())
///     .train(&train, &mut rng);
/// assert!(out.training_accuracy > 0.95);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogisticRegression {
    config: LogisticConfig,
}

impl LogisticRegression {
    /// Creates a trainer with the given hyperparameters.
    pub fn new(config: LogisticConfig) -> Self {
        assert!(config.epochs > 0 && config.batch_size > 0);
        assert!(config.learning_rate > 0.0 && config.l2 >= 0.0);
        LogisticRegression { config }
    }

    /// Trains over the ±1 bit features.
    pub fn train<R: Rng + ?Sized>(
        &self,
        data: &LabeledSet,
        rng: &mut R,
    ) -> LogisticOutcome<crate::features::PlusMinusFeatures> {
        self.train_with(
            crate::features::PlusMinusFeatures::new(data.num_inputs()),
            data,
            rng,
        )
    }

    /// Trains over the arbiter Φ features — the standard modeling attack
    /// on (XOR) Arbiter PUFs.
    pub fn train_phi<R: Rng + ?Sized>(
        &self,
        data: &LabeledSet,
        rng: &mut R,
    ) -> LogisticOutcome<ArbiterPhiFeatures> {
        self.train_with(ArbiterPhiFeatures::new(data.num_inputs()), data, rng)
    }

    /// Trains over an arbitrary feature map with Adam on the logistic
    /// loss `ln(1 + e^{−t·w·φ(x)})` (`t = ±1`).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or arities mismatch.
    pub fn train_with<M: FeatureMap + Clone, R: Rng + ?Sized>(
        &self,
        map: M,
        data: &LabeledSet,
        rng: &mut R,
    ) -> LogisticOutcome<M> {
        assert!(!data.is_empty(), "cannot train on an empty set");
        assert_eq!(map.num_inputs(), data.num_inputs(), "feature map arity");
        let d = map.dimension();
        // One cached feature matrix shared by every epoch, minibatch,
        // and the final loss scan.
        let fm = FeatureMatrix::build(&map, data);

        let mut w = vec![0.0f64; d];
        let mut adam = Adam::new(d);

        let mut order: Vec<usize> = (0..fm.examples()).collect();
        let mut grad = vec![0.0f64; d];
        let mut cs = vec![0.0f64; self.config.batch_size];
        let mut batch_words = Vec::new();
        for epoch in 1..=self.config.epochs {
            // Shuffle the visit order each epoch.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.config.batch_size) {
                // The weights are fixed for the whole batch: score it
                // with the multi-row kernel, then turn each score into
                // its `c = t·σ` in place.
                let cs = &mut cs[..batch.len()];
                fm.scores(batch, &w, cs);
                for (c, &idx) in cs.iter_mut().zip(batch) {
                    // d/dw ln(1+e^{-t s}) = -t f σ(-t s)
                    let t = fm.label(idx);
                    let sigma = 1.0 / (1.0 + (t * *c).exp());
                    *c = t * sigma;
                }
                fm.gather(batch, &mut batch_words);
                grad.fill(0.0);
                fm.grad_sub_gathered(&batch_words, cs, &mut grad);
                adam.step(&self.config, 1.0 / batch.len() as f64, &grad, &mut w);
            }
            // Learning-curve checkpoint at log-spaced epochs. The
            // accuracy scan is recording-only and consumes no RNG, so
            // the training trajectory is untouched.
            if mlam_telemetry::curves::recording()
                && mlam_telemetry::curves::should_checkpoint(
                    epoch as u64,
                    self.config.epochs as u64,
                )
            {
                let mut correct = 0usize;
                fm.for_each_score(&w, |row, s| {
                    correct += usize::from(s * fm.label(row) > 0.0);
                });
                mlam_telemetry::curves::checkpoint(
                    "logistic",
                    epoch as u64,
                    correct as f64 / fm.examples() as f64,
                    None,
                );
            }
        }

        let mut loss = 0.0;
        let mut correct = 0usize;
        fm.for_each_score(&w, |row, s| {
            let t = fm.label(row);
            loss += ln_1p_exp(-t * s);
            correct += usize::from(s * t > 0.0);
        });
        let model = LinearModel::new(map, w);
        LogisticOutcome {
            model,
            final_loss: loss / fm.examples() as f64,
            training_accuracy: correct as f64 / fm.examples() as f64,
        }
    }
}

/// Adam's first- and second-moment decay rates.
const B1: f64 = 0.9;
const B2: f64 = 0.999;
/// Adam's guard against a zero denominator.
const EPS: f64 = 1e-8;

/// Adam's state: the two moment estimates and the steps taken.
struct Adam {
    m1: Vec<f64>,
    m2: Vec<f64>,
    step: usize,
}

impl Adam {
    fn new(d: usize) -> Self {
        Adam {
            m1: vec![0.0; d],
            m2: vec![0.0; d],
            step: 0,
        }
    }

    /// One Adam step on `w` from the summed gradient `grad`, which is
    /// scaled by `scale` and gets the L2 term added per weight. Divides
    /// by a bias correction only while it is not exactly `1.0`; both are
    /// compared at every step.
    fn step(&mut self, config: &LogisticConfig, scale: f64, grad: &[f64], w: &mut [f64]) {
        self.step += 1;
        let c1 = 1.0 - B1.powi(self.step as i32);
        let c2 = 1.0 - B2.powi(self.step as i32);
        match (c1 == 1.0, c2 == 1.0) {
            (false, false) => self.update::<true, true>(config, scale, (c1, c2), grad, w),
            (true, false) => self.update::<false, true>(config, scale, (c1, c2), grad, w),
            (false, true) => self.update::<true, false>(config, scale, (c1, c2), grad, w),
            (true, true) => self.update::<false, false>(config, scale, (c1, c2), grad, w),
        }
    }

    /// The update of every weight, dividing by `c1` only if `DIV1` and
    /// by `c2` only if `DIV2`. A correction is skipped only when it is
    /// exactly `1.0`, and `x / 1.0 == x` for every `x`.
    #[inline(always)]
    fn update<const DIV1: bool, const DIV2: bool>(
        &mut self,
        config: &LogisticConfig,
        scale: f64,
        (c1, c2): (f64, f64),
        grad: &[f64],
        w: &mut [f64],
    ) {
        for ((wi, g), (mi, vi)) in w
            .iter_mut()
            .zip(grad)
            .zip(self.m1.iter_mut().zip(self.m2.iter_mut()))
        {
            let g = g * scale + config.l2 * *wi;
            *mi = B1 * *mi + (1.0 - B1) * g;
            *vi = B2 * *vi + (1.0 - B2) * g * g;
            let mhat = if DIV1 { *mi / c1 } else { *mi };
            let vhat = if DIV2 { *vi / c2 } else { *vi };
            *wi -= config.learning_rate * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Numerically stable `ln(1 + e^z)`.
fn ln_1p_exp(z: f64) -> f64 {
    if z > 30.0 {
        z
    } else if z < -30.0 {
        0.0
    } else {
        (1.0 + z.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::{BitVec, FnFunction, LinearThreshold};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fits_random_ltf() {
        let mut rng = StdRng::seed_from_u64(1);
        let target = LinearThreshold::random(20, &mut rng);
        let train = LabeledSet::sample(&target, 2000, &mut rng);
        let test = LabeledSet::sample(&target, 1000, &mut rng);
        let out = LogisticRegression::new(LogisticConfig::default()).train(&train, &mut rng);
        assert!(out.training_accuracy > 0.97, "{}", out.training_accuracy);
        assert!(test.accuracy_of(&out.model) > 0.93);
        assert!(out.final_loss < 0.3);
    }

    #[test]
    fn phi_training_beats_raw_on_arbiter_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 24;
        let weights: Vec<f64> = (0..=n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w = weights.clone();
        let target = FnFunction::new(n, move |x: &BitVec| {
            let phi = ArbiterPhiFeatures::new(n).features(x);
            phi.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() <= 0.0
        });
        let train = LabeledSet::sample(&target, 3000, &mut rng);
        let test = LabeledSet::sample(&target, 1500, &mut rng);
        let cfg = LogisticConfig::default();
        let phi = LogisticRegression::new(cfg).train_phi(&train, &mut rng);
        let raw = LogisticRegression::new(cfg).train(&train, &mut rng);
        let phi_acc = test.accuracy_of(&phi.model);
        let raw_acc = test.accuracy_of(&raw.model);
        assert!(phi_acc > 0.95, "phi accuracy {phi_acc}");
        assert!(phi_acc > raw_acc, "phi {phi_acc} vs raw {raw_acc}");
    }

    #[test]
    fn tolerates_label_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let target = LinearThreshold::random(16, &mut rng);
        let clean = LabeledSet::sample(&target, 3000, &mut rng);
        // Flip 10 % of labels.
        let noisy_pairs: Vec<(BitVec, bool)> = clean
            .pairs()
            .iter()
            .map(|(x, y)| {
                let flip = rng.gen_bool(0.1);
                (x.clone(), *y != flip)
            })
            .collect();
        let noisy = LabeledSet::from_pairs(16, noisy_pairs);
        let test = LabeledSet::sample(&target, 1500, &mut rng);
        let out = LogisticRegression::new(LogisticConfig::default()).train(&noisy, &mut rng);
        // Unlike the vanilla perceptron, LR still recovers the concept.
        assert!(test.accuracy_of(&out.model) > 0.9);
    }

    #[test]
    fn bias_corrections_become_exactly_one() {
        // The steps from which Adam skips a division.
        let correction = |b: f64, step: i32| 1.0 - b.powi(step);
        assert_ne!(correction(B1, 355), 1.0);
        assert_eq!(correction(B1, 356), 1.0);
        assert_ne!(correction(B2, 37_411), 1.0);
        assert_eq!(correction(B2, 37_412), 1.0);
    }

    #[test]
    fn stable_log1pexp() {
        assert_eq!(ln_1p_exp(100.0), 100.0);
        assert_eq!(ln_1p_exp(-100.0), 0.0);
        assert!((ln_1p_exp(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
