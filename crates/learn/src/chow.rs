//! Chow-parameter LTF reconstruction — the paper's Table II procedure.
//!
//! Section V-A.1: *if* BR PUFs were (close to) LTFs, then by the
//! Chow-parameters theorem of De–Diakonikolas–Feldman–Servedio \[25\] an
//! LTF `f′` built from approximated Chow parameters would approximate
//! the device arbitrarily well. The paper constructs `f′` from CRPs,
//! relabels the challenges with `f′`, trains a Perceptron on the result
//! and measures accuracy against the device — the plateau in Table II
//! falsifies the LTF hypothesis.
//!
//! [`ChowReconstruction`] implements the construction of `f′` (Chow
//! estimates, plus an optional boosting-style reweighting refinement in
//! the spirit of \[25\]), and [`table_ii_procedure`] packages the paper's
//! full experiment step.

use crate::perceptron::{Perceptron, PerceptronOutcome};
use mlam_boolean::ltf::{ChowParameters, LinearThreshold};
use mlam_boolean::{BitVec, BooleanFunction, LabeledSet};

/// Configuration for Chow-parameter LTF reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChowConfig {
    /// Rounds of multiplicative reweighting refinement (0 = plain Chow).
    pub refine_rounds: usize,
    /// Step size of the refinement.
    pub refine_step: f64,
}

impl Default for ChowConfig {
    fn default() -> Self {
        ChowConfig {
            refine_rounds: 8,
            refine_step: 0.5,
        }
    }
}

/// Chow-parameter LTF reconstruction from labeled examples.
#[derive(Clone, Debug, Default)]
pub struct ChowReconstruction {
    config: ChowConfig,
}

impl ChowReconstruction {
    /// Creates a reconstructor.
    pub fn new(config: ChowConfig) -> Self {
        ChowReconstruction { config }
    }

    /// Builds the surrogate LTF `f′` from a labeled sample.
    ///
    /// Starts from the raw Chow vector (`weights = f̂({i})`,
    /// `θ = −f̂(∅)`) and then runs a few rounds of the
    /// reweighting scheme of \[25\] (adjust weights toward the
    /// chow-parameter mismatch of the current candidate), which provably
    /// converges to an ε-close LTF when the source *is* an LTF.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn reconstruct(&self, data: &LabeledSet) -> LinearThreshold {
        assert!(!data.is_empty(), "cannot reconstruct from an empty sample");
        let n = data.num_inputs();
        let target_chow = ChowParameters::from_data(n, data.pairs());
        let mut weights = target_chow.degree_one.clone();
        let mut theta = -target_chow.constant;

        for round in 0..self.config.refine_rounds {
            let candidate = LinearThreshold::new(weights.clone(), theta);
            // Chow parameters of the candidate over the same sample's
            // challenges (self-labelled).
            let relabeled: Vec<(BitVec, bool)> = data
                .pairs()
                .iter()
                .map(|(x, _)| (x.clone(), candidate.eval(x)))
                .collect();
            let cand_chow = ChowParameters::from_data(n, &relabeled);
            // Move the parameters toward the target's Chow vector.
            let mut max_gap = 0.0f64;
            for (i, w) in weights.iter_mut().enumerate() {
                let gap = target_chow.degree_one[i] - cand_chow.degree_one[i];
                *w += self.config.refine_step * gap;
                max_gap = max_gap.max(gap.abs());
            }
            let gap0 = target_chow.constant - cand_chow.constant;
            theta -= self.config.refine_step * gap0;
            // Learning-curve checkpoint at log-spaced refinement
            // rounds: accuracy of the just-updated surrogate against
            // the device labels (recording runs only).
            if mlam_telemetry::curves::recording()
                && mlam_telemetry::curves::should_checkpoint(
                    round as u64 + 1,
                    self.config.refine_rounds as u64,
                )
            {
                let refined = LinearThreshold::new(weights.clone(), theta);
                mlam_telemetry::curves::checkpoint(
                    "chow",
                    round as u64 + 1,
                    data.accuracy_of(&refined),
                    None,
                );
            }
            if max_gap.max(gap0.abs()) < 1e-3 {
                break;
            }
        }
        LinearThreshold::new(weights, theta)
    }
}

/// Result of the Table II procedure for one `(n, #CRP)` cell.
#[derive(Clone, Debug)]
pub struct TableIiCell {
    /// The surrogate LTF `f′` built from the Chow parameters.
    pub surrogate: LinearThreshold,
    /// Perceptron outcome on the `f′`-relabeled training set.
    pub perceptron: PerceptronOutcome<crate::features::PlusMinusFeatures>,
    /// Accuracy of the trained model on the held-out *device* CRPs —
    /// the number reported in Table II.
    pub test_accuracy: f64,
}

/// Runs one cell of the paper's Table II experiment:
///
/// 1. approximate the Chow parameters from `train` (device CRPs),
/// 2. construct `f′`,
/// 3. relabel the training challenges with `f′`,
/// 4. train a Perceptron on the relabeled set,
/// 5. evaluate on the held-out device CRPs `test`.
///
/// If the device were an LTF, step 5 would approach 100 % as the CRP
/// budget grows; a plateau is the paper's evidence of representation
/// mismatch.
///
/// # Panics
///
/// Panics if either set is empty or arities differ.
pub fn table_ii_procedure(
    train: &LabeledSet,
    test: &LabeledSet,
    config: ChowConfig,
    perceptron_epochs: usize,
) -> TableIiCell {
    assert_eq!(train.num_inputs(), test.num_inputs(), "arity mismatch");
    assert!(!test.is_empty(), "empty test set");
    let surrogate = ChowReconstruction::new(config).reconstruct(train);
    let relabeled = train.relabeled_by(&surrogate);
    let perceptron = Perceptron::new(perceptron_epochs).train(&relabeled);
    let test_accuracy = test.accuracy_of(&perceptron.model);
    TableIiCell {
        surrogate,
        perceptron,
        test_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::FnFunction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_a_genuine_ltf_to_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(1);
        let target = LinearThreshold::random(16, &mut rng);
        let train = LabeledSet::sample_par(&target, 5000, &mut rng);
        let test = LabeledSet::sample_par(&target, 3000, &mut rng);
        let f_prime = ChowReconstruction::default().reconstruct(&train);
        let acc = test.accuracy_of(&f_prime);
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn refinement_improves_over_raw_chow() {
        let mut rng = StdRng::seed_from_u64(2);
        // Biased LTF: raw Chow is a coarse fit, refinement helps.
        let target = LinearThreshold::new(
            (0..16).map(|i| if i == 0 { 4.0 } else { 0.3 }).collect(),
            1.5,
        );
        let train = LabeledSet::sample_par(&target, 6000, &mut rng);
        let test = LabeledSet::sample_par(&target, 3000, &mut rng);
        let raw = ChowReconstruction::new(ChowConfig {
            refine_rounds: 0,
            ..Default::default()
        })
        .reconstruct(&train);
        let refined = ChowReconstruction::default().reconstruct(&train);
        let raw_acc = test.accuracy_of(&raw);
        let refined_acc = test.accuracy_of(&refined);
        assert!(
            refined_acc >= raw_acc - 0.01,
            "refined {refined_acc} vs raw {raw_acc}"
        );
        assert!(refined_acc > 0.9);
    }

    #[test]
    fn table_ii_cell_on_ltf_reaches_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(3);
        let target = LinearThreshold::random(16, &mut rng);
        let train = LabeledSet::sample_par(&target, 4000, &mut rng);
        let test = LabeledSet::sample_par(&target, 3000, &mut rng);
        let cell = table_ii_procedure(&train, &test, ChowConfig::default(), 60);
        assert!(cell.test_accuracy > 0.9, "{}", cell.test_accuracy);
    }

    #[test]
    fn table_ii_cell_on_parity_plateaus_at_chance() {
        let mut rng = StdRng::seed_from_u64(4);
        let target = FnFunction::new(12, |x: &BitVec| x.count_ones() % 2 == 1);
        let small = LabeledSet::sample_par(&target, 1000, &mut rng);
        let large = LabeledSet::sample_par(&target, 8000, &mut rng);
        let test = LabeledSet::sample_par(&target, 4000, &mut rng);
        let acc_small = table_ii_procedure(&small, &test, ChowConfig::default(), 30).test_accuracy;
        let acc_large = table_ii_procedure(&large, &test, ChowConfig::default(), 30).test_accuracy;
        // More CRPs do NOT unlock parity for an LTF surrogate.
        assert!(
            acc_small < 0.6 && acc_large < 0.6,
            "{acc_small} {acc_large}"
        );
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        ChowReconstruction::default().reconstruct(&LabeledSet::new(4));
    }
}
