//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **Nonlinearity sweep** — how the BR PUF interaction strength λ
//!    creates the Table II plateau;
//! 2. **Distribution shift** — the same learner trained on biased vs.
//!    uniform examples, evaluated uniformly (Section III's axis);
//! 3. **Proper vs. improper** — LTF surrogate vs. low-degree (LMN)
//!    hypothesis on the same BR PUF (Section V-B's axis);
//! 4. **Noise** — Perceptron vs. logistic regression vs. LMN under
//!    response noise: [`ResponseNoise`] label flips, not the attribute
//!    noise of the paper's footnote 1.

use crate::report::{pct, Table};
use mlam_boolean::BooleanFunction;
use mlam_learn::chow::{table_ii_procedure, ChowConfig};
use mlam_learn::dataset::LabeledSet;
use mlam_learn::distribution::ChallengeDistribution;
use mlam_learn::lmn::{lmn_learn, LmnConfig};
use mlam_learn::logistic::{LogisticConfig, LogisticRegression};
use mlam_learn::perceptron::Perceptron;
use mlam_puf::crp::collect_noisy;
use mlam_puf::noise::ResponseNoise;
use mlam_puf::{ArbiterPuf, BistableRingPuf, BrPufConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters shared by the ablations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AblationParams {
    /// BR PUF size for ablations 1 and 3.
    pub br_n: usize,
    /// Pair-strength values for the nonlinearity sweep.
    pub lambdas: Vec<f64>,
    /// Training-set size.
    pub train_size: usize,
    /// Test-set size.
    pub test_size: usize,
    /// Bias values for the distribution-shift ablation.
    pub biases: Vec<f64>,
    /// Response-noise rates for the noise ablation.
    pub noise_rates: Vec<f64>,
}

impl AblationParams {
    /// Full scale.
    pub fn paper() -> Self {
        AblationParams {
            br_n: 32,
            lambdas: vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0],
            train_size: 8000,
            test_size: 4000,
            biases: vec![0.5, 0.7, 0.9],
            noise_rates: vec![0.0, 0.05, 0.1, 0.2],
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        AblationParams {
            br_n: 16,
            lambdas: vec![0.0, 1.0, 3.0],
            train_size: 2500,
            test_size: 1500,
            biases: vec![0.5, 0.9],
            noise_rates: vec![0.0, 0.2],
        }
    }
}

/// Results of all four ablations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// (λ, LTF-surrogate test accuracy).
    pub nonlinearity: Vec<(f64, f64)>,
    /// (training bias p, uniform-test accuracy).
    pub distribution_shift: Vec<(f64, f64)>,
    /// (hypothesis name, test accuracy) on the same calibrated BR PUF.
    pub representation: Vec<(String, f64)>,
    /// (noise rate, perceptron acc, logistic acc, lmn acc).
    pub noise: Vec<(f64, f64, f64, f64)>,
}

impl AblationResult {
    /// Renders all four ablations as tables.
    pub fn to_tables(&self) -> Vec<Table> {
        let mut t1 = Table::new(
            "Ablation 1: BR PUF nonlinearity λ vs. LTF-surrogate accuracy",
            &["lambda", "accuracy [%]"],
        );
        for (l, a) in &self.nonlinearity {
            t1.row(&[format!("{l:.2}"), pct(*a)]);
        }
        let mut t2 = Table::new(
            "Ablation 2: training distribution bias vs. uniform-test accuracy (Arbiter PUF)",
            &["train bias p", "accuracy [%]"],
        );
        for (p, a) in &self.distribution_shift {
            t2.row(&[format!("{p:.2}"), pct(*a)]);
        }
        let mut t3 = Table::new(
            "Ablation 3: proper (LTF) vs. improper (low-degree) hypothesis on one BR PUF",
            &["hypothesis", "accuracy [%]"],
        );
        for (name, a) in &self.representation {
            t3.row(&[name.clone(), pct(*a)]);
        }
        let mut t4 = Table::new(
            "Ablation 4: response noise vs. learner accuracy (Arbiter PUF)",
            &[
                "noise rate",
                "Perceptron [%]",
                "Logistic [%]",
                "LMN(d=1) [%]",
            ],
        );
        for (r, p, l, m) in &self.noise {
            t4.row(&[format!("{r:.2}"), pct(*p), pct(*l), pct(*m)]);
        }
        vec![t1, t2, t3, t4]
    }
}

/// Runs all four ablations.
pub fn run_ablations<R: Rng + ?Sized>(params: &AblationParams, rng: &mut R) -> AblationResult {
    let _span = mlam_telemetry::span("experiment.ablations");
    // 1. Nonlinearity sweep.
    let mut nonlinearity = Vec::new();
    for &lambda in &params.lambdas {
        let cfg = BrPufConfig {
            pair_strength: lambda,
            triple_strength: 0.0,
            noise_sigma: 0.0,
        };
        let puf = BistableRingPuf::sample(params.br_n, cfg, rng);
        let train = LabeledSet::sample_par(&puf, params.train_size, rng);
        let test = LabeledSet::sample_par(&puf, params.test_size, rng);
        let cell = table_ii_procedure(&train, &test, ChowConfig::default(), 40);
        nonlinearity.push((lambda, cell.test_accuracy));
    }

    // 2. Distribution shift: train on biased product examples, test
    // uniformly, same Arbiter PUF and learner.
    let mut distribution_shift = Vec::new();
    let apuf = ArbiterPuf::sample(32, 0.0, rng);
    let uniform_test = LabeledSet::sample_par(&apuf, params.test_size, rng);
    for &p in &params.biases {
        let dist = if (p - 0.5).abs() < 1e-9 {
            ChallengeDistribution::Uniform
        } else {
            ChallengeDistribution::ProductBiased(p)
        };
        let mut train = LabeledSet::new(32);
        for _ in 0..params.train_size {
            let x = dist.sample(32, rng);
            let y = apuf.eval(&x);
            train.push(x, y);
        }
        let out = Perceptron::new(60)
            .train_with(mlam_learn::features::ArbiterPhiFeatures::new(32), &train);
        distribution_shift.push((p, uniform_test.accuracy_of_par(&out.model)));
    }

    // 3. Proper vs. improper on the calibrated BR PUF.
    let mut representation = Vec::new();
    let br = BistableRingPuf::sample(params.br_n, BrPufConfig::calibrated(params.br_n), rng);
    let train = LabeledSet::sample_par(&br, params.train_size, rng);
    let test = LabeledSet::sample_par(&br, params.test_size, rng);
    let proper = table_ii_procedure(&train, &test, ChowConfig::default(), 40);
    representation.push(("proper: Chow LTF + Perceptron".into(), proper.test_accuracy));
    let improper = lmn_learn(&train, LmnConfig::new(2));
    representation.push((
        "improper: LMN degree-2 spectrum".into(),
        test.accuracy_of_par(&improper.hypothesis),
    ));

    // 4. Noise tolerance.
    let mut noise = Vec::new();
    let base = ArbiterPuf::sample(24, 0.0, rng);
    let clean_test = LabeledSet::sample_par(&base, params.test_size, rng);
    for &rate in &params.noise_rates {
        let noisy = ResponseNoise::new(base.clone(), rate);
        let set = collect_noisy(&noisy, params.train_size, rng);
        let train = LabeledSet::from_pairs(24, set.to_labeled());
        let phi = mlam_learn::features::ArbiterPhiFeatures::new(24);
        let perc = Perceptron::new(40).train_with(phi, &train);
        let logi = LogisticRegression::new(LogisticConfig::default()).train_phi(&train, rng);
        let lmn = lmn_learn(&train, LmnConfig::new(1));
        noise.push((
            rate,
            clean_test.accuracy_of_par(&perc.model),
            clean_test.accuracy_of_par(&logi.model),
            clean_test.accuracy_of_par(&lmn.hypothesis),
        ));
    }

    AblationResult {
        nonlinearity,
        distribution_shift,
        representation,
        noise,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn result() -> AblationResult {
        let mut rng = StdRng::seed_from_u64(1);
        run_ablations(&AblationParams::quick(), &mut rng)
    }

    #[test]
    fn nonlinearity_degrades_ltf_accuracy_monotonically_ish() {
        let r = result();
        let first = r.nonlinearity.first().expect("points").1;
        let last = r.nonlinearity.last().expect("points").1;
        assert!(first > 0.93, "λ=0 must be ≈LTF-learnable, got {first}");
        assert!(
            last < first - 0.05,
            "strong λ must hurt the LTF surrogate: {first} -> {last}"
        );
    }

    #[test]
    fn distribution_shift_hurts_uniform_accuracy() {
        let r = result();
        let uniform = r.distribution_shift.first().expect("points").1;
        let biased = r.distribution_shift.last().expect("points").1;
        assert!(uniform > 0.9, "uniform training accuracy {uniform}");
        assert!(
            biased < uniform,
            "training on p=0.9 must transfer worse: {biased} vs {uniform}"
        );
    }

    #[test]
    fn noise_hurts_vanilla_perceptron_more_than_logistic() {
        let r = result();
        let (_, p_clean, l_clean, _) = r.noise.first().expect("points");
        let (_, p_noisy, l_noisy, _) = r.noise.last().expect("points");
        assert!(p_clean > &0.9 && l_clean > &0.9);
        // Logistic regression degrades more gracefully than the
        // mistake-driven perceptron at 20 % label noise.
        assert!(
            l_noisy + 0.03 >= *p_noisy,
            "logistic {l_noisy} vs perceptron {p_noisy}"
        );
    }

    #[test]
    fn tables_render() {
        let r = result();
        let tables = r.to_tables();
        assert_eq!(tables.len(), 4);
        assert!(tables[0].to_string().contains("lambda"));
    }
}
