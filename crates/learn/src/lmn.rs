//! The LMN low-degree algorithm (Linial–Mansour–Nisan \[16\]).
//!
//! The algorithm estimates every Fourier coefficient of degree ≤ `d`
//! from uniform random examples and outputs the sign of the truncated
//! expansion. It is
//!
//! - **uniform-distribution**: the estimates are expectations under the
//!   uniform measure (Section III of the paper),
//! - **improper**: the hypothesis is a sparse polynomial threshold, not
//!   a member of the target class (Section V-B),
//! - **noise-tolerant**: attribute noise merely attenuates the
//!   high-degree spectrum the algorithm ignores anyway.
//!
//! Corollary 1 of the paper instantiates the LMN sample bound for XOR
//! Arbiter PUFs via their noise sensitivity `O(k√ε)`;
//! `mlam::bounds::lmn_bound_log10` evaluates that bound for Table I.

use mlam_boolean::fourier::estimate_coefficients_from_data;
use mlam_boolean::{LabeledSet, SparseFourier, SubsetsUpTo};

/// Configuration of an LMN run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LmnConfig {
    /// Maximum degree `d` of estimated coefficients.
    pub degree: usize,
    /// Guard: refuse to enumerate more than this many coefficients.
    pub max_coefficients: usize,
}

impl LmnConfig {
    /// Creates a configuration for degree `d` with the default guard of
    /// 2 million coefficients.
    pub fn new(degree: usize) -> Self {
        LmnConfig {
            degree,
            max_coefficients: 2_000_000,
        }
    }
}

/// Outcome of an LMN run.
#[derive(Clone, Debug)]
pub struct LmnOutcome {
    /// The (improper) hypothesis: sign of the estimated low-degree
    /// expansion.
    pub hypothesis: SparseFourier,
    /// Number of coefficients estimated.
    pub coefficients_estimated: usize,
    /// Squared weight captured by the estimated coefficients (an
    /// estimate of `Σ_{|S|≤d} f̂(S)²`; close to 1 means the target is
    /// low-degree concentrated and the hypothesis will be accurate).
    pub captured_weight: f64,
}

/// Runs the LMN low-degree algorithm on a uniform labeled sample.
///
/// # Panics
///
/// Panics if `data` is empty, `n > 63`, or the coefficient count
/// exceeds the configured guard.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, FnFunction, LabeledSet};
/// use mlam_learn::lmn::{lmn_learn, LmnConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// // Majority is degree-1 concentrated.
/// let target = FnFunction::new(9, |x: &BitVec| x.count_ones() >= 5);
/// let train = LabeledSet::sample_par(&target, 4000, &mut rng);
/// let out = lmn_learn(&train, LmnConfig::new(1));
/// assert!(train.accuracy_of(&out.hypothesis) > 0.9);
/// ```
pub fn lmn_learn(data: &LabeledSet, config: LmnConfig) -> LmnOutcome {
    assert!(!data.is_empty(), "LMN needs at least one example");
    let n = data.num_inputs();
    assert!(n <= 63, "LMN implementation limited to n <= 63");
    let count = SubsetsUpTo::count_total(n, config.degree);
    assert!(
        count <= config.max_coefficients as u128,
        "degree {} over n={} needs {} coefficients (> guard {})",
        config.degree,
        n,
        count,
        config.max_coefficients
    );
    let masks: Vec<u64> = SubsetsUpTo::new(n, config.degree).collect();
    let coeffs = estimate_coefficients_from_data(n, data.pairs(), &masks);
    let captured_weight: f64 = coeffs.iter().map(|c| c * c).sum();
    let hypothesis = SparseFourier::new(
        n,
        masks.into_iter().zip(coeffs).collect::<Vec<(u64, f64)>>(),
    );
    // LMN is single-shot (one batch estimate, no iterations), so its
    // learning curve is the one point the run ends on: the training
    // accuracy, which nothing else reads.
    if mlam_telemetry::curves::recording() {
        let training_accuracy = data.accuracy_of(&hypothesis);
        mlam_telemetry::curves::checkpoint("lmn", 1, training_accuracy, None);
    }
    LmnOutcome {
        coefficients_estimated: hypothesis.len(),
        captured_weight,
        hypothesis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::{BitVec, BooleanFunction, FnFunction, LinearThreshold};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_majority_with_degree_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let target = FnFunction::new(11, |x: &BitVec| x.count_ones() >= 6);
        let train = LabeledSet::sample_par(&target, 8000, &mut rng);
        let test = LabeledSet::sample_par(&target, 3000, &mut rng);
        let out = lmn_learn(&train, LmnConfig::new(1));
        let training_accuracy = train.accuracy_of(&out.hypothesis);
        assert!(training_accuracy > 0.93, "{training_accuracy}");
        assert!(test.accuracy_of(&out.hypothesis) > 0.9);
        assert_eq!(out.coefficients_estimated, 12);
    }

    #[test]
    fn learns_random_ltf_with_degree_three() {
        let mut rng = StdRng::seed_from_u64(2);
        let target = LinearThreshold::random(10, &mut rng);
        let train = LabeledSet::sample_par(&target, 10_000, &mut rng);
        let test = LabeledSet::sample_par(&target, 3000, &mut rng);
        let out = lmn_learn(&train, LmnConfig::new(3));
        assert!(test.accuracy_of(&out.hypothesis) > 0.9);
        // LTFs are low-degree concentrated: the captured weight at
        // degree 3 is large.
        assert!(out.captured_weight > 0.8, "{}", out.captured_weight);
    }

    #[test]
    fn fails_on_high_degree_parity_at_low_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        let target = FnFunction::new(12, |x: &BitVec| x.count_ones() % 2 == 1);
        let train = LabeledSet::sample_par(&target, 6000, &mut rng);
        let test = LabeledSet::sample_par(&target, 2000, &mut rng);
        let out = lmn_learn(&train, LmnConfig::new(2));
        // All true weight sits at degree 12; low-degree LMN sees noise.
        let acc = test.accuracy_of(&out.hypothesis);
        assert!(acc < 0.6, "parity must not be learnable at degree 2: {acc}");
        assert!(out.captured_weight < 0.2, "{}", out.captured_weight);
    }

    #[test]
    fn learns_xor_of_two_ltfs_with_degree_two() {
        // XOR of 2 LTFs on few variables is degree-2-ish concentrated
        // enough for LMN to beat chance clearly.
        let mut rng = StdRng::seed_from_u64(4);
        let a = LinearThreshold::random(8, &mut rng);
        let b = LinearThreshold::random(8, &mut rng);
        let target = FnFunction::new(8, move |x: &BitVec| a.eval(x) ^ b.eval(x));
        let train = LabeledSet::sample_par(&target, 20_000, &mut rng);
        let test = LabeledSet::sample_par(&target, 4000, &mut rng);
        let out = lmn_learn(&train, LmnConfig::new(4));
        let acc = test.accuracy_of(&out.hypothesis);
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn guard_rejects_huge_enumerations() {
        let mut rng = StdRng::seed_from_u64(5);
        let target = LinearThreshold::random(60, &mut rng);
        let train = LabeledSet::sample_par(&target, 10, &mut rng);
        lmn_learn(&train, LmnConfig::new(10));
    }
}
