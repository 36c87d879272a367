//! Property-based tests for the learning toolkit.

use mlam_boolean::{Anf, BitVec, BooleanFunction, FnFunction, LabeledSet, LinearThreshold};
use mlam_learn::f2poly::learn_low_degree_anf;
use mlam_learn::features::{ArbiterPhiFeatures, FeatureMap, PlusMinusFeatures};
use mlam_learn::lstar::{lstar_learn, ExactDfaTeacher};
use mlam_learn::oracle::FunctionOracle;
use mlam_learn::perceptron::Perceptron;
use mlam_learn::Dfa;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The perceptron trained on separable data achieves zero training
    /// error (convergence theorem), regardless of the target.
    #[test]
    fn perceptron_converges_on_separable_data(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = LinearThreshold::random(10, &mut rng);
        let train = LabeledSet::sample_par(&target, 300, &mut rng);
        let out = Perceptron::new(500).train(&train);
        prop_assert!(out.training_accuracy >= 0.99, "{}", out.training_accuracy);
    }

    /// Möbius interpolation recovers every polynomial of degree <= 2
    /// exactly.
    #[test]
    fn f2_interpolation_exact(
        monomials in prop::collection::vec(0u64..64, 0..6),
        seed in any::<u64>(),
    ) {
        // Restrict monomials to degree <= 2 over 6 variables.
        let monos: Vec<u64> = monomials
            .into_iter()
            .filter(|m| m.count_ones() <= 2)
            .collect();
        let target = Anf::from_monomials(6, monos);
        let t2 = target.clone();
        let f = FnFunction::new(6, move |x: &BitVec| t2.eval(x));
        let oracle = FunctionOracle::uniform(&f);
        let out = learn_low_degree_anf(&oracle, 2);
        prop_assert_eq!(out.hypothesis, target);
        let _ = seed;
    }

    /// Feature maps have consistent dimensions and ±1 ranges.
    #[test]
    fn feature_maps_wellformed(bits in prop::collection::vec(any::<bool>(), 1..30)) {
        let n = bits.len();
        let x = BitVec::from_bools(&bits);
        for features in [
            PlusMinusFeatures::new(n).features(&x),
            ArbiterPhiFeatures::new(n).features(&x),
        ] {
            prop_assert_eq!(features.len(), n + 1);
            prop_assert!(features.iter().all(|&v| v == 1.0 || v == -1.0));
            prop_assert_eq!(*features.last().expect("non-empty"), 1.0);
        }
    }

    /// L* always learns an equivalent, minimal DFA from an exact
    /// teacher, for arbitrary random machines.
    #[test]
    fn lstar_learns_random_dfas(
        seed in any::<u64>(),
        states in 1usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let transitions: Vec<Vec<usize>> = (0..states)
            .map(|_| (0..2).map(|_| rand::Rng::gen_range(&mut rng, 0..states)).collect())
            .collect();
        let accepting: Vec<bool> = (0..states).map(|_| rand::Rng::gen(&mut rng)).collect();
        let target = Dfa::new(2, transitions, accepting);
        let mut teacher = ExactDfaTeacher::new(target.clone());
        let out = lstar_learn(&mut teacher, 500);
        prop_assert_eq!(out.dfa.shortest_disagreement(&target), None);
        prop_assert!(out.dfa.num_states() <= target.minimized().num_states());
    }

    /// Accuracy of a hypothesis plus accuracy of its complement is 1.
    #[test]
    fn accuracy_complement(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = LinearThreshold::random(8, &mut rng);
        let set = LabeledSet::sample_par(&target, 200, &mut rng);
        let h = LinearThreshold::random(8, &mut rng);
        let hw: Vec<f64> = h.weights().iter().map(|w| -w).collect();
        let h_neg = LinearThreshold::new(hw, -h.threshold());
        let a = set.accuracy_of(&h);
        let b = set.accuracy_of(&h_neg);
        // h_neg is the pointwise complement of h except on measure-zero
        // ties, which BitVec sampling avoids almost surely.
        prop_assert!((a + b - 1.0).abs() < 0.06, "{a} + {b}");
    }
}
