//! Property-based tests for the PUF simulators.

use mlam_boolean::{BitVec, BooleanFunction};
use mlam_puf::challenge::{phi_inverse, phi_transform};
use mlam_puf::{ArbiterPuf, BistableRingPuf, BrPufConfig, PufModel, XorArbiterPuf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The Φ transform is a bijection on {0,1}^n.
    #[test]
    fn phi_round_trip(bits in prop::collection::vec(any::<bool>(), 1..64)) {
        let c = BitVec::from_bools(&bits);
        prop_assert_eq!(phi_inverse(&phi_transform(&c)), c);
    }

    /// The arbiter response equals the sign of w·Φ(c) for any weights.
    #[test]
    fn arbiter_matches_inner_product(
        weights in prop::collection::vec(-3.0f64..3.0, 2..32),
        seed in any::<u64>(),
    ) {
        let n = weights.len() - 1;
        let puf = ArbiterPuf::from_weights(weights.clone(), 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let c = BitVec::random(n, &mut rng);
        let phi = phi_transform(&c);
        let dot: f64 = weights.iter().zip(&phi).map(|(w, p)| w * p).sum();
        prop_assert_eq!(puf.eval(&c), dot < 0.0);
    }

    /// Noiseless devices are deterministic across repeated noisy reads.
    #[test]
    fn noiseless_determinism(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ArbiterPuf::sample(16, 0.0, &mut rng);
        let x = XorArbiterPuf::sample(16, 3, 0.0, &mut rng);
        let b = BistableRingPuf::sample(16, BrPufConfig::calibrated(16), &mut rng);
        let c = BitVec::random(16, &mut rng);
        for _ in 0..5 {
            prop_assert_eq!(a.eval_noisy(&c, &mut rng), a.eval(&c));
            prop_assert_eq!(x.eval_noisy(&c, &mut rng), x.eval(&c));
            prop_assert_eq!(b.eval_noisy(&c, &mut rng), b.eval(&c));
        }
    }

    /// XOR arbiter response is the XOR of chain responses, always.
    #[test]
    fn xor_composition(seed in any::<u64>(), k in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let puf = XorArbiterPuf::sample(12, k, 0.0, &mut rng);
        let c = BitVec::random(12, &mut rng);
        let xor = puf.chains().iter().fold(false, |acc, ch| acc ^ ch.eval(&c));
        prop_assert_eq!(puf.eval(&c), xor);
    }

    /// Splitting a collected CRP set keeps every CRP and the challenge
    /// length.
    #[test]
    fn crp_set_split_partitions(seed in any::<u64>(), frac in 0.0f64..=1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let puf = ArbiterPuf::sample(8, 0.0, &mut rng);
        let set = mlam_puf::crp::collect_uniform(&puf, 50, &mut rng);
        let (a, b) = set.split(frac, &mut rng);
        prop_assert_eq!(a.len() + b.len(), 50);
        prop_assert_eq!(a.num_inputs(), 8);
        prop_assert_eq!(b.num_inputs(), 8);
    }

    /// The linear BR PUF config is an LTF: its potential is affine in
    /// each ±1 challenge bit (checked by discrete second differences).
    #[test]
    fn linear_br_is_affine_per_bit(seed in any::<u64>(), i in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let puf = BistableRingPuf::sample(8, BrPufConfig::linear(), &mut rng);
        let c = BitVec::random(8, &mut rng);
        let mut c_flip = c.clone();
        c_flip.flip(i);
        // Affinity in bit i: flipping it changes the potential by a
        // constant independent of the other bits.
        let delta1 = puf.potential(&c_flip) - puf.potential(&c);
        let mut c2 = c.clone();
        let j = (i + 3) % 8;
        c2.flip(j);
        let mut c2_flip = c2.clone();
        c2_flip.flip(i);
        let delta2 = puf.potential(&c2_flip) - puf.potential(&c2);
        prop_assert!((delta1 - delta2).abs() < 1e-9, "{delta1} vs {delta2}");
    }
}
