//! Challenge encodings and the arbiter feature transform Φ.
//!
//! The additive delay model of an arbiter chain is linear not in the raw
//! challenge bits but in the *parity features*
//! `Φ_i(c) = Π_{j=i}^{n-1} (1 − 2·c_j)` (with `Φ_n = 1`): the delay
//! difference at the arbiter is `Δ(c) = w·Φ(c)` for an instance-specific
//! weight vector `w ∈ R^{n+1}`. This is the change of variables that
//! makes an Arbiter PUF a linear threshold function (paper, Section
//! III-A, after \[6\], \[8\]).

use mlam_boolean::BitVec;
use rand::Rng;

/// Computes the arbiter parity-feature vector `Φ(c) ∈ {−1,+1}^{n+1}`.
///
/// `Φ_i = Π_{j≥i} (1−2c_j)` for `i = 0..n`, and the constant feature
/// `Φ_n = 1`. Computed right-to-left in `O(n)`.
///
/// # Example
///
/// ```
/// use mlam_boolean::BitVec;
/// use mlam_puf::phi_transform;
///
/// let c = BitVec::from_bools(&[false, true, false]);
/// // suffix parities: bits (0,1,0) -> (1-2c) = (+1,-1,+1)
/// // phi_0 = +1*-1*+1 = -1, phi_1 = -1*+1 = -1, phi_2 = +1, phi_3 = 1
/// assert_eq!(phi_transform(&c), vec![-1.0, -1.0, 1.0, 1.0]);
/// ```
pub fn phi_transform(c: &BitVec) -> Vec<f64> {
    let mut phi = Vec::new();
    phi_transform_into(c, &mut phi);
    phi
}

/// Allocation-free variant of [`phi_transform`]: writes `Φ(c)` into
/// `out`, reusing its capacity. Scalar callers evaluating many
/// challenges should hold one buffer and call this in a loop.
///
/// The suffix parities are resolved word-parallel via
/// [`BitVec::suffix_parity_words`]; the written values are identical to
/// [`phi_transform`].
pub fn phi_transform_into(c: &BitVec, out: &mut Vec<f64>) {
    let n = c.len();
    out.clear();
    out.resize(n + 1, 1.0);
    let words = c.words();
    // Word-parallel suffix-parity scan (same kernel as
    // `BitVec::suffix_parity_words`, run in place to avoid the
    // intermediate word buffer).
    let mut carry = 0u64;
    for g in (0..words.len()).rev() {
        let mut p = words[g];
        p ^= p >> 1;
        p ^= p >> 2;
        p ^= p >> 4;
        p ^= p >> 8;
        p ^= p >> 16;
        p ^= p >> 32;
        let v = p ^ carry;
        for (b, slot) in out[g * 64..n.min((g + 1) * 64)].iter_mut().enumerate() {
            *slot = if (v >> b) & 1 == 1 { -1.0 } else { 1.0 };
        }
        carry = if v & 1 == 1 { u64::MAX } else { 0 };
    }
}

/// Inverse of [`phi_transform`]: recovers the challenge from its feature
/// vector.
///
/// Useful when reasoning about learned weight vectors: a hypothesis
/// linear in Φ-space corresponds to a unique Boolean function of `c`.
///
/// # Panics
///
/// Panics if `phi` is empty, its entries are not ±1, or the constant
/// feature is not `+1`.
pub fn phi_inverse(phi: &[f64]) -> BitVec {
    assert!(!phi.is_empty(), "phi vector must be non-empty");
    let n = phi.len() - 1;
    assert_eq!(phi[n], 1.0, "constant feature must be +1");
    let mut c = BitVec::zeros(n);
    for i in 0..n {
        let ratio = phi[i] / phi[i + 1];
        assert!(
            (ratio - 1.0).abs() < 1e-9 || (ratio + 1.0).abs() < 1e-9,
            "phi entries must be ±1"
        );
        c.set(i, ratio < 0.0);
    }
    c
}

/// Draws `count` uniformly random challenges of `n` bits.
pub fn random_challenges<R: Rng + ?Sized>(n: usize, count: usize, rng: &mut R) -> Vec<BitVec> {
    (0..count).map(|_| BitVec::random(n, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn phi_of_zero_challenge_is_all_ones() {
        let c = BitVec::zeros(8);
        assert_eq!(phi_transform(&c), vec![1.0; 9]);
    }

    #[test]
    fn phi_last_feature_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let c = BitVec::random(16, &mut rng);
            let phi = phi_transform(&c);
            assert_eq!(phi.len(), 17);
            assert_eq!(phi[16], 1.0);
            assert!(phi.iter().all(|&v| v == 1.0 || v == -1.0));
        }
    }

    #[test]
    fn phi_entries_are_suffix_parities() {
        let c = BitVec::from_bools(&[true, true, false, true]);
        let phi = phi_transform(&c);
        // Suffix ones-counts: [3,2,1,1] -> parities [-1,+1,-1,-1].
        assert_eq!(phi, vec![-1.0, 1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn phi_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let c = BitVec::random(24, &mut rng);
            assert_eq!(phi_inverse(&phi_transform(&c)), c);
        }
    }

    #[test]
    fn single_bit_flip_changes_prefix_of_phi() {
        // Flipping challenge bit i negates phi_0..phi_i and leaves the
        // rest unchanged — the structural reason a single stage affects
        // all upstream path segments.
        let mut rng = StdRng::seed_from_u64(3);
        let c = BitVec::random(12, &mut rng);
        let phi = phi_transform(&c);
        let mut c2 = c.clone();
        c2.flip(5);
        let phi2 = phi_transform(&c2);
        for i in 0..=5 {
            assert_eq!(phi[i], -phi2[i], "prefix entry {i}");
        }
        for i in 6..=12 {
            assert_eq!(phi[i], phi2[i], "suffix entry {i}");
        }
    }

    #[test]
    fn phi_into_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = Vec::new();
        for len in [1usize, 7, 63, 64, 65, 130] {
            for _ in 0..10 {
                let c = BitVec::random(len, &mut rng);
                // Scalar reference: right-to-left suffix product.
                let mut reference = vec![1.0; len + 1];
                let mut acc = 1.0;
                for i in (0..len).rev() {
                    acc *= if c.get(i) { -1.0 } else { 1.0 };
                    reference[i] = acc;
                }
                phi_transform_into(&c, &mut buf);
                assert_eq!(buf, reference, "len {len}");
                assert_eq!(phi_transform(&c), reference, "len {len}");
            }
        }
    }
}
