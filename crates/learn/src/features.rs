//! Feature maps: how a challenge becomes a ±1 vector for the linear
//! learners.
//!
//! The *representation* axis of the adversary model (paper, Section V)
//! often enters an attack exactly here: a Perceptron over the raw ±1
//! bits represents LTFs over the challenge; the same Perceptron over the
//! arbiter Φ-transform represents Arbiter PUF delay models; over
//! low-degree parity features it represents polynomial threshold
//! functions — strictly more expressive, i.e. closer to improper
//! learning.

use mlam_boolean::{BitVec, SubsetsUpTo};

/// Maps a Boolean input to a feature vector whose every value is exactly
/// `±1.0`.
///
/// Because each feature is a sign, a
/// [`FeatureMatrix`](crate::feature_matrix::FeatureMatrix) stores it as
/// one bit ([`sign_words_into`](FeatureMap::sign_words_into)), and the
/// Perceptron, whose weights start at `0` and move by `t · φ_j = ±1`,
/// trains on exact integer weights. A map with any other value (a
/// scaled or real-valued feature) does not fit this trait.
pub trait FeatureMap {
    /// Input length the map accepts.
    fn num_inputs(&self) -> usize;

    /// Dimension of the output feature vector (including any constant
    /// feature).
    fn dimension(&self) -> usize;

    /// Computes the features of `x`, each `+1.0` or `−1.0`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.num_inputs()`.
    fn features(&self, x: &BitVec) -> Vec<f64>;

    /// Computes the features of `x` into a caller-owned buffer, so hot
    /// loops can reuse one allocation across many examples. The buffer
    /// is cleared first; afterwards it holds exactly
    /// [`dimension`](FeatureMap::dimension) values identical to
    /// [`features`](FeatureMap::features).
    fn features_into(&self, x: &BitVec, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.features(x));
    }

    /// Packs the signs of `x`'s features into `out`: bit `j % 64` of
    /// `out[j / 64]` is set ⇔ feature `j` is `−1.0`, and the bits past
    /// [`dimension`](FeatureMap::dimension) are zero. `out` holds
    /// `dimension().div_ceil(64)` words, all of which are overwritten.
    ///
    /// This is the one form in which
    /// [`FeatureMatrix`](crate::feature_matrix::FeatureMatrix) stores
    /// features: one bit instead of an `f64` each, which is what makes
    /// the cached-matrix learners cache-resident. The built-in maps
    /// derive the words from the input's words, with no `f64` features
    /// in between.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.num_inputs()` or
    /// `out` has the wrong length.
    fn sign_words_into(&self, x: &BitVec, out: &mut [u64]);
}

/// Writes `words` to the front of `out` and zeroes the rest.
fn copy_words(words: &[u64], out: &mut [u64]) {
    let (head, tail) = out.split_at_mut(words.len());
    head.copy_from_slice(words);
    tail.fill(0);
}

/// The ±1 encoding with a constant feature: `[x_0, …, x_{n−1}, 1]`
/// where `x_i = ±1`. A linear learner over these features is exactly an
/// LTF over the challenge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlusMinusFeatures {
    n: usize,
}

impl PlusMinusFeatures {
    /// Creates the map for `n`-bit inputs.
    pub fn new(n: usize) -> Self {
        PlusMinusFeatures { n }
    }
}

impl FeatureMap for PlusMinusFeatures {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn dimension(&self) -> usize {
        self.n + 1
    }

    fn features(&self, x: &BitVec) -> Vec<f64> {
        let mut v = Vec::new();
        self.features_into(x, &mut v);
        v
    }

    fn features_into(&self, x: &BitVec, out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        out.clear();
        out.reserve(self.n + 1);
        for i in 0..self.n {
            out.push(x.pm(i));
        }
        out.push(1.0);
    }

    fn sign_words_into(&self, x: &BitVec, out: &mut [u64]) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        // Feature i < n is −1 ⇔ bit i is set; the constant is +1.
        copy_words(x.words(), out);
    }
}

/// The arbiter parity-feature transform Φ (plus its built-in constant
/// feature). A linear learner over these features represents exactly
/// the additive delay model of an Arbiter PUF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArbiterPhiFeatures {
    n: usize,
}

impl ArbiterPhiFeatures {
    /// Creates the map for `n`-stage arbiter challenges.
    pub fn new(n: usize) -> Self {
        ArbiterPhiFeatures { n }
    }
}

impl FeatureMap for ArbiterPhiFeatures {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn dimension(&self) -> usize {
        self.n + 1
    }

    fn features(&self, x: &BitVec) -> Vec<f64> {
        let mut phi = Vec::new();
        self.features_into(x, &mut phi);
        phi
    }

    fn features_into(&self, x: &BitVec, out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        // Suffix parity products, identical to mlam_puf::phi_transform
        // (duplicated here to keep the learn crate independent of the
        // puf crate).
        out.clear();
        out.resize(self.n + 1, 1.0);
        let mut acc = 1.0;
        for i in (0..self.n).rev() {
            acc *= if x.get(i) { -1.0 } else { 1.0 };
            out[i] = acc;
        }
    }

    fn sign_words_into(&self, x: &BitVec, out: &mut [u64]) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        // Φ_i is −1 ⇔ the parity of bits i..n is odd; the constant is +1.
        copy_words(&x.suffix_parity_words(), out);
    }
}

/// All parity features `χ_S(x)` for `|S| ≤ d` — the monomial basis of
/// degree-`d` polynomial threshold functions. Dimension
/// `Σ_{k≤d} C(n,k)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowDegreeFeatures {
    n: usize,
    masks: Vec<u64>,
}

impl LowDegreeFeatures {
    /// Creates the map with all parities of degree ≤ `degree`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 63` or the feature count would exceed `10^7`.
    pub fn new(n: usize, degree: usize) -> Self {
        let count = SubsetsUpTo::count_total(n, degree);
        assert!(
            count <= 10_000_000,
            "low-degree feature space too large: {count}"
        );
        LowDegreeFeatures {
            n,
            masks: SubsetsUpTo::new(n, degree).collect(),
        }
    }

    /// The parity masks, in degree order.
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }
}

impl FeatureMap for LowDegreeFeatures {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn dimension(&self) -> usize {
        self.masks.len()
    }

    fn features(&self, x: &BitVec) -> Vec<f64> {
        let mut v = Vec::new();
        self.features_into(x, &mut v);
        v
    }

    fn features_into(&self, x: &BitVec, out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        let xm = x.to_u64();
        out.clear();
        out.extend(self.masks.iter().map(|&m| {
            if (xm & m).count_ones() % 2 == 1 {
                -1.0
            } else {
                1.0
            }
        }));
    }

    fn sign_words_into(&self, x: &BitVec, out: &mut [u64]) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert_eq!(out.len(), self.masks.len().div_ceil(64), "sign word count");
        let xm = x.to_u64();
        for (word, masks) in out.iter_mut().zip(self.masks.chunks(64)) {
            *word = masks.iter().enumerate().fold(0, |acc, (b, &m)| {
                acc | (u64::from((xm & m).count_ones() & 1) << b)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_minus_features() {
        let map = PlusMinusFeatures::new(3);
        let f = map.features(&BitVec::from_bools(&[true, false, true]));
        assert_eq!(f, vec![-1.0, 1.0, -1.0, 1.0]);
        assert_eq!(map.dimension(), 4);
    }

    #[test]
    fn phi_features_match_puf_transform() {
        let map = ArbiterPhiFeatures::new(4);
        let c = BitVec::from_bools(&[true, true, false, true]);
        let f = map.features(&c);
        assert_eq!(f, vec![-1.0, 1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn low_degree_dimension() {
        let map = LowDegreeFeatures::new(5, 2);
        assert_eq!(map.dimension(), 1 + 5 + 10);
        let f = map.features(&BitVec::zeros(5));
        assert!(f.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn low_degree_features_are_parities() {
        let map = LowDegreeFeatures::new(4, 2);
        let x = BitVec::from_u64(0b0110, 4);
        let f = map.features(&x);
        for (mask, v) in map.masks().iter().zip(&f) {
            let expected = if (0b0110u64 & mask).count_ones() % 2 == 1 {
                -1.0
            } else {
                1.0
            };
            assert_eq!(*v, expected, "mask {mask:b}");
        }
    }

    #[test]
    fn degree_zero_is_constant_only() {
        let map = LowDegreeFeatures::new(10, 0);
        assert_eq!(map.dimension(), 1);
        assert_eq!(map.features(&BitVec::ones(10)), vec![1.0]);
    }

    #[test]
    fn features_into_matches_features_and_reuses_the_buffer() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 13;
        let maps: Vec<Box<dyn FeatureMap>> = vec![
            Box::new(PlusMinusFeatures::new(n)),
            Box::new(ArbiterPhiFeatures::new(n)),
            Box::new(LowDegreeFeatures::new(n, 2)),
        ];
        let mut buf = Vec::new();
        for map in &maps {
            for _ in 0..20 {
                let x = BitVec::random(n, &mut rng);
                map.features_into(&x, &mut buf);
                assert_eq!(buf, map.features(&x));
                assert_eq!(buf.len(), map.dimension());
            }
        }
    }
}
