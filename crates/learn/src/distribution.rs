//! Distributions over the challenge space `{0,1}^n`.
//!
//! Section III of the paper turns on the difference between
//! distribution-*free* PAC learning (the adversary must succeed under
//! any `D`) and *uniform-distribution* PAC learning. The literature's
//! "random CRPs" silently means *uniform*; this type makes the choice
//! explicit and lets every experiment state which distribution it draws
//! examples from.

use mlam_boolean::BitVec;
use rand::Rng;
use std::fmt;

/// A sampleable distribution over `{0,1}^n`.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum ChallengeDistribution {
    /// The uniform distribution — what hardware papers mean by "random".
    #[default]
    Uniform,
    /// A product distribution: each bit is 1 independently with the
    /// given probability.
    ProductBiased(f64),
}

impl ChallengeDistribution {
    /// Samples one challenge of `n` bits.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> BitVec {
        match self {
            ChallengeDistribution::Uniform => BitVec::random(n, rng),
            ChallengeDistribution::ProductBiased(p) => BitVec::random_biased(n, *p, rng),
        }
    }
}

impl fmt::Display for ChallengeDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChallengeDistribution::Uniform => write!(f, "uniform"),
            ChallengeDistribution::ProductBiased(p) => write!(f, "product(p={p})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fraction of 1 bits over `count` draws of `n` bits.
    fn density(d: &ChallengeDistribution, n: usize, count: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ones: u32 = (0..count).map(|_| d.sample(n, &mut rng).count_ones()).sum();
        ones as f64 / (n * count) as f64
    }

    #[test]
    fn uniform_density() {
        let density = density(&ChallengeDistribution::Uniform, 64, 500, 1);
        assert!((density - 0.5).abs() < 0.02);
    }

    #[test]
    fn biased_density() {
        let density = density(&ChallengeDistribution::ProductBiased(0.8), 32, 500, 2);
        assert!((density - 0.8).abs() < 0.03);
    }

    #[test]
    fn display_names() {
        assert_eq!(ChallengeDistribution::Uniform.to_string(), "uniform");
        assert_eq!(
            ChallengeDistribution::ProductBiased(0.25).to_string(),
            "product(p=0.25)"
        );
    }
}
