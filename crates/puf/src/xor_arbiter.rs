//! The XOR Arbiter PUF: `k` independent arbiter chains XORed together.

use crate::arbiter::ArbiterPuf;
use crate::PufModel;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// An `n`-bit, `k`-chain XOR Arbiter PUF (Suh–Devadas \[7\]).
///
/// All `k` chains receive the same challenge; the response is the XOR of
/// the individual responses. In the ±1 encoding this is the *product* of
/// `k` LTF outputs — the class whose learnability Table I of the paper
/// bounds four different ways, and whose noise sensitivity grows as
/// `O(k·√ε)` (Corollary 1).
///
/// The chains here are **uncorrelated** (independent weight draws), the
/// assumption the paper makes explicit when contrasting its Corollary 1
/// with the RocknRoll PUF results of \[17\].
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction};
/// use mlam_puf::{PufModel, XorArbiterPuf};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let puf = XorArbiterPuf::sample(64, 4, 0.0, &mut rng);
/// assert_eq!(puf.num_chains(), 4);
/// let c = BitVec::random(64, &mut rng);
/// let r = puf.eval(&c);
/// // The response equals the XOR of the chain responses:
/// let xor = puf.chains().iter().fold(false, |acc, ch| acc ^ ch.eval(&c));
/// assert_eq!(r, xor);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct XorArbiterPuf {
    chains: Vec<ArbiterPuf>,
}

impl XorArbiterPuf {
    /// Manufactures `k` independent `n`-stage chains, each with
    /// evaluation-noise `noise_sigma` (noise is drawn independently per
    /// chain per evaluation, so the *response* noise rate grows with
    /// `k` — the "inherent noise in XOR Arbiter PUFs" of \[17\]).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn sample<R: Rng + ?Sized>(n: usize, k: usize, noise_sigma: f64, rng: &mut R) -> Self {
        assert!(k > 0, "XOR arbiter PUF needs at least one chain");
        let chains = (0..k)
            .map(|_| ArbiterPuf::sample(n, noise_sigma, rng))
            .collect();
        XorArbiterPuf { chains }
    }

    /// Builds an instance from explicit chains.
    ///
    /// # Panics
    ///
    /// Panics if `chains` is empty or the chains have differing stage
    /// counts.
    pub fn from_chains(chains: Vec<ArbiterPuf>) -> Self {
        assert!(!chains.is_empty());
        let n = chains[0].num_inputs();
        assert!(
            chains.iter().all(|c| c.num_inputs() == n),
            "all chains must have the same number of stages"
        );
        XorArbiterPuf { chains }
    }

    /// Number of chains `k`.
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// The individual chains.
    pub fn chains(&self) -> &[ArbiterPuf] {
        &self.chains
    }
}

impl BooleanFunction for XorArbiterPuf {
    fn num_inputs(&self) -> usize {
        self.chains[0].num_inputs()
    }

    fn eval(&self, challenge: &BitVec) -> bool {
        self.chains
            .iter()
            .fold(false, |acc, chain| acc ^ chain.eval(challenge))
    }
}

impl PufModel for XorArbiterPuf {
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        self.chains
            .iter()
            .fold(false, |acc, chain| acc ^ chain.eval_noisy(challenge, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_chain_equals_arbiter() {
        let mut rng = StdRng::seed_from_u64(1);
        let chain = ArbiterPuf::sample(32, 0.0, &mut rng);
        let xor = XorArbiterPuf::from_chains(vec![chain.clone()]);
        for _ in 0..100 {
            let c = BitVec::random(32, &mut rng);
            assert_eq!(xor.eval(&c), chain.eval(&c));
        }
    }

    #[test]
    fn xor_of_chains_is_product_in_pm() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = XorArbiterPuf::sample(24, 3, 0.0, &mut rng);
        for _ in 0..100 {
            let c = BitVec::random(24, &mut rng);
            let prod: f64 = puf.chains().iter().map(|ch| ch.eval_pm(&c)).product();
            assert_eq!(puf.eval_pm(&c), prod);
        }
    }

    #[test]
    fn response_noise_grows_with_k() {
        let mut rng = StdRng::seed_from_u64(3);
        let rate = |k: usize, rng: &mut StdRng| {
            let puf = XorArbiterPuf::sample(64, k, 0.3, rng);
            let trials = 3000;
            let flips = (0..trials)
                .filter(|_| {
                    let c = BitVec::random(64, rng);
                    puf.eval_noisy(&c, rng) != puf.eval(&c)
                })
                .count();
            flips as f64 / trials as f64
        };
        let r1 = rate(1, &mut rng);
        let r5 = rate(5, &mut rng);
        assert!(r5 > r1, "k=5 noise {r5} should exceed k=1 noise {r1}");
    }

    #[test]
    fn balanced_responses() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = XorArbiterPuf::sample(64, 4, 0.0, &mut rng);
        let ones = (0..4000)
            .filter(|_| puf.eval(&BitVec::random(64, &mut rng)))
            .count();
        let frac = ones as f64 / 4000.0;
        // XORing reduces bias: the composed PUF is closer to balanced
        // than a single chain.
        assert!((frac - 0.5).abs() < 0.1, "bias {frac}");
    }

    #[test]
    #[should_panic(expected = "same number of stages")]
    fn mismatched_chain_sizes_panic() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = ArbiterPuf::sample(16, 0.0, &mut rng);
        let b = ArbiterPuf::sample(32, 0.0, &mut rng);
        XorArbiterPuf::from_chains(vec![a, b]);
    }

    #[test]
    fn noiseless_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(6);
        let puf = XorArbiterPuf::sample(16, 2, 0.0, &mut rng);
        let c = BitVec::random(16, &mut rng);
        let r = puf.eval(&c);
        for _ in 0..10 {
            assert_eq!(puf.eval_noisy(&c, &mut rng), r);
        }
    }
}
