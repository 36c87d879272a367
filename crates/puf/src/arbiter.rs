//! The Arbiter PUF under the additive linear delay model.

use crate::challenge::phi_transform;
use crate::PufModel;
use mlam_boolean::{BitVec, BooleanFunction, LinearThreshold};
use rand::Rng;

/// An `n`-stage Arbiter PUF simulated with the additive delay model.
///
/// Each stage contributes a challenge-dependent delay difference; the
/// total difference at the arbiter is `Δ(c) = w·Φ(c)` with
/// `w ∈ R^{n+1}` drawn i.i.d. from a normal distribution at manufacture
/// and `Φ` the parity-feature transform of
/// [`phi_transform`]. The response is
/// `1` when `Δ(c) + η < 0`, where `η ~ N(0, noise_sigma²)` is fresh
/// evaluation noise modeling metastability and environmental variation.
///
/// The paper (Section III-A) relies on exactly this representation:
/// an Arbiter PUF *is* a linear threshold function over Φ-space.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction};
/// use mlam_puf::{ArbiterPuf, PufModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let puf = ArbiterPuf::sample(64, 0.05, &mut rng);
/// let c = BitVec::random(64, &mut rng);
/// let ideal = puf.eval(&c);            // noise-free ground truth
/// let _noisy = puf.eval_noisy(&c, &mut rng); // one physical evaluation
/// assert_eq!(puf.challenge_bits(), 64);
/// # let _ = ideal;
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ArbiterPuf {
    /// Delay weight vector in Φ-space, length `n + 1`.
    weights: Vec<f64>,
    /// Standard deviation of the fresh additive evaluation noise.
    noise_sigma: f64,
}

impl ArbiterPuf {
    /// Manufactures a random instance: `n` stages, weights
    /// `w_i ~ N(0, 1)`, evaluation-noise standard deviation
    /// `noise_sigma` (relative to unit weight variance).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `noise_sigma < 0`.
    pub fn sample<R: Rng + ?Sized>(n: usize, noise_sigma: f64, rng: &mut R) -> Self {
        assert!(n > 0, "arbiter PUF needs at least one stage");
        assert!(noise_sigma >= 0.0, "noise sigma must be non-negative");
        let weights = (0..=n).map(|_| gaussian(rng)).collect();
        ArbiterPuf {
            weights,
            noise_sigma,
        }
    }

    /// Builds an instance from an explicit weight vector (length `n+1`).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() < 2` or `noise_sigma < 0`.
    pub fn from_weights(weights: Vec<f64>, noise_sigma: f64) -> Self {
        assert!(weights.len() >= 2, "weights must have length n+1 >= 2");
        assert!(noise_sigma >= 0.0);
        ArbiterPuf {
            weights,
            noise_sigma,
        }
    }

    /// The delay weight vector (length `n + 1`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The evaluation-noise standard deviation.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// The noise-free delay difference `Δ(c) = w·Φ(c)`.
    pub fn delay_difference(&self, challenge: &BitVec) -> f64 {
        assert_eq!(
            challenge.len() + 1,
            self.weights.len(),
            "challenge length mismatch"
        );
        let phi = phi_transform(challenge);
        self.weights.iter().zip(&phi).map(|(w, p)| w * p).sum()
    }

    /// The equivalent [`LinearThreshold`] over Φ-space
    /// (weights = delay weights, threshold = 0).
    ///
    /// Note the LTF acts on `Φ(c)`, not on `c` directly; it is exposed
    /// for analyses that work in feature space.
    pub fn to_ltf(&self) -> LinearThreshold {
        LinearThreshold::new(self.weights.clone(), 0.0)
    }
}

impl BooleanFunction for ArbiterPuf {
    fn num_inputs(&self) -> usize {
        self.weights.len() - 1
    }

    /// Ideal (noise-free) response: logic 1 iff the delay difference is
    /// negative.
    fn eval(&self, challenge: &BitVec) -> bool {
        self.delay_difference(challenge) < 0.0
    }
}

impl PufModel for ArbiterPuf {
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        let delta = self.delay_difference(challenge);
        let eta = if self.noise_sigma > 0.0 {
            self.noise_sigma * gaussian(rng)
        } else {
            0.0
        };
        delta + eta < 0.0
    }
}

/// Box–Muller standard normal (crate-local copy to avoid a cross-crate
/// private dependency).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>();
        if u > f64::EPSILON {
            let v: f64 = rng.gen();
            return (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn responses_are_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::sample(64, 0.0, &mut rng);
        let ones = (0..4000)
            .filter(|_| puf.eval(&BitVec::random(64, &mut rng)))
            .count();
        let frac = ones as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.15, "response bias {frac}");
    }

    #[test]
    fn ltf_view_matches_delay_sign() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = ArbiterPuf::sample(16, 0.0, &mut rng);
        for _ in 0..100 {
            let c = BitVec::random(16, &mut rng);
            let delta = puf.delay_difference(&c);
            assert_eq!(puf.eval(&c), delta < 0.0);
        }
    }

    #[test]
    fn noise_flips_responses_near_the_boundary() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = ArbiterPuf::sample(64, 0.5, &mut rng);
        let mut any_flip = false;
        for _ in 0..200 {
            let c = BitVec::random(64, &mut rng);
            let ideal = puf.eval(&c);
            for _ in 0..10 {
                if puf.eval_noisy(&c, &mut rng) != ideal {
                    any_flip = true;
                }
            }
        }
        assert!(any_flip, "sigma=0.5 should produce some unstable CRPs");
    }

    #[test]
    fn noise_rate_grows_with_sigma() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = ArbiterPuf::sample(64, 0.0, &mut rng);
        let flip_rate = |sigma: f64, rng: &mut StdRng| {
            let puf = ArbiterPuf::from_weights(base.weights().to_vec(), sigma);
            let mut flips = 0;
            let trials = 2000;
            for _ in 0..trials {
                let c = BitVec::random(64, rng);
                if puf.eval_noisy(&c, rng) != puf.eval(&c) {
                    flips += 1;
                }
            }
            flips as f64 / trials as f64
        };
        let r_small = flip_rate(0.1, &mut rng);
        let r_large = flip_rate(1.0, &mut rng);
        assert!(r_small < r_large, "{r_small} !< {r_large}");
        assert_eq!(flip_rate(0.0, &mut rng), 0.0);
    }

    #[test]
    fn from_weights_round_trip() {
        let w = vec![0.3, -0.2, 1.0];
        let puf = ArbiterPuf::from_weights(w.clone(), 0.1);
        assert_eq!(puf.weights(), w.as_slice());
        assert_eq!(puf.num_inputs(), 2);
        assert_eq!(puf.noise_sigma(), 0.1);
    }

    #[test]
    fn deterministic_given_weights() {
        let puf = ArbiterPuf::from_weights(vec![1.0, -0.5, 0.25], 0.0);
        // c = 00: phi = (1,1,1) -> delta = 0.75 -> response 0.
        assert!(!puf.eval(&BitVec::zeros(2)));
        // c = 10 (bit0=1): phi = (-1,1,1) -> delta = -1.25 -> response 1.
        assert!(puf.eval(&BitVec::from_bools(&[true, false])));
    }

    #[test]
    #[should_panic(expected = "challenge length mismatch")]
    fn wrong_challenge_length_panics() {
        let puf = ArbiterPuf::from_weights(vec![1.0, 1.0, 1.0], 0.0);
        puf.eval(&BitVec::zeros(5));
    }
}
