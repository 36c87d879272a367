//! Noise wrapper: response noise.
//!
//! The paper (footnote 1) is careful about what "noise" means: the LMN
//! bounds concern **attribute noise** — hidden factors perturbing the
//! relation between the challenge an attacker *records* and what the
//! device *sees* — as studied in ML, distinct from plain response flips.
//! This module models only the latter: [`ResponseNoise`] flips the
//! responses of any [`PufModel`] without touching the model itself.

use crate::PufModel;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// Wraps a PUF so that each noisy evaluation's **response** is flipped
/// with probability `flip_rate` (classification noise).
#[derive(Clone, Debug)]
pub struct ResponseNoise<P> {
    inner: P,
    flip_rate: f64,
}

impl<P: PufModel> ResponseNoise<P> {
    /// Wraps `inner` with response flip probability `flip_rate`.
    ///
    /// # Panics
    ///
    /// Panics if `flip_rate ∉ [0, 1]`.
    pub fn new(inner: P, flip_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_rate),
            "flip rate must be in [0,1]"
        );
        ResponseNoise { inner, flip_rate }
    }

    /// The configured flip rate.
    pub fn flip_rate(&self) -> f64 {
        self.flip_rate
    }
}

impl<P: PufModel> BooleanFunction for ResponseNoise<P> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn eval(&self, x: &BitVec) -> bool {
        self.inner.eval(x)
    }
}

impl<P: PufModel> PufModel for ResponseNoise<P> {
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        let r = self.inner.eval_noisy(challenge, rng);
        if rng.gen_bool(self.flip_rate) {
            !r
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPuf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn response_noise_flips_at_the_configured_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = ArbiterPuf::sample(32, 0.0, &mut rng);
        let noisy = ResponseNoise::new(puf, 0.25);
        let trials = 8000;
        let flips = (0..trials)
            .filter(|_| {
                let c = BitVec::random(32, &mut rng);
                noisy.eval_noisy(&c, &mut rng) != noisy.eval(&c)
            })
            .count();
        let rate = flips as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn ideal_response_is_untouched_by_wrappers() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = ArbiterPuf::sample(16, 0.0, &mut rng);
        let c = BitVec::random(16, &mut rng);
        let expected = puf.eval(&c);
        let r = ResponseNoise::new(puf, 0.3);
        assert_eq!(r.eval(&c), expected);
        assert_eq!(r.flip_rate(), 0.3);
    }
}
