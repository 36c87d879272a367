//! The Interpose PUF (iPUF) — a contemporary composition the adversary-
//! model lens applies to directly.
//!
//! An `(x, y)`-iPUF feeds the challenge to an upper `x`-XOR Arbiter
//! PUF, *interposes* the upper response as an extra challenge bit in
//! the middle of a lower `y`-XOR Arbiter PUF (which therefore has
//! `n + 1` stages), and outputs the lower response. The design's
//! security argument is representational: the composed function is not
//! a plain XOR of LTFs, so the standard attacks' hypothesis classes
//! miss it — exactly the Section V situation, one construction later.
//!
//! The model here supports the half-challenge analysis used by the
//! divide-and-conquer attacks: [`InterposePuf::lower_with_bit`] exposes
//! the lower layer with the interposed bit forced, the handle those
//! attacks grip.

use crate::xor_arbiter::XorArbiterPuf;
use crate::PufModel;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// An `(x, y)`-Interpose PUF over `n`-bit challenges.
#[derive(Clone, Debug, PartialEq)]
pub struct InterposePuf {
    upper: XorArbiterPuf,
    lower: XorArbiterPuf,
    /// Position at which the upper response is interposed.
    position: usize,
}

impl InterposePuf {
    /// Manufactures an `(x, y)`-iPUF: upper `x`-XOR over `n` stages,
    /// lower `y`-XOR over `n + 1` stages, interposition at the middle.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `x == 0` or `y == 0`.
    pub fn sample<R: Rng + ?Sized>(
        n: usize,
        x: usize,
        y: usize,
        noise_sigma: f64,
        rng: &mut R,
    ) -> Self {
        assert!(n > 0 && x > 0 && y > 0);
        InterposePuf {
            upper: XorArbiterPuf::sample(n, x, noise_sigma, rng),
            lower: XorArbiterPuf::sample(n + 1, y, noise_sigma, rng),
            position: n.div_ceil(2),
        }
    }

    /// The upper XOR Arbiter PUF.
    pub fn upper(&self) -> &XorArbiterPuf {
        &self.upper
    }

    /// The lower XOR Arbiter PUF (over `n + 1` challenge bits).
    pub fn lower(&self) -> &XorArbiterPuf {
        &self.lower
    }

    /// The interposition position.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Builds the lower-layer challenge with `bit` interposed.
    pub fn interpose(&self, challenge: &BitVec, bit: bool) -> BitVec {
        let n = self.upper.num_inputs();
        assert_eq!(challenge.len(), n, "challenge length mismatch");
        let mut ext = BitVec::zeros(n + 1);
        for i in 0..self.position {
            ext.set(i, challenge.get(i));
        }
        ext.set(self.position, bit);
        for i in self.position..n {
            ext.set(i + 1, challenge.get(i));
        }
        ext
    }

    /// The lower layer's response with the interposed bit forced to
    /// `bit` — the object the divide-and-conquer attacks model
    /// separately for `bit = 0` and `bit = 1`.
    pub fn lower_with_bit(&self, challenge: &BitVec, bit: bool) -> bool {
        self.lower.eval(&self.interpose(challenge, bit))
    }
}

impl BooleanFunction for InterposePuf {
    fn num_inputs(&self) -> usize {
        self.upper.num_inputs()
    }

    fn eval(&self, challenge: &BitVec) -> bool {
        let r_up = self.upper.eval(challenge);
        self.lower.eval(&self.interpose(challenge, r_up))
    }
}

impl PufModel for InterposePuf {
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        let r_up = self.upper.eval_noisy(challenge, rng);
        self.lower.eval_noisy(&self.interpose(challenge, r_up), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn response_composes_upper_into_lower() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = InterposePuf::sample(16, 1, 1, 0.0, &mut rng);
        for _ in 0..200 {
            let c = BitVec::random(16, &mut rng);
            let r_up = puf.upper().eval(&c);
            assert_eq!(puf.eval(&c), puf.lower_with_bit(&c, r_up));
        }
    }

    #[test]
    fn interpose_inserts_exactly_one_bit() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = InterposePuf::sample(9, 1, 1, 0.0, &mut rng);
        let c = BitVec::random(9, &mut rng);
        let e0 = puf.interpose(&c, false);
        let e1 = puf.interpose(&c, true);
        assert_eq!(e0.len(), 10);
        assert_eq!(e0.hamming(&e1), 1);
        assert!(e1.get(puf.position()));
        assert!(!e0.get(puf.position()));
        // All other bits preserved in order.
        let p = puf.position();
        for i in 0..9 {
            let j = if i < p { i } else { i + 1 };
            assert_eq!(e0.get(j), c.get(i), "bit {i}");
        }
    }

    #[test]
    fn responses_are_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = InterposePuf::sample(32, 2, 2, 0.0, &mut rng);
        let ones = (0..3000)
            .filter(|_| puf.eval(&BitVec::random(32, &mut rng)))
            .count();
        let frac = ones as f64 / 3000.0;
        assert!((frac - 0.5).abs() < 0.12, "bias {frac}");
    }

    #[test]
    fn interposed_bit_matters() {
        // The lower layer must actually depend on the interposed bit on
        // a nontrivial fraction of challenges, else the composition is
        // vacuous.
        let mut rng = StdRng::seed_from_u64(4);
        let puf = InterposePuf::sample(24, 1, 1, 0.0, &mut rng);
        let mut differs = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            let c = BitVec::random(24, &mut rng);
            if puf.lower_with_bit(&c, false) != puf.lower_with_bit(&c, true) {
                differs += 1;
            }
        }
        let frac = differs as f64 / trials as f64;
        assert!(frac > 0.05, "interposed bit flips only {frac}");
    }

    #[test]
    fn single_ltf_model_fails_against_ipuf() {
        // The representational point: a (1,1)-iPUF already defeats the
        // single-chain Φ model that cracks a plain arbiter PUF.
        use crate::challenge::phi_transform;
        let mut rng = StdRng::seed_from_u64(5);
        let puf = InterposePuf::sample(24, 1, 1, 0.0, &mut rng);
        // Pocket perceptron over Φ features of the *n-bit* challenge.
        let data: Vec<(Vec<f64>, f64)> = (0..4000)
            .map(|_| {
                let c = BitVec::random(24, &mut rng);
                (phi_transform(&c), puf.eval_pm(&c))
            })
            .collect();
        let mut w = vec![0.0f64; 25];
        let mut best_err = usize::MAX;
        for _ in 0..40 {
            let mut mistakes = 0;
            for (phi, t) in &data {
                let s: f64 = phi.iter().zip(&w).map(|(a, b)| a * b).sum();
                if s * t <= 0.0 {
                    for (wi, p) in w.iter_mut().zip(phi) {
                        *wi += t * p;
                    }
                    mistakes += 1;
                }
            }
            let err = data
                .iter()
                .filter(|(phi, t)| phi.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() * t <= 0.0)
                .count();
            best_err = best_err.min(err);
            if mistakes == 0 {
                break;
            }
        }
        let acc = 1.0 - best_err as f64 / data.len() as f64;
        assert!(
            acc < 0.95,
            "single-LTF model must not crack the iPUF: {acc}"
        );
        assert!(acc > 0.5, "but it is also not at chance: {acc}");
    }

    #[test]
    fn noisy_eval_supported() {
        let mut rng = StdRng::seed_from_u64(6);
        let puf = InterposePuf::sample(16, 2, 2, 0.2, &mut rng);
        let c = BitVec::random(16, &mut rng);
        let _ = puf.eval_noisy(&c, &mut rng);
    }
}
