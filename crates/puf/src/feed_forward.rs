//! Feed-forward Arbiter PUFs: a classic attempt to defeat the linear
//! delay model by making some challenge bits *internal signals*.
//!
//! In a feed-forward loop, an intermediate arbiter taps the delay
//! difference at stage `s` and drives the select bit of a later stage
//! `t` — so the effective challenge depends on the device's own
//! physical state. The composed function is no longer linear in any
//! fixed feature transform, which is why the original modeling attacks
//! needed evolutionary strategies (the paper's CMA-ES lineage) rather
//! than the Perceptron.
//!
//! The simulation uses the standard stage recursion
//! `Δ_i = χ(c_i)·Δ_{i−1} + α_i + χ(c_i)·β_i` with `χ(0)=+1, χ(1)=−1`
//! and per-stage parameters `α, β ~ N(0, 1)`.

use crate::arbiter::gaussian;
use crate::PufModel;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// A feed-forward loop: the arbiter at the output of stage `tap`
/// drives the select bit of stage `target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeedForwardLoop {
    /// Stage whose accumulated delay difference is tapped (0-based,
    /// tapped *after* this stage).
    pub tap: usize,
    /// Stage whose select bit is overridden (must be `> tap`).
    pub target: usize,
}

/// An `n`-stage Arbiter PUF with feed-forward loops.
///
/// # Example
///
/// ```
/// use mlam_puf::feed_forward::{FeedForwardArbiterPuf, FeedForwardLoop};
/// use mlam_boolean::{BitVec, BooleanFunction};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let loops = vec![FeedForwardLoop { tap: 10, target: 20 }];
/// let puf = FeedForwardArbiterPuf::sample(32, loops, 0.0, &mut rng);
/// let _ = puf.eval(&BitVec::random(32, &mut rng));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FeedForwardArbiterPuf {
    alphas: Vec<f64>,
    betas: Vec<f64>,
    loops: Vec<FeedForwardLoop>,
    noise_sigma: f64,
}

impl FeedForwardArbiterPuf {
    /// Manufactures a random instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, a loop has `tap >= target` or
    /// `target >= n`, or `noise_sigma < 0`.
    pub fn sample<R: Rng + ?Sized>(
        n: usize,
        loops: Vec<FeedForwardLoop>,
        noise_sigma: f64,
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "need at least one stage");
        assert!(noise_sigma >= 0.0);
        for l in &loops {
            assert!(l.tap < l.target, "loop must feed forward: {l:?}");
            assert!(l.target < n, "loop target out of range: {l:?}");
        }
        FeedForwardArbiterPuf {
            alphas: (0..n).map(|_| gaussian(rng)).collect(),
            betas: (0..n).map(|_| gaussian(rng)).collect(),
            loops,
            noise_sigma,
        }
    }

    /// Manufactures an instance with `count` evenly spread loops, each
    /// spanning `span` stages.
    ///
    /// # Panics
    ///
    /// Panics if the loops do not fit (`count·1 + span >= n`).
    pub fn sample_spread<R: Rng + ?Sized>(
        n: usize,
        count: usize,
        span: usize,
        noise_sigma: f64,
        rng: &mut R,
    ) -> Self {
        assert!(span >= 1 && count >= 1);
        assert!(count * span < n, "loops do not fit into {n} stages");
        let loops = (0..count)
            .map(|i| {
                let tap = i * (n / (count + 1));
                FeedForwardLoop {
                    tap,
                    target: tap + span,
                }
            })
            .collect();
        Self::sample(n, loops, noise_sigma, rng)
    }

    /// The feed-forward loops.
    pub fn loops(&self) -> &[FeedForwardLoop] {
        &self.loops
    }

    /// The delay difference at the final arbiter (noise-free).
    pub fn delay_difference(&self, challenge: &BitVec) -> f64 {
        let n = self.alphas.len();
        assert_eq!(challenge.len(), n, "challenge length mismatch");
        let mut delta = 0.0f64;
        let mut overrides: Vec<Option<bool>> = vec![None; n];
        // Loop taps sorted by position are evaluated on the fly.
        for i in 0..n {
            let bit = overrides[i].unwrap_or_else(|| challenge.get(i));
            let chi = if bit { -1.0 } else { 1.0 };
            delta = chi * delta + self.alphas[i] + chi * self.betas[i];
            for l in &self.loops {
                if l.tap == i {
                    overrides[l.target] = Some(delta < 0.0);
                }
            }
        }
        delta
    }
}

impl BooleanFunction for FeedForwardArbiterPuf {
    fn num_inputs(&self) -> usize {
        self.alphas.len()
    }

    fn eval(&self, challenge: &BitVec) -> bool {
        self.delay_difference(challenge) < 0.0
    }
}

impl PufModel for FeedForwardArbiterPuf {
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        let eta = if self.noise_sigma > 0.0 {
            self.noise_sigma * gaussian(rng)
        } else {
            0.0
        };
        self.delay_difference(challenge) + eta < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_loops_equals_plain_arbiter_recursion() {
        // Without loops the device is deterministic and roughly balanced.
        let mut rng = StdRng::seed_from_u64(1);
        let puf = FeedForwardArbiterPuf::sample(32, vec![], 0.0, &mut rng);
        let ones = (0..2000)
            .filter(|_| puf.eval(&BitVec::random(32, &mut rng)))
            .count();
        let frac = ones as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.2, "bias {frac}");
    }

    #[test]
    fn overridden_bit_is_ignored() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = FeedForwardArbiterPuf::sample(
            16,
            vec![FeedForwardLoop { tap: 4, target: 10 }],
            0.0,
            &mut rng,
        );
        // Flipping challenge bit 10 never changes the response: the
        // loop drives that stage.
        for _ in 0..300 {
            let c = BitVec::random(16, &mut rng);
            let c2 = c.with_flipped(10);
            assert_eq!(puf.eval(&c), puf.eval(&c2));
        }
    }

    #[test]
    fn loops_break_phi_linearity() {
        use mlam_learn_shim::*;
        // A plain arbiter is phi-linear; a feed-forward one is not.
        // Verified indirectly: responses of the FF device disagree with
        // every phi-linear fit of its own CRPs noticeably more often.
        let mut rng = StdRng::seed_from_u64(3);
        let ff = FeedForwardArbiterPuf::sample_spread(24, 3, 6, 0.0, &mut rng);
        let err_ff = phi_linear_fit_error(&ff, 3000, &mut rng);
        let plain = FeedForwardArbiterPuf::sample(24, vec![], 0.0, &mut rng);
        let err_plain = phi_linear_fit_error(&plain, 3000, &mut rng);
        assert!(err_plain < 0.05, "plain arbiter fit error {err_plain}");
        assert!(
            err_ff > err_plain + 0.03,
            "feed-forward must resist the linear model: {err_ff} vs {err_plain}"
        );
    }

    /// Minimal in-crate phi-linear fitter (the full learners live in
    /// `mlam-learn`, which depends on this crate, so tests here carry a
    /// tiny local copy).
    mod mlam_learn_shim {
        use super::*;
        use crate::challenge::phi_transform;

        pub fn phi_linear_fit_error<F: BooleanFunction, R: Rng + ?Sized>(
            f: &F,
            m: usize,
            rng: &mut R,
        ) -> f64 {
            let n = f.num_inputs();
            let data: Vec<(Vec<f64>, f64)> = (0..m)
                .map(|_| {
                    let c = BitVec::random(n, rng);
                    (phi_transform(&c), f.eval_pm(&c))
                })
                .collect();
            let mut w = vec![0.0f64; n + 1];
            let mut best = w.clone();
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
                    .filter(|(phi, t)| {
                        phi.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() * t <= 0.0
                    })
                    .count();
                if err < best_err {
                    best_err = err;
                    best = w.clone();
                }
                if mistakes == 0 {
                    break;
                }
            }
            let _ = best;
            best_err as f64 / data.len() as f64
        }
    }

    #[test]
    fn noise_supported() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = FeedForwardArbiterPuf::sample_spread(16, 2, 4, 0.5, &mut rng);
        let c = BitVec::random(16, &mut rng);
        let _ = puf.eval_noisy(&c, &mut rng);
        assert_eq!(puf.loops().len(), 2);
    }

    #[test]
    #[should_panic(expected = "feed forward")]
    fn backward_loop_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        FeedForwardArbiterPuf::sample(
            8,
            vec![FeedForwardLoop { tap: 5, target: 2 }],
            0.0,
            &mut rng,
        );
    }
}
