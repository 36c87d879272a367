//! A behavioural model of the Bistable Ring (BR) PUF.
//!
//! No exact mathematical model of BR PUFs is known (paper, Section
//! II-B); what *is* known empirically (Xu et al. \[11\], reproduced by the
//! paper's Tables II and III) is that BR PUFs are approximated — but not
//! captured — by linear threshold functions: LTF models plateau around
//! 90–95 % accuracy, and the halfspace tester certifies the devices to
//! be far from every halfspace.
//!
//! [`BistableRingPuf`] reproduces this phenomenology from first
//! principles. Each of the `n` stages holds two candidate elements
//! (inverters) with manufacture-random strengths; the challenge bit
//! selects one. The settled state of the ring is decided by the sign of
//! a potential with three contributions:
//!
//! - the **sum of selected strengths** (affine in the ±1 challenge ⇒ an
//!   LTF part — the reason LTFs approximate BR PUFs at all),
//! - **pairwise couplings** between neighbouring selected elements
//!   (degree-2 in the challenge ⇒ beyond any LTF),
//! - optional **triple couplings** (degree-3).
//!
//! The relative strength of the interaction terms is the model's
//! nonlinearity dial: with `pair_strength = 0` the device *is* an LTF;
//! as it grows, the best halfspace approximator degrades exactly like
//! the accuracy plateau of Table II, and the spectral level-≤1 weight
//! collapses as Table III requires.

use crate::arbiter::gaussian;
use crate::PufModel;
use mlam_boolean::bits::sign_select;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// Configuration of the BR PUF interaction model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrPufConfig {
    /// Relative strength of pairwise (degree-2) couplings.
    pub pair_strength: f64,
    /// Relative strength of triple (degree-3) couplings.
    pub triple_strength: f64,
    /// Standard deviation of fresh evaluation noise.
    pub noise_sigma: f64,
}

impl BrPufConfig {
    /// A purely linear (LTF) device: no interactions, no noise.
    pub fn linear() -> Self {
        BrPufConfig {
            pair_strength: 0.0,
            triple_strength: 0.0,
            noise_sigma: 0.0,
        }
    }

    /// Presets calibrated against the **halfspace tester** so the
    /// measured distance from every halfspace follows Table III
    /// (≈20 % at n=16, ≈40 % at n=32, →50 % at n=64).
    ///
    /// With pure-character interactions, the linear challenge variance
    /// is `≈ n/2` and each pairwise coupling contributes `λ²` per
    /// stage, so the degree-≥2 variance fraction — and through the
    /// Gaussian sign picture `dist ≈ arccos(ρ)/π` with
    /// `ρ² = V_lin/(V_lin+V_int)` — is set directly by `λ`.
    pub fn calibrated(n: usize) -> Self {
        // The 16-bit point is measured from only 100 CRPs (70/30
        // fit/hold-out), where the estimator adds a generalization gap
        // of roughly d/m ≈ 0.15 on top of the true distance; the preset
        // therefore targets a smaller true distance so the *measured*
        // value lands at the paper's ≈20 %.
        let (pair_strength, triple_strength) = match n {
            0..=16 => (0.25, 0.0),
            17..=32 => (2.0, 0.6),
            _ => (5.0, 2.5),
        };
        BrPufConfig {
            pair_strength,
            triple_strength,
            noise_sigma: 0.0,
        }
    }

    /// Presets calibrated against the **Table II accuracy plateau**:
    /// the best LTF surrogate reaches ≈80 % on the 16-bit device and
    /// ≈92–94 % on the 32/64-bit devices and stops improving with more
    /// CRPs.
    ///
    /// The paper's Tables II and III pull in opposite directions (the
    /// 16-bit FPGA device is both the *least* LTF-learnable in Table II
    /// and the *closest* to a halfspace in Table III), so no single
    /// parameter point reproduces both; this preset matches Table II,
    /// [`BrPufConfig::calibrated`] matches Table III. See
    /// `EXPERIMENTS.md` for the discussion.
    pub fn calibrated_accuracy(n: usize) -> Self {
        let pair_strength = match n {
            0..=16 => 0.45,
            17..=32 => 0.17,
            _ => 0.15,
        };
        BrPufConfig {
            pair_strength,
            triple_strength: 0.0,
            noise_sigma: 0.0,
        }
    }
}

impl Default for BrPufConfig {
    fn default() -> Self {
        BrPufConfig::calibrated(64)
    }
}

/// An `n`-stage Bistable Ring PUF under the interaction model described
/// in the [module documentation](self).
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction};
/// use mlam_puf::{BistableRingPuf, BrPufConfig, PufModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let puf = BistableRingPuf::sample(32, BrPufConfig::calibrated(32), &mut rng);
/// let c = BitVec::random(32, &mut rng);
/// let _r = puf.eval(&c);
/// assert_eq!(puf.challenge_bits(), 32);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BistableRingPuf {
    /// Per-stage element strengths: `strengths[i][b]` is the strength of
    /// the element stage `i` uses when challenge bit `i` equals `b`.
    strengths: Vec<[f64; 2]>,
    /// Pairwise coupling coefficients between ring neighbours
    /// (`couplings[i]` couples stage `i` with stage `(i+1) mod n`).
    couplings: Vec<f64>,
    /// Triple coupling coefficients (`triples[i]` couples stages
    /// `i, i+1, i+2 mod n`).
    triples: Vec<f64>,
    /// Manufacture-time centering offset `E_c[V]`, subtracted from the
    /// potential so instances are roughly response-balanced. (Physical
    /// BR PUFs are often heavily biased; the paper's experiments use
    /// devices balanced enough that 50 % is the chance baseline, which
    /// this centering reproduces.)
    offset: f64,
    config: BrPufConfig,
}

impl BistableRingPuf {
    /// Manufactures a random instance with `n` stages.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (a bistable ring needs at least three stages)
    /// or a config field is negative.
    pub fn sample<R: Rng + ?Sized>(n: usize, config: BrPufConfig, rng: &mut R) -> Self {
        assert!(n >= 3, "bistable ring needs at least 3 stages, got {n}");
        assert!(
            config.pair_strength >= 0.0
                && config.triple_strength >= 0.0
                && config.noise_sigma >= 0.0,
            "config fields must be non-negative"
        );
        let strengths: Vec<[f64; 2]> = (0..n).map(|_| [gaussian(rng), gaussian(rng)]).collect();
        let couplings: Vec<f64> = (0..n)
            .map(|_| config.pair_strength * gaussian(rng))
            .collect();
        let triples: Vec<f64> = (0..n)
            .map(|_| config.triple_strength * gaussian(rng))
            .collect();
        // Analytic mean of the potential over uniform challenges: the
        // interaction terms couple *mismatches* (mean-zero characters),
        // so only the linear part needs centering: E[s_i] = (t_i0+t_i1)/2.
        let offset: f64 = strengths.iter().map(|t| (t[0] + t[1]) / 2.0).sum();
        BistableRingPuf {
            strengths,
            couplings,
            triples,
            offset,
            config,
        }
    }

    /// The configuration this instance was manufactured with.
    pub fn config(&self) -> BrPufConfig {
        self.config
    }

    /// The settling potential whose sign decides the response.
    ///
    /// `V(c) = Σᵢ s_i(c_i) − E[Σ s_i]  +  Σᵢ βᵢ·xᵢ·xᵢ₊₁  +  Σᵢ γᵢ·xᵢ·xᵢ₊₁·xᵢ₊₂`
    /// with `x_i = ±1` the encoded challenge bit. The couplings act on
    /// the *mismatch* of neighbouring stages (which equals the ±1
    /// character `x_i·x_j` up to the per-stage mismatch magnitudes
    /// folded into β, γ at manufacture), so they carry pure degree-2/3
    /// Fourier weight — the ingredient that takes the device outside
    /// the LTF class.
    ///
    /// The sum reads the challenge a word at a time
    /// ([`BitVec::words`]). Bit `i` picks stage `i`'s strength. With
    /// `b` the challenge bits and `rot_k` the ring rotation (bit `i` ←
    /// bit `(i + k) mod n`, wrapping across the last word), bit `i` of
    /// the neighbour parities `b ⊕ rot₁(b)` is set iff `xᵢ·xᵢ₊₁ = −1`,
    /// and bit `i` of the triple parities `b ⊕ rot₁(b) ⊕ rot₂(b)` iff
    /// `xᵢ·xᵢ₊₁·xᵢ₊₂ = −1`; each coupling is added as
    /// [`sign_select`]`(βᵢ, parity bit)`. The result is bit for bit the
    /// per-stage sum above: the terms, their order and the start value
    /// `−E[Σ s_i]` are the same, and a product by `±1·±1` only flips
    /// the sign bit, signed zeros included.
    pub fn potential(&self, challenge: &BitVec) -> f64 {
        let n = self.strengths.len();
        assert_eq!(challenge.len(), n, "challenge length mismatch");
        let words = challenge.words();
        // Linear part: selected element strengths, centered.
        let mut v: f64 = -self.offset;
        for (ts, &word) in self.strengths.chunks(64).zip(words) {
            for (j, t) in ts.iter().enumerate() {
                v += t[((word >> j) & 1) as usize];
            }
        }
        for (g, cs) in self.couplings.chunks(64).enumerate() {
            let (pairs, _) = ring_parities(words, n, g);
            for (j, &c) in cs.iter().enumerate() {
                v += sign_select(c, pairs >> j);
            }
        }
        if self.config.triple_strength > 0.0 {
            for (g, ts) in self.triples.chunks(64).enumerate() {
                let (_, triples) = ring_parities(words, n, g);
                for (j, &t) in ts.iter().enumerate() {
                    v += sign_select(t, triples >> j);
                }
            }
        }
        v
    }
}

/// Word `g` of the neighbour parities `b ⊕ rot₁(b)` and the triple
/// parities `b ⊕ rot₁(b) ⊕ rot₂(b)` of the `n`-bit ring `b`
/// ([`BitVec::words`] layout, `n ≥ 3`). Bits past `n` are not
/// meaningful.
#[inline]
fn ring_parities(b: &[u64], n: usize, g: usize) -> (u64, u64) {
    let (e0, e1) = (ring_word(b, n, g), ring_word(b, n, g + 1));
    let pairs = e0 ^ ((e0 >> 1) | (e1 << 63));
    (pairs, pairs ^ ((e0 >> 2) | (e1 << 62)))
}

/// Word `g` of the ring `b` unrolled past its end: bits `n` and `n + 1`
/// repeat bits 0 and 1, so bit `i + k` is ring bit `(i + k) mod n` for
/// every `i < n` and `k ≤ 2`.
#[inline]
fn ring_word(b: &[u64], n: usize, g: usize) -> u64 {
    let wrap = b[0] & 3;
    let mut word = b.get(g).copied().unwrap_or(0);
    if g == n / 64 {
        word |= wrap << (n % 64);
    } else if g == n / 64 + 1 && n % 64 == 63 {
        word |= wrap >> 1;
    }
    word
}

impl BooleanFunction for BistableRingPuf {
    fn num_inputs(&self) -> usize {
        self.strengths.len()
    }

    /// Ideal response: logic 1 iff the ring settles into the negative
    /// state.
    fn eval(&self, challenge: &BitVec) -> bool {
        self.potential(challenge) < 0.0
    }
}

impl PufModel for BistableRingPuf {
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        let v = self.potential(challenge);
        let eta = if self.config.noise_sigma > 0.0 {
            self.config.noise_sigma * gaussian(rng)
        } else {
            0.0
        };
        v + eta < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::ltf::ChowParameters;
    use mlam_boolean::testing::pocket_perceptron;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-bit potential the word-wise one replaced: one
    /// [`BitVec::pm`] per factor, ring neighbours by `% n`.
    fn potential_per_bit(puf: &BistableRingPuf, challenge: &BitVec) -> f64 {
        let n = puf.strengths.len();
        let x = |i: usize| -> f64 { challenge.pm(i) };
        let mut v: f64 = -puf.offset;
        for i in 0..n {
            v += puf.strengths[i][usize::from(challenge.get(i))];
        }
        for i in 0..n {
            v += puf.couplings[i] * x(i) * x((i + 1) % n);
        }
        if puf.config.triple_strength > 0.0 {
            for i in 0..n {
                v += puf.triples[i] * x(i) * x((i + 1) % n) * x((i + 2) % n);
            }
        }
        v
    }

    #[test]
    fn potential_is_bit_identical_to_the_per_bit_sum() {
        // Ring lengths on both sides of the 64-bit word boundaries,
        // where the rotations wrap across the last word.
        for n in (3..=70).chain(127..=130) {
            let presets = [
                BrPufConfig::linear(),
                BrPufConfig::calibrated(n),
                BrPufConfig::calibrated_accuracy(n),
            ];
            for (k, config) in presets.into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64((n * 3 + k) as u64);
                let puf = BistableRingPuf::sample(n, config, &mut rng);
                for _ in 0..2000 {
                    let c = BitVec::random(n, &mut rng);
                    assert_eq!(
                        puf.potential(&c).to_bits(),
                        potential_per_bit(&puf, &c).to_bits(),
                        "n={n} {config:?} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn noisy_responses_draw_as_the_per_bit_sum_did() {
        for n in [3, 16, 17, 63, 64, 65, 130] {
            let config = BrPufConfig {
                noise_sigma: 2.0,
                ..BrPufConfig::calibrated(n)
            };
            let mut rng = StdRng::seed_from_u64(n as u64);
            let puf = BistableRingPuf::sample(n, config, &mut rng);
            let mut reference = rng.clone();
            let mut flips = 0;
            for _ in 0..500 {
                let c = BitVec::random(n, &mut rng);
                let got = puf.eval_noisy(&c, &mut rng);
                let c = BitVec::random(n, &mut reference);
                let v = potential_per_bit(&puf, &c);
                let want = v + config.noise_sigma * gaussian(&mut reference) < 0.0;
                assert_eq!(got, want, "n={n} c={c}");
                flips += usize::from(want != (v < 0.0));
            }
            assert!(flips > 0, "n={n}: the noise never flipped a response");
            assert_eq!(rng.gen::<u64>(), reference.gen::<u64>(), "n={n}");
        }
    }

    fn sample_crps(puf: &BistableRingPuf, m: usize, rng: &mut StdRng) -> Vec<(BitVec, bool)> {
        (0..m)
            .map(|_| {
                let c = BitVec::random(puf.num_inputs(), rng);
                let r = puf.eval(&c);
                (c, r)
            })
            .collect()
    }

    #[test]
    fn linear_config_is_learnable_by_an_ltf() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = BistableRingPuf::sample(16, BrPufConfig::linear(), &mut rng);
        let train = sample_crps(&puf, 2000, &mut rng);
        let fit = pocket_perceptron(16, &train, None, 50);
        let test = sample_crps(&puf, 2000, &mut rng);
        let agree =
            test.iter().filter(|(c, r)| fit.eval(c) == *r).count() as f64 / test.len() as f64;
        assert!(agree > 0.95, "linear BR PUF should be ≈LTF, got {agree}");
    }

    #[test]
    fn calibrated_config_resists_ltf_approximation() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = BistableRingPuf::sample(64, BrPufConfig::calibrated(64), &mut rng);
        let train = sample_crps(&puf, 4000, &mut rng);
        let chow = ChowParameters::from_data(64, &train);
        let fit = pocket_perceptron(64, &train, Some(chow.to_ltf()), 20);
        let test = sample_crps(&puf, 4000, &mut rng);
        let agree =
            test.iter().filter(|(c, r)| fit.eval(c) == *r).count() as f64 / test.len() as f64;
        assert!(
            agree < 0.95,
            "calibrated 64-bit BR PUF must not be LTF-learnable to >95 %, got {agree}"
        );
    }

    #[test]
    fn responses_not_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = BistableRingPuf::sample(32, BrPufConfig::calibrated(32), &mut rng);
        let crps = sample_crps(&puf, 500, &mut rng);
        let ones = crps.iter().filter(|(_, r)| *r).count();
        assert!(
            ones > 50 && ones < 450,
            "degenerate response bias: {ones}/500"
        );
    }

    #[test]
    fn noiseless_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = BistableRingPuf::sample(16, BrPufConfig::calibrated(16), &mut rng);
        let c = BitVec::random(16, &mut rng);
        let r = puf.eval(&c);
        for _ in 0..10 {
            assert_eq!(puf.eval_noisy(&c, &mut rng), r);
        }
    }

    #[test]
    fn noise_sigma_induces_instability() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = BrPufConfig {
            noise_sigma: 2.0,
            ..BrPufConfig::calibrated(32)
        };
        let puf = BistableRingPuf::sample(32, cfg, &mut rng);
        let mut flips = 0;
        for _ in 0..500 {
            let c = BitVec::random(32, &mut rng);
            if puf.eval_noisy(&c, &mut rng) != puf.eval(&c) {
                flips += 1;
            }
        }
        assert!(flips > 10, "expected unstable CRPs, got {flips}");
    }

    #[test]
    #[should_panic(expected = "at least 3 stages")]
    fn tiny_ring_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        BistableRingPuf::sample(2, BrPufConfig::linear(), &mut rng);
    }

    #[test]
    fn calibrated_strengths_increase_with_n() {
        assert!(
            BrPufConfig::calibrated(16).pair_strength < BrPufConfig::calibrated(64).pair_strength
        );
    }
}
