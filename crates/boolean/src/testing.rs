//! Property testing: how close is an unknown function to a halfspace?
//!
//! Section V-A.2 of the paper runs the halfspace tester of
//! Matulef–O'Donnell–Rubinfeld–Servedio ("Testing Halfspaces", SICOMP
//! 2010) on CRPs collected from BR PUFs and reports, per Table III, the
//! minimum distance of each PUF from *any* halfspace. This module
//! implements
//!
//! - the **Chow statistic** at the core of the MORS tester: the squared
//!   degree-≤1 Fourier weight `W₁ = f̂(∅)² + Σᵢ f̂({i})²`, which is
//!   `≥ 2/π − O(ε)` for every function ε-close to a halfspace but small
//!   for functions far from all of them;
//! - a **distance estimator**: the disagreement of `f` with the best
//!   halfspace found by Chow reconstruction plus a pocket-perceptron
//!   polish — an upper bound on the true distance, which is what a
//!   practical tester (the paper's MATLAB code) reports;
//! - [`HalfspaceTester`], bundling both into an accept/reject verdict at
//!   chosen `(ε, δ)`.
//!
//! # Kernels
//!
//! Each fit/hold-out split is packed once into 64-example column blocks
//! (`bits::Columns`), and the fitting split once more into one row
//! buffer for the update pass. On the fitting split, the Chow statistic
//! is one popcount per column (its sums are exact integers, see
//! [`ChowParameters::from_data`]), and each of the pocket perceptron's
//! error passes — plus the held-out disagreement — sums 64 margins side
//! by side, each from `−θ` in weight order with terms equal bit for bit
//! to `wᵢ·x.pm(i)`. The update pass stays sequential, because every
//! example sees the weights the previous one left. It walks the row
//! buffer, which holds the split's row words ([`BitVec::words`]),
//! `n.div_ceil(64)` per example in the split's shuffled order, with the
//! labels beside it; it applies `±wᵢ` as a flip of the IEEE sign bit,
//! and reads only each margin's sign. It sums the margin in 8 lanes and
//! trusts the lanes' sign only when it is further from 0 than a bound
//! on the rounding error of any summation order; otherwise it sums in
//! weight order. Each answer is therefore the weight-order sum's sign,
//! every update adds `±1` to the same weights, and the [`TesterReport`]
//! is bit-identical to the per-example, per-bit definition.

use crate::bits::{
    byte_signs, nonpositive_lanes, row_bytes, row_sum_bound, row_sum_nonpositive, BitVec, Columns,
};
use crate::ltf::{ChowParameters, LinearThreshold};
use rand::seq::SliceRandom;
use rand::Rng;

/// Universal level-1 weight of halfspaces: any unbiased LTF has
/// `Σᵢ f̂({i})² ≥ 2/π` asymptotically (majority is the extremal case);
/// ε-closeness degrades this by `O(ε)`.
pub const HALFSPACE_LEVEL_ONE_FLOOR: f64 = 2.0 / std::f64::consts::PI;

/// Pocket-perceptron polish epochs per split.
const POLISH_EPOCHS: usize = 30;

/// Random fit/hold-out splits averaged per run.
const SPLITS: usize = 5;

/// Outcome of a halfspace test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The function is consistent with being (close to) a halfspace.
    Halfspace,
    /// The function is ε-far from every halfspace.
    FarFromHalfspace,
}

/// Report of one run of the [`HalfspaceTester`].
#[derive(Clone, Debug)]
pub struct TesterReport {
    /// Estimated squared degree-≤1 Fourier weight `W₁`.
    pub level_one_weight: f64,
    /// Estimated minimum distance to any halfspace, in `[0, 0.5]`:
    /// the disagreement of the best halfspace the tester could construct.
    pub distance_estimate: f64,
    /// Accept/reject verdict at the tester's `eps`.
    pub verdict: Verdict,
    /// Number of labeled examples consumed.
    pub examples_used: usize,
}

/// Halfspace property tester in the style of Matulef et al. \[28\].
///
/// Given `poly(1/ε)` uniformly distributed labeled examples it
/// distinguishes halfspaces from functions ε-far from every halfspace,
/// with confidence `δ`. [`HalfspaceTester::run`] never reads `δ`: it
/// uses the sample it is given, and only
/// [`HalfspaceTester::examples_needed`] sizes a sample from `δ`.
///
/// # Example
///
/// ```
/// use mlam_boolean::testing::{HalfspaceTester, Verdict};
/// use mlam_boolean::{BitVec, BooleanFunction, LinearThreshold};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let ltf = LinearThreshold::random(16, &mut rng);
/// let data: Vec<(BitVec, bool)> = (0..4000)
///     .map(|_| {
///         let x = BitVec::random(16, &mut rng);
///         let y = ltf.eval(&x);
///         (x, y)
///     })
///     .collect();
/// let report = HalfspaceTester::new(0.1, 0.99).run(16, &data, &mut rng);
/// assert_eq!(report.verdict, Verdict::Halfspace);
/// assert!(report.distance_estimate < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct HalfspaceTester {
    eps: f64,
    delta: f64,
}

impl HalfspaceTester {
    /// Creates a tester distinguishing halfspaces from functions
    /// `eps`-far from every halfspace with confidence `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `eps ∉ (0, 0.5]` or `delta ∉ (0, 1)`.
    pub fn new(eps: f64, delta: f64) -> Self {
        assert!(eps > 0.0 && eps <= 0.5, "eps must be in (0, 0.5]");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        HalfspaceTester { eps, delta }
    }

    /// Number of uniform examples the tester wants:
    /// `O(log(1/(1-δ)) / ε²)` for the Chow statistic.
    pub fn examples_needed(&self) -> usize {
        let conf = (1.0 / (1.0 - self.delta)).ln().max(1.0);
        ((conf / (self.eps * self.eps)).ceil() as usize).max(100)
    }

    /// Runs the tester on a labeled sample of uniform CRPs.
    ///
    /// Each of five random splits uses 70 % of the sample to fit a
    /// candidate halfspace (Chow LTF + pocket-perceptron polish) and
    /// the held-out 30 % for an unbiased disagreement estimate; the
    /// reported distance and Chow statistic are averaged over the
    /// splits.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains vectors of length ≠ `n`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        n: usize,
        data: &[(BitVec, bool)],
        rng: &mut R,
    ) -> TesterReport {
        assert!(!data.is_empty(), "tester needs at least one example");
        for (x, _) in data {
            assert_eq!(x.len(), n, "example length mismatch");
        }
        let mut w1_sum = 0.0;
        let mut distance_sum = 0.0;
        for _ in 0..SPLITS {
            let mut shuffled: Vec<&(BitVec, bool)> = data.iter().collect();
            shuffled.shuffle(rng);
            let fit_len = ((shuffled.len() * 7) / 10).max(1);
            let (fit, held) = shuffled.split_at(fit_len);
            let held = if held.is_empty() { fit } else { held };
            let fit_cols = Columns::new(n, fit.iter().copied());

            // 1. Chow statistic on the fitting split.
            let chow = ChowParameters::from_columns(&fit_cols);
            w1_sum += chow.level_one_weight();

            // 2. Candidate halfspace: Chow LTF + pocket-perceptron polish.
            let candidate = pocket(fit, &fit_cols, Some(chow.to_ltf()), POLISH_EPOCHS);

            // 3. Distance = held-out disagreement of the candidate.
            let held_cols = Columns::new(n, held.iter().copied());
            let wrong = errors(&held_cols, candidate.weights(), candidate.threshold());
            distance_sum += wrong as f64 / held.len() as f64;
        }
        let w1 = w1_sum / SPLITS as f64;
        let distance = distance_sum / SPLITS as f64;

        // Verdict: far from every halfspace if BOTH the spectral
        // signature is weak and no good halfspace was found. A halfspace
        // that is merely biased can have small W1, so the constructive
        // evidence (a candidate achieving distance < eps) dominates.
        let verdict =
            if distance <= self.eps || w1 >= HALFSPACE_LEVEL_ONE_FLOOR * (1.0 - 4.0 * self.eps) {
                Verdict::Halfspace
            } else {
                Verdict::FarFromHalfspace
            };

        TesterReport {
            level_one_weight: w1,
            distance_estimate: distance,
            verdict,
            examples_used: data.len(),
        }
    }
}

/// Number of packed examples on which the halfspace `sgn(w·x − θ)`
/// disagrees with the label: 64 margins at a time, each summed from
/// `−θ` in weight order exactly as [`LinearThreshold::margin`] sums it.
fn errors(cols: &Columns, w: &[f64], theta: f64) -> usize {
    cols.blocks()
        .map(|block| {
            let predicted = nonpositive_lanes(-theta, block.columns, w);
            ((predicted ^ block.labels) & block.lanes).count_ones() as usize
        })
        .sum()
}

/// Pocket perceptron: runs perceptron updates over the sample, keeping
/// the best weight vector ("pocket") seen by training error. Used here
/// only to *construct a candidate halfspace*; the full-featured learner
/// lives in `mlam-learn`.
///
/// `init` optionally seeds the weights (e.g. from Chow parameters).
///
/// # Panics
///
/// Panics if an example's length differs from `n`.
pub fn pocket_perceptron(
    n: usize,
    data: &[(BitVec, bool)],
    init: Option<LinearThreshold>,
    epochs: usize,
) -> LinearThreshold {
    let fit: Vec<&(BitVec, bool)> = data.iter().collect();
    pocket(&fit, &Columns::new(n, data), init, epochs)
}

/// [`pocket_perceptron`] over `fit`, with `cols` the same examples
/// packed for the error passes.
///
/// The update pass is sequential — each example sees the weights the
/// previous one left — so it reads `fit`'s row words ([`BitVec::words`])
/// copied once into one buffer, `n.div_ceil(64)` words per example in
/// `fit`'s order, with the labels beside it. It needs only each
/// margin's sign, which [`row_sum_nonpositive`] gives exactly under a
/// rounding bound that depends on the weights alone, so the bound is
/// recomputed after each update. The update adds `±1` to each weight, 8
/// features at a time with their sign masks. Each epoch's error count
/// runs over the column blocks instead; it is an integer, so it does
/// not depend on the order the blocks hold the examples in.
fn pocket(
    fit: &[&(BitVec, bool)],
    cols: &Columns,
    init: Option<LinearThreshold>,
    epochs: usize,
) -> LinearThreshold {
    let n = cols.num_inputs();
    let (mut w, mut theta) = match init {
        Some(ltf) => {
            let mut w = ltf.weights().to_vec();
            w.resize(n, 0.0);
            (w, ltf.threshold())
        }
        None => (vec![0.0; n], 0.0),
    };
    let mut best_err = errors(cols, &w, theta);
    let mut best_w = w.clone();
    let mut best_theta = theta;
    let mut bound = row_sum_bound(-theta, &w);
    let stride = n.div_ceil(64);
    let rows: Vec<u64> = fit.iter().flat_map(|(x, _)| x.words()).copied().collect();
    let labels: Vec<bool> = fit.iter().map(|(_, y)| *y).collect();

    for _ in 0..epochs {
        let mut updated = false;
        for (k, &y) in labels.iter().enumerate() {
            let row = &rows[k * stride..][..stride];
            if row_sum_nonpositive(-theta, &w, row, bound) != y {
                // w += target·x with target = to_pm(y): a ±1 product.
                let target = crate::to_pm(y);
                let (tiles, tail) = w.as_chunks_mut::<8>();
                let mut bytes = row_bytes(row);
                for (ws, byte) in tiles.iter_mut().zip(&mut bytes) {
                    let masks = byte_signs(byte);
                    for k in 0..8 {
                        ws[k] += f64::from_bits(target.to_bits() ^ masks[k]);
                    }
                }
                if let Some(byte) = bytes.next() {
                    for (wk, mask) in tail.iter_mut().zip(byte_signs(byte)) {
                        *wk += f64::from_bits(target.to_bits() ^ mask);
                    }
                }
                theta -= target;
                bound = row_sum_bound(-theta, &w);
                updated = true;
            }
        }
        let err = errors(cols, &w, theta);
        if err < best_err {
            best_err = err;
            best_w = w.clone();
            best_theta = theta;
        }
        if best_err == 0 || !updated {
            break;
        }
    }
    LinearThreshold::new(best_w, best_theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{BooleanFunction, FnFunction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fraction of `data` on which `ltf` disagrees with the labels.
    fn disagreement(ltf: &LinearThreshold, data: &[(BitVec, bool)]) -> f64 {
        let wrong = data.iter().filter(|(x, y)| ltf.eval(x) != *y).count();
        wrong as f64 / data.len() as f64
    }

    fn sample<F: BooleanFunction>(f: &F, m: usize, rng: &mut StdRng) -> Vec<(BitVec, bool)> {
        (0..m)
            .map(|_| {
                let x = BitVec::random(f.num_inputs(), rng);
                let y = f.eval(&x);
                (x, y)
            })
            .collect()
    }

    #[test]
    fn accepts_random_ltf() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..3 {
            let mut frng = StdRng::seed_from_u64(100 + seed);
            let ltf = LinearThreshold::random(20, &mut frng);
            let data = sample(&ltf, 5000, &mut rng);
            let rep = HalfspaceTester::new(0.1, 0.95).run(20, &data, &mut rng);
            assert_eq!(rep.verdict, Verdict::Halfspace, "seed {seed}: {rep:?}");
            assert!(rep.distance_estimate < 0.06, "{rep:?}");
        }
    }

    #[test]
    fn rejects_parity() {
        let mut rng = StdRng::seed_from_u64(2);
        let parity = FnFunction::new(16, |x: &BitVec| x.count_ones() % 2 == 1);
        let data = sample(&parity, 6000, &mut rng);
        let rep = HalfspaceTester::new(0.1, 0.95).run(16, &data, &mut rng);
        assert_eq!(rep.verdict, Verdict::FarFromHalfspace, "{rep:?}");
        assert!(rep.level_one_weight < 0.05, "{rep:?}");
        assert!(rep.distance_estimate > 0.3, "{rep:?}");
    }

    #[test]
    fn rejects_two_bit_inner_product() {
        // IP(x) = x0x1 ⊕ x2x3 ⊕ ... is far from halfspaces.
        let mut rng = StdRng::seed_from_u64(3);
        let ip = FnFunction::new(16, |x: &BitVec| {
            let mut acc = false;
            for i in (0..16).step_by(2) {
                acc ^= x.get(i) && x.get(i + 1);
            }
            acc
        });
        let data = sample(&ip, 8000, &mut rng);
        let rep = HalfspaceTester::new(0.1, 0.95).run(16, &data, &mut rng);
        assert_eq!(rep.verdict, Verdict::FarFromHalfspace, "{rep:?}");
    }

    #[test]
    fn pocket_perceptron_fits_separable_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let target = LinearThreshold::random(10, &mut rng);
        let data = sample(&target, 800, &mut rng);
        let fit = pocket_perceptron(10, &data, None, 400);
        assert_eq!(disagreement(&fit, &data), 0.0);
    }

    #[test]
    fn chow_init_speeds_up_fit() {
        let mut rng = StdRng::seed_from_u64(5);
        let target = LinearThreshold::random(12, &mut rng);
        let data = sample(&target, 1500, &mut rng);
        let chow = ChowParameters::from_data(12, &data);
        let fit = pocket_perceptron(12, &data, Some(chow.to_ltf()), 3);
        assert!(disagreement(&fit, &data) < 0.03);
    }

    #[test]
    fn examples_needed_scales_with_eps() {
        let few = HalfspaceTester::new(0.2, 0.9).examples_needed();
        let many = HalfspaceTester::new(0.05, 0.9).examples_needed();
        assert!(many > few);
    }

    #[test]
    fn distance_estimate_is_at_most_half_for_balanced_targets() {
        // Even for the worst function the pocket candidate can trivially
        // reach <= 0.5 by majority voting; verify on parity.
        let mut rng = StdRng::seed_from_u64(6);
        let parity = FnFunction::new(12, |x: &BitVec| x.count_ones() % 2 == 1);
        let data = sample(&parity, 4000, &mut rng);
        let rep = HalfspaceTester::new(0.1, 0.9).run(12, &data, &mut rng);
        assert!(rep.distance_estimate <= 0.55, "{rep:?}");
    }

    #[test]
    #[should_panic(expected = "at least one example")]
    fn empty_sample_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        HalfspaceTester::new(0.1, 0.9).run(4, &[], &mut rng);
    }
}
