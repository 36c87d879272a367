//! Fourier expansions of Boolean functions.
//!
//! Every `f : {-1,+1}^n -> {-1,+1}` has a unique expansion
//! `f(x) = Σ_S f̂(S)·χ_S(x)` with `χ_S(x) = Π_{i∈S} x_i` (paper,
//! Section III-A). This module provides
//!
//! - [`FourierExpansion`]: the dense table of all `2^n` coefficients
//!   (exact, small `n`),
//! - [`SparseFourier`]: a sparse list of (mask, coefficient) pairs,
//!   usable as a hypothesis (it implements
//!   [`BooleanFunction`] by taking the sign of
//!   the truncated expansion — exactly what the LMN algorithm outputs),
//! - [`estimate_coefficients_from_data`]: estimates of selected
//!   coefficients from an explicit labeled sample, the core primitive of
//!   the LMN algorithm, which learns from CRPs.
//!
//! # Packed kernels
//!
//! Both sample sweeps the LMN algorithm makes run over the sample
//! packed into 64-example column blocks (`bits::Columns`), where the
//! character `χ_S` of 64 examples is one XOR of `|S|` columns:
//!
//! - **Estimation.** `f̂(S)` sums one `±1` per example, an exact
//!   integer in `f64`, so the sum is `len − 2·popcount(labels ⊕ χ_S)`
//!   and the estimate is that divided by `len` — bit for bit what adding
//!   the products one at a time gives.
//! - **Evaluation.** [`SparseFourier`]'s
//!   [`BooleanFunction::count_agreements`] sums 64 expansions side by
//!   side, each adding the terms in [`SparseFourier::terms`] order from
//!   `-0.0`, the same fold as [`SparseFourier::eval_real`] — so the
//!   count equals the per-example one, and an empty expansion is `-0.0`,
//!   logic 1, on both paths.

use crate::bits::{nonpositive_lanes, sign_select, BitVec, Columns};
use crate::function::BooleanFunction;

/// Dense table of all `2^n` Fourier coefficients of a function.
///
/// Index `S` (a `u64` subset mask) holds `f̂(S)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FourierExpansion {
    n: usize,
    coeffs: Vec<f64>,
}

impl FourierExpansion {
    /// Wraps a coefficient table (index = subset mask, length `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != 2^n`.
    pub fn from_coefficients(n: usize, coeffs: Vec<f64>) -> Self {
        assert_eq!(coeffs.len(), 1usize << n, "coefficient table length");
        FourierExpansion { n, coeffs }
    }

    /// Number of input variables.
    pub fn num_inputs(&self) -> usize {
        self.n
    }

    /// Coefficient `f̂(S)` for the subset mask `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= 2^n`.
    pub fn coefficient(&self, s: u64) -> f64 {
        self.coeffs[s as usize]
    }

    /// All coefficients, indexed by subset mask.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Total squared Fourier weight `Σ_S f̂(S)²`.
    ///
    /// For a ±1-valued function this equals 1 (Parseval).
    pub fn total_weight(&self) -> f64 {
        self.coeffs.iter().map(|c| c * c).sum()
    }

    /// Squared Fourier weight at each degree: entry `k` is
    /// `Σ_{|S|=k} f̂(S)²`.
    pub fn weight_by_degree(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.n + 1];
        for (s, c) in self.coeffs.iter().enumerate() {
            w[(s as u64).count_ones() as usize] += c * c;
        }
        w
    }

    /// Squared weight on degrees `> d`: `Σ_{|S|>d} f̂(S)²`.
    ///
    /// The LMN theorem bounds the approximation error of the degree-`d`
    /// truncation by exactly this quantity.
    pub fn weight_above_degree(&self, d: usize) -> f64 {
        self.weight_by_degree().iter().skip(d + 1).sum()
    }

    /// Truncates to degrees `<= d`, returning a sparse expansion.
    pub fn truncate(&self, d: usize) -> SparseFourier {
        let terms = self
            .coeffs
            .iter()
            .enumerate()
            .filter(|(s, _)| (*s as u64).count_ones() as usize <= d)
            .map(|(s, &c)| (s as u64, c))
            .collect();
        SparseFourier::new(self.n, terms)
    }

    /// Keeps only coefficients with `|f̂(S)| >= threshold`.
    pub fn significant(&self, threshold: f64) -> SparseFourier {
        let terms = self
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.abs() >= threshold)
            .map(|(s, &c)| (s as u64, c))
            .collect();
        SparseFourier::new(self.n, terms)
    }

    /// Evaluates the real-valued expansion at `x`.
    pub fn eval_real(&self, x: &BitVec) -> f64 {
        assert!(self.n <= 63);
        let xm = x.to_u64();
        self.coeffs
            .iter()
            .enumerate()
            .map(|(s, c)| {
                let sign = if (xm & s as u64).count_ones() % 2 == 1 {
                    -1.0
                } else {
                    1.0
                };
                c * sign
            })
            .sum()
    }
}

/// A sparse Fourier expansion: a list of `(mask, coefficient)` terms.
///
/// Used as the hypothesis representation of the LMN low-degree algorithm:
/// the Boolean function it denotes is `sign(Σ f̂(S) χ_S(x))`. This is an
/// **improper** representation — it need not be in the target concept
/// class — which is exactly the freedom Section V-B of the paper argues
/// an adversary should be granted.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SparseFourier {
    n: usize,
    terms: Vec<(u64, f64)>,
}

impl SparseFourier {
    /// Creates a sparse expansion over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > 63` or any mask has bits outside `[0, n)`.
    pub fn new(n: usize, terms: Vec<(u64, f64)>) -> Self {
        assert!(n <= 63, "sparse Fourier masks limited to n <= 63");
        for (mask, _) in &terms {
            assert!(
                n == 63 || *mask < (1u64 << n),
                "mask {mask:#b} out of range for n={n}"
            );
        }
        SparseFourier { n, terms }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The `(mask, coefficient)` terms.
    pub fn terms(&self) -> &[(u64, f64)] {
        &self.terms
    }

    /// Number of stored terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the real-valued expansion `Σ f̂(S)·χ_S(x)`: the terms
    /// added in [`SparseFourier::terms`] order starting from `-0.0`
    /// (the start of `f64`'s `Sum`), the definition
    /// [`BooleanFunction::count_agreements`] shares 64 examples at a
    /// time.
    pub fn eval_real(&self, x: &BitVec) -> f64 {
        let xm = x.to_u64();
        self.terms.iter().fold(-0.0, |acc, &(s, c)| {
            acc + sign_select(c, u64::from((xm & s).count_ones()))
        })
    }

    /// Squared weight `Σ f̂(S)²` over the stored terms.
    pub fn weight(&self) -> f64 {
        self.terms.iter().map(|(_, c)| c * c).sum()
    }

    /// Maximum degree (popcount) over the stored terms, 0 if empty.
    pub fn degree(&self) -> usize {
        self.terms
            .iter()
            .map(|(s, _)| s.count_ones() as usize)
            .max()
            .unwrap_or(0)
    }
}

impl BooleanFunction for SparseFourier {
    fn num_inputs(&self) -> usize {
        self.n
    }

    /// The sign hypothesis: logic 1 (`true`) iff the expansion is
    /// negative, matching the `χ(1) = -1` encoding.
    fn eval(&self, x: &BitVec) -> bool {
        crate::to_bool(self.eval_real(x))
    }

    /// Column kernel: per 64-example block, each term's character is
    /// one XOR of columns and the 64 expansions are summed side by side
    /// in [`SparseFourier::eval_real`]'s order, so the count equals the
    /// per-example one exactly.
    ///
    /// # Panics
    ///
    /// Panics if an example's length differs from `num_inputs()`.
    fn count_agreements(&self, data: &[(BitVec, bool)]) -> usize {
        let coefs: Vec<f64> = self.terms.iter().map(|&(_, c)| c).collect();
        let mut characters = vec![0u64; self.terms.len()];
        Columns::new(self.n, data)
            .blocks()
            .map(|block| {
                for (chi, &(s, _)) in characters.iter_mut().zip(&self.terms) {
                    *chi = block.parity(s);
                }
                let predicted = nonpositive_lanes(-0.0, &characters, &coefs);
                (!(predicted ^ block.labels) & block.lanes).count_ones() as usize
            })
            .sum()
    }
}

/// Estimates coefficients from an explicit labeled sample
/// (challenge, response) instead of querying the function. Labels are in
/// the Boolean encoding (`true` = logic 1 = −1).
///
/// Each estimate is a sum of `±1` terms, so it is an exact integer:
/// over the sample packed into column blocks, `Σ f(x)·χ_S(x)` is
/// `len − 2·popcount(labels ⊕ XOR of the columns in S)`, divided by
/// `len` at the end — the same values, bit for bit, as adding the
/// products one by one, at any thread count.
///
/// # Panics
///
/// Panics if `n > 63`, `data` is empty, or an example's length differs
/// from `n`.
pub fn estimate_coefficients_from_data(
    n: usize,
    data: &[(BitVec, bool)],
    masks: &[u64],
) -> Vec<f64> {
    assert!(n <= 63);
    assert!(!data.is_empty(), "empty sample");
    let cols = Columns::new(n, data);
    let mut mismatches = vec![0u64; masks.len()];
    for block in cols.blocks() {
        for (m, &mask) in mismatches.iter_mut().zip(masks) {
            *m += u64::from((block.labels ^ block.parity(mask)).count_ones());
        }
    }
    let len = data.len() as i64;
    mismatches
        .into_iter()
        .map(|m| (len - 2 * m as i64) as f64 / data.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::TruthTable;
    use crate::function::FnFunction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parseval_for_random_function() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = TruthTable::random(8, &mut rng);
        let fe = t.fourier();
        assert!((fe.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weight_by_degree_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = TruthTable::random(7, &mut rng);
        let w = t.fourier().weight_by_degree();
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn truncation_error_equals_weight_above_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = TruthTable::random(6, &mut rng);
        let fe = t.fourier();
        let d = 3;
        let trunc = fe.truncate(d);
        // E[(f - trunc)^2] over all x must equal weight above degree d.
        let mut err = 0.0;
        for v in 0..64u64 {
            let x = BitVec::from_u64(v, 6);
            let fx = t.eval_pm(&x);
            let tx = trunc.eval_real(&x);
            err += (fx - tx).powi(2);
        }
        err /= 64.0;
        assert!((err - fe.weight_above_degree(d)).abs() < 1e-9);
    }

    #[test]
    fn sign_of_truncation_recovers_low_degree_function() {
        // Majority of 5 is well-approximated by its degree-1 truncation.
        let maj = TruthTable::from_fn(5, |x| x.count_ones() >= 3);
        let h = maj.fourier().truncate(1);
        let mut agree = 0;
        for v in 0..32u64 {
            let x = BitVec::from_u64(v, 5);
            if h.eval(&x) == maj.eval(&x) {
                agree += 1;
            }
        }
        assert_eq!(agree, 32, "sign of degree-1 truncation = majority");
    }

    #[test]
    fn estimate_from_data_matches_direct() {
        let mut rng = StdRng::seed_from_u64(6);
        let parity = FnFunction::new(8, |x: &BitVec| x.count_ones() % 2 == 1);
        let data: Vec<(BitVec, bool)> = (0..5000)
            .map(|_| {
                let x = BitVec::random(8, &mut rng);
                let y = parity.eval(&x);
                (x, y)
            })
            .collect();
        let masks = [(1u64 << 8) - 1, 0b1];
        let est = estimate_coefficients_from_data(8, &data, &masks);
        assert!((est[0] - 1.0).abs() < 1e-12);
        assert!(est[1].abs() < 0.05);
    }

    #[test]
    fn sparse_degree_and_weight() {
        let s = SparseFourier::new(5, vec![(0b00011, 0.5), (0b10000, -0.5)]);
        assert_eq!(s.degree(), 2);
        assert!((s.weight() - 0.5).abs() < 1e-12);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn dense_eval_real_matches_function() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = TruthTable::random(5, &mut rng);
        let fe = t.fourier();
        for v in 0..32u64 {
            let x = BitVec::from_u64(v, 5);
            assert!((fe.eval_real(&x) - t.eval_pm(&x)).abs() < 1e-9);
        }
    }

    #[test]
    fn significant_filters_small_coefficients() {
        let maj = TruthTable::from_fn(3, |x| x.count_ones() >= 2);
        let fe = maj.fourier();
        let sig = fe.significant(0.4);
        // Majority of 3: three singleton coefficients of magnitude 1/2
        // plus the full-mask coefficient of magnitude 1/2.
        assert_eq!(sig.len(), 4);
        assert!(sig
            .terms()
            .iter()
            .all(|(_, c)| (c.abs() - 0.5).abs() < 1e-12));
    }
}
