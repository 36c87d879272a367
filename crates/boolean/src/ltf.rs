//! Linear threshold functions (LTFs, a.k.a. halfspaces) and Chow
//! parameters.
//!
//! The paper represents an Arbiter PUF — and, allegedly, a BR PUF — as
//! `f(c) = sgn((Σ ω_i c_i) − θ)` over `c ∈ {-1,+1}^n` (Section III-A).
//! [`LinearThreshold`] is that object; [`ChowParameters`] are its degree-0
//! and degree-1 Fourier coefficients, which uniquely determine an LTF
//! (Chow's theorem) and which Section V-A approximates from CRPs to build
//! the surrogate `f′` of Table II.

use crate::bits::{row_sum, BitVec, Columns};
use crate::function::BooleanFunction;
use rand::Rng;

/// A linear threshold function `x ↦ sgn(w·x − θ)` over `x ∈ {-1,+1}^n`.
///
/// Logic convention (paper, Section III-A): challenge bit `0` is encoded
/// as `+1`, bit `1` as `-1`; a **negative** sign value denotes logic
/// response `1`.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction, LinearThreshold};
///
/// // Majority of three bits: responds 1 when at least two inputs are 1.
/// let maj = LinearThreshold::new(vec![1.0, 1.0, 1.0], 0.0);
/// assert!(maj.eval(&BitVec::from_bools(&[true, true, false])));
/// assert!(!maj.eval(&BitVec::from_bools(&[true, false, false])));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinearThreshold {
    weights: Vec<f64>,
    threshold: f64,
}

impl LinearThreshold {
    /// Creates an LTF with the given weights and threshold.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn new(weights: Vec<f64>, threshold: f64) -> Self {
        assert!(!weights.is_empty(), "LTF needs at least one weight");
        LinearThreshold { weights, threshold }
    }

    /// Samples an LTF with i.i.d. standard-normal weights and zero
    /// threshold — the usual random-halfspace model.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let weights = (0..n).map(|_| gaussian(rng)).collect();
        LinearThreshold::new(weights, 0.0)
    }

    /// The weight vector `ω`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The threshold `θ`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The real-valued margin `w·x − θ` at an input (±1 encoding),
    /// summed from `−θ` in weight order.
    pub fn margin(&self, x: &BitVec) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "input length mismatch");
        row_sum(-self.threshold, &self.weights, x.words())
    }
}

impl BooleanFunction for LinearThreshold {
    fn num_inputs(&self) -> usize {
        self.weights.len()
    }

    /// Logic response: `true` (logic 1) iff the margin is negative,
    /// matching `χ(1) = -1`.
    fn eval(&self, x: &BitVec) -> bool {
        crate::to_bool(self.margin(x))
    }
}

/// The Chow parameters of a Boolean function: its degree-0 coefficient
/// `f̂(∅) = E[f(x)]` and the `n` degree-1 coefficients
/// `f̂({i}) = E[f(x)·x_i]` (±1 encoding).
///
/// By Chow's theorem these `n+1` numbers determine an LTF uniquely among
/// all Boolean functions; [`ChowParameters::to_ltf`] uses them directly
/// as weights, the construction behind the paper's surrogate `f′`
/// (Section V-A.1, after De et al. \[25\]).
#[derive(Clone, Debug, PartialEq)]
pub struct ChowParameters {
    /// `f̂(∅)`.
    pub constant: f64,
    /// `f̂({i})` for each input `i`.
    pub degree_one: Vec<f64>,
}

impl ChowParameters {
    /// Exact Chow parameters of any function by exhaustive enumeration.
    ///
    /// The `2^n` evaluations are swept in fixed blocks of
    /// [`mlam_par::DEFAULT_CHUNK`] across `MLAM_THREADS` workers; block
    /// partials are folded in block order, so the result is
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `f.num_inputs() > 20`.
    pub fn exact<F: BooleanFunction + Sync + ?Sized>(f: &F) -> Self {
        let n = f.num_inputs();
        assert!(n <= 20, "exact Chow parameters limited to n <= 20");
        let total = 1u64 << n;
        let block = mlam_par::DEFAULT_CHUNK as u64;
        let blocks = total.div_ceil(block) as usize;
        let partials = mlam_par::par_map_index(blocks, |b| {
            let lo = b as u64 * block;
            let hi = (lo + block).min(total);
            let mut constant = 0.0;
            let mut degree_one = vec![0.0; n];
            for v in lo..hi {
                let x = BitVec::from_u64(v, n);
                let fx = f.eval_pm(&x);
                constant += fx;
                for (i, d) in degree_one.iter_mut().enumerate() {
                    *d += fx * x.pm(i);
                }
            }
            (constant, degree_one)
        });
        Self::fold_partials(n, partials, 1.0 / total as f64)
    }

    /// Estimates Chow parameters by querying `f` on `samples` uniform
    /// random inputs.
    pub fn estimate<F, R>(f: &F, samples: usize, rng: &mut R) -> Self
    where
        F: BooleanFunction + ?Sized,
        R: Rng + ?Sized,
    {
        assert!(samples > 0);
        let n = f.num_inputs();
        let data: Vec<(BitVec, bool)> = (0..samples)
            .map(|_| {
                let x = BitVec::random(n, rng);
                let y = f.eval(&x);
                (x, y)
            })
            .collect();
        Self::from_data(n, &data)
    }

    /// Estimates Chow parameters from an explicit labeled sample —
    /// exactly the paper's procedure of "approximating the Chow
    /// parameters using a small set of noiseless CRPs".
    ///
    /// Every term of these sums is `±1`, so each sum is an exact
    /// integer: packed into column blocks, `Σ f(x)·x_i` is
    /// `len − 2·popcount(labels ⊕ column_i)` (and `Σ f(x)` is
    /// `len − 2·popcount(labels)`), then scaled by `1/len` — the same
    /// values, bit for bit, as adding the `±1` products one by one, at
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or an example's length differs from `n`.
    pub fn from_data(n: usize, data: &[(BitVec, bool)]) -> Self {
        assert!(!data.is_empty(), "empty sample");
        Self::from_columns(&Columns::new(n, data))
    }

    /// [`ChowParameters::from_data`] over an already packed sample.
    pub(crate) fn from_columns(cols: &Columns) -> Self {
        let mut label_ones = 0u64;
        let mut mismatches = vec![0u64; cols.num_inputs()];
        for block in cols.blocks() {
            label_ones += u64::from(block.labels.count_ones());
            for (m, &column) in mismatches.iter_mut().zip(block.columns) {
                *m += u64::from((block.labels ^ column).count_ones());
            }
        }
        let len = cols.len() as i64;
        let scale = 1.0 / cols.len() as f64;
        let mean = |m: u64| (len - 2 * m as i64) as f64 * scale;
        ChowParameters {
            constant: mean(label_ones),
            degree_one: mismatches.into_iter().map(mean).collect(),
        }
    }

    /// Folds per-block `(constant, degree_one)` partials in block order
    /// and applies the normalization `scale`.
    fn fold_partials(n: usize, partials: Vec<(f64, Vec<f64>)>, scale: f64) -> Self {
        let mut constant = 0.0;
        let mut degree_one = vec![0.0; n];
        for (c, d) in partials {
            constant += c;
            for (acc, p) in degree_one.iter_mut().zip(d) {
                *acc += p;
            }
        }
        constant *= scale;
        for d in &mut degree_one {
            *d *= scale;
        }
        ChowParameters {
            constant,
            degree_one,
        }
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.degree_one.len()
    }

    /// Squared degree-≤1 Fourier weight
    /// `f̂(∅)² + Σ_i f̂({i})²`.
    ///
    /// For an LTF this is bounded below by a universal constant
    /// (≥ `2/π` for unbiased LTFs); for functions far from every
    /// halfspace it is small. The halfspace tester of
    /// [`crate::testing`] thresholds this statistic.
    pub fn level_one_weight(&self) -> f64 {
        self.constant * self.constant + self.degree_one.iter().map(|d| d * d).sum::<f64>()
    }

    /// Builds the LTF `f′ = sgn(Σ f̂({i})·x_i + f̂(∅))` whose weights are
    /// the Chow parameters themselves.
    ///
    /// If the source function *is* an LTF, `f′` approximates it (the Chow
    /// vector points into the same halfspace); if not, `f′` is the
    /// natural linear surrogate whose accuracy plateau Table II exposes.
    pub fn to_ltf(&self) -> LinearThreshold {
        LinearThreshold::new(self.degree_one.clone(), -self.constant)
    }
}

/// Samples a standard normal via Box–Muller.
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
    use crate::function::{agreement_exact, FnFunction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn majority_ltf_evaluates() {
        let maj = LinearThreshold::new(vec![1.0, 1.0, 1.0], 0.0);
        // Two ones -> margin = (+1 from the zero bit) + (-1) + (-1) = -1 < 0 -> logic 1.
        assert!(maj.eval(&BitVec::from_bools(&[true, true, false])));
        assert!(!maj.eval(&BitVec::from_bools(&[false, false, true])));
    }

    #[test]
    fn chow_exact_of_dictator() {
        // f(x) = x_1 (logic) = -χ_{1}?? No: logic x1 maps 0->+1, 1->-1, so
        // f = χ_{{1}} in the ±1 world: E[f·x_1] = 1.
        let f = FnFunction::new(3, |x: &BitVec| x.get(1));
        let chow = ChowParameters::exact(&f);
        assert!(chow.constant.abs() < 1e-12);
        assert!((chow.degree_one[1] - 1.0).abs() < 1e-12);
        assert!(chow.degree_one[0].abs() < 1e-12);
        assert!(chow.degree_one[2].abs() < 1e-12);
    }

    #[test]
    fn chow_estimate_converges_to_exact() {
        let mut rng = StdRng::seed_from_u64(21);
        let f = LinearThreshold::random(8, &mut rng);
        let exact = ChowParameters::exact(&f);
        let est = ChowParameters::estimate(&f, 50_000, &mut rng);
        assert!((exact.constant - est.constant).abs() < 0.03);
        for (a, b) in exact.degree_one.iter().zip(&est.degree_one) {
            assert!((a - b).abs() < 0.03);
        }
    }

    #[test]
    fn chow_ltf_reconstruction_recovers_random_ltf() {
        // Chow's theorem in action: for a genuine LTF, the LTF built from
        // (exact) Chow parameters agrees almost everywhere.
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..5 {
            let f = LinearThreshold::random(10, &mut rng);
            let rec = ChowParameters::exact(&f).to_ltf();
            let agree = agreement_exact(&f, &rec);
            // At n=10 the Chow vector is a coarse but faithful pointer into
            // the right halfspace; agreement is high though not perfect.
            assert!(agree > 0.85, "agreement {agree}");
        }
    }

    #[test]
    fn level_one_weight_of_ltf_is_large_of_parity_is_zero() {
        let mut rng = StdRng::seed_from_u64(13);
        let ltf = LinearThreshold::random(10, &mut rng);
        let w_ltf = ChowParameters::exact(&ltf).level_one_weight();
        assert!(w_ltf > 0.5, "LTF level-1 weight {w_ltf}");
        let parity = FnFunction::new(10, |x: &BitVec| x.count_ones() % 2 == 1);
        let w_par = ChowParameters::exact(&parity).level_one_weight();
        assert!(w_par < 1e-12, "parity level-1 weight {w_par}");
    }

    #[test]
    fn margin_threshold_shifts_decision() {
        let f = LinearThreshold::new(vec![1.0], 10.0);
        // Margin is always negative -> constant logic 1.
        assert!(f.eval(&BitVec::from_bools(&[false])));
        assert!(f.eval(&BitVec::from_bools(&[true])));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(44);
        let xs: Vec<f64> = (0..50_000).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
