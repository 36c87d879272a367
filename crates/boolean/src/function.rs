//! The [`BooleanFunction`] trait shared by every "unknown target" in the
//! workspace.
//!
//! PUF simulators (`mlam-puf`), locked netlist outputs (`mlam-locking`)
//! and learned hypotheses (`mlam-learn`) all implement this trait, so the
//! learning and testing machinery is written once against it.

use crate::bits::BitVec;
use crate::dense::TruthTable;
use rand::Rng;

/// A (deterministic) Boolean function `f : {0,1}^n -> {0,1}`.
///
/// The trait is object-safe so that heterogeneous targets (PUFs, circuits,
/// hypotheses) can be passed as `&dyn BooleanFunction`.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction, FnFunction};
///
/// let parity = FnFunction::new(4, |x: &BitVec| x.count_ones() % 2 == 1);
/// assert!(parity.eval(&BitVec::from_u64(0b0111, 4)));
/// assert_eq!(parity.eval_pm(&BitVec::from_u64(0b0111, 4)), -1.0);
/// ```
pub trait BooleanFunction {
    /// Number of input bits.
    fn num_inputs(&self) -> usize;

    /// Evaluates the function on an input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.num_inputs()`.
    fn eval(&self, x: &BitVec) -> bool;

    /// Evaluates in the ±1 encoding (`false → +1.0`, `true → -1.0`).
    fn eval_pm(&self, x: &BitVec) -> f64 {
        crate::to_pm(self.eval(x))
    }

    /// Number of labeled examples `(x, y)` with `eval(x) == y`.
    ///
    /// The default evaluates example by example; implementations with
    /// a word-parallel evaluator (e.g. [`crate::SparseFourier`])
    /// override it and must return the same count.
    ///
    /// # Panics
    ///
    /// Implementations may panic if an example's length differs from
    /// `self.num_inputs()`.
    fn count_agreements(&self, data: &[(BitVec, bool)]) -> usize {
        data.iter().filter(|(x, y)| self.eval(x) == *y).count()
    }
}

impl<F: BooleanFunction + ?Sized> BooleanFunction for &F {
    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }
    fn eval(&self, x: &BitVec) -> bool {
        (**self).eval(x)
    }
    fn count_agreements(&self, data: &[(BitVec, bool)]) -> usize {
        (**self).count_agreements(data)
    }
}

impl<F: BooleanFunction + ?Sized> BooleanFunction for Box<F> {
    fn num_inputs(&self) -> usize {
        (**self).num_inputs()
    }
    fn eval(&self, x: &BitVec) -> bool {
        (**self).eval(x)
    }
    fn count_agreements(&self, data: &[(BitVec, bool)]) -> usize {
        (**self).count_agreements(data)
    }
}

/// Wraps a closure as a [`BooleanFunction`].
///
/// Handy in tests and for ad-hoc targets:
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction, FnFunction};
/// let and = FnFunction::new(2, |x: &BitVec| x.get(0) && x.get(1));
/// assert!(!and.eval(&BitVec::from_u64(0b01, 2)));
/// ```
#[derive(Clone, Debug)]
pub struct FnFunction<F> {
    n: usize,
    f: F,
}

impl<F: Fn(&BitVec) -> bool> FnFunction<F> {
    /// Creates a function of `n` inputs from a closure.
    pub fn new(n: usize, f: F) -> Self {
        FnFunction { n, f }
    }
}

impl<F: Fn(&BitVec) -> bool> BooleanFunction for FnFunction<F> {
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn eval(&self, x: &BitVec) -> bool {
        (self.f)(x)
    }
}

/// Estimates the agreement `Pr_x[f(x) = g(x)]` under the uniform
/// distribution by drawing `samples` random inputs.
///
/// # Panics
///
/// Panics if the input counts differ or `samples == 0`.
pub fn agreement<F, G, R>(f: &F, g: &G, samples: usize, rng: &mut R) -> f64
where
    F: BooleanFunction + ?Sized,
    G: BooleanFunction + ?Sized,
    R: Rng + ?Sized,
{
    assert_eq!(
        f.num_inputs(),
        g.num_inputs(),
        "agreement requires equal arity"
    );
    assert!(samples > 0, "agreement needs at least one sample");
    let n = f.num_inputs();
    let mut agree = 0usize;
    for _ in 0..samples {
        let x = BitVec::random(n, rng);
        if f.eval(&x) == g.eval(&x) {
            agree += 1;
        }
    }
    agree as f64 / samples as f64
}

/// Computes the exact agreement `Pr_x[f(x) = g(x)]` over all `2^n` inputs.
///
/// Intended for small `n` (exhaustive enumeration).
///
/// # Panics
///
/// Panics if the arities differ or `n > 24`.
pub fn agreement_exact<F, G>(f: &F, g: &G) -> f64
where
    F: BooleanFunction + ?Sized,
    G: BooleanFunction + ?Sized,
{
    assert_eq!(f.num_inputs(), g.num_inputs());
    let n = f.num_inputs();
    assert!(n <= 24, "exhaustive agreement limited to n <= 24, got {n}");
    let total = 1u64 << n;
    let mut agree = 0u64;
    for v in 0..total {
        let x = BitVec::from_u64(v, n);
        if f.eval(&x) == g.eval(&x) {
            agree += 1;
        }
    }
    agree as f64 / total as f64
}

/// Materializes a function as a dense [`TruthTable`] (small `n` only).
///
/// # Panics
///
/// Panics if `f.num_inputs() > 24`.
pub fn to_truth_table<F: BooleanFunction + ?Sized>(f: &F) -> TruthTable {
    TruthTable::from_fn(f.num_inputs(), |x| f.eval(x))
}

/// Estimates the bias `E[f(x)]` in ±1 encoding under the uniform
/// distribution.
///
/// A perfectly balanced function has bias 0; the constant-0 function has
/// bias +1.
pub fn bias<F, R>(f: &F, samples: usize, rng: &mut R) -> f64
where
    F: BooleanFunction + ?Sized,
    R: Rng + ?Sized,
{
    assert!(samples > 0, "bias needs at least one sample");
    let n = f.num_inputs();
    let mut sum = 0.0;
    for _ in 0..samples {
        sum += f.eval_pm(&BitVec::random(n, rng));
    }
    sum / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn parity(n: usize) -> FnFunction<impl Fn(&BitVec) -> bool> {
        FnFunction::new(n, |x: &BitVec| x.count_ones() % 2 == 1)
    }

    #[test]
    fn fn_function_evaluates() {
        let p = parity(5);
        assert_eq!(p.num_inputs(), 5);
        assert!(p.eval(&BitVec::from_u64(0b10000, 5)));
        assert!(!p.eval(&BitVec::from_u64(0b11000, 5)));
    }

    #[test]
    fn agreement_with_self_is_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = parity(8);
        assert_eq!(agreement(&p, &p, 500, &mut rng), 1.0);
        assert_eq!(agreement_exact(&p, &p), 1.0);
    }

    #[test]
    fn agreement_with_complement_is_zero() {
        let p = parity(6);
        let q = FnFunction::new(6, |x: &BitVec| x.count_ones().is_multiple_of(2));
        assert_eq!(agreement_exact(&p, &q), 0.0);
    }

    #[test]
    fn agreement_of_independent_functions_is_half() {
        // Parity vs. a single bit are uncorrelated under uniform inputs.
        let p = parity(10);
        let b0 = FnFunction::new(10, |x: &BitVec| x.get(0));
        assert!((agreement_exact(&p, &b0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bias_of_constant_function() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = FnFunction::new(4, |_: &BitVec| false);
        assert_eq!(bias(&f, 100, &mut rng), 1.0);
        let t = FnFunction::new(4, |_: &BitVec| true);
        assert_eq!(bias(&t, 100, &mut rng), -1.0);
    }

    #[test]
    fn trait_object_and_reference_impls() {
        let p = parity(3);
        let as_ref: &dyn BooleanFunction = &p;
        assert_eq!(as_ref.num_inputs(), 3);
        let boxed: Box<dyn BooleanFunction> = Box::new(parity(3));
        assert_eq!(boxed.num_inputs(), 3);
        assert_eq!(
            boxed.eval(&BitVec::from_u64(0b111, 3)),
            as_ref.eval(&BitVec::from_u64(0b111, 3))
        );
    }

    #[test]
    fn eval_pm_matches_encoding() {
        let t = FnFunction::new(1, |_: &BitVec| true);
        assert_eq!(t.eval_pm(&BitVec::zeros(1)), -1.0);
    }
}
