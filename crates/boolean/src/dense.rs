//! Dense truth tables for exhaustive analysis of small functions.

use crate::bits::BitVec;
use crate::fourier::FourierExpansion;
use crate::function::BooleanFunction;
use crate::wht;
use rand::Rng;
use std::fmt;

/// Maximum arity for dense truth tables (`2^24` entries ≈ 16 MiB of bits).
pub const MAX_DENSE_INPUTS: usize = 24;

/// A Boolean function stored as an explicit table of `2^n` output bits.
///
/// Entry `x` (interpreted as a bit mask, bit `i` = input `i`) holds
/// `f(x)`. Dense tables enable *exact* Fourier expansions and Chow
/// parameters for small `n`, which the test suite uses as ground truth
/// against the sampled estimators.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, BooleanFunction, TruthTable};
///
/// let xor = TruthTable::from_fn(2, |x| x.get(0) ^ x.get(1));
/// assert!(xor.eval(&BitVec::from_u64(0b01, 2)));
/// assert!(!xor.eval(&BitVec::from_u64(0b11, 2)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    n: usize,
    /// Output bit for every input mask; length `2^n`.
    table: Vec<bool>,
}

impl TruthTable {
    /// Builds a table by evaluating `f` on all `2^n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24` (see [`MAX_DENSE_INPUTS`]).
    pub fn from_fn<F: Fn(&BitVec) -> bool>(n: usize, f: F) -> Self {
        assert!(
            n <= MAX_DENSE_INPUTS,
            "dense truth table limited to n <= {MAX_DENSE_INPUTS}, got {n}"
        );
        let table = (0..1u64 << n).map(|v| f(&BitVec::from_u64(v, n))).collect();
        TruthTable { n, table }
    }

    /// Builds a table from a raw output vector of length `2^n`.
    ///
    /// # Panics
    ///
    /// Panics if `table.len()` is not a power of two or exceeds `2^24`.
    pub fn from_outputs(table: Vec<bool>) -> Self {
        assert!(
            table.len().is_power_of_two(),
            "truth table length must be a power of two"
        );
        let n = table.len().trailing_zeros() as usize;
        assert!(n <= MAX_DENSE_INPUTS);
        TruthTable { n, table }
    }

    /// Samples a uniformly random function on `n` bits.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n <= MAX_DENSE_INPUTS);
        let table = (0..1u64 << n).map(|_| rng.gen()).collect();
        TruthTable { n, table }
    }

    /// Output for the input encoded as a `u64` mask.
    #[inline]
    pub fn eval_u64(&self, x: u64) -> bool {
        self.table[x as usize]
    }

    /// The raw output table (index = input mask).
    pub fn outputs(&self) -> &[bool] {
        &self.table
    }

    /// Exact Fourier expansion via the fast Walsh–Hadamard transform.
    ///
    /// Runs in `O(n·2^n)`.
    pub fn fourier(&self) -> FourierExpansion {
        let mut t: Vec<f64> = self.table.iter().map(|&b| crate::to_pm(b)).collect();
        wht::walsh_hadamard(&mut t);
        let scale = 1.0 / self.table.len() as f64;
        for v in &mut t {
            *v *= scale;
        }
        FourierExpansion::from_coefficients(self.n, t)
    }

    /// Exact fraction of inputs on which `self` and `other` disagree.
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn distance(&self, other: &TruthTable) -> f64 {
        assert_eq!(self.n, other.n, "distance requires equal arity");
        let diff = self
            .table
            .iter()
            .zip(&other.table)
            .filter(|(a, b)| a != b)
            .count();
        diff as f64 / self.table.len() as f64
    }

    /// Exact bias `E[f]` in the ±1 encoding.
    pub fn bias(&self) -> f64 {
        let sum: f64 = self.table.iter().map(|&b| crate::to_pm(b)).sum();
        sum / self.table.len() as f64
    }
}

impl BooleanFunction for TruthTable {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn eval(&self, x: &BitVec) -> bool {
        assert_eq!(x.len(), self.n, "input length mismatch");
        self.table[x.to_u64() as usize]
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable(n={}, ", self.n)?;
        if self.table.len() <= 32 {
            for &b in &self.table {
                write!(f, "{}", u8::from(b))?;
            }
        } else {
            write!(f, "2^{} entries", self.n)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_fn_indexing_matches_eval() {
        let t = TruthTable::from_fn(3, |x| x.get(0) && !x.get(2));
        assert!(t.eval_u64(0b001));
        assert!(t.eval_u64(0b011));
        assert!(!t.eval_u64(0b101));
        assert!(!t.eval_u64(0b000));
        assert_eq!(t.num_inputs(), 3);
    }

    #[test]
    fn fourier_of_dictator_is_single_coefficient() {
        // f(x) = x0 -> in ±1 encoding f = χ_{0}.
        let t = TruthTable::from_fn(3, |x| x.get(0));
        let fe = t.fourier();
        assert!((fe.coefficient(0b001) - 1.0).abs() < 1e-12);
        for s in [0b000u64, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111] {
            assert!(fe.coefficient(s).abs() < 1e-12, "S={s:b}");
        }
    }

    #[test]
    fn bias_matches_fourier_empty_coefficient() {
        let mut rng = StdRng::seed_from_u64(17);
        let t = TruthTable::random(6, &mut rng);
        let fe = t.fourier();
        assert!((t.bias() - fe.coefficient(0)).abs() < 1e-12);
    }

    #[test]
    fn distance_is_zero_iff_equal() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = TruthTable::random(5, &mut rng);
        assert_eq!(a.distance(&a), 0.0);
        let mut flipped = a.outputs().to_vec();
        flipped[7] = !flipped[7];
        let b = TruthTable::from_outputs(flipped);
        assert!((a.distance(&b) - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn random_table_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = TruthTable::random(12, &mut rng);
        assert!(t.bias().abs() < 0.1);
    }
}
