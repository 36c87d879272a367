//! Algebraic normal form: sparse multivariate polynomials over GF(2).
//!
//! Every Boolean function has a unique representation as an XOR of
//! monomials (AND terms), `f = T_1 ⊕ … ⊕ T_s` — the class the paper calls
//! *r-XT / sparse multivariate polynomials of degree r over F₂* in the
//! proof of Corollary 2. [`Anf`] stores the monomials as `u64` masks and
//! supports the Möbius transform in both directions.

use crate::bits::BitVec;
use crate::dense::TruthTable;
use crate::function::BooleanFunction;
use std::collections::BTreeSet;
use std::fmt;

/// A Boolean function as an XOR of AND-monomials over GF(2).
///
/// Each monomial is a `u64` subset mask; the empty mask is the constant
/// `1`. The representation is canonical: the monomial set is deduplicated
/// (a monomial appearing twice cancels).
///
/// # Example
///
/// ```
/// use mlam_boolean::{Anf, BitVec, BooleanFunction};
///
/// // f(x) = x0 ⊕ x1·x2
/// let f = Anf::from_monomials(3, [0b001, 0b110]);
/// assert!(f.eval(&BitVec::from_u64(0b001, 3)));  // x0=1 -> 1
/// assert!(!f.eval(&BitVec::from_u64(0b111, 3))); // 1 ⊕ 1 = 0
/// assert_eq!(f.degree(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Anf {
    n: usize,
    monomials: BTreeSet<u64>,
}

impl Anf {
    /// The constant-zero function on `n` inputs.
    pub fn zero(n: usize) -> Self {
        assert!(n <= 63);
        Anf {
            n,
            monomials: BTreeSet::new(),
        }
    }

    /// The constant-one function on `n` inputs.
    pub fn one(n: usize) -> Self {
        Anf::from_monomials(n, [0u64])
    }

    /// Builds an ANF from an iterator of monomial masks. Monomials
    /// appearing an even number of times cancel out.
    ///
    /// # Panics
    ///
    /// Panics if `n > 63` or a mask has bits outside `[0, n)`.
    pub fn from_monomials<I: IntoIterator<Item = u64>>(n: usize, monomials: I) -> Self {
        assert!(n <= 63);
        let mut set = BTreeSet::new();
        for m in monomials {
            assert!(
                n == 63 || m < (1u64 << n),
                "monomial {m:#b} out of range for n={n}"
            );
            if !set.insert(m) {
                set.remove(&m);
            }
        }
        Anf { n, monomials: set }
    }

    /// Computes the ANF of an arbitrary function via the Möbius
    /// transform over its truth table (`O(n·2^n)`).
    pub fn from_truth_table(t: &TruthTable) -> Self {
        let n = t.num_inputs();
        let mut buf: Vec<bool> = t.outputs().to_vec();
        // In-place Möbius (zeta over GF(2)).
        let mut h = 1usize;
        while h < buf.len() {
            for chunk in buf.chunks_exact_mut(2 * h) {
                let (lo, hi) = chunk.split_at_mut(h);
                for (a, b) in lo.iter().zip(hi.iter_mut()) {
                    *b ^= *a;
                }
            }
            h *= 2;
        }
        let monomials = buf
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(m, _)| m as u64);
        Anf::from_monomials(n, monomials)
    }

    /// Materializes the ANF as a truth table (small `n`).
    pub fn to_truth_table(&self) -> TruthTable {
        TruthTable::from_fn(self.n, |x| self.eval(x))
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The monomial masks, in ascending mask order.
    pub fn monomials(&self) -> impl Iterator<Item = u64> + '_ {
        self.monomials.iter().copied()
    }

    /// Number of monomials (the sparsity `s` of the paper's `r`-XT).
    pub fn num_monomials(&self) -> usize {
        self.monomials.len()
    }

    /// Algebraic degree: the largest monomial size (0 for constants).
    pub fn degree(&self) -> usize {
        self.monomials
            .iter()
            .map(|m| m.count_ones() as usize)
            .max()
            .unwrap_or(0)
    }

    /// XORs another ANF into this one.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    pub fn xor_assign(&mut self, other: &Anf) {
        assert_eq!(self.n, other.n, "xor of ANFs over different arities");
        for &m in &other.monomials {
            if !self.monomials.insert(m) {
                self.monomials.remove(&m);
            }
        }
    }

    /// Whether this is the constant-zero function.
    pub fn is_zero(&self) -> bool {
        self.monomials.is_empty()
    }
}

impl BooleanFunction for Anf {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn eval(&self, x: &BitVec) -> bool {
        assert_eq!(x.len(), self.n, "input length mismatch");
        let xm = x.to_u64();
        let mut acc = false;
        for &m in &self.monomials {
            // Monomial value = AND of selected bits = 1 iff all bits of m set in x.
            if xm & m == m {
                acc = !acc;
            }
        }
        acc
    }
}

impl fmt::Debug for Anf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.monomials.is_empty() {
            return write!(f, "0");
        }
        let terms: Vec<String> = self
            .monomials
            .iter()
            .map(|&m| {
                if m == 0 {
                    "1".to_string()
                } else {
                    (0..self.n)
                        .filter(|i| m >> i & 1 == 1)
                        .map(|i| format!("x{i}"))
                        .collect::<Vec<_>>()
                        .join("·")
                }
            })
            .collect();
        write!(f, "{}", terms.join(" ⊕ "))
    }
}

impl fmt::Display for Anf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eval_simple_polynomial() {
        // f = 1 ⊕ x0 ⊕ x0·x1
        let f = Anf::from_monomials(2, [0b00, 0b01, 0b11]);
        assert!(f.eval(&BitVec::from_u64(0b00, 2))); // 1
        assert!(!f.eval(&BitVec::from_u64(0b01, 2))); // 1^1 = 0
        assert!(f.eval(&BitVec::from_u64(0b10, 2))); // 1
        assert!(f.eval(&BitVec::from_u64(0b11, 2))); // 1^1^1 = 1
    }

    #[test]
    fn duplicate_monomials_cancel() {
        let f = Anf::from_monomials(3, [0b001, 0b001]);
        assert!(f.is_zero());
        let g = Anf::from_monomials(3, [0b001, 0b001, 0b001]);
        assert_eq!(g.num_monomials(), 1);
    }

    #[test]
    fn mobius_round_trip_random() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10 {
            let t = TruthTable::random(7, &mut rng);
            let anf = Anf::from_truth_table(&t);
            let back = anf.to_truth_table();
            assert_eq!(t, back);
        }
    }

    #[test]
    fn anf_of_and_is_single_monomial() {
        let t = TruthTable::from_fn(3, |x| x.get(0) && x.get(1) && x.get(2));
        let anf = Anf::from_truth_table(&t);
        assert_eq!(anf.num_monomials(), 1);
        assert_eq!(anf.monomials().next(), Some(0b111));
        assert_eq!(anf.degree(), 3);
    }

    #[test]
    fn anf_of_or_expands() {
        // x0 OR x1 = x0 ⊕ x1 ⊕ x0x1
        let t = TruthTable::from_fn(2, |x| x.get(0) || x.get(1));
        let anf = Anf::from_truth_table(&t);
        let monos: Vec<u64> = anf.monomials().collect();
        assert_eq!(monos, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn xor_assign_is_gf2_addition() {
        let a = Anf::from_monomials(4, [0b0001, 0b0110]);
        let b = Anf::from_monomials(4, [0b0110, 0b1000]);
        let mut c = a.clone();
        c.xor_assign(&b);
        let monos: Vec<u64> = c.monomials().collect();
        assert_eq!(monos, vec![0b0001, 0b1000]);
        // (a ⊕ b) ⊕ b = a
        c.xor_assign(&b);
        assert_eq!(c, a);
    }

    #[test]
    fn degree_of_constants() {
        assert_eq!(Anf::zero(5).degree(), 0);
        assert_eq!(Anf::one(5).degree(), 0);
        assert!(Anf::zero(5).is_zero());
        assert!(!Anf::one(5).is_zero());
    }

    #[test]
    fn parity_anf_has_n_singletons() {
        let t = TruthTable::from_fn(6, |x| x.count_ones() % 2 == 1);
        let anf = Anf::from_truth_table(&t);
        assert_eq!(anf.num_monomials(), 6);
        assert_eq!(anf.degree(), 1);
    }

    #[test]
    fn display_renders_terms() {
        let f = Anf::from_monomials(3, [0b000, 0b101]);
        assert_eq!(f.to_string(), "1 ⊕ x0·x2");
        assert_eq!(Anf::zero(2).to_string(), "0");
    }
}
