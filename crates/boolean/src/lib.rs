//! Analysis of Boolean functions for hardware-security adversary modeling.
//!
//! This crate is the mathematical substrate of the `mlam` workspace. It
//! provides the objects that the DATE 2020 paper *"Pitfalls in Machine
//! Learning-based Adversary Modeling for Hardware Systems"* reasons about:
//!
//! - [`BitVec`]: arbitrary-length challenge/input vectors over `{0,1}^n`,
//! - the [`BooleanFunction`] trait shared by PUF simulators, locked
//!   circuits and learned hypotheses,
//! - dense truth tables with a fast Walsh–Hadamard transform
//!   ([`TruthTable`], [`wht`]),
//! - Fourier expansions, spectral weight profiles and sampled coefficient
//!   estimation ([`fourier`]),
//! - linear threshold functions and their Chow parameters ([`ltf`]),
//! - algebraic normal forms, i.e. sparse multivariate polynomials over
//!   GF(2) ([`anf`]),
//! - property testing, in particular the halfspace tester of
//!   Matulef–O'Donnell–Rubinfeld–Servedio used for Table III ([`testing`]).
//!
//! # Encoding
//!
//! Following the paper (Section III-A), Boolean values are moved between
//! the `{0,1}` world of hardware and the `{-1,+1}` world of Fourier
//! analysis with the encoding `χ(0) = +1`, `χ(1) = -1`. The helper
//! [`to_pm`]/[`to_bool`] functions implement exactly this map.
//!
//! # Example
//!
//! ```
//! use mlam_boolean::{BitVec, BooleanFunction, TruthTable};
//!
//! // The 3-bit majority function as a truth table.
//! let maj = TruthTable::from_fn(3, |x| {
//!     (x.get(0) as u8 + x.get(1) as u8 + x.get(2) as u8) >= 2
//! });
//! let spectrum = maj.fourier();
//! // Majority has no constant bias ...
//! assert!(spectrum.coefficient(0b000).abs() < 1e-12);
//! // ... and equal weight on each singleton.
//! assert!((spectrum.coefficient(0b001) - spectrum.coefficient(0b010)).abs() < 1e-12);
//! ```

pub mod anf;
pub mod bits;
pub mod dense;
pub mod fourier;
pub mod function;
pub mod ltf;
#[cfg(test)]
mod reference;
pub mod subsets;
pub mod testing;
pub mod wht;

pub use anf::Anf;
pub use bits::BitVec;
pub use dense::TruthTable;
pub use fourier::{FourierExpansion, SparseFourier};
pub use function::{BooleanFunction, FnFunction};
pub use ltf::{ChowParameters, LinearThreshold};
pub use subsets::SubsetsUpTo;

/// Converts a Boolean value into the ±1 encoding used throughout the
/// paper: `false` (logic 0) becomes `+1.0` and `true` (logic 1) becomes
/// `-1.0`.
///
/// ```
/// assert_eq!(mlam_boolean::to_pm(false), 1.0);
/// assert_eq!(mlam_boolean::to_pm(true), -1.0);
/// ```
#[inline]
pub fn to_pm(b: bool) -> f64 {
    if b {
        -1.0
    } else {
        1.0
    }
}

/// Inverse of [`to_pm`]: maps a ±1 real back to a Boolean.
///
/// Values `<= 0.0` map to `true` (logic 1, i.e. −1 side), positive values
/// to `false`. The convention matters only on the measure-zero boundary.
///
/// ```
/// assert!(!mlam_boolean::to_bool(1.0));
/// assert!(mlam_boolean::to_bool(-1.0));
/// ```
#[inline]
pub fn to_bool(v: f64) -> bool {
    v <= 0.0
}

/// Converts a Boolean into the integer ±1 encoding (`false → +1`,
/// `true → -1`).
#[inline]
pub fn to_pm_i(b: bool) -> i64 {
    if b {
        -1
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_round_trip() {
        for b in [false, true] {
            assert_eq!(to_bool(to_pm(b)), b);
            assert_eq!(to_pm(b) as i64, to_pm_i(b));
        }
    }
}
