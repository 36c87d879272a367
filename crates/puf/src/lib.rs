//! Simulators for the physically unclonable functions (PUFs) analyzed in
//! *"Pitfalls in Machine Learning-based Adversary Modeling for Hardware
//! Systems"* (DATE 2020).
//!
//! The paper's experiments ran on silicon (Arbiter/XOR Arbiter PUF ASICs
//! and BR PUFs on an Intel/Altera Cyclone IV FPGA). This crate provides
//! the standard behavioural models that the paper itself analyzes, so
//! every attack and bound in the workspace can be exercised end-to-end:
//!
//! - [`ArbiterPuf`]: the additive linear delay model
//!   `r = sgn(w·Φ(c) + noise)` — by construction a linear threshold
//!   function over the transformed challenge (Section III-A of the
//!   paper, after Gassend et al. and Rührmair et al.);
//! - [`XorArbiterPuf`]: `k` independent chains XORed together, the
//!   composed primitive of Table I;
//! - [`BistableRingPuf`]: a bistable-ring model with pairwise (and
//!   optional triple) interaction terms, i.e. deliberately **not** an
//!   LTF — the concept whose mis-representation Tables II and III
//!   expose;
//! - noise models: Gaussian evaluation noise in every simulator and
//!   response flips ([`noise`]);
//! - CRP collection ([`crp`]): uniform, noisy single-shot and
//!   majority-vote filtered ("noiseless, stable CRPs") draws, each
//!   returned as a [`mlam_boolean::LabeledSet`] ready to split and
//!   learn from.
//!
//! # Quickstart
//!
//! ```
//! use mlam_puf::{ArbiterPuf, PufModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let puf = ArbiterPuf::sample(64, 0.0, &mut rng);
//! let crps = mlam_puf::crp::collect_uniform(&puf, 100, &mut rng);
//! assert_eq!(crps.len(), 100);
//! ```

#![warn(missing_docs)]

pub mod arbiter;
pub mod arff;
pub mod bistable_ring;
pub mod challenge;
pub mod correlated;
pub mod crp;
pub mod interpose;
pub mod lockdown;
pub mod noise;
pub mod xor_arbiter;

pub use arbiter::ArbiterPuf;
pub use bistable_ring::{BistableRingPuf, BrPufConfig};
pub use challenge::{phi_transform, phi_transform_into};
pub use correlated::CorrelatedXorArbiterPuf;
pub use interpose::InterposePuf;
pub use lockdown::LockdownPuf;
pub use xor_arbiter::XorArbiterPuf;

use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// A simulated PUF instance.
///
/// A PUF is a *noisy* Boolean function: [`PufModel::eval_noisy`] draws a
/// fresh evaluation (metastability, thermal noise, …), while the
/// [`BooleanFunction`] impl every model also provides is the **ideal
/// (noise-free) response**, i.e. the ground-truth concept an attacker is
/// trying to learn.
pub trait PufModel: BooleanFunction {
    /// Challenge length in bits.
    fn challenge_bits(&self) -> usize {
        self.num_inputs()
    }

    /// Draws one noisy evaluation of the PUF on `challenge`.
    ///
    /// Models with zero configured noise must return the ideal response.
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool
    where
        Self: Sized;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_models_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::sample(32, 0.0, &mut rng);
        let c = BitVec::random(32, &mut rng);
        let r = puf.eval(&c);
        for _ in 0..10 {
            assert_eq!(puf.eval_noisy(&c, &mut rng), r);
        }
    }
}
