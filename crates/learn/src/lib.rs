//! From-scratch PAC learning toolkit for hardware adversary modeling.
//!
//! The Rust ML ecosystem offers nothing like the Weka/MATLAB tooling the
//! DATE 2020 paper used, so every algorithm the paper invokes is
//! implemented here directly:
//!
//! | Paper element | Module |
//! |---|---|
//! | random examples vs. membership vs. equivalence queries (Sec. IV) | [`oracle`] |
//! | arbitrary vs. uniform example distributions (Sec. III) | [`distribution`] |
//! | Perceptron with mistake counting (Table I row 1, Table II) | [`perceptron`] |
//! | logistic-regression modeling attack (Rührmair et al. \[8\]) | [`logistic`] |
//! | CMA-ES black-box modeling attack | [`cma_es`] |
//! | LMN low-degree algorithm (Corollary 1) | [`lmn`] |
//! | Chow-parameter LTF reconstruction (Sec. V-A, Table II) | [`chow`] |
//! | sparse F₂-polynomial learning with membership queries (Cor. 2) | [`f2poly`] |
//! | Angluin's L* for DFAs (Sec. V-B) | [`lstar`], [`automata`] |
//!
//! All learners share the [`oracle`] abstractions, so an experiment can
//! swap the access model without touching the algorithm — which is the
//! paper's entire point.
//!
//! # Quickstart
//!
//! ```
//! use mlam_boolean::LinearThreshold;
//! use mlam_learn::dataset::LabeledSet;
//! use mlam_learn::perceptron::Perceptron;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(11);
//! let target = LinearThreshold::random(16, &mut rng);
//! let train = LabeledSet::sample(&target, 500, &mut rng);
//! let outcome = Perceptron::new(200).train(&train);
//! assert!(outcome.training_accuracy > 0.95);
//! ```

#![warn(missing_docs)]

pub mod automata;
pub mod chow;
pub mod cma_es;
pub mod dataset;
pub mod distribution;
pub mod eval;
pub mod f2poly;
pub mod feature_matrix;
pub mod features;
pub mod km;
pub mod lmn;
pub mod logistic;
pub mod lstar;
pub mod oracle;
pub mod perceptron;
#[cfg(test)]
mod reference;

pub use automata::Dfa;
pub use dataset::LabeledSet;
pub use distribution::ChallengeDistribution;
pub use feature_matrix::FeatureMatrix;
pub use oracle::{
    EquivalenceResult, ExampleOracle, FunctionOracle, MembershipOracle, UnreliableOracle,
};
