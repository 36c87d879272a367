//! Spectral attacks under two access models: LMN (random examples)
//! vs. Kushilevitz–Mansour (membership queries) on the same BR PUF.
//!
//! Both algorithms output the same kind of improper hypothesis — a
//! sparse sign-of-spectrum — but they acquire it differently: LMN
//! estimates *every* low-degree coefficient from one random sample,
//! KM *searches* for heavy coefficients of any degree with adaptive
//! membership queries. Comparing them on one device isolates the
//! access axis of Section IV with the representation held fixed.

use crate::report::{pct, Table};
use mlam_boolean::LabeledSet;
use mlam_learn::km::{km_learn, KmConfig};
use mlam_learn::lmn::{lmn_learn, LmnConfig};
use mlam_learn::oracle::FunctionOracle;
use mlam_puf::{BistableRingPuf, BrPufConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the spectral access comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpectralParams {
    /// BR PUF size.
    pub n: usize,
    /// Pairwise interaction strength (strong enough that individual
    /// degree-2 coefficients are heavy).
    pub pair_strength: f64,
    /// LMN training examples.
    pub lmn_examples: usize,
    /// LMN degree.
    pub lmn_degree: usize,
    /// KM threshold θ.
    pub km_theta: f64,
    /// Test examples.
    pub test_size: usize,
}

impl SpectralParams {
    /// Full scale.
    pub fn paper() -> Self {
        SpectralParams {
            n: 16,
            pair_strength: 2.0,
            lmn_examples: 20_000,
            lmn_degree: 2,
            km_theta: 0.12,
            test_size: 5_000,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        SpectralParams {
            n: 12,
            pair_strength: 2.0,
            lmn_examples: 10_000,
            lmn_degree: 2,
            km_theta: 0.15,
            test_size: 3_000,
        }
    }
}

/// Result of the spectral comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpectralResult {
    /// LMN test accuracy (random examples).
    pub lmn_accuracy: f64,
    /// LMN oracle interactions (= training examples).
    pub lmn_queries: u64,
    /// Number of coefficients LMN estimated.
    pub lmn_coefficients: usize,
    /// KM test accuracy (membership queries).
    pub km_accuracy: f64,
    /// KM membership queries.
    pub km_queries: u64,
    /// Number of heavy coefficients KM located.
    pub km_coefficients: usize,
}

impl SpectralResult {
    /// Renders the comparison.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Spectral attacks on one BR PUF: LMN (random examples) vs KM (membership queries)",
            &[
                "algorithm",
                "access",
                "accuracy [%]",
                "oracle queries",
                "coefficients",
            ],
        );
        t.row(&[
            "LMN".into(),
            "random examples".into(),
            pct(self.lmn_accuracy),
            self.lmn_queries.to_string(),
            self.lmn_coefficients.to_string(),
        ]);
        t.row(&[
            "KM".into(),
            "membership queries".into(),
            pct(self.km_accuracy),
            self.km_queries.to_string(),
            self.km_coefficients.to_string(),
        ]);
        t
    }
}

/// Runs the spectral comparison.
pub fn run_spectral<R: Rng + ?Sized>(params: &SpectralParams, rng: &mut R) -> SpectralResult {
    let _span = mlam_telemetry::span("experiment.spectral");
    let cfg = BrPufConfig {
        pair_strength: params.pair_strength,
        triple_strength: 0.0,
        noise_sigma: 0.0,
    };
    let puf = BistableRingPuf::sample(params.n, cfg, rng);
    let test = LabeledSet::sample_par(&puf, params.test_size, rng);

    // LMN: one uniform sample, all coefficients of degree <= d.
    let train = LabeledSet::sample_par(&puf, params.lmn_examples, rng);
    let lmn = lmn_learn(&train, LmnConfig::new(params.lmn_degree));

    // KM: adaptive membership queries for heavy coefficients.
    let oracle = FunctionOracle::uniform(&puf);
    let km = km_learn(&oracle, KmConfig::new(params.km_theta), rng);

    SpectralResult {
        lmn_accuracy: test.accuracy_of(&lmn.hypothesis),
        lmn_queries: params.lmn_examples as u64,
        lmn_coefficients: lmn.coefficients_estimated,
        km_accuracy: test.accuracy_of(&km.hypothesis),
        km_queries: oracle.queries_used(),
        km_coefficients: km.hypothesis.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn both_spectral_attacks_beat_chance_substantially() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_spectral(&SpectralParams::quick(), &mut rng);
        assert!(r.lmn_accuracy > 0.8, "LMN {}", r.lmn_accuracy);
        assert!(r.km_accuracy > 0.7, "KM {}", r.km_accuracy);
    }

    #[test]
    fn km_returns_far_fewer_coefficients() {
        // KM locates only the heavy part of the spectrum; LMN estimates
        // the full low-degree table.
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_spectral(&SpectralParams::quick(), &mut rng);
        assert!(
            r.km_coefficients * 2 < r.lmn_coefficients,
            "KM {} vs LMN {}",
            r.km_coefficients,
            r.lmn_coefficients
        );
        assert!(r.km_coefficients > 0);
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = run_spectral(&SpectralParams::quick(), &mut rng);
        assert!(r.to_table().to_string().contains("membership"));
    }
}
