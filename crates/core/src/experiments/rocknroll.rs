//! The RocknRoll scenario (paper, Sections III-A and V-B, after \[17\]):
//! XOR Arbiter PUFs with many — but *correlated* — chains are modeled
//! at ≈75 % accuracy by uniform-distribution improper learners, without
//! contradicting the distribution-free hardness bound of \[9\].
//!
//! The sweep manufactures `k`-XOR devices at increasing chain
//! correlation and attacks each with (a) the single-LTF Perceptron
//! over Φ (improperly representing the k-chain device by one chain) and
//! (b) the low-degree LMN algorithm. Both attacks operate in the
//! uniform-distribution, improper setting, so
//! [`AdversaryModel::comparability`] certifies their results as
//! *incomparable* with the \[9\] claim — which the experiment's last
//! column prints.

use crate::adversary::AdversaryModel;
use crate::report::{pct, Table};
use mlam_learn::dataset::LabeledSet;
use mlam_learn::features::ArbiterPhiFeatures;
use mlam_learn::lmn::{lmn_learn, LmnConfig};
use mlam_learn::perceptron::Perceptron;
use mlam_puf::CorrelatedXorArbiterPuf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the RocknRoll sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RocknRollParams {
    /// Stage count.
    pub n: usize,
    /// Chain count — deliberately `≫ √(ln n)`.
    pub k: usize,
    /// Deviation values from correlated (small) to independent (large).
    pub deviations: Vec<f64>,
    /// Training CRPs.
    pub train_size: usize,
    /// Test CRPs.
    pub test_size: usize,
    /// LMN degree.
    pub lmn_degree: usize,
}

impl RocknRollParams {
    /// Full scale: the paper's `k ≫ ln n` regime.
    pub fn paper() -> Self {
        RocknRollParams {
            n: 32,
            k: 8,
            deviations: vec![0.05, 0.1, 0.2, 0.4, 0.8, 2.0],
            train_size: 12_000,
            test_size: 5_000,
            lmn_degree: 2,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        RocknRollParams {
            n: 20,
            k: 5,
            deviations: vec![0.1, 2.0],
            train_size: 5_000,
            test_size: 2_500,
            lmn_degree: 2,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RocknRollRow {
    /// Per-chain deviation.
    pub deviation: f64,
    /// Measured mean pairwise chain correlation.
    pub chain_correlation: f64,
    /// Perceptron-over-Φ test accuracy.
    pub perceptron_accuracy: f64,
    /// LMN test accuracy.
    pub lmn_accuracy: f64,
}

/// Result of the RocknRoll sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RocknRollResult {
    /// The parameters.
    pub params: RocknRollParams,
    /// One row per deviation value.
    pub rows: Vec<RocknRollRow>,
    /// Whether the attacks' setting is comparable with the \[9\] claim
    /// (always `false` — that is the point).
    pub comparable_with_hardness_claim: bool,
}

impl RocknRollResult {
    /// Renders the sweep, with the comparability verdict as its note.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "RocknRoll scenario: {}-chain XOR APUF (n={}), correlated -> independent",
                self.params.k, self.params.n
            ),
            &[
                "deviation",
                "chain correlation",
                "Perceptron/Phi [%]",
                "LMN [%]",
            ],
        );
        for r in &self.rows {
            t.row(&[
                format!("{:.2}", r.deviation),
                format!("{:.2}", r.chain_correlation),
                pct(r.perceptron_accuracy),
                pct(r.lmn_accuracy),
            ]);
        }
        t.note(format!(
            "comparable with the distribution-free hardness claim of [9]? {}",
            self.comparable_with_hardness_claim
        ));
        t
    }
}

/// Runs the sweep.
pub fn run_rocknroll<R: Rng + ?Sized>(params: &RocknRollParams, rng: &mut R) -> RocknRollResult {
    let _span = mlam_telemetry::span("experiment.rocknroll");
    let rows = params
        .deviations
        .iter()
        .map(|&deviation| {
            let puf = CorrelatedXorArbiterPuf::sample(params.n, params.k, deviation, 0.0, rng);
            let chain_correlation = puf.chain_correlation(2000, rng);
            let train = LabeledSet::sample_par(&puf, params.train_size, rng);
            let test = LabeledSet::sample_par(&puf, params.test_size, rng);
            let perc = Perceptron::new(60).train_with(ArbiterPhiFeatures::new(params.n), &train);
            let lmn = lmn_learn(&train, LmnConfig::new(params.lmn_degree));
            RocknRollRow {
                deviation,
                chain_correlation,
                perceptron_accuracy: test.accuracy_of_par(&perc.model),
                lmn_accuracy: test.accuracy_of_par(&lmn.hypothesis),
            }
        })
        .collect();

    // The attack setting vs the [9] claim setting.
    let claim = AdversaryModel::distribution_free_claim();
    let attack = AdversaryModel::uniform_example_attack();
    RocknRollResult {
        params: params.clone(),
        rows,
        comparable_with_hardness_claim: claim.comparability(&attack).is_comparable(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correlated_chains_are_learnable_independent_are_not() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_rocknroll(&RocknRollParams::quick(), &mut rng);
        let correlated = &result.rows[0];
        let independent = result.rows.last().expect("rows");
        // Correlated: well above chance (the paper's ≈75 % regime).
        let best_corr = correlated.perceptron_accuracy.max(correlated.lmn_accuracy);
        assert!(
            best_corr > 0.68,
            "correlated device must be learnable: {best_corr}"
        );
        // Independent at k=5: both uniform learners stuck near chance.
        let best_indep = independent
            .perceptron_accuracy
            .max(independent.lmn_accuracy);
        assert!(
            best_indep < best_corr - 0.1,
            "independent {best_indep} vs correlated {best_corr}"
        );
    }

    #[test]
    fn result_is_flagged_incomparable_with_the_hardness_claim() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_rocknroll(&RocknRollParams::quick(), &mut rng);
        assert!(!result.comparable_with_hardness_claim);
        assert_eq!(
            result.to_table().notes(),
            ["comparable with the distribution-free hardness claim of [9]? false"]
        );
    }

    #[test]
    fn correlation_column_tracks_deviation() {
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_rocknroll(&RocknRollParams::quick(), &mut rng);
        assert!(result.rows[0].chain_correlation > result.rows[1].chain_correlation);
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(4);
        let result = run_rocknroll(&RocknRollParams::quick(), &mut rng);
        assert!(result.to_table().to_string().contains("RocknRoll"));
    }
}
